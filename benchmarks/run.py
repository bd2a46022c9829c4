"""Benchmark runner for pathcrystals: one seeded workload per process.

    python3 benchmarks/run.py --workload closure|cactus|folding --seed N \
        --seconds S --trace 0|1

A single-threaded closed loop with one client: each job is sent only after
the previous one has returned and its output has been checked.  With
``--trace 0`` the set-up runs several times (the median is ``setup_s``) and
the jobs then run in rounds for about ``--seconds``; every time is scaled
to a reference host speed (see ``HostSpeed``), a job's time is the median
of its runs, and the end-to-end metrics are computed from those times.
With ``--trace 1`` one untraced pass is followed by one traced set-up and
pass, and the per-layer metrics are reported, with the spans written to
``.bench_out``.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See ``benchmarks/README.md`` for the metric definitions.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# the jobs other than those of pinned cases run in at least this many rounds
MIN_ROUNDS = 2
# the shortest time of reference_kernel on an undisturbed host (2-vCPU
# x86-64 VM, Python 3.11.7): the host speed that reported times refer to
REFERENCE_S = 0.00124


def reference_kernel():
    """A fixed computation of the kind the package does (exact fractions,
    tuple keys, dict updates), about a millisecond long, independent of the
    package.  Its time measures how fast the host runs Python just then."""
    sums = {}
    for i in range(500):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 11, q.denominator)
        sums[key] = sums.get(key, 0) + q
    return sums


class HostSpeed:
    """Scales measured times to the host speed of ``REFERENCE_S``.

    The host is shared: other tenants slow it to less than half its speed,
    for seconds or minutes at a time, and a job's time follows.  The reference
    kernel runs after every measured interval; the interval's time is
    scaled by ``REFERENCE_S`` over the mean of the kernel's time just before
    and just after it.  Scaled times repeat within a few percent whatever
    the load; the raw times are kept and printed too."""

    def __init__(self):
        self.before = None
        self.kernel_times = []

    def _kernel_time(self):
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.kernel_times.append(elapsed)
        return elapsed

    def start(self):
        self.before = self._kernel_time()

    def scale(self, seconds):
        """``seconds`` measured since the last call (or ``start``), scaled."""
        after = self._kernel_time()
        kernel_s = after if self.before is None else (self.before + after) / 2
        self.before = after
        return seconds * REFERENCE_S / kernel_s


def run_pass(state, golden, tracer=None):
    """Run the job list once, in order."""
    records = []
    for k, job in enumerate(state.jobs):
        if tracer is not None:
            tracer.job = k
        records.append(workloads.run_job(state, job, golden))
    return records


def run_rounds(state, golden, seconds, pinned, speed):
    """Run the jobs in rounds for about ``seconds``.  Returns the number of
    rounds and, per job in job-list order, its records and its times scaled
    by ``speed``, a ``HostSpeed``.

    The first round runs every job; later rounds leave out the jobs of the
    ``pinned`` (type, weight) cases.  They are the largest jobs, above
    every percentile reported, and repeating them would take most of the
    time.  There are at least ``MIN_ROUNDS`` rounds, and another starts
    only while it would end within ``seconds``, judged by the last one."""
    repeated = [k for k, job in enumerate(state.jobs) if (job.rtype, job.weight) not in pinned]
    start = time.perf_counter()
    per_job = [[] for _ in state.jobs]
    scaled = [[] for _ in state.jobs]
    speed.start()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for k in repeated if rounds else range(len(state.jobs)):
            record = workloads.run_job(state, state.jobs[k], golden)
            per_job[k].append(record)
            scaled[k].append(speed.scale(record.seconds))
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            return rounds, per_job, scaled


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(jobs_per_pass):
    """The highest whole percentile with at least ten jobs of one pass
    beyond it."""
    return math.floor(100 * (1 - 10 / jobs_per_pass))


def untraced(workload, seed, seconds, golden):
    speed = HostSpeed()
    setup_raw, setup_times = [], []
    for k in range(workload.setup_repeats):
        start = PROCESS_START if k == 0 else time.perf_counter()
        state = workloads.setup(workloads.import_package(), workload, seed)
        setup_raw.append(time.perf_counter() - start)
        setup_times.append(speed.scale(setup_raw[-1]))
    timed_start = time.perf_counter()
    rounds, per_job, scaled = run_rounds(state, golden, seconds, set(workload.pinned), speed)
    timed_s = time.perf_counter() - timed_start
    records = [r for records in per_job for r in records]
    # a job's time is the median of its scaled times
    job_times = [statistics.median(times) for times in scaled]
    # each passing verdict's rate; component-identity jobs cover no vertices
    rates = [
        job.vertices / t
        for job, t, recs in zip(state.jobs, job_times, per_job)
        if job.vertices and not any(r.problems for r in recs)
    ]
    durations = sorted(job_times)
    raw = sorted(statistics.median(r.seconds for r in recs) for recs in per_job)
    pct = tail_percentile(len(state.jobs))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "vertices_per_s": (statistics.median(rates) if rates else 0.0, "vertices/s"),
        "job_s.p50": (statistics.median(durations), "s"),
        "job_s.tail": (nearest_rank(durations, pct), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kernel = statistics.median(speed.kernel_times)
    notes = [
        f"{rounds} rounds, the pinned cases in the first only, {len(records)} runs of "
        f"{len(state.jobs)} jobs in {timed_s:.3f} s",
        f"times are scaled to the reference host speed: the reference kernel took "
        f"{kernel * 1e3:.3f} ms (median of {len(speed.kernel_times)}) against "
        f"{REFERENCE_S * 1e3:.3f} ms, a slowdown of {kernel / REFERENCE_S:.2f}",
        f"raw, unscaled: setup_s {statistics.median(setup_raw):.4f}, "
        f"job_s.p50 {statistics.median(raw):.6f}, job_s.tail {nearest_rank(raw, pct):.6f}",
        f"job_s.tail is p{pct} over the {len(state.jobs)} jobs' median times",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + " ".join(f"{s:.4f}" for s in setup_times),
        f"vertices_per_s is the median rate of {len(rates)} verdicts",
    ]
    return records, metrics, notes


def traced(workload, seed, golden):
    start = time.perf_counter()
    state = workloads.setup(workloads.import_package(), workload, seed)
    records = run_pass(state, golden)
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    start = time.perf_counter()
    pkg = workloads.import_package()
    with tracer.installed(pkg):
        state = workloads.setup(pkg, workload, seed)
        traced_records = run_pass(state, golden, tracer)
    traced_s = time.perf_counter() - start

    bytes_out = sum(r.bytes_out for r in traced_records)
    metrics = tracer.layer_metrics(traced_s, bytes_out, traced_s / untraced_s - 1)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans_path = workloads.OUT_DIR / f"spans-{workload.name}-{seed}.json.gz"
    tracer.write(spans_path, [job.key for job in state.jobs])
    notes = [
        f"{len(tracer.start)} spans written to {spans_path.relative_to(workloads.ROOT)}",
        f"untraced set-up and pass {untraced_s:.3f} s, traced {traced_s:.3f} s",
    ]
    return records + traced_records, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        golden = workloads.load_golden()
        if args.trace:
            records, metrics, notes = traced(workload, args.seed, golden)
        else:
            records, metrics, notes = untraced(workload, args.seed, args.seconds, golden)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in records if r.problems]
    for r in failed[:20]:
        print(f"FAILED {r.job.key}: {'; '.join(r.problems)}")
    print(f"failed_frac {len(failed) / len(records):.6f} ({len(failed)} of {len(records)} jobs)")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:14.6f} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
