"""Self-tests of the benchmark: checks, tracing and wrapper cleanup.

Run with ``python3 -m pytest -q benchmarks/tests``.  Each test runs the
smallest job of every kind that a seed draws, so the suite takes seconds.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every job list to its smallest job of each kind."""
    make_jobs = workloads.make_jobs

    def smallest_of_each_kind(*args):
        chosen = {}
        for job in sorted(make_jobs(*args), key=lambda j: (j.vertices, j.key)):
            chosen.setdefault(job.kind, job)
        return list(chosen.values())

    monkeypatch.setattr(workloads, "make_jobs", smallest_of_each_kind)


def tiny_state(name, seed):
    return workloads.setup(workloads.import_package(), workloads.WORKLOADS[name], seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_seed_run_has_no_failures(tiny, name):
    state = tiny_state(name, 5)
    records = run.run_pass(state, workloads.load_golden())
    assert len(records) == len(state.jobs) > 0
    assert [r.problems for r in records] == [[] for _ in records]


def test_default_seed_lists_every_pinned_case():
    pkg = workloads.import_package()
    for workload in workloads.WORKLOADS.values():
        folds = {x: pkg.folding_pair(x) for x in workloads.FOLD_TYPES}
        jobs = workloads.make_jobs(pkg, workload, workloads.DEFAULT_SEED, folds)
        cases = {(job.rtype, job.weight) for job in jobs}
        assert set(workload.pinned) <= cases


def test_every_seed_gets_the_same_job_sizes_and_golden_digests():
    pkg = workloads.import_package()
    folds = {x: pkg.folding_pair(x) for x in workloads.FOLD_TYPES}
    golden = workloads.load_golden()
    for workload in workloads.WORKLOADS.values():
        possible = {job.key for job in workloads.possible_jobs(pkg, workload, folds)}
        assert possible <= set(golden)
        sizes = set()
        for seed in range(1, 6):
            jobs = workloads.make_jobs(pkg, workload, seed, folds)
            assert {job.key for job in jobs} <= possible
            sizes.add(tuple(sorted((job.kind, job.vertices) for job in jobs)))
        assert len(sizes) == 1


def test_symmetric_images_have_the_same_size():
    pkg = workloads.import_package()
    for rtype, weight in [("A4", (1, 2, 0, 3)), ("D4", (1, 0, 2, 3)), ("B2", (1, 2))]:
        images = workloads.symmetric_images(rtype, weight)
        assert len(images) > 1
        sizes = {pkg.weyl_dim(pkg.DynkinType.parse(t), w) for t, w in images}
        assert len(sizes) == 1


def test_rounds_repeat_all_but_the_pinned_jobs(tiny):
    state = tiny_state("folding", 5)
    pinned = {(job.rtype, job.weight) for job in state.jobs[:3]}
    speed = run.HostSpeed()
    rounds, per_job, scaled = run.run_rounds(state, workloads.load_golden(), 0, pinned, speed)
    assert rounds == run.MIN_ROUNDS
    for job, records, times in zip(state.jobs, per_job, scaled):
        count = 1 if (job.rtype, job.weight) in pinned else rounds
        assert [r.job for r in records] == [job] * count
        assert len(times) == count
    assert len(speed.kernel_times) == sum(len(times) for times in scaled) + 1


def test_host_speed_scales_by_the_kernel_time_around_an_interval(monkeypatch):
    kernel_times = iter([0.002, 0.004, 0.001])
    speed = run.HostSpeed()
    monkeypatch.setattr(speed, "_kernel_time", lambda: next(kernel_times))
    speed.start()
    assert speed.scale(0.3) == pytest.approx(0.3 * run.REFERENCE_S / 0.003)
    assert speed.scale(0.3) == pytest.approx(0.3 * run.REFERENCE_S / 0.0025)


def test_same_seed_gives_same_jobs():
    pkg = workloads.import_package()
    workload = workloads.WORKLOADS["closure"]
    first = workloads.make_jobs(pkg, workload, 9, {})
    assert workloads.make_jobs(pkg, workload, 9, {}) == first
    assert workloads.make_jobs(pkg, workload, 10, {}) != first


def _corrupt_report(cli, monkeypatch):
    monkeypatch.setattr(cli, "verify_seminormal", lambda graph: [{"axiom": "corrupted"}])


def _corrupt_export(cli, monkeypatch):
    for name in ("export_json", "export_dot"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda graph, f=original: f(graph) + " ")


@pytest.mark.parametrize("corrupt", [_corrupt_report, _corrupt_export])
def test_corrupted_output_is_one_failure(tiny, monkeypatch, corrupt):
    # the default seed's outputs have golden digests, so a changed byte shows
    state = tiny_state("closure", workloads.DEFAULT_SEED)
    corrupt(state.cli, monkeypatch)
    records = run.run_pass(state, workloads.load_golden())
    assert len(records) == 2
    assert sum(1 for r in records if r.problems) == 1


def test_a_crashing_job_is_a_failure_not_an_abort(tiny, monkeypatch):
    state = tiny_state("cactus", 5)

    def crash(graph):
        raise RuntimeError("boom")

    monkeypatch.setattr(state.pkg, "verify_cactus_relations", crash)
    records = run.run_pass(state, workloads.load_golden())
    assert [r.problems for r in records] == [["RuntimeError: boom"]]


def _counts(metrics):
    return {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes")}


def _installed_wrappers():
    found = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pathcrystals":
            found += [f"{name}.{a}" for a, v in vars(mod).items() if hasattr(v, "bench_span")]
    levi = sys.modules["pathcrystals"].LeviView
    found += [f"LeviView.{a}" for a, v in vars(levi).items() if hasattr(v, "bench_span")]
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_wrappers(tiny, name):
    golden = workloads.load_golden()
    first, metrics, _ = run.traced(workloads.WORKLOADS[name], 5, golden)
    half = len(first) // 2
    untraced, traced = first[:half], first[half:]
    assert [(r.job, r.digest) for r in untraced] == [(r.job, r.digest) for r in traced]
    assert all(r.digest for r in first) and not any(r.problems for r in first)
    assert _installed_wrappers() == []

    again, metrics_again, _ = run.traced(workloads.WORKLOADS[name], 5, golden)
    assert [r.digest for r in again] == [r.digest for r in first]
    assert _counts(metrics_again) == _counts(metrics)
    assert _installed_wrappers() == []


def test_wrappers_are_restored_when_the_body_raises():
    pkg = workloads.import_package()
    original = pkg.generate
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(pkg):
            assert hasattr(pkg.generate, "bench_span")
            raise RuntimeError
    assert pkg.generate is original
    assert _installed_wrappers() == []


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer._wrap("paths.inner", lambda: None)
    outer = tracer._wrap("paths.outer", lambda: inner() or inner())
    outer()
    calls, incl, self_s = tracer.aggregate()
    assert calls == {"paths.outer": 1, "paths.inner": 2}
    assert self_s["paths.outer"] == pytest.approx(incl["paths.outer"] - incl["paths.inner"])
    assert list(tracer.parent) == [-1, 0, 0]
