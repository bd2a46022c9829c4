"""Seeded workloads of the pathcrystals benchmark.

A workload turns a seed into a job list, prepares what the jobs need, runs
each job through the public API of ``pathcrystals`` and checks its output.
The candidate pool of a workload is the (type, dominant weight) pairs whose
verdict size lies in a band, grouped into classes under the Dynkin diagram
symmetries (reversal of A_n, triality of D4, and B2 = C2 with the nodes
swapped).  A fixed, evenly spaced choice of classes enters every job list,
and the seed draws which weight of each class is used, the export formats
and the job order.  Weights of one class give crystals of the same size and
shape, so every seed gets the same job costs.  The reference cases of the
ROADMAP are always added.  The package sees only the generated inputs.

Regenerate the committed golden digests (after a deliberate output change)
with ``python3 benchmarks/workloads.py golden``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 1

FOLD_TYPES = ("C2", "C3", "B2", "B3", "G2", "F4")
FOLD_VERIFIERS = ("virtualization", "virtual-relations", "diagram")
MAX_ENTRY = 3  # largest fundamental-weight coordinate in the candidate pools
RANK_2_TO_4 = ("A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")


@dataclass(frozen=True)
class Workload:
    name: str
    # candidate types and the inclusive band on the verdict size (Weyl
    # dimension; for folding, that of the target model)
    types: tuple
    band: tuple
    classes: int | None  # how many symmetry classes of the pool; None: all
    pinned: tuple
    setup_repeats: int


# Bands come from measured costs on a 2-core x86-64 container, Python 3.11:
# generate takes 0.4-1.3 ms per vertex, verify_cactus_relations 0.01-0.5 s at
# 40-380 vertices and 0.7-2.0 s at 512-840, and the folding verifiers about
# 1 ms per target vertex at 100-400 target vertices and 1.9-2.2 s at 650.
# Folding bands use the target size: G2(1,1) has 64 source vertices but a
# 114,688-vertex target, and no G2 or F4 weight has a target under 350
# vertices, so only the pinned F4 case and component-identity cover them.
# The pinned cases take 14 s of closure's jobs and 3 s of cactus's and
# folding's, and run once in a run; the drawn classes are small, so that
# they repeat several times within a run.  Why each
# workload exists is in BENCHMARK.json and benchmarks/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="closure",
            types=RANK_2_TO_4,
            band=(60, 120),
            classes=16,
            pinned=(("C3", (1, 1, 1)), ("G2", (2, 2)), ("D4", (1, 1, 1, 0)), ("D4", (1, 1, 1, 1))),
            setup_repeats=5,
        ),
        Workload(
            name="cactus",
            types=RANK_2_TO_4,
            band=(40, 120),
            classes=37,
            pinned=(("G2", (2, 2)), ("C3", (1, 1, 1)), ("D4", (1, 1, 1, 0))),
            setup_repeats=3,
        ),
        Workload(
            name="folding",
            types=FOLD_TYPES,
            band=(15, 200),
            classes=None,
            pinned=(("F4", (0, 0, 0, 1)),),
            setup_repeats=5,
        ),
    )
}


@dataclass(frozen=True)
class Job:
    kind: str
    rtype: str
    weight: tuple | None
    vertices: int
    fmt: str | None = None

    @property
    def key(self) -> str:
        parts = [self.kind, self.rtype]
        if self.weight is not None:
            parts.append(weight_text(self.weight))
        if self.fmt is not None:
            parts.append(self.fmt)
        return " ".join(parts)


@dataclass
class Record:
    job: Job
    seconds: float
    problems: list
    bytes_out: int
    digest: str | None


@dataclass
class State:
    """Everything a workload's jobs need, built during set-up."""

    pkg: object
    cli: object
    jobs: list
    folds: dict
    graphs: dict


def weight_text(weight) -> str:
    return ",".join(str(x) for x in weight)


def import_package():
    """Import ``pathcrystals`` from the checkout's ``src`` afresh, so that
    every set-up pays for the import and starts with empty Cartan caches."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pathcrystals"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("pathcrystals")
    importlib.import_module("pathcrystals.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pathcrystals imported from {pkg.__file__}, not from {SRC}")
    return pkg


def symmetric_images(rtype: str, weight: tuple) -> list:
    """The (type, weight) pairs that a Dynkin diagram symmetry maps
    (rtype, weight) to, itself included, sorted."""
    images = {(rtype, weight)}
    if rtype[0] == "A":
        images.add((rtype, weight[::-1]))
    if rtype == "D4":  # node 2 is the centre; triality permutes 1, 3 and 4
        for a, b, c in itertools.permutations((weight[0], weight[2], weight[3])):
            images.add((rtype, (a, weight[1], b, c)))
    if rtype in ("B2", "C2"):
        images.add(("C2" if rtype == "B2" else "B2", weight[::-1]))
    return sorted(images)


def candidate_classes(pkg, workload: Workload, folds: dict) -> list:
    """The workload's symmetry classes, each a sorted list of (type,
    weight), in order of size; a fixed, evenly spaced choice of
    ``workload.classes`` of them when that is set.  Independent of the
    seed."""
    parse = pkg.DynkinType.parse

    def size(rtype, weight):
        if workload.name == "folding":
            fold = folds[rtype]
            return pkg.weyl_dim(fold.y_type, pkg.psi_weight(fold, weight))
        return pkg.weyl_dim(parse(rtype), weight)

    pinned = set(workload.pinned)
    found = {}
    lo, hi = workload.band
    for rtype in workload.types:
        for weight in itertools.product(range(MAX_ENTRY + 1), repeat=parse(rtype).rank):
            if any(weight) and (rtype, weight) not in pinned:
                n = size(rtype, weight)
                if lo <= n <= hi:
                    found.setdefault(tuple(symmetric_images(rtype, weight)), n)
    classes = [list(c) for c, n in sorted(found.items(), key=lambda item: (item[1], item[0]))]
    count = workload.classes
    if count is None:
        return classes
    if len(classes) < count:
        raise ValueError(f"{len(classes)} classes in the band, fewer than {count}")
    return [classes[(2 * k + 1) * len(classes) // (2 * count)] for k in range(count)]


def make_jobs(pkg, workload: Workload, seed: int, folds: dict) -> list:
    rng = random.Random(f"{workload.name}/{seed}")
    classes = candidate_classes(pkg, workload, folds)
    drawn = [rng.choice(images) for images in classes]
    # half the drawn weights export JSON and half DOT: one of each pair of
    # neighbouring classes, so the seed hardly changes the export cost
    formats = []
    for _ in range(0, len(drawn), 2):
        formats += rng.sample(("json", "dot"), 2)
    # pinned cases always export JSON: the D4(1,1,1,1) export sets the peak
    # RSS, so every seed must run it
    cases = [(case, "json") for case in workload.pinned] + list(zip(drawn, formats))
    jobs = jobs_for(pkg, workload, cases, folds)
    rng.shuffle(jobs)
    return jobs


def possible_jobs(pkg, workload: Workload, folds: dict) -> list:
    """Every job that some seed puts in the workload's job list, exports in
    both formats."""
    cases = [(case, "json") for case in workload.pinned]
    for images in candidate_classes(pkg, workload, folds):
        cases += [(case, fmt) for case in images for fmt in ("json", "dot")]
    return list({job.key: job for job in jobs_for(pkg, workload, cases, folds)}.values())


def jobs_for(pkg, workload: Workload, cases: list, folds: dict) -> list:
    """The workload's jobs on ((type, weight), export format) cases."""
    parse = pkg.DynkinType.parse
    jobs = []
    for (rtype, weight), fmt in cases:
        n = pkg.weyl_dim(parse(rtype), weight)
        if workload.name == "closure":
            jobs.append(Job("crystal", rtype, weight, n, fmt))
            jobs.append(Job("seminormal", rtype, weight, n))
        elif workload.name == "cactus":
            jobs.append(Job("cactus", rtype, weight, n))
        else:
            fold = folds[rtype]
            both = n + pkg.weyl_dim(fold.y_type, pkg.psi_weight(fold, weight))
            jobs.extend(Job(kind, rtype, weight, both) for kind in FOLD_VERIFIERS)
    if workload.name == "folding":
        jobs.extend(Job("component-identity", x, None, 0) for x in FOLD_TYPES)
    return jobs


def setup(pkg, workload: Workload, seed: int) -> State:
    """Job generation and the work that must precede the first job:
    ``folding_pair`` for folding, generation of every crystal for cactus."""
    folds = {}
    if workload.name == "folding":
        folds = {x: pkg.folding_pair(x) for x in FOLD_TYPES}
    return prepare(pkg, workload, make_jobs(pkg, workload, seed, folds), folds)


def prepare(pkg, workload: Workload, jobs: list, folds: dict) -> State:
    graphs = {}
    if workload.name == "cactus":
        for job in jobs:
            t = pkg.DynkinType.parse(job.rtype)
            graphs[job.key] = pkg.generate(t, job.weight)
    return State(pkg, sys.modules["pathcrystals.cli"], jobs, folds, graphs)


def _cli(state, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = state.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _execute(state, job):
    """Run one job; returns (seconds, exit code, output text, bytes written,
    stderr).  Only the call into the package is timed."""
    pkg = state.pkg
    w = weight_text(job.weight) if job.weight is not None else None
    if job.kind == "crystal":
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"export.{job.fmt}"
        argv = ["crystal", job.rtype, w, "--export", job.fmt, "--out", str(path)]
        t0 = time.perf_counter()
        code, out, err = _cli(state, argv)
        seconds = time.perf_counter() - t0
        text = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
        return seconds, code, text, len(out) + len(text), err
    if job.kind == "seminormal":
        argv = ["verify", "seminormal", job.rtype, w, "--json"]
        t0 = time.perf_counter()
        code, out, err = _cli(state, argv)
        seconds = time.perf_counter() - t0
        # elapsed_s changes length from run to run; count the report without it
        counted = re.sub(r'"elapsed_s": [^,}\n]*', '"elapsed_s": ', out)
        return seconds, code, out, len(counted), err
    if job.kind == "cactus":
        graph = state.graphs[job.key]
        t0 = time.perf_counter()
        violations = pkg.verify_cactus_relations(graph)
        seconds = time.perf_counter() - t0
    else:
        fold = state.folds[job.rtype]
        verify = {
            "virtualization": pkg.verify_virtualization,
            "virtual-relations": pkg.verify_virtual_relations,
            "diagram": pkg.verify_commutative_diagram,
            "component-identity": pkg.verify_component_identity,
        }[job.kind]
        args = (fold,) if job.weight is None else (fold, job.weight)
        t0 = time.perf_counter()
        violations = verify(*args)
        seconds = time.perf_counter() - t0
    return seconds, 0, json.dumps(violations), 0, ""


def canonical_output(job, text) -> str:
    """The text whose digest is compared: exports as written, verify
    reports without their run-dependent ``elapsed_s``."""
    if job.kind == "seminormal":
        report = json.loads(text)
        report.pop("elapsed_s", None)
        return json.dumps(report, sort_keys=True)
    return text


def check(state, job, code, text) -> list:
    """Problems with one job's output; an empty list means it is correct.
    Only CLI jobs have a nonzero exit code; verifier calls return 0."""
    if code != 0:
        return [f"exit code {code}"]
    pkg = state.pkg
    problems = []
    if job.kind == "crystal" and job.fmt == "json":
        data = json.loads(text)
        t = pkg.DynkinType.parse(job.rtype)
        if data["type"] != job.rtype or tuple(data["highest_weight"]) != job.weight:
            problems.append("export header does not match the job")
        if len(data["vertices"]) != job.vertices:
            problems.append(f"{len(data['vertices'])} vertices, Weyl dimension {job.vertices}")
        for vertex in data["vertices"]:
            if pkg.path_to_json(pkg.path_from_json(t, vertex["path"])) != vertex["path"]:
                problems.append(f"vertex {vertex['id']} does not round-trip")
                break
    elif job.kind == "crystal":
        nodes = len(re.findall(r"^  n\d+ \[label=", text, re.MULTILINE))
        if not text.startswith("digraph crystal {") or nodes != job.vertices:
            problems.append(f"DOT export with {nodes} vertices, Weyl dimension {job.vertices}")
    elif job.kind == "seminormal":
        report = json.loads(text)
        if report.get("status") != "pass" or report.get("violations"):
            problems.append(f"seminormal report {report.get('status')}")
    else:
        violations = json.loads(text)
        if violations:
            problems.append(f"{len(violations)} violations, first {violations[0]}")
        graph = state.graphs.get(job.key)
        if graph is not None and len(graph) != job.vertices:
            problems.append(f"{len(graph)} vertices, Weyl dimension {job.vertices}")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(state, job, golden) -> Record:
    """Run and check one job.  Any error counts as a failed job and never
    aborts the run."""
    try:
        seconds, code, text, bytes_out, err = _execute(state, job)
    except Exception as exc:  # a job that crashes is a failed job
        return Record(job, 0.0, [f"{type(exc).__name__}: {exc}"], 0, None)
    out_digest = None
    try:
        problems = check(state, job, code, text)
        out_digest = digest(canonical_output(job, text))
    except Exception as exc:  # unreadable output is a failed job
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    if out_digest is not None and job.key not in golden:
        problems.append("no golden digest for the job")
    elif out_digest is not None and golden[job.key] != out_digest:
        problems.append("output digest differs from the golden digest")
    if err and problems:
        problems.append(f"stderr: {err.strip()}")
    return Record(job, seconds, problems, bytes_out, out_digest)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def write_golden():
    """Digests of the output of every job that some seed runs, exports in
    both formats."""
    digests = {}
    for workload in WORKLOADS.values():
        pkg = import_package()
        folds = {x: pkg.folding_pair(x) for x in FOLD_TYPES}
        state = prepare(pkg, workload, possible_jobs(pkg, workload, folds), folds)
        for job in state.jobs:
            _, code, text, _, _ = _execute(state, job)
            if code != 0:
                raise SystemExit(f"{job.key}: exit code {code}")
            digests[job.key] = digest(canonical_output(job, text))
    GOLDEN_PATH.write_text(json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["golden"]:
        raise SystemExit("usage: python3 benchmarks/workloads.py golden")
    write_golden()
