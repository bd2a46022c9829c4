"""In-process timing of the path kernel through generate and verify_seminormal,
of the JSON export of the generated graph, and of the cactus verifier.

Run as

    python3 tests/kernel_bench.py [SRC [REPEATS [MEASURE]]]

SRC is the src/ directory of the checkout to time (put first on sys.path;
by default the package is imported as installed or from PYTHONPATH), REPEATS
the number of timed calls per measure (9 by default), and MEASURE "kernel"
(the default), "cactus" or "virtualization".  Each timed measure prints the
median wall time of REPEATS calls in ms after one untimed warm-up call
(median_ms), and its first and third quartiles beside it (quartiles_ms), so
that a reader can tell the spread of the host from a change.

With "kernel", for each of the six models in MODELS it prints, as JSON, the
vertex count and, for generate,
for verify_seminormal and for export_json of the generated graph, the
times, and counts that one more call makes:

- generate and verify_seminormal: the root_f and root_e calls, and the
  PLPath records built, counted by wrapping PLPath.__new__, or
  PLPath.__init__ on a checkout whose record defines no __new__ (so the
  count does not depend on which checks the record makes itself); generate also
  the root_f calls that return None (root_f_undefined), the f-edges that
  no root_f call made, read off a commuting square (edges_from_squares),
  and the path scans,
  the calls of whichever of crystal._scan, crystal._integral_weight,
  crystal.is_integral and crystal.weight_int the module binds (one per
  vertex when each new path is weighed in the scan that checks it);
- export_json: the _BREAKPOINT blocks rendered, counted through a str
  subclass put in place of crystal._BREAKPOINT, and the breakpoints
  exported, one per path time.

It also prints record_ns: the ns that one PLPath record costs to build
from its fields, to hash and to compare with an equal record, each the
median over the generated vertices of a mean over REPEATS runs.

With "cactus", for each of the five models in CACTUS_MODELS it prints the
vertex count, the number of connected subdiagrams, the times of
verify_cactus_relations, and counts that one more call makes: the sweeps
(cactus._levi_sweep), the node-set checks (cartan._node_set) and the
permutations composed (cactus.compose).

With "virtualization", for each of the five folding cases in
VIRTUALIZATION_MODELS it prints the source vertex count, the times of
verify_virtualization, and counts that one more call makes on the target
side: the root_e and root_f calls (and those that return None) and the
path scans on target paths, through whichever of folding and paths binds
each name (the membership walk, the virtual operators and the string
statistics of older checkouts included), and the touched paths: the
distinct target paths handed to any of them.  It also prints held_paths:
the distinct target paths that the explorer (folding._Explorer) still
refers to once the call returns, its memos included, or null on a checkout
without one.

All counts are taken by patching module names, which the functions look up
at call time; the timed calls run unpatched, and the script runs on
checkouts that bind only some of the names.  Times depend on the host; the
counts do not.
"""

import gc
import json
import statistics
import sys
import time
import timeit
import types
from collections import Counter

MODELS = [
    ("D4", (1, 1, 1, 1)),
    ("A4", (1, 1, 1, 1)),
    ("E6", (1, 0, 0, 0, 0, 1)),
    ("G2", (2, 2)),
    ("C3", (1, 1, 1)),
    ("F4", (1, 0, 0, 1)),
]


CACTUS_MODELS = [
    ("A4", (1, 0, 0, 1)),
    ("B3", (1, 1, 0)),
    ("D4", (0, 1, 0, 1)),
    ("C3", (1, 1, 1)),
    ("G2", (2, 2)),
]


VIRTUALIZATION_MODELS = [
    ("C2", (1, 1)),
    ("F4", (0, 0, 0, 1)),
    ("G2", (1, 1)),
    ("B3", (1, 1, 1)),
    ("C3", (1, 1, 1)),
]


def _times_ms(call, repeats: int, digits: int = 2) -> dict:
    """median_ms and quartiles_ms ([q1, q3]) of repeats timed calls, after
    one untimed warm-up call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    q1, _, q3 = statistics.quantiles(times, n=4) if repeats > 1 else times * 3
    return {
        "median_ms": round(1000 * statistics.median(times), digits),
        "quartiles_ms": [round(1000 * q1, digits), round(1000 * q3, digits)],
    }


SCANS = ("_scan", "_integral_weight", "is_integral", "weight_int")


def _counted_calls(module, call, names) -> dict:
    """{name: calls} of each of the names module binds while call() runs,
    and {"<name> None": calls} of those that returned None."""
    counts = {name: 0 for name in names if hasattr(module, name)}
    real = {name: getattr(module, name) for name in counts}
    counts.update({f"{name} None": 0 for name in real})

    def counted(name):
        def op(*args):
            counts[name] += 1
            out = real[name](*args)
            counts[f"{name} None"] += out is None
            return out

        return op

    try:
        for name in counts:
            setattr(module, name, counted(name))
        call()
    finally:
        for name, op in real.items():
            setattr(module, name, op)
    return counts


def _constructions(record, call) -> int:
    """The records of class record that call() builds, counted through the
    class's own __new__ (a tuple record never calls __init__), or through
    its __init__ where it defines no __new__ (the dataclass of older
    checkouts)."""
    name = "__new__" if "__new__" in vars(record) else "__init__"
    saved, real, built = vars(record)[name], getattr(record, name), 0

    def counted(*args, **kwargs):
        nonlocal built
        built += 1
        return real(*args, **kwargs)

    try:
        setattr(record, name, staticmethod(counted) if name == "__new__" else counted)
        call()
    finally:
        setattr(record, name, saved)
    return built


def _operator_calls(crystal, call, scans: bool = False) -> dict:
    from pathcrystals.paths import PLPath

    names, counts = ("root_f", "root_e") + (SCANS if scans else ()), {}
    built = _constructions(PLPath, lambda: counts.update(_counted_calls(crystal, call, names)))
    out = {"root_f": counts["root_f"], "root_e": counts["root_e"], "paths_built": built}
    if scans:
        out["root_f_undefined"] = counts["root_f None"]
        out["path_scans"] = sum(counts[name] for name in SCANS if name in counts)
    return out


def _export_counts(crystal, graph) -> dict:
    rendered = 0

    class Counted(str):
        def __mod__(self, args):
            nonlocal rendered
            rendered += 1
            return str.__mod__(self, args)

    real = crystal._BREAKPOINT
    try:
        crystal._BREAKPOINT = Counted(real)
        crystal.export_json(graph)
    finally:
        crystal._BREAKPOINT = real
    return {"blocks_rendered": rendered, "breakpoints": sum(len(p.times) for p in graph.vertices)}


def _record_ns(record, paths, number: int) -> dict:
    """Median over the paths of the ns that one record costs to build from
    its fields, to hash, and to compare with an equal record whose times and
    directions are fresh tuples; each a mean over number runs per path."""
    names = {"P": record}
    timers = {
        label: timeit.Timer(stmt, globals=names)
        for label, stmt in (("build", "P(r, d, t, v, s)"), ("hash", "hash(p)"), ("eq", "p == q"))
    }
    samples = {label: [] for label in timers}
    for p in paths:
        dirs = tuple(tuple(list(x)) for x in p.dirs)
        fresh = record(p.rtype, p.den, tuple(list(p.times)), p.vden, dirs)
        names.update(p=p, q=fresh, r=p.rtype, d=p.den, t=p.times, v=p.vden, s=p.dirs)
        for label, timer in timers.items():
            samples[label].append(timer.timeit(number) / number)
    return {label: round(1e9 * statistics.median(x), 1) for label, x in samples.items()}


def measure(models=MODELS, repeats: int = 9) -> dict:
    """{model: {"vertices": n, "generate": {...}, "verify_seminormal": {...},
    "export_json": {...}, "record_ns": {...}}}, the first two inner dicts
    holding the times, root_f, root_e and paths_built (and generate
    root_f_undefined, path_scans and edges_from_squares), the third the times, blocks_rendered
    and breakpoints, the last the build, hash and eq ns of one record."""
    from pathcrystals import crystal
    from pathcrystals.cartan import DynkinType
    from pathcrystals.paths import PLPath

    out = {}
    for name, lam in models:
        t = DynkinType.parse(name)
        graph = crystal.generate(t, lam)
        report = {"vertices": len(graph)}
        for label, call in (
            ("generate", lambda: crystal.generate(t, lam)),
            ("verify_seminormal", lambda: crystal.verify_seminormal(graph)),
        ):
            report[label] = {
                **_times_ms(call, repeats),
                **_operator_calls(crystal, call, scans=label == "generate"),
            }
        made = report["generate"]["root_f"] - report["generate"]["root_f_undefined"]
        report["generate"]["edges_from_squares"] = len(graph.f_edges) - made
        report["export_json"] = {
            **_times_ms(lambda: crystal.export_json(graph), repeats),
            **_export_counts(crystal, graph),
        }
        report["record_ns"] = _record_ns(PLPath, graph.vertices, repeats)
        out[f"{name}{lam}"] = report
    return out


def measure_cactus(models=CACTUS_MODELS, repeats: int = 9) -> dict:
    """{model: {"vertices", "subdiagrams", "median_ms", "quartiles_ms",
    "sweeps", "node_set_checks", "composed"}} for verify_cactus_relations."""
    from pathcrystals import cactus, cartan, crystal

    out = {}
    for name, lam in models:
        t = cartan.DynkinType.parse(name)
        graph, counts = crystal.generate(t, lam), {}

        def call():
            cactus.verify_cactus_relations(graph)

        def checked():
            counts.update(_counted_calls(cartan, call, ("_node_set",)))

        times = _times_ms(call, repeats, digits=3)
        counts.update(_counted_calls(cactus, checked, ("_levi_sweep", "compose")))
        out[f"{name}{lam}"] = {
            "vertices": len(graph),
            "subdiagrams": len(cartan.connected_subdiagrams(t)),
            **times,
            "sweeps": counts["_levi_sweep"],
            "node_set_checks": counts["_node_set"],
            "composed": counts["compose"],
        }
    return out


def _target_side(fold, call) -> dict:
    """The target-side counts of call(): root_e and root_f calls and those
    that return None, path scans, and touched paths, over the names that
    folding and paths bind; every original is back on return."""
    from pathcrystals import folding, paths

    names, calls, touched = ("root_e", "root_f", "_scan"), Counter(), set()

    def counted(name, real):
        def op(path, *color):
            out = real(path, *color)
            if path.rtype == fold.y_type:
                calls[name] += 1
                calls[f"{name} None"] += out is None
                touched.add(path)
            return out

        return op

    saved = [(m, n, getattr(m, n)) for m in (folding, paths) for n in names if hasattr(m, n)]
    try:
        for module, name, real in saved:
            setattr(module, name, counted(name, real))
        call()
    finally:
        for module, name, real in saved:
            setattr(module, name, real)
    return {
        "root_e": calls["root_e"],
        "root_e_undefined": calls["root_e None"],
        "root_f": calls["root_f"],
        "root_f_undefined": calls["root_f None"],
        "target_scans": calls["_scan"],
        "touched_paths": len(touched),
    }


OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def held_paths(root) -> int:
    """The number of distinct paths reachable from root through gc
    referents (attributes, containers, a functools memo's table), looking
    inside no path, function, class or module."""
    from pathcrystals.paths import PLPath

    held, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, PLPath):
            held.add(obj)
        elif id(obj) not in seen and not isinstance(obj, OPAQUE):
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
    return len(held)


def _held_after(call):
    """held_paths of the one explorer that call() builds, or None on a
    checkout without folding._Explorer; the explorer's __init__ is back on
    return."""
    from pathcrystals import folding

    owner = getattr(folding, "_Explorer", None)
    if owner is None:
        return None
    built, init = [], owner.__init__

    def recording(explorer, *args):
        init(explorer, *args)
        built.append(explorer)

    owner.__init__ = recording
    try:
        call()
    finally:
        owner.__init__ = init
    (explorer,) = built
    return held_paths(explorer)


def measure_virtualization(models=VIRTUALIZATION_MODELS, repeats: int = 9) -> dict:
    """{model: {"vertices", "median_ms", "quartiles_ms", "root_e",
    "root_e_undefined", "root_f", "root_f_undefined", "target_scans",
    "touched_paths", "held_paths"}} for verify_virtualization, vertices
    counting the source model."""
    from pathcrystals import folding
    from pathcrystals.cartan import weyl_dim

    out = {}
    for name, lam in models:
        fold = folding.folding_pair(name)

        def call():
            assert folding.verify_virtualization(fold, lam) == []

        out[f"{name}{lam}"] = {
            "vertices": weyl_dim(fold.x_type, lam),
            **_times_ms(call, repeats),
            **_target_side(fold, call),
            "held_paths": _held_after(call),
        }
    return out


MEASURES = {"kernel": measure, "cactus": measure_cactus, "virtualization": measure_virtualization}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.path.insert(0, sys.argv[1])
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 9
    run = MEASURES[sys.argv[3] if len(sys.argv) > 3 else "kernel"]
    print(json.dumps(run(repeats=repeats), indent=1))
