"""In-process timing of the path kernel through generate and verify_seminormal.

Run as

    python3 tests/kernel_bench.py [SRC [REPEATS]]

SRC is the src/ directory of the checkout to time (put first on sys.path;
by default the package is imported as installed or from PYTHONPATH), and
REPEATS the number of timed calls per measure (9 by default).  For each of
the six models below it prints, as JSON, the vertex count and, for generate
and for verify_seminormal of the generated graph, the median wall time of
REPEATS calls in ms after one untimed warm-up call, and the number of
root_f and root_e calls one more call makes.  The calls are counted by
patching the names crystal.root_f and crystal.root_e, which both functions
look up at call time; the timed calls run unpatched.  Times depend on the
host; the counts do not.
"""

import json
import statistics
import sys
import time

MODELS = [
    ("D4", (1, 1, 1, 1)),
    ("A4", (1, 1, 1, 1)),
    ("E6", (1, 0, 0, 0, 0, 1)),
    ("G2", (2, 2)),
    ("C3", (1, 1, 1)),
    ("F4", (1, 0, 0, 1)),
]


def _median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1000 * statistics.median(times), 2)


def _operator_calls(crystal, call) -> dict:
    counts = {"root_f": 0, "root_e": 0}
    real = {name: getattr(crystal, name) for name in counts}

    def counted(name):
        def op(path, i):
            counts[name] += 1
            return real[name](path, i)

        return op

    try:
        for name in counts:
            setattr(crystal, name, counted(name))
        call()
    finally:
        for name, op in real.items():
            setattr(crystal, name, op)
    return counts


def measure(models=MODELS, repeats: int = 9) -> dict:
    """{model: {"vertices": n, "generate": {...}, "verify_seminormal": {...}}},
    each inner dict holding median_ms, root_f and root_e."""
    from pathcrystals import crystal
    from pathcrystals.cartan import DynkinType

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
                "median_ms": _median_ms(call, repeats),
                **_operator_calls(crystal, call),
            }
        out[f"{name}{lam}"] = report
    return out


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.path.insert(0, sys.argv[1])
    print(json.dumps(measure(repeats=int(sys.argv[2]) if len(sys.argv) > 2 else 9), indent=1))
