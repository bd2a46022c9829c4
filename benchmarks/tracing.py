"""Per-layer tracing of pathcrystals from outside the package.

Timing wrappers go around the public functions of the layer modules
(``cartan``, ``paths``, ``crystal``, ``cactus``, ``folding``), in every
``pathcrystals`` namespace that bound them, around ``cli.main``, and around
the ``LeviView`` methods on the class.  Each call becomes a span (name,
start, end, parent span, job) kept in memory; self time is a span's length
minus that of its child spans.  ``installed`` restores every original on
exit.

Summarise a written span file with
``python3 benchmarks/tracing.py .bench_out/spans-cactus-1.json.gz [JOB]``,
where JOB selects the jobs whose key contains it, e.g. ``"cactus G2 2,2"``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cartan", "paths", "crystal", "cactus", "folding")
LEVI_METHODS = ("highest_of", "lowest_of", "f_word", "component_of")
LEVI_SPANS = ("crystal.levi",) + tuple(f"crystal.{m}" for m in LEVI_METHODS)
SETUP_JOB = -1


def _on_generate(tracer, parent, args, graph):
    tracer.counts["crystal.vertices"] += len(graph)
    tracer.counts["crystal.edges"] += len(graph.f_edges)


def _on_root_op(tracer, parent, args, path):
    if path is not None and parent >= 0 and tracer.name[parent] == tracer.name_id("crystal.generate"):
        tracer.counts["crystal.generate.op_results"] += 1


def _on_export(tracer, parent, args, text):
    tracer.counts["crystal.export.bytes"] += len(text.encode())


def _on_xi_perm(tracer, parent, args, perm):
    tracer.counts["cactus.xi_perm.vertices"] += len(perm)
    if parent >= 0 and tracer.name[parent] == tracer.name_id("cactus.act"):
        tracer.counts["cactus.act.misses"] += 1


def _on_act(tracer, parent, args, perm):
    tracer.counts["cactus.act.letters"] += len(args[1])


HOOKS = {
    "crystal.generate": _on_generate,
    "paths.root_f": _on_root_op,
    "paths.root_e": _on_root_op,
    "crystal.export_json": _on_export,
    "crystal.export_dot": _on_export,
    "cactus.xi_perm": _on_xi_perm,
    "cactus.act": _on_act,
}


class Tracer:
    """Spans in column arrays, plus counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.job = SETUP_JOB
        self._stack = [-1]
        self._saved = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        stack, perf = self._stack, time.perf_counter
        names, parents, jobs, starts, ends = self.name, self.parent, self.job_of, self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(self, parent, args, result)
            return result

        wrapper.bench_span = name
        return wrapper

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap the traced callables of an imported package; restore them on
        exit, also when the body raises."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pathcrystals"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"pathcrystals.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        main = sys.modules["pathcrystals.cli"].main
        wrappers[id(main)] = (main, self._wrap("cli.main", main))
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    original, wrapper = wrappers.get(id(obj), (None, None))
                    if original is obj:
                        self._saved.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
            for method in LEVI_METHODS:
                original = vars(pkg.LeviView)[method]
                self._saved.append((pkg.LeviView, method, original))
                setattr(pkg.LeviView, method, self._wrap(f"crystal.{method}", original))
            yield self
        finally:
            for target, attr, original in reversed(self._saved):
                setattr(target, attr, original)
            self._saved.clear()

    def aggregate(self):
        return aggregate(self.names, self.name, self.parent, self.start, self.end)

    def layer_metrics(self, wall_s: float, bytes_out: int, overhead_frac: float) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        calls, incl, self_s = self.aggregate()
        counts = self.counts

        def total(table, *names):
            return sum(table[n] for n in names)

        def prefixed(table, prefix):
            return sum(v for n, v in table.items() if n.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        def per_call_us(name):
            return ratio(self_s[name], calls[name]) * 1e6

        vertices = counts["crystal.vertices"]
        letters = counts["cactus.act.letters"]
        virtual_ops = ("folding.virtual_f", "folding.virtual_e")
        verifiers = [n for n in self_s if n.startswith("folding.verify_")]
        m = {
            "cartan.calls": (prefixed(calls, "cartan."), "count"),
            "cartan.self_s": (prefixed(self_s, "cartan."), "s"),
        }
        for op in ("root_f", "root_e", "canonicalize", "is_integral"):
            m[f"paths.{op}.calls"] = (calls[f"paths.{op}"], "count")
        for op in ("root_f", "root_e", "canonicalize"):
            m[f"paths.{op}.self_us"] = (per_call_us(f"paths.{op}"), "us")
        m["paths.self_s"] = (prefixed(self_s, "paths."), "s")
        m["paths.share"] = (ratio(prefixed(self_s, "paths."), wall_s), "ratio")
        m["crystal.vertices"] = (vertices, "count")
        m["crystal.edges"] = (counts["crystal.edges"], "count")
        m["crystal.generate.self_us_per_vertex"] = (
            ratio(self_s["crystal.generate"], vertices) * 1e6, "us/vertex")
        m["crystal.generate.us_per_vertex"] = (
            ratio(incl["crystal.generate"], vertices) * 1e6, "us/vertex")
        m["crystal.useful_op_ratio"] = (
            ratio(vertices, counts["crystal.generate.op_results"]), "ratio")
        m["crystal.levi.calls"] = (calls["crystal.levi"], "count")
        for method in ("f_word", "highest_of", "lowest_of"):
            m[f"crystal.{method}.calls"] = (calls[f"crystal.{method}"], "count")
        m["crystal.levi.self_s"] = (total(self_s, *LEVI_SPANS), "s")
        m["crystal.seminormal.self_s"] = (self_s["crystal.verify_seminormal"], "s")
        m["crystal.export.self_s"] = (
            total(self_s, "crystal.export_json", "crystal.export_dot"), "s")
        m["crystal.export.bytes"] = (counts["crystal.export.bytes"], "bytes")
        m["cactus.xi_perm.calls"] = (calls["cactus.xi_perm"], "count")
        m["cactus.xi_perm.us_per_vertex"] = (
            ratio(incl["cactus.xi_perm"], counts["cactus.xi_perm.vertices"]) * 1e6, "us/vertex")
        m["cactus.xi_perm.self_s"] = (self_s["cactus.xi_perm"], "s")
        m["cactus.compose.calls"] = (calls["cactus.compose"], "count")
        m["cactus.act.calls"] = (calls["cactus.act"], "count")
        m["cactus.act.cache_hit_ratio"] = (
            ratio(letters - counts["cactus.act.misses"], letters), "ratio")
        m["cactus.relations.self_s"] = (self_s["cactus.verify_cactus_relations"], "s")
        m["folding.folding_pair.self_s"] = (self_s["folding.folding_pair"], "s")
        m["folding.virtualize_path.calls"] = (calls["folding.virtualize_path"], "count")
        m["folding.virtualize_path.self_us"] = (per_call_us("folding.virtualize_path"), "us")
        m["folding.virtual_op.calls"] = (total(calls, *virtual_ops), "count")
        m["folding.virtual_op.self_s"] = (total(self_s, *virtual_ops), "s")
        m["folding.devirtualize.calls"] = (calls["folding.devirtualize"], "count")
        m["paths.paths_equal.calls"] = (calls["paths.paths_equal"], "count")
        m["folding.verify.self_s"] = (total(self_s, *verifiers), "s")
        m["cli.main.calls"] = (calls["cli.main"], "count")
        m["cli.main.self_s"] = (self_s["cli.main"], "s")
        m["cli.bytes_out"] = (bytes_out, "bytes")
        m["trace.overhead_frac"] = (overhead_frac, "ratio")
        return m

    def write(self, path, job_keys):
        """Write every span, with times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        data = {
            "names": self.names,
            "jobs": job_keys,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job_of.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        with gzip.open(path, "wt") as handle:
            json.dump(data, handle, separators=(",", ":"))


def aggregate(names, name, parent, start, end, keep=None):
    """Calls, inclusive time and self time per span name, as Counters.
    ``keep`` optionally selects span indices."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    calls, incl, self_s = Counter(), Counter(), Counter()
    for i, nid in enumerate(name):
        if keep is not None and not keep(i):
            continue
        label = names[nid]
        dur = end[i] - start[i]
        calls[label] += 1
        incl[label] += dur
        self_s[label] += dur - child[i]
    return calls, incl, self_s


def main(argv):
    if not 1 <= len(argv) <= 2:
        raise SystemExit("usage: python3 benchmarks/tracing.py SPANS.json.gz [JOB]")
    with gzip.open(argv[0], "rt") as handle:
        data = json.load(handle)
    keep = None
    if len(argv) == 2:
        chosen = {k for k, key in enumerate(data["jobs"]) if argv[1] in key}
        keep = lambda i: data["job"][i] in chosen  # noqa: E731
    calls, incl, self_s = aggregate(
        data["names"], data["name"], data["parent"], data["start_ns"], data["end_ns"], keep
    )
    wall = sum(self_s.values())
    print(f"{'span':36} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self%':>6}")
    for label, s in self_s.most_common():
        print(f"{label:36} {calls[label]:9d} {incl[label] / 1e9:9.3f} {s / 1e9:9.3f} "
              f"{100 * s / wall if wall else 0:6.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
