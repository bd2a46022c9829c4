"""Closure under lowering and raising operators, and Levi components by
undirected search, kept as test oracles for generate and LeviView, crystal
graphs built from {(v, i): w} edge maps and read back into them, and the
vertex id of a path looked up in a {path: id} map of a graph's vertices.

The closure applies root_f and then root_e at every vertex, colors
ascending, and records both edge maps from both operators.  The components
are found by undirected search over the colored edges; the highest (lowest)
vertex of a component is the one vertex with no raising (lowering) edge,
found by scanning the whole component.
"""

from collections import deque

from pathcrystals.crystal import CrystalGraph
from pathcrystals.errors import ModelIntegrityError
from pathcrystals.paths import is_integral, root_e, root_f, straight_path


def graph_from_edges(t, lam, vertices, f_edges, e_edges) -> CrystalGraph:
    """A graph from {(v, i): w} maps of its lowering and raising edges."""
    f_to = {i: [None] * len(vertices) for i in t.nodes}
    e_to = {i: [None] * len(vertices) for i in t.nodes}
    for edges, lists in ((f_edges, f_to), (e_edges, e_to)):
        for (v, i), w in edges.items():
            lists[i][v] = w
    return CrystalGraph(t, lam, vertices, f_to, e_to)


def edge_map(lists) -> dict:
    """The {(v, i): w} map of per-color edge lists, sorted by (v, i)."""
    edges = {
        (v, i): w for i, targets in lists.items() for v, w in enumerate(targets) if w is not None
    }
    return dict(sorted(edges.items()))


def vertex_ids(graph):
    """The {path: id}.get of the graph's vertices: the id of a canonical path,
    or None for a path that is not a vertex."""
    return {p: k for k, p in enumerate(graph.vertices)}.get


def _record_edge(edges, key, value):
    prev = edges.get(key)
    if prev is not None and prev != value:
        raise ModelIntegrityError(f"conflicting edge at {key}: {prev} vs {value}")
    edges[key] = value


def generate_by_both_operators(t, lam) -> CrystalGraph:
    start = straight_path(t, lam)
    vertices = [start]
    index = {start: 0}
    f_edges: dict = {}
    e_edges: dict = {}
    queue = deque([0])

    def visit(path):
        vid = index.get(path)
        if vid is None:
            assert is_integral(path), "generated path with non-integral minima"
            vid = len(vertices)
            vertices.append(path)
            index[path] = vid
            queue.append(vid)
        return vid

    while queue:
        v = queue.popleft()
        pv = vertices[v]
        for i in t.nodes:
            lowered = root_f(pv, i)
            if lowered is not None:
                w = visit(lowered)
                _record_edge(f_edges, (v, i), w)
                _record_edge(e_edges, (w, i), v)
        for i in t.nodes:
            raised = root_e(pv, i)
            if raised is not None:
                u = visit(raised)
                _record_edge(e_edges, (v, i), u)
                _record_edge(f_edges, (u, i), v)
    return graph_from_edges(t, tuple(lam), vertices, f_edges, e_edges)


def _extremal(graph, colors, comp, step):
    found = [v for v in comp if all(step(v, i) is None for i in colors)]
    assert len(found) == 1, f"{len(found)} extremal vertices in a component"
    return found[0]


def levi_by_undirected_search(graph, colors):
    """(components, highest, lowest), the last two keyed by component."""
    seen = [False] * len(graph)
    comps = []
    for start in range(len(graph)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        todo = [start]
        while todo:
            v = todo.pop()
            for i in colors:
                for nxt in (graph.f_to[i][v], graph.e_to[i][v]):
                    if nxt is not None and not seen[nxt]:
                        seen[nxt] = True
                        comp.append(nxt)
                        todo.append(nxt)
        comps.append(tuple(sorted(comp)))
    highest = {c: _extremal(graph, colors, c, lambda v, i: graph.e_to[i][v]) for c in comps}
    lowest = {c: _extremal(graph, colors, c, lambda v, i: graph.f_to[i][v]) for c in comps}
    return tuple(comps), highest, lowest
