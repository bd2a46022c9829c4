"""The semi-normal axiom checker as it stood before the graph kept per-color
edge lists, kept as a test oracle for verify_seminormal: it reads every edge
one lookup at a time and looks up the simple root at every vertex and color.
"""

from pathcrystals.cartan import simple_root
from pathcrystals.paths import root_e


def _string_length(graph, v, i, step):
    count = 0
    cur = v
    limit = len(graph) + 1
    while True:
        nxt = step(cur, i)
        if nxt is None:
            return count
        cur = nxt
        count += 1
        if count > limit:
            return None


def seminormal_by_lookups(graph) -> list:
    t = graph.rtype
    violations = []
    for v in range(len(graph)):
        for i in t.nodes:
            alpha = simple_root(t, i)
            w = graph.f_to[i][v]
            if w is not None:
                if graph.e_to[i][w] != v:
                    violations.append({"axiom": "mutual-inverse", "vertex": v, "color": i})
                expected = tuple(x - a for x, a in zip(graph.weights[v], alpha))
                if graph.weights[w] != expected:
                    violations.append({"axiom": "weight-ladder-f", "vertex": v, "color": i})
            u = graph.e_to[i][v]
            if u is not None:
                if graph.f_to[i][u] != v:
                    violations.append({"axiom": "mutual-inverse", "vertex": v, "color": i})
                expected = tuple(x + a for x, a in zip(graph.weights[v], alpha))
                if graph.weights[u] != expected:
                    violations.append({"axiom": "weight-ladder-e", "vertex": v, "color": i})
            eps = _string_length(graph, v, i, lambda w, k: graph.e_to[k][w])
            ph = _string_length(graph, v, i, lambda w, k: graph.f_to[k][w])
            if eps is None or ph is None:
                violations.append({"axiom": "unbounded-string", "vertex": v, "color": i})
            elif ph - eps != graph.weights[v][i - 1]:
                violations.append({"axiom": "string-law", "vertex": v, "color": i})
            raised = root_e(graph.vertices[v], i)
            if raised != (None if u is None else graph.vertices[u]):
                violations.append({"axiom": "raising-operator", "vertex": v, "color": i})
    return violations
