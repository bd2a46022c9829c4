"""Crystal graphs of path models: generation by operator closure, Levi
restriction, highest/lowest elements, axiom checking, and exports.

A highest-weight path crystal is the closure of its straight dominant path
under the lowering operators alone, so generation is a breadth-first search
along f-edges, deduplicating by canonical breakpoint sequence; each e-edge is
recorded as the inverse of an f-edge.  Vertex ids are BFS discovery order
(colors ascending), so regenerating a crystal reproduces it bit for bit.
Every f-edge adds one to the depth (the height of lambda - wt), so the BFS
layer of a vertex is its depth and ids come in depth order; a raising step
only reaches the previous layer, so closing under the raising operators too
would find nothing new.  verify_seminormal checks the raising operators
against the e-edges.  The vertex count must match the Weyl dimension formula
exactly; a mismatch aborts, since it is the strongest single guard on the
operators.
"""

from __future__ import annotations

import json
from collections import deque

from .cartan import (
    DynkinType,
    all_nodes,
    simple_root,
    weyl_dim,
)
from .errors import DomainError, ModelIntegrityError
from .paths import (
    PLPath,
    is_integral,
    path_to_json,
    root_e,
    root_f,
    straight_path,
    weight_int,
)


class CrystalGraph:
    """Finite crystal with indexed path vertices and colored edge maps."""

    def __init__(self, rtype, highest_weight, vertices, f_edges, e_edges):
        self.rtype = rtype
        self.highest_weight = tuple(highest_weight)
        self.vertices = tuple(vertices)
        self.f_edges = dict(f_edges)
        self.e_edges = dict(e_edges)
        self._index = {p: k for k, p in enumerate(self.vertices)}
        self.weights = tuple(weight_int(p) for p in self.vertices)

    def __len__(self):
        return len(self.vertices)

    def f(self, v: int, i: int):
        """Target of the color-i lowering edge at vertex v, or None."""
        return self.f_edges.get((v, i))

    def e(self, v: int, i: int):
        """Target of the color-i raising edge at vertex v, or None."""
        return self.e_edges.get((v, i))

    def weight(self, v: int):
        return self.weights[v]

    def path(self, v: int) -> PLPath:
        return self.vertices[v]

    def find(self, path: PLPath):
        """Vertex id of a canonical path, or None if absent."""
        return self._index.get(path)


def _record_edge(edges, key, value):
    prev = edges.get(key)
    if prev is not None and prev != value:
        raise ModelIntegrityError(f"conflicting edge at {key}: {prev} vs {value}")
    edges[key] = value


def generate(t: DynkinType, lam, max_size=None) -> CrystalGraph:
    """Generate the path model of highest weight lam by closure under the
    lowering operators, checking that each f_i is injective."""
    lam = tuple(lam)
    dim = weyl_dim(t, lam)
    if max_size is not None and dim > max_size:
        raise DomainError(f"crystal of size {dim} exceeds the cap {max_size}")
    start = straight_path(t, lam)
    vertices = [start]
    index = {start: 0}
    f_edges: dict = {}
    e_edges: dict = {}
    queue = deque([0])

    def visit(path):
        vid = index.get(path)
        if vid is None:
            if not is_integral(path):
                raise ModelIntegrityError("generated path with non-integral minima")
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
                f_edges[(v, i)] = w
                _record_edge(e_edges, (w, i), v)
    if len(vertices) != dim:
        raise ModelIntegrityError(
            f"generated {len(vertices)} vertices but the Weyl dimension is {dim}"
        )
    return CrystalGraph(t, lam, vertices, f_edges, e_edges)


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
            return None  # cycle; flagged by the caller


def verify_seminormal(graph: CrystalGraph) -> list:
    """Check the semi-normal crystal axioms at every vertex and color.

    Returns a list of violation records; an empty list means the graph is a
    semi-normal crystal.  Checked: the lowering and raising edge maps are
    mutually inverse, edges shift the weight by the corresponding simple
    root, the string law phi - epsilon = <wt, alpha_i^vee> holds with phi
    and epsilon counted by walking edges, and the raising operator agrees
    with the e-edges: root_e of the vertex's path is the path of its e-edge
    target, and None exactly where there is no e-edge ("raising-operator").
    """
    t = graph.rtype
    violations = []
    for v in range(len(graph)):
        for i in t.nodes:
            alpha = simple_root(t, i)
            w = graph.f(v, i)
            if w is not None:
                if graph.e(w, i) != v:
                    violations.append(
                        {"axiom": "mutual-inverse", "vertex": v, "color": i}
                    )
                expected = tuple(x - a for x, a in zip(graph.weight(v), alpha))
                if graph.weight(w) != expected:
                    violations.append(
                        {"axiom": "weight-ladder-f", "vertex": v, "color": i}
                    )
            u = graph.e(v, i)
            if u is not None:
                if graph.f(u, i) != v:
                    violations.append(
                        {"axiom": "mutual-inverse", "vertex": v, "color": i}
                    )
                expected = tuple(x + a for x, a in zip(graph.weight(v), alpha))
                if graph.weight(u) != expected:
                    violations.append(
                        {"axiom": "weight-ladder-e", "vertex": v, "color": i}
                    )
            eps = _string_length(graph, v, i, graph.e)
            ph = _string_length(graph, v, i, graph.f)
            if eps is None or ph is None:
                violations.append({"axiom": "unbounded-string", "vertex": v, "color": i})
            elif ph - eps != graph.weight(v)[i - 1]:
                violations.append({"axiom": "string-law", "vertex": v, "color": i})
            raised = root_e(graph.path(v), i)
            if raised != (None if u is None else graph.path(u)):
                violations.append({"axiom": "raising-operator", "vertex": v, "color": i})
    return violations


class LeviView:
    """A crystal graph with edges restricted to a subset of colors.  Raises
    ModelIntegrityError unless each component, walked down the lowering
    edges from its highest vertex, has one highest and one lowest vertex."""

    def __init__(self, graph: CrystalGraph, colors):
        colors = frozenset(colors)
        if not colors <= all_nodes(graph.rtype):
            raise DomainError(f"colors {sorted(colors)} not in {graph.rtype}")
        self.graph = graph
        self.colors = colors
        top_of = [None] * len(graph)
        parts = {}
        for top in range(len(graph)):
            if any(graph.e(top, i) is not None for i in colors):
                continue
            comp, lows, queue = [], [], [top]
            for v in queue:
                if top_of[v] == top:
                    continue
                if top_of[v] is not None:
                    raise ModelIntegrityError(
                        f"normality violation: vertex {v} is below highest "
                        f"vertices {top_of[v]} and {top}"
                    )
                top_of[v] = top
                comp.append(v)
                below = [w for w in (graph.f(v, i) for i in colors) if w is not None]
                if not below:
                    lows.append(v)
                queue.extend(below)
            if len(lows) != 1:
                raise ModelIntegrityError(
                    f"normality violation: {len(lows)} lowest vertices below {top}"
                )
            parts[top] = (tuple(sorted(comp)), lows[0])
        if None in top_of:
            raise ModelIntegrityError(
                f"normality violation: vertex {top_of.index(None)} is below no "
                "highest vertex"
            )
        self.components = tuple(sorted(comp for comp, _ in parts.values()))
        self._top_of = top_of
        self._parts = parts

    def component_of(self, v: int) -> tuple:
        if not 0 <= v < len(self.graph):
            raise DomainError(f"vertex {v} out of range")
        return self._parts[self._top_of[v]][0]

    def highest_of(self, comp) -> int:
        """The unique vertex of the component with no raising edges."""
        return self._top_of[comp[0]]

    def lowest_of(self, comp) -> int:
        """The unique vertex of the component with no lowering edges."""
        return self._parts[self._top_of[comp[0]]][1]

    def f_word(self, comp, b: int, descending=False) -> tuple:
        """A color word w with b obtained from the component's highest vertex
        by lowering in the order the word is read (first letter first).
        Deterministic BFS parent chains; descending flips the color order."""
        order = sorted(self.colors, reverse=descending)
        root = self.highest_of(comp)
        members = set(comp)
        parent = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for i in order:
                w = self.graph.f(v, i)
                if w is not None and w in members and w not in parent:
                    parent[w] = (v, i)
                    queue.append(w)
        if b not in parent:
            raise DomainError(f"vertex {b} not in the component of {root}")
        word = []
        cur = b
        while parent[cur] is not None:
            cur, color = parent[cur]
            word.append(color)
        return tuple(reversed(word))


def levi(graph: CrystalGraph, colors) -> LeviView:
    """Restriction of the crystal graph to edges colored in the given set."""
    return LeviView(graph, colors)


def export_json(graph: CrystalGraph) -> str:
    """Deterministic JSON export of the crystal graph."""
    obj = {
        "type": str(graph.rtype),
        "highest_weight": list(graph.highest_weight),
        "vertices": [
            {
                "id": v,
                "weight": list(graph.weight(v)),
                "path": path_to_json(graph.path(v)),
            }
            for v in range(len(graph))
        ],
        "edges": [
            {"from": v, "to": w, "color": i}
            for (v, i), w in sorted(graph.f_edges.items())
        ],
    }
    return json.dumps(obj, indent=2)


_DOT_PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
)


def export_dot(graph: CrystalGraph) -> str:
    """Graphviz digraph with one edge per lowering edge, colored by node."""
    lines = ["digraph crystal {"]
    for v in range(len(graph)):
        label = f"{v}: ({','.join(str(x) for x in graph.weight(v))})"
        lines.append(f'  n{v} [label="{label}"];')
    for (v, i), w in sorted(graph.f_edges.items()):
        color = _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]
        lines.append(f'  n{v} -> n{w} [label="{i}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
