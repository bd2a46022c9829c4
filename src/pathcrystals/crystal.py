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
would find nothing new.  Edges are stored once, in one list per color and
direction indexed by vertex id.  verify_seminormal checks the raising
operators against the e-edges.  The vertex count must match the Weyl
dimension formula exactly; a mismatch aborts, since it is the strongest
single guard on the operators.  A Levi view walks each component once, down
the lowering edges from its highest vertex, and keeps the walk.
"""

from __future__ import annotations

import functools
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

DEFAULT_MAX_SIZE = 20000


class CrystalGraph:
    """Finite crystal with indexed path vertices and per-color edge lists:
    f_to[i][v] and e_to[i][v] are the targets of the color-i lowering and
    raising edges at vertex v, or None where there is no edge."""

    def __init__(self, rtype, highest_weight, vertices, f_to, e_to):
        self.rtype = rtype
        self.highest_weight = tuple(highest_weight)
        self.vertices = tuple(vertices)
        self.f_to = f_to
        self.e_to = e_to
        self._index = {p: k for k, p in enumerate(self.vertices)}
        self.weights = tuple(weight_int(p) for p in self.vertices)

    def __len__(self):
        return len(self.vertices)

    @property
    def f_edges(self) -> dict:
        """The lowering edges as a {(v, i): w} map, sorted by (v, i)."""
        return _edge_map(self.f_to, len(self))

    @property
    def e_edges(self) -> dict:
        """The raising edges as a {(v, i): w} map, sorted by (v, i)."""
        return _edge_map(self.e_to, len(self))

    def f(self, v: int, i: int):
        """Target of the color-i lowering edge at vertex v, or None."""
        return self.f_to[i][v]

    def e(self, v: int, i: int):
        """Target of the color-i raising edge at vertex v, or None."""
        return self.e_to[i][v]

    def path(self, v: int) -> PLPath:
        return self.vertices[v]

    def find(self, path: PLPath):
        """Vertex id of a canonical path, or None if absent."""
        return self._index.get(path)


def _edges(lists, n):
    """(v, i, w) for each edge v -> w of color i in the lists, in (v, i) order."""
    colors = sorted(lists.items())
    return ((v, i, t[v]) for v in range(n) for i, t in colors if t[v] is not None)


def _edge_map(lists, n) -> dict:
    return {(v, i): w for v, i, w in _edges(lists, n)}


def _record_edge(targets, v, i, w):
    prev = targets[v]
    if prev is not None and prev != w:
        raise ModelIntegrityError(f"conflicting edge at {(v, i)}: {prev} vs {w}")
    targets[v] = w


def generate(t: DynkinType, lam, max_size=None) -> CrystalGraph:
    """Generate the path model of highest weight lam by closure under the
    lowering operators, checking that each f_i is injective."""
    lam = tuple(lam)
    dim = weyl_dim(t, lam)
    if max_size is not None and dim > max_size:
        try:
            size = str(dim)
        except ValueError:  # past the int-to-str digit limit
            size = f"at least 2**{dim.bit_length() - 1}"
        raise DomainError(f"crystal of size {size} exceeds the cap {max_size}")
    start = straight_path(t, lam)
    vertices = [start]
    index = {start: 0}
    f_to = {i: [None] for i in t.nodes}
    e_to = {i: [None] for i in t.nodes}
    columns = tuple(f_to.values()) + tuple(e_to.values())
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
            for targets in columns:
                targets.append(None)
        return vid

    while queue:
        v = queue.popleft()
        pv = vertices[v]
        for i in t.nodes:
            lowered = root_f(pv, i)
            if lowered is not None:
                w = visit(lowered)
                f_to[i][v] = w
                _record_edge(e_to[i], w, i, v)
    if len(vertices) != dim:
        raise ModelIntegrityError(
            f"generated {len(vertices)} vertices but the Weyl dimension is {dim}"
        )
    return CrystalGraph(t, lam, vertices, f_to, e_to)


def _string_length(targets, v, limit):
    count = 0
    cur = targets[v]
    while cur is not None:
        count += 1
        if count > limit:
            return None  # cycle; flagged by the caller
        cur = targets[cur]
    return count


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
    weights, paths = graph.weights, graph.vertices
    limit = len(graph) + 1
    columns = [(i, simple_root(t, i), graph.f_to[i], graph.e_to[i]) for i in t.nodes]
    violations = []

    def flag(axiom, v, i):
        violations.append({"axiom": axiom, "vertex": v, "color": i})

    for v in range(len(graph)):
        wt = weights[v]
        for i, alpha, f_i, e_i in columns:
            w = f_i[v]
            if w is not None:
                if e_i[w] != v:
                    flag("mutual-inverse", v, i)
                if weights[w] != tuple(x - a for x, a in zip(wt, alpha)):
                    flag("weight-ladder-f", v, i)
            u = e_i[v]
            if u is not None:
                if f_i[u] != v:
                    flag("mutual-inverse", v, i)
                if weights[u] != tuple(x + a for x, a in zip(wt, alpha)):
                    flag("weight-ladder-e", v, i)
            eps = _string_length(e_i, v, limit)
            ph = _string_length(f_i, v, limit)
            if eps is None or ph is None:
                flag("unbounded-string", v, i)
            elif ph - eps != wt[i - 1]:
                flag("string-law", v, i)
            if root_e(paths[v], i) != (None if u is None else paths[u]):
                flag("raising-operator", v, i)
    return violations


class LeviView:
    """A crystal graph with edges restricted to a subset of colors.  Raises
    ModelIntegrityError unless each component, walked down the lowering
    edges from its highest vertex, has one highest and one lowest vertex.
    walks[k] is (that breadth-first walk, the lowest vertex) of components[k]."""

    def __init__(self, graph: CrystalGraph, colors):
        colors = frozenset(colors)
        if not colors <= all_nodes(graph.rtype):
            raise DomainError(f"colors {sorted(colors)} not in {graph.rtype}")
        self.graph = graph
        self.colors = colors
        lowering = [graph.f_to[i] for i in sorted(colors)]
        raisable = {v for i in colors for v, u in enumerate(graph.e_to[i]) if u is not None}
        top_of = [None] * len(graph)
        parts = []
        for top in range(len(graph)):
            if top in raisable:
                continue
            walk, lows, queue = [], [], [top]
            for v in queue:
                seen = top_of[v]
                if seen == top:
                    continue
                if seen is not None:
                    raise ModelIntegrityError(
                        f"normality violation: vertex {v} is below highest "
                        f"vertices {seen} and {top}"
                    )
                top_of[v] = top
                walk.append(v)
                size = len(queue)
                for targets in lowering:
                    if targets[v] is not None:
                        queue.append(targets[v])
                if len(queue) == size:
                    lows.append(v)
            if len(lows) != 1:
                raise ModelIntegrityError(
                    f"normality violation: {len(lows)} lowest vertices below {top}"
                )
            parts.append((tuple(sorted(walk)), lows[0], tuple(walk)))
        if None in top_of:
            raise ModelIntegrityError(
                f"normality violation: vertex {top_of.index(None)} is below no "
                "highest vertex"
            )
        parts.sort()
        self.components = tuple(comp for comp, _, _ in parts)
        self.walks = tuple((walk, low) for _, low, walk in parts)
        self._top_of = top_of
        self._parts = {walk[0]: (comp, low) for comp, low, walk in parts}

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


# _NL[d] opens a line at depth d of json.dumps(obj, indent=2) of the export
_NL = tuple("\n" + "  " * depth for depth in range(9))


def _template(obj, depth) -> str:
    """json.dumps(obj, indent=2) as a block at the given depth, with its "%d"
    and "%s" strings unquoted into format placeholders."""
    text = json.dumps(obj, indent=2).replace("\n", _NL[depth])
    return text.replace('"%d"', "%d").replace('"%s"', "%s")


_VERTEX = _template({"id": "%d", "weight": ["%s"], "path": {"breakpoints": ["%s"]}}, 2)
_BREAKPOINT = _template(["%d", "%d", ["%s"]], 5)
_PAIR = _template(["%d", "%d"], 7)
_EDGE = _template({"from": "%d", "to": "%d", "color": "%d"}, 2)


def export_json(graph: CrystalGraph) -> str:
    """Deterministic JSON export of the crystal graph: json.dumps(obj, indent=2)
    byte for byte, for obj as in README "JSON formats" (paths by path_to_json,
    edges in (from, color) order), rendered from one template per block."""
    weights, paths = graph.weights, graph.vertices
    weight_sep, breakpoint_sep, pair_sep = "," + _NL[4], "," + _NL[5], "," + _NL[7]
    pair = functools.cache(lambda num, den: _PAIR % (num, den))  # pairs repeat

    def vertex(v):
        breakpoints = [
            _BREAKPOINT % (tn, td, pair_sep.join([pair(cn, cd) for cn, cd in coords]))
            for tn, td, coords in path_to_json(paths[v])["breakpoints"]
        ]
        weight = weight_sep.join(map(str, weights[v]))
        return _VERTEX % (v, weight, breakpoint_sep.join(breakpoints))

    parts = ['{\n  "type": ', json.dumps(str(graph.rtype))]
    for key, items in (
        ("highest_weight", map(str, graph.highest_weight)),
        ("vertices", map(vertex, range(len(graph)))),
        ("edges", (_EDGE % (v, w, i) for v, i, w in _edges(graph.f_to, len(graph)))),
    ):
        parts.append(f',\n  "{key}": [')
        start = len(parts)
        for item in items:
            parts += (_NL[2], item, ",")
        if len(parts) > start:
            parts[-1] = _NL[1]  # in place of the last item's comma
        parts.append("]")
    parts.append("\n}")
    return "".join(parts)


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
        label = f"{v}: ({','.join(str(x) for x in graph.weights[v])})"
        lines.append(f'  n{v} [label="{label}"];')
    for v, i, w in _edges(graph.f_to, len(graph)):
        color = _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]
        lines.append(f'  n{v} -> n{w} [label="{i}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
