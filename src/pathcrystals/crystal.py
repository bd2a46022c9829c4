"""Crystal graphs of path models: generation by operator closure, Levi
restriction, highest/lowest elements, axiom checking, and exports.

A highest-weight path crystal is the closure of its straight dominant path
under the lowering operators alone, so generation is a breadth-first search
along f-edges, deduplicating by canonical path; each e-edge is recorded as the
inverse of an f-edge.  Vertex ids are BFS discovery order (colors ascending),
so the vertex list is the search queue, regenerating a crystal reproduces it
bit for bit, and the graph keeps no map from paths to ids.  Every f-edge adds
one to the depth (the height of lambda - wt), so the BFS layer of a vertex is
its depth and ids come in depth order; a raising step only reaches the
previous layer, so closing under the raising operators too would find nothing
new.  Edges are stored once, in one list per color and direction indexed by
vertex id and sized by the Weyl dimension.  verify_seminormal checks the
raising operators against the e-edges.  The vertex count must match the Weyl
dimension formula exactly, the strongest single guard on the operators; a
mismatch aborts, at the first extra vertex if there are too many.  The ids
sorted by the depth <lambda - wt, 2 rho^vee> order the one Levi decomposition,
a sweep that propagates the partial involution of a color set (twisted by
cartan.theta of the set, connected or not, which the sweep reads itself) down
its lowering edges and finds the highest and lowest vertex of each component
on the way.  The Levi views read it for any color set; cactus.xi_perm reads it
after a cached guard that the set is connected.
"""

from __future__ import annotations

import functools
import json
from operator import mul

from .cartan import (
    DynkinType,
    _node_set,
    _two_rho_vee,
    simple_root,
    theta,
    weyl_dim,
)
from .errors import DomainError, ModelIntegrityError
from .paths import (
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
        self.weights = tuple(weight_int(p) for p in self.vertices)

    def __len__(self):
        return len(self.vertices)

    @functools.cached_property
    def _depth_order(self) -> tuple:
        """The ids sorted stably by the depth <lambda - wt, 2 rho^vee>."""
        n, weights = _two_rho_vee(self.rtype), self.weights
        return tuple(sorted(range(len(self)), key=lambda v: -sum(map(mul, n, weights[v]))))

    @property
    def f_edges(self) -> dict:
        """The lowering edges as a {(v, i): w} map, sorted by (v, i)."""
        return {(v, i): w for v, i, w in _edges(self.f_to, len(self))}


def _edges(lists, n):
    """(v, i, w) for each edge v -> w of color i in the lists, in (v, i) order."""
    colors = sorted(lists.items())
    return ((v, i, t[v]) for v in range(n) for i, t in colors if t[v] is not None)


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
    f_to = {i: [None] * dim for i in t.nodes}
    e_to = {i: [None] * dim for i in t.nodes}
    for v, pv in enumerate(vertices):  # ids are discovery order: the list is the queue
        for i in t.nodes:
            lowered = root_f(pv, i)
            if lowered is None:
                continue
            w = index.get(lowered)
            if w is None:
                if not is_integral(lowered):
                    raise ModelIntegrityError("generated path with non-integral minima")
                w = len(vertices)
                if w == dim:
                    raise ModelIntegrityError(
                        f"generated {dim + 1} vertices but the Weyl dimension is {dim}"
                    )
                vertices.append(lowered)
                index[lowered] = w
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


def _levi_sweep(graph: CrystalGraph, colors) -> tuple:
    """(images, top_of): the involution of the color set that sends each
    highest vertex to the lowest of its component and intertwines f_i with
    e_theta(i) (theta = cartan.theta of the set), as a list, and the highest
    vertex above each vertex.

    In depth order every lowering edge v -f_i-> w, i in the color set, comes
    before w, and yields the image of w as e_theta(i) of the image of v.  A
    vertex with no image when the sweep reaches it is the highest of its
    component, sent to the lowest.  A raising edge at such a vertex, a cycle
    on the way down, a missing or disagreeing image, a vertex below two
    highest or a second lowest vertex, or images that do not permute raise."""
    twist = theta(graph.rtype, colors)
    order = sorted(colors)
    raising = [graph.e_to[i] for i in order]
    lowering = [graph.f_to[i] for i in order]
    columns = [(graph.f_to[i], graph.e_to[twist[i]]) for i in order]  # (f_i, e_theta(i))
    n = len(graph)
    steps = range(n)  # made once: a range per descent costs 5-9% on small crystals
    out = [None] * n
    top_of = [None] * n
    for v in graph._depth_order:
        image = out[v]
        if image is None:  # no edge reached v: a highest vertex has no raising edge
            for e_i in raising:
                if e_i[v] is not None:
                    raise ModelIntegrityError(
                        f"normality violation: vertex {v} has a raising edge but no edge from above"
                    )
            image = top_of[v] = v
            for _ in steps:  # down the first lowering edges
                for f_i in lowering:
                    below = f_i[image]
                    if below is not None:
                        break
                else:
                    break
                image = below
            else:  # n steps visit n + 1 vertices, one of them twice
                raise ModelIntegrityError(f"normality violation: lowering cycle below vertex {v}")
            out[v] = image
        top = top_of[v]
        lowest = True
        for f_i, mirror in columns:
            w = f_i[v]
            if w is not None:
                lowest = False
                mirrored, seen = mirror[image], out[w]
                if mirrored is None or seen is not None and seen != mirrored:
                    i = next(i for i in order if graph.f_to[i] is f_i)
                    raise ModelIntegrityError(
                        f"involution image of vertex {w} is inconsistent along color {i}"
                    )
                above = top_of[w]
                if above is not None and above != top:
                    raise ModelIntegrityError(
                        f"normality violation: vertex {w} is below highest "
                        f"vertices {above} and {top}"
                    )
                out[w], top_of[w] = mirrored, top
        if lowest and out[top] != v:
            raise ModelIntegrityError(f"normality violation: second lowest vertex {v} below {top}")
    # the n images permute iff each id is one of them.  Only lowest vertices map to
    # vertices without raising edges, no more than the highest, which have none: so
    # when they permute, the vertices taken as highest are all without raising edges
    if not set(out).issuperset(steps):
        raise ModelIntegrityError("involution image is not a permutation")
    return out, top_of


def _check_vertex(n: int, v) -> None:
    """Refuse v unless it is an int vertex id of a crystal of n vertices."""
    if type(v) is not int or not 0 <= v < n:
        raise DomainError(f"vertex {v!r} out of range")


class LeviView:
    """A crystal graph with edges restricted to a subset of colors, read off
    the involution sweep with the twist theta(J) of w0_J, the union of the
    twists of the components of J.  Raises ModelIntegrityError where the
    sweep does, so each component has one highest and one lowest vertex."""

    def __init__(self, graph: CrystalGraph, colors):
        colors = _node_set(graph.rtype, colors, "colors")
        self.graph = graph
        self.colors = colors
        images, top_of = _levi_sweep(graph, colors)
        members = {}
        for v, top in enumerate(top_of):
            members.setdefault(top, []).append(v)
        self._top_of = top_of
        self._parts = {top: (tuple(comp), images[top]) for top, comp in members.items()}
        self.components = tuple(sorted(comp for comp, _ in self._parts.values()))

    def component_of(self, v: int) -> tuple:
        _check_vertex(len(self.graph), v)
        return self._parts[self._top_of[v]][0]

    def highest_of(self, comp) -> int:
        """The unique vertex of the component with no raising edges."""
        return self._top_of[comp[0]]

    def lowest_of(self, comp) -> int:
        """The unique vertex of the component with no lowering edges."""
        return self._parts[self._top_of[comp[0]]][1]

    def f_word(self, comp, b: int) -> tuple:
        """A color word w with b obtained from the component's highest vertex
        by lowering in the order the word is read (first letter first): the
        parent chain of a breadth-first search down the component that the
        sweep found, colors ascending, stopped once b is reached."""
        _check_vertex(len(self.graph), b)
        root = self.highest_of(comp)
        if self._top_of[b] != root:
            raise DomainError(f"vertex {b} not in the component of {root}")
        order = sorted(self.colors)
        parent = {root: None}
        queue = [root]
        for v in queue:
            if b in parent:
                break
            for i in order:
                w = self.graph.f_to[i][v]
                if w is not None and w not in parent:
                    parent[w] = (v, i)
                    queue.append(w)
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
