"""Crystal graphs of path models: generation by operator closure, Levi
restriction, highest/lowest elements, axiom checking, and exports.

A highest-weight path crystal is the closure of its straight dominant path
under the lowering operators alone, so generation is a breadth-first search
along f-edges, deduplicating by canonical path; each e-edge is recorded as the
inverse of an f-edge.  The scan that weighs each new path also gives its
string lengths phi, and the search lowers a vertex only in the colors where
phi is at least one, and calls root_f only where no commuting square with a
non-adjacent color gives the edge, so every call makes an edge.  Vertex ids
are BFS discovery order (colors ascending), so the vertex list is the search
queue, regenerating a crystal reproduces it bit for bit, and the graph keeps
no map from paths to ids.  Every f-edge adds
one to the depth (the height of lambda - wt), so the BFS layer of a vertex is
its depth and ids come in depth order; a raising step only reaches the
previous layer, so closing under the raising operators too would find nothing
new.  Edges are stored once, in one list per color and direction indexed by
vertex id and sized by the Weyl dimension.  verify_seminormal checks the
raising operators against the e-edges.  The vertex count must match the Weyl
dimension formula exactly, the strongest single guard on the operators; a
mismatch aborts, at the first extra vertex if there are too many.  As ids
ascend along every lowering edge, the one Levi decomposition is a sweep in id
order that propagates the partial involution of a color set down its
lowering edges and finds the highest and lowest vertex of each component on
the way.  It takes the set and its twist as the (i, theta(i)) pairs in color
order that cartan._theta_pairs caches for any node set, so it builds no theta
dict and sorts nothing; the Levi views and cactus hand it the cached pairs.
"""

from __future__ import annotations

import functools
import json
from operator import add, sub

from .cartan import (
    DynkinType,
    _node_set,
    _theta_pairs,
    neighbors,
    simple_root,
    weyl_dim,
)
from .errors import DomainError, ModelIntegrityError
from .paths import _ratio, _scan, root_e, root_f, straight_path

DEFAULT_MAX_SIZE = 20000


class CrystalGraph:
    """Finite crystal with indexed path vertices and per-color edge lists:
    f_to[i][v] and e_to[i][v] are the targets of the color-i lowering and
    raising edges at vertex v, or None where there is no edge; weights[v]
    is the weight of vertex v, as its builder computed it.  Ids ascend along
    every lowering edge, as generate numbers them: the Levi sweep visits
    them in id order."""

    def __init__(self, rtype, highest_weight, vertices, f_to, e_to, weights):
        self.rtype = rtype
        self.highest_weight = tuple(highest_weight)
        self.vertices = tuple(vertices)
        self.f_to = f_to
        self.e_to = e_to
        self.weights = tuple(weights)

    def __len__(self):
        return len(self.vertices)

    @property
    def f_edges(self) -> dict:
        """The lowering edges as a {(v, i): w} map, sorted by (v, i)."""
        return {(v, i): w for v, i, w in _edges(self.f_to, len(self))}


def _edges(lists, n):
    """(v, i, w) for each edge v -> w of color i in the lists, in (v, i) order."""
    colors = sorted(lists.items())
    return ((v, i, t[v]) for v in range(n) for i, t in colors if t[v] is not None)


def generate(t: DynkinType, lam, max_size=None) -> CrystalGraph:
    """Generate the path model of highest weight lam by closure under the
    lowering operators, checking that each f_i is injective.  The scan that
    checks each new path's minima are integral weighs it and gives the
    colors i with phi_i >= 1, the only ones f_i is called in.  Where v = f_k p
    for a color k with a_ik = 0, and u = f_i p has been lowered in color k,
    f_i v is f_k u, read off the edge lists: alpha_k is 0 at i, so f_k leaves
    the height function of i as it is and f_i f_k = f_k f_i on paths."""
    lam = tuple(lam)
    dim = weyl_dim(t, lam)
    if max_size is not None and dim > max_size:
        try:
            size = str(dim)
        except ValueError:  # past the int-to-str digit limit
            size = f"at least 2**{dim.bit_length() - 1}"
        raise DomainError(f"crystal of size {size} exceeds the cap {max_size}")
    start = straight_path(t, lam)
    weight, _, phi = _scan(start)
    vertices, weights, lowerable = [start], [weight], [phi]
    index = {start: 0}
    f_to = {i: [None] * dim for i in t.nodes}
    e_to = {i: [None] * dim for i in t.nodes}
    adj = neighbors(t)  # far[i]: the edge lists of the colors k != i with a_ik = 0
    far = {i: [(e_to[k], f_to[k]) for k in t.nodes if k != i and k not in adj[i]] for i in t.nodes}
    for v, pv in enumerate(vertices):  # ids are discovery order: the list is the queue
        for i, n in zip(t.nodes, lowerable[v]):
            if not n:  # phi_i is 0: f_i is undefined
                continue
            f_i = f_to[i]
            for e_k, f_k in far[i]:  # v = f_k p: f_i v = f_k f_i p if that is known
                if (p := e_k[v]) is not None and (u := f_i[p]) is not None:
                    if (w := f_k[u]) is not None:
                        break
            else:
                lowered = root_f(pv, i)
                if lowered is None:
                    continue
                w = index.setdefault(lowered, len(vertices))  # one hash per path
                if w == len(vertices):
                    if (scan := _scan(lowered)) is None:
                        raise ModelIntegrityError("generated path with non-integral minima")
                    if w == dim:
                        raise ModelIntegrityError(
                            f"generated {dim + 1} vertices but the Weyl dimension is {dim}"
                        )
                    vertices.append(lowered)
                    weights.append(scan[0])
                    lowerable.append(scan[2])
            f_i[v] = w
            if (prev := e_to[i][w]) is not None:  # (v, i) comes once: prev is not v
                raise ModelIntegrityError(f"conflicting edge at {(w, i)}: {prev} vs {v}")
            e_to[i][w] = v
    if len(vertices) != dim:
        raise ModelIntegrityError(
            f"generated {len(vertices)} vertices but the Weyl dimension is {dim}"
        )
    return CrystalGraph(t, lam, vertices, f_to, e_to, weights)


def _string_lengths(targets) -> list:
    """For each vertex, the number of steps along targets before the walk
    from it ends, or None where it runs into a cycle.  A walk stops at the
    first vertex an earlier walk reached, then retraces its steps to count
    them, so each vertex is walked at most twice."""
    lengths = [None] * len(targets)
    reached = [False] * len(targets)
    for v in range(len(targets)):
        steps, cur = 0, v
        while cur is not None and not reached[cur]:
            reached[cur] = True
            steps += 1
            cur = targets[cur]
        # the length at cur: -1 past an end, None where this walk closed a
        # cycle (it has not counted cur yet) or an earlier walk met one
        base = -1 if cur is None else lengths[cur]
        cur = v
        while steps and base is not None:
            lengths[cur] = base + steps
            steps -= 1
            cur = targets[cur]
    return lengths


def verify_seminormal(graph: CrystalGraph) -> list:
    """Check the semi-normal crystal axioms at every vertex and color.

    Returns a list of violation records; an empty list means the graph is a
    semi-normal crystal.  Checked: the lowering and raising edge maps are
    mutually inverse, edges shift the weight by the corresponding simple
    root, the string law phi - epsilon = <wt, alpha_i^vee> holds with phi
    and epsilon counted along the edges, each string once per color (a
    string that runs into a cycle is "unbounded-string"), and the raising
    operator agrees with the e-edges: root_e of the vertex's path is the path
    of its e-edge target, and None exactly where there is no e-edge
    ("raising-operator").
    """
    t = graph.rtype
    weights, paths = graph.weights, graph.vertices
    columns = []
    for i in t.nodes:
        f_i, e_i = graph.f_to[i], graph.e_to[i]
        columns.append((i, simple_root(t, i), f_i, e_i, _string_lengths(e_i), _string_lengths(f_i)))
    violations = []

    def flag(axiom, v, i):
        violations.append({"axiom": axiom, "vertex": v, "color": i})

    for v in range(len(graph)):
        wt = weights[v]
        for i, alpha, f_i, e_i, eps_i, phi_i in columns:
            w = f_i[v]
            if w is not None:
                if e_i[w] != v:
                    flag("mutual-inverse", v, i)
                if weights[w] != tuple(map(sub, wt, alpha)):
                    flag("weight-ladder-f", v, i)
            u = e_i[v]
            if u is not None:
                if f_i[u] != v:
                    flag("mutual-inverse", v, i)
                if weights[u] != tuple(map(add, wt, alpha)):
                    flag("weight-ladder-e", v, i)
            eps, ph = eps_i[v], phi_i[v]
            if eps is None or ph is None:
                flag("unbounded-string", v, i)
            elif ph - eps != wt[i - 1]:
                flag("string-law", v, i)
            if root_e(paths[v], i) != (None if u is None else paths[u]):
                flag("raising-operator", v, i)
    return violations


def _levi_sweep(graph: CrystalGraph, pairs) -> tuple:
    """(images, top_of) for the color set of the cached (i, theta(i)) pairs:
    the involution that sends each highest vertex to the lowest of its
    component and intertwines f_i with e_theta(i), and the highest above each.

    In id order every lowering edge v -f_i-> w, i in the color set, comes
    before w, and yields the image of w as e_theta(i) of the image of v.  A
    vertex with no image when the sweep reaches it is the highest of its
    component, sent to the lowest.  A raising edge at such a vertex, a cycle
    on the way down, a missing or disagreeing image, a vertex below two
    highest or a second lowest vertex, or images that do not permute raise.
    So where the raising edges invert the lowering ones, ids that break the
    rule give no wrong permutation: a vertex visited before any of its
    parents is taken as highest, and its raising edge refuses it."""
    f_to, e_to = graph.f_to, graph.e_to
    raising = [e_to[i] for i, _ in pairs]
    lowering = [f_to[i] for i, _ in pairs]
    columns = [(f_to[i], e_to[j]) for i, j in pairs]  # (f_i, e_theta(i))
    n = len(graph)
    steps = range(n)  # the sweep order, made once: a range per descent costs 5-9%
    out = [None] * n
    top_of = [None] * n
    for v in steps:
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
                    i = next(i for i, _ in pairs if f_to[i] is f_i)
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
        images, top_of = _levi_sweep(graph, _theta_pairs(graph.rtype, colors))
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
    byte for byte, for obj as in README "JSON formats" (paths as by
    path_to_json, edges in (from, color) order), joined from template blocks.
    Each distinct breakpoint is rendered once a call, and its block is joined
    in once per vertex that has it, with no string per vertex."""
    weights, paths = graph.weights, graph.vertices
    weight_sep, breakpoint_sep, pair_sep = "," + _NL[4], "," + _NL[5], "," + _NL[7]
    head, tail = _VERTEX.rsplit("%s", 1)  # a vertex's block around its breakpoints
    blocks = {}  # (t, den, den * vden, point) -> its _BREAKPOINT block
    pair = functools.cache(lambda c, scale: _PAIR % tuple(_ratio(c, scale)))  # pairs repeat

    def render(key):
        t, den, scale, point = key
        pairs = pair_sep.join([pair(c, scale) for c in point])
        block = blocks[key] = _BREAKPOINT % (*_ratio(t, den), pairs)
        return block

    def vertex(v):
        p = paths[v]
        den, scale = p.den, p.den * p.vden
        pieces = [head % (v, weight_sep.join(map(str, weights[v])))]
        for t, point in zip(p.times, p.points):
            key = (t, den, scale, point)
            pieces += (blocks.get(key) or render(key), breakpoint_sep)
        pieces[-1] = tail  # in place of the last separator
        return pieces

    parts = ['{\n  "type": ', json.dumps(str(graph.rtype))]
    for key, items in (  # each item a sequence of pieces
        ("highest_weight", ((str(x),) for x in graph.highest_weight)),
        ("vertices", map(vertex, range(len(graph)))),
        ("edges", ((_EDGE % (v, w, i),) for v, i, w in _edges(graph.f_to, len(graph)))),
    ):
        parts.append(f',\n  "{key}": [')
        start = len(parts)
        for item in items:
            parts.append(_NL[2])
            parts += item
            parts.append(",")
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
