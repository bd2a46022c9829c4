"""Partial involutions and cactus relations computed by earlier algorithms,
kept as test oracles for xi_perm and the relation checker.

xi_perm_by_words writes a vertex b as a lowering word applied to the highest
vertex of its Levi component, found by a breadth-first search down from that
vertex with the colors ascending or descending; its image is the twisted
raising word applied to the lowest vertex of that component.  The components
and their extremes come from levi_by_vertex_scan, not from the depth-order
sweep that the package's LeviView and xi_perm share.  This is quadratic in
the component size.

levi_by_vertex_scan is the Levi decomposition that LeviView made before it
read the sweep: a scan of every vertex for raising edges and one walk down
from each highest vertex.  xi_perm_by_bfs is the edge propagation of xi_perm
as it stood before the graph kept per-color edge lists: it takes the
components from levi_by_vertex_scan and walks each a second time,
breadth-first over the lowering and raising edges.  On a crystal it returns
what the depth-order sweep of xi_perm returns, however the ids are
numbered.  On a broken graph both raise ModelIntegrityError, often with
different messages, as each meets the fault at its own check; the sweep may
also raise where this walk returns, but only on a graph that
verify_seminormal flags.
levi_sweep_by_triples is the depth-order sweep of crystal._levi_sweep as it
stood when each color was a (lowering, raising, mirror) triple, every edge
built a (None, image) tuple to test against, and the permutation test
compared two sets.  The sweep now keeps raising and lowering lists apart,
reads (lowering, mirror) pairs and builds one set; it must return the same
(images, top_of) or raise the same error, as its checks run in the same
order.
relation_violations_by_loops is the relation checker that looped over all
pairs of subdiagrams on every call.

schutzenberger is the closed form of the involution for the whole diagram on
the path model, S(pi)(t) = theta(pi(1 - t) - pi(1)): Littelmann's dual path
swaps f_i and e_i, and -w0 relabels the colors by the diagram automorphism
theta of the whole diagram, which permutes fundamental-weight coordinates.
"""

from collections import deque

from pathcrystals.cartan import all_nodes, components, is_connected, node_mask, theta
from pathcrystals.errors import DomainError, ModelIntegrityError
from pathcrystals.paths import PLPath, canonicalize


def _apply_raising_word(graph, start, word, twist):
    cur = start
    for color in word:
        cur = graph.e_to[twist[color]][cur]
        assert cur is not None, "raising word left the component"
    return cur


def _f_words(graph, colors, top, members, descending) -> dict:
    """{b: lowering word from top to b}, breadth first with the colors
    ascending or descending."""
    words = {top: ()}
    queue = deque([top])
    while queue:
        v = queue.popleft()
        for i in sorted(colors, reverse=descending):
            w = graph.f_to[i][v]
            if w is not None and w in members and w not in words:
                words[w] = words[v] + (i,)
                queue.append(w)
    return words


def xi_perm_by_words(graph, colors, descending=False) -> tuple:
    colors = frozenset(colors)
    comps, highest, lowest = levi_by_vertex_scan(graph, colors)
    twist = theta(graph.rtype, colors)
    out = [None] * len(graph)
    for comp in comps:
        words = _f_words(graph, colors, highest[comp], set(comp), descending)
        for b in comp:
            out[b] = _apply_raising_word(graph, lowest[comp], words[b], twist)
    return tuple(out)


def levi_by_vertex_scan(graph, colors):
    """(components, highest, lowest) of the Levi restriction, the last two
    keyed by component, raising ModelIntegrityError on a component without
    one highest and one lowest vertex."""
    top_of = [None] * len(graph)
    parts = {}
    for top in range(len(graph)):
        if any(graph.e_to[i][top] is not None for i in colors):
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
            below = [w for w in (graph.f_to[i][v] for i in colors) if w is not None]
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
    comps = tuple(sorted(comp for comp, _ in parts.values()))
    highest = {comp: top for top, (comp, _) in parts.items()}
    lowest = {comp: low for comp, low in parts.values()}
    return comps, highest, lowest


def xi_perm_by_bfs(graph, colors) -> tuple:
    colors = frozenset(colors)
    if not colors or not is_connected(graph.rtype, colors):
        raise DomainError("xi_perm needs a nonempty connected color set")
    comps, highest, lowest = levi_by_vertex_scan(graph, colors)
    twist = theta(graph.rtype, colors)
    order = sorted(colors)
    out = [None] * len(graph)
    for comp in comps:
        top = highest[comp]
        out[top] = lowest[comp]
        queue = deque([top])
        while queue:
            v = queue.popleft()
            for i in order:
                w = graph.f_to[i][v]
                if w is None:
                    continue
                image = graph.e_to[twist[i]][out[v]]
                if image is None or out[w] not in (None, image):
                    raise ModelIntegrityError(
                        f"involution image of vertex {w} is inconsistent along color {i}"
                    )
                if out[w] is None:
                    out[w] = image
                    queue.append(w)
    if set(out) != set(range(len(graph))):
        raise ModelIntegrityError("involution image is not a permutation")
    return tuple(out)


def levi_sweep_by_triples(graph, colors) -> tuple:
    """(images, top_of) as crystal._levi_sweep returns them, or its error."""
    twist = theta(graph.rtype, colors)
    columns = [(graph.f_to[i], graph.e_to[i], graph.e_to[twist[i]]) for i in sorted(colors)]
    n = len(graph)
    steps = range(n)  # made once: a range per descent costs 5-9% on small crystals
    out = [None] * n
    top_of = [None] * n
    for v in graph._depth_order:
        image = out[v]
        if image is None:  # no edge reached v: a highest vertex has no raising edge
            for _, raising, _ in columns:
                if raising[v] is not None:
                    raise ModelIntegrityError(
                        f"normality violation: vertex {v} has a raising edge but no edge from above"
                    )
            image = top_of[v] = v
            for _ in steps:  # down the first lowering edges
                for lowering, _, _ in columns:
                    below = lowering[image]
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
        for lowering, _, mirror in columns:
            w = lowering[v]
            if w is not None:
                lowest = False
                mirrored = mirror[image]
                if mirrored is None or out[w] not in (None, mirrored):
                    i = next(i for i in sorted(colors) if graph.f_to[i] is lowering)
                    raise ModelIntegrityError(
                        f"involution image of vertex {w} is inconsistent along color {i}"
                    )
                if top_of[w] not in (None, top):
                    raise ModelIntegrityError(
                        f"normality violation: vertex {w} is below highest "
                        f"vertices {top_of[w]} and {top}"
                    )
                out[w], top_of[w] = mirrored, top
        if lowest and out[top] != v:
            raise ModelIntegrityError(f"normality violation: second lowest vertex {v} below {top}")
    # only lowest vertices map to vertices without raising edges, and they are
    # no more than the highest vertices, which have none: so when the images
    # permute, the vertices taken as highest are all those without raising edges
    if set(out) != set(range(n)):
        raise ModelIntegrityError("involution image is not a permutation")
    return out, top_of


def _compose(p, q):
    return tuple(p[x] for x in q)


def _first_difference(p, q):
    for v, (a, b) in enumerate(zip(p, q)):
        if a != b:
            return v
    return None


def _theta_image(t, outer, inner):
    twist = theta(t, outer)
    return frozenset(twist[j] for j in inner)


def relation_violations_by_loops(t, perms: dict, ident: tuple) -> list:
    violations = []

    def record(relation, outer, inner, left, right):
        violations.append(
            {
                "relation": relation,
                "I": sorted(outer),
                "J": sorted(inner),
                "witness_vertex": _first_difference(left, right),
            }
        )

    for s in perms:
        square = _compose(perms[s], perms[s])
        if square != ident:
            record(1, s, s, square, ident)
    for a in perms:
        for b in perms:
            if node_mask(a) >= node_mask(b):
                continue
            if len(components(t, a | b)) < 2:
                continue
            left = _compose(perms[a], perms[b])
            right = _compose(perms[b], perms[a])
            if left != right:
                record(2, a, b, left, right)
    for outer in perms:
        for inner in perms:
            if not inner <= outer:
                continue
            left = _compose(perms[outer], perms[inner])
            right = _compose(perms[_theta_image(t, outer, inner)], perms[outer])
            if left != right:
                record(3, outer, inner, left, right)
    return violations


def schutzenberger(path: PLPath) -> PLPath:
    """The canonical path t -> theta(path(1 - t) - path(1))."""
    t = path.rtype
    source = [theta(t, all_nodes(t))[k] - 1 for k in t.nodes]
    end = path.breakpoints[-1][1]
    bps = [(1 - s, tuple(q[j] - end[j] for j in source)) for s, q in reversed(path.breakpoints)]
    return canonicalize(PLPath.from_breakpoints(t, bps))
