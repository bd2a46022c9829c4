"""Kashiwara's tensor product rule, kept as a test oracle for the shape of
crystals of every type (Kashiwara, Duke 1991; Littelmann, Ann. Math. 1995;
Bump-Schilling, "Crystal Bases", 2017, ch. 2).  In B(lam1) (x) B(lam2) the
component of b_lam1 (x) b_lam2 is B(lam1 + lam2), in either tensor
convention, so the oracle does not depend on which one path concatenation
realizes.  Stembridge's axioms judge only simply-laced types; this rule also
judges B, C, F and G.

epsilon_i and phi_i are the string lengths along the e_to and f_to lists of
two generated crystals of the smaller weights.  The signature rule, in
Kashiwara's convention, lowers a pair (x, y) as f_i x (x) y if
phi_i(x) > epsilon_i(y) and as x (x) f_i y otherwise; the pair has no
f_i-edge when the chosen factor has none.  pairing walks the graph of
weight lam1 + lam2 breadth-first down its f-edges from vertex 0, which it
pairs with (0, 0), and requires the same defined and undefined f_i on both
sides and a one-to-one pairing of all vertices; mismatch is its verdict.
Both read edges only, never paths.
"""

from collections import deque


def _string_lengths(step) -> list:
    """Length of the string along one edge list from each vertex, capped at
    the vertex count so that a cycle ends the walk."""
    lengths = []
    for v in range(len(step)):
        count = 0
        while step[v] is not None and count < len(step):
            v = step[v]
            count += 1
        lengths.append(count)
    return lengths


def pairing(graph, first, second):
    """({vertex: (x, y)}, None) if graph is the component of (0, 0) in
    first (x) second, else the pairing so far and a record {"vertex",
    "color"} of the first place where they differ (color None when vertices
    are left over)."""
    nodes = graph.rtype.nodes
    phi = {i: _string_lengths(first.f_to[i]) for i in nodes}
    eps = {i: _string_lengths(second.e_to[i]) for i in nodes}

    def lower(pair, i):
        x, y = pair
        if phi[i][x] > eps[i][y]:
            x = first.f_to[i][x]
        else:
            y = second.f_to[i][y]
        return None if x is None or y is None else (x, y)

    pair_of, vertex_of = {0: (0, 0)}, {(0, 0): 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in nodes:
            w, q = graph.f_to[i][v], lower(pair_of[v], i)
            if w is None and q is None:
                continue
            if w is not None and q is not None and w not in pair_of and q not in vertex_of:
                pair_of[w], vertex_of[q] = q, w
                queue.append(w)
            elif w is None or pair_of.get(w) != q:
                return pair_of, {"vertex": v, "color": i}
    if len(pair_of) != len(graph):
        return pair_of, {"vertex": min(set(range(len(graph))) - set(pair_of)), "color": None}
    return pair_of, None


def mismatch(graph, first, second):
    """None if graph is the component of (0, 0) in first (x) second, else the
    record of pairing at the first place where they differ."""
    return pairing(graph, first, second)[1]
