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

reversal_xi reads the partial involution xi_J of B(lam1 + lam2), for any
connected J, off the Henriques-Kamnitzer reversal (Duke 2006) of that
pairing, with xi_J taken on the two factors only; see its docstring.
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


def _signature_rule(first, second):
    """f_i and e_i on the pairs (x, y) of first (x) second: f_i acts on x if
    phi_i(x) > epsilon_i(y), e_i if phi_i(x) >= epsilon_i(y), and both on y
    otherwise; None where the factor acted on has no edge."""
    nodes = first.rtype.nodes
    phi = {i: _string_lengths(first.f_to[i]) for i in nodes}
    eps = {i: _string_lengths(second.e_to[i]) for i in nodes}

    def step(pair, i, on_first, x_to, y_to):
        x, y = pair
        if on_first:
            x = x_to[i][x]
        else:
            y = y_to[i][y]
        return None if x is None or y is None else (x, y)

    def lower(pair, i):
        return step(pair, i, phi[i][pair[0]] > eps[i][pair[1]], first.f_to, second.f_to)

    def raise_(pair, i):
        return step(pair, i, phi[i][pair[0]] >= eps[i][pair[1]], first.e_to, second.e_to)

    return lower, raise_


def pairing(graph, first, second):
    """({vertex: (x, y)}, None) if graph is the component of (0, 0) in
    first (x) second, else the pairing so far and a record {"vertex",
    "color"} of the first place where they differ (color None when vertices
    are left over)."""
    nodes = graph.rtype.nodes
    lower, _ = _signature_rule(first, second)
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


def reversal_xi(graph, first, second, nodes, involution):
    """xi_J on graph = B(lam1 + lam2), J = nodes, from the Henriques-Kamnitzer
    reversal, reading the involution only on the factors first = B(lam1) and
    second = B(lam2): a list of the image of each vertex, None where the
    reversal gives none.

    rev(x (x) y) = xi_J(y) (x) xi_J(x), with xi_J = involution(factor, nodes),
    maps the J-component of iota(v) in first (x) second (iota the pairing)
    onto a J-component K of second (x) first, highest to lowest and f_j to
    e_theta(j).  K is isomorphic to the J-component of v but is in general
    not the one that the Cartan component of second (x) first holds, so the
    image is read back through the J-crystal isomorphism from K onto v's
    component, found by carrying f_j (j in J) from the two highest vertices
    in step.  A vertex whose reversed pair is not in K, or a component where
    the two sides differ on a defined f_j, gets no image."""
    iota, fault = pairing(graph, first, second)
    if fault is not None:
        raise AssertionError(f"graph is not the Cartan component: {fault}")
    colors = sorted(nodes)
    xi1, xi2 = involution(first, nodes), involution(second, nodes)
    lower, raise_ = _signature_rule(second, first)

    def reversed_pair(b):
        x, y = iota[b]
        return xi2[y], xi1[x]

    def top(v, up):
        """The highest vertex above v along the colors of J."""
        while above := [w for w in (up(v, j) for j in colors) if w is not None]:
            v = above[0]
        return v

    images, seen = [None] * len(graph), set()
    for v in range(len(graph)):
        if v in seen:
            continue
        b = top(v, lambda b, j: graph.e_to[j][b])
        a = top(reversed_pair(b), raise_)
        vertex_of, pair_of, same = {a: b}, {b: a}, True
        queue = [(a, b)]
        for a, b in queue:  # breadth first down both components in step
            for j in colors:
                a2, b2 = lower(a, j), graph.f_to[j][b]
                if a2 is None and b2 is None:
                    continue
                if a2 is None or b2 is None:
                    same = False
                elif a2 not in vertex_of and b2 not in pair_of:
                    vertex_of[a2], pair_of[b2] = b2, a2
                    queue.append((a2, b2))
                elif vertex_of.get(a2) != b2:
                    same = False
        seen.update(pair_of)
        for b in pair_of:
            images[b] = vertex_of.get(reversed_pair(b)) if same else None
    return images
