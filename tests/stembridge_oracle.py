"""Stembridge's local axioms, kept as a test oracle for the shape of
simply-laced crystals (Stembridge, "A local characterization of simply-laced
crystals", Trans. AMS 2003).  A connected simply-laced crystal that satisfies
them is the crystal of a representation, so they check the edges themselves,
where the Weyl dimension and Freudenthal's formula see only counts.

epsilon_j and phi_j are the string lengths along the e_to and f_to lists.  For
colors i != j and a vertex x with e_i x defined, let
d_eps = eps_j(e_i x) - eps_j(x) and d_phi = phi_j(e_i x) - phi_j(x), and let
a_ij = a[i][j] = <alpha_j, alpha_i^vee> in the package's Cartan convention:

- "string-shift": d_eps >= 0, d_phi <= 0 and d_eps - d_phi = -a_ij;
- "commute": if d_eps = 0 and e_j x is defined, then e_i e_j x = e_j e_i x;
- "braid": if d_eps = 1 and eps_i(e_j x) - eps_i(x) = 1, then
  e_i e_j e_j e_i x = e_j e_i e_i e_j x, and both are defined.

The same statements with f for e and phi for eps (the dual crystal) are
checked too.  On a simply-laced type a is symmetric, and the string shift is
the weight law: e_i adds alpha_i and phi_j - eps_j = <wt, alpha_j^vee>.  On B,
C, F and G the weight law gives -a_ji instead, so B2(1,1), C3(1,1,1) and
G2(1,1) break the string shift; tests keep one as a negative control.
"""

from pathcrystals.cartan import cartan_matrix


def _string_lengths(step, n):
    """Length of the string along one edge list from each vertex, or None
    where the walk does not end within n steps (a cycle)."""
    lengths = []
    for v in range(n):
        count = 0
        while step[v] is not None and count <= n:
            v = step[v]
            count += 1
        lengths.append(count if count <= n else None)
    return lengths


def violations(graph) -> list:
    """Violation records {"axiom", "side", "vertex", "colors"}; empty if the
    graph satisfies the axioms on both sides."""
    t = graph.rtype
    a = cartan_matrix(t)
    n = len(graph)
    found = []
    for side, up, down in (("e", graph.e_to, graph.f_to), ("f", graph.f_to, graph.e_to)):
        eps = {i: _string_lengths(up[i], n) for i in t.nodes}
        phi = {i: _string_lengths(down[i], n) for i in t.nodes}
        if any(None in lengths for lengths in (*eps.values(), *phi.values())):
            return [{"axiom": "unbounded-string", "side": side}]

        def word(x, *colors):  # the colors apply left to right
            for i in colors:
                if x is not None:
                    x = up[i][x]
            return x

        def flag(axiom, x, i, j):
            found.append({"axiom": axiom, "side": side, "vertex": x, "colors": [i, j]})

        for i in t.nodes:
            for j in t.nodes:
                if i == j:
                    continue
                for x in range(n):
                    y = up[i][x]
                    if y is None:
                        continue
                    d_eps = eps[j][y] - eps[j][x]
                    d_phi = phi[j][y] - phi[j][x]
                    if d_eps < 0 or d_phi > 0 or d_eps - d_phi != -a[i - 1][j - 1]:
                        flag("string-shift", x, i, j)
                    z = up[j][x]
                    if z is None:
                        continue
                    if d_eps == 0 and (word(x, i, j) is None or word(x, i, j) != word(x, j, i)):
                        flag("commute", x, i, j)
                    if d_eps == 1 and eps[i][z] - eps[i][x] == 1:
                        left, right = word(x, i, j, j, i), word(x, j, i, i, j)
                        if left is None or left != right:
                            flag("braid", x, i, j)
    return found
