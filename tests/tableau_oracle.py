"""Semistandard tableaux, RSK and evacuation, kept as an oracle for the
partial involutions of type A that reads no theta and no involution
(Berenstein-Kirillov, "Groups generated by involutions, Gelfand-Tsetlin
patterns and combinatorics of Young tableaux", 1995; Chmutov-Glick-
Pylyavskyy, "The Berenstein-Kirillov group and cactus groups").

B(lam) of A_n is the crystal of semistandard tableaux of shape
(lam_1 + ... + lam_n, ..., lam_n) in the letters 1..n+1.  A tableau is a
tuple of rows, top row first.  Its reading word runs over the rows bottom
to top, each row left to right.  f_i reads i+1 as "(" and i as ")", and
turns the rightmost unmatched i into i+1; it is undefined if there is none.

tableaux(graph) sends vertex 0 to the tableau whose row r holds only r and
follows the f-edges breadth first, ids and colors ascending.  Every edge
must agree with the bracket rule, in definedness and in value, and the map
must be one to one.

For J = [a, b-1], evacuate(T, a, b) is xi_J on tableaux: it takes the
subword of the letters in [a, b], row-inserts it to (P, Q), replaces P by
its evacuation (the insertion tableau of the reversed reading word of P,
each letter x replaced by a + b - x), and writes RSK^-1 of the new pair
back into the same cells.
"""


def shape(lam) -> tuple:
    """Row lengths of the tableaux of B(lam), zero rows dropped."""
    rows = [sum(lam[r:]) for r in range(len(lam))]
    return tuple(n for n in rows if n)


def highest(lam) -> tuple:
    """The tableau whose row r holds only the letter r."""
    return tuple((r,) * n for r, n in enumerate(shape(lam), 1))


def _cells(tableau):
    """The cells (r, c) in reading order: rows bottom to top, left to right."""
    return [(r, c) for r in reversed(range(len(tableau))) for c in range(len(tableau[r]))]


def _fill(tableau, cells, letters) -> tuple:
    rows = [list(row) for row in tableau]
    for (r, c), x in zip(cells, letters):
        rows[r][c] = x
    return tuple(map(tuple, rows))


def f(tableau, i):
    """f_i by the bracket rule on the reading word, or None."""
    cells = _cells(tableau)
    unmatched = []
    for k, (r, c) in reversed(list(enumerate(cells))):  # right to left
        x = tableau[r][c]
        if x == i:
            unmatched.append(k)
        elif x == i + 1 and unmatched:
            unmatched.pop()  # this i+1 closes the nearest i to its right
    if not unmatched:
        return None
    r, c = cells[unmatched[0]]  # the rightmost unmatched i
    return _fill(tableau, [(r, c)], [i + 1])


def _insert(rows, x) -> int:
    """Row-insert x into rows in place; the row index where a cell was added."""
    for r, row in enumerate(rows):
        k = next((k for k, y in enumerate(row) if y > x), None)
        if k is None:
            row.append(x)
            return r
        row[k], x = x, row[k]
    rows.append([x])
    return len(rows) - 1


def rsk(word) -> tuple:
    """(P, Q) of a word by row insertion; Q records the steps 1..len(word)."""
    p, q = [], []
    for step, x in enumerate(word, 1):
        r = _insert(p, x)
        if r == len(q):
            q.append([])
        q[r].append(step)
    return p, q


def rsk_inverse(p, q) -> list:
    """The word whose RSK pair is (P, Q)."""
    p = [list(row) for row in p]
    q = [list(row) for row in q]
    word = []
    for step in reversed(range(1, sum(map(len, q)) + 1)):
        r = next(r for r, row in enumerate(q) if row and row[-1] == step)
        q[r].pop()
        x = p[r].pop()
        for row in reversed(p[:r]):  # bump back up
            k = max(k for k, y in enumerate(row) if y < x)
            row[k], x = x, row[k]
        word.append(x)
        if not p[r]:
            p.pop(r)
            q.pop(r)
    return word[::-1]


def evac(p, a, b) -> list:
    """Schutzenberger evacuation of P in the letters a..b."""
    word = [a + b - x for r in reversed(range(len(p))) for x in p[r]]
    return rsk(word[::-1])[0]


def evacuate(tableau, a, b) -> tuple:
    """xi_J for J = [a, b-1] on a tableau."""
    cells = [(r, c) for r, c in _cells(tableau) if a <= tableau[r][c] <= b]
    p, q = rsk([tableau[r][c] for r, c in cells])
    return _fill(tableau, cells, rsk_inverse(evac(p, a, b), q))


def is_semistandard(tableau) -> bool:
    rows_weak = all(row[k] <= row[k + 1] for row in tableau for k in range(len(row) - 1))
    cols_strict = all(
        tableau[r][c] < tableau[r + 1][c]
        for r in range(len(tableau) - 1)
        for c in range(len(tableau[r + 1]))
    )
    return rows_weak and cols_strict


def tableaux(graph) -> list:
    """The tableau of every vertex of a type-A path model; AssertionError
    where an edge disagrees with the bracket rule or the map is not one to one."""
    assert graph.rtype.family == "A", graph.rtype
    colors = sorted(graph.rtype.nodes)
    out = {0: highest(graph.highest_weight)}
    queue = [0]
    for v in queue:
        for i in colors:
            w, lowered = graph.f_to[i][v], f(out[v], i)
            assert (w is None) == (lowered is None), f"f_{i} definedness at vertex {v}"
            if w is None:
                continue
            if w not in out:
                out[w] = lowered
                queue.append(w)
            assert out[w] == lowered, f"f_{i} at vertex {v}"
    assert len(out) == len(graph), "vertices the f-edges from vertex 0 do not reach"
    assert len(set(out.values())) == len(graph), "two vertices with one tableau"
    return [out[v] for v in range(len(graph))]


def intervals(n):
    """Every connected color set [a, b-1] of A_n, as (a, b)."""
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 2)]


def mismatches(graph, perm, a, b, tabs=None) -> list:
    """Vertices v whose image perm[v] does not carry the tableau evacuate(T(v), a, b)."""
    tabs = tableaux(graph) if tabs is None else tabs
    return [v for v in range(len(graph)) if tabs[perm[v]] != evacuate(tabs[v], a, b)]
