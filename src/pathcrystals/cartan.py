"""Root-system and Weyl-group combinatorics for the finite Dynkin types.

Weights are stored in fundamental-weight coordinates throughout: coordinate i
of a vector mu is the pairing <mu, alpha_i^vee>.  The Cartan matrix convention
is a[i][j] = <alpha_j, alpha_i^vee>, so column j spells the simple root
alpha_j in those coordinates; the other modules read these columns, and
2 rho^vee, from this one.  Nodes are numbered 1..rank in Bourbaki style:
the D_n fork sits at nodes n-1 and n (both attached to n-2), the E_n branch
node 2 hangs off node 4, B_n has its short root at node n, C_n its long root
at node n, and G_2 its long root at node 2 (a[1][2] = -3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import mul

from .errors import ConfigurationError, DomainError, ModelIntegrityError

NodeSet = frozenset  # of 1-based node indices
Weight = tuple  # numeric entries, length = rank

_ADMISSIBLE_RANK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True, order=True)
class DynkinType:
    """A finite Dynkin type, e.g. DynkinType("C", 2)."""

    family: str
    rank: int

    def __post_init__(self):
        check = _ADMISSIBLE_RANK.get(self.family)
        if check is None or not check(self.rank):
            raise ConfigurationError(
                f"inadmissible Dynkin type {self.family}{self.rank}"
            )

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        """Parse a string like "C2", "A5" or "E6"."""
        m = re.fullmatch(r"([A-Ga-g])([0-9]+)", str(text).strip())
        try:
            rank = int(m.group(2)) if m else None
        except ValueError:  # past the int-from-str digit limit
            rank = None
        if rank is None:
            raise ConfigurationError(f"cannot parse Dynkin type {text!r}")
        return cls(m.group(1).upper(), rank)

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def all_nodes(t: DynkinType) -> NodeSet:
    return frozenset(t.nodes)


def _node_set(t: DynkinType, nodes, noun="nodes") -> NodeSet:
    """The node set as a frozenset of int nodes of t.  The type test comes
    first: 1.0 and True compare and hash equal to node 1."""
    nodes = frozenset(nodes)
    if not all(type(j) is int and 0 < j <= t.rank for j in nodes):
        odd = sorted(repr(j) for j in nodes if type(j) is not int)
        message = f"node {odd[0]}" if odd else f"{noun} {sorted(nodes)}"
        raise DomainError(f"{message} not in {t}")
    return nodes


def node_mask(nodes) -> int:
    """Bitmask of a node set; fixes the canonical ordering of subdiagrams."""
    return sum(1 << (i - 1) for i in nodes)


@cache
def _edges(t: DynkinType) -> tuple[tuple[int, int], ...]:
    n = t.rank
    if t.family in ("A", "B", "C", "F", "G"):
        pairs = [(i, i + 1) for i in range(1, n)]
    elif t.family == "D":
        pairs = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    else:  # E
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        pairs = list(zip(chain, chain[1:])) + [(2, 4)]
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@cache
def neighbors(t: DynkinType) -> dict:
    """Adjacency of the Dynkin diagram as node -> frozenset of nodes."""
    adj = {i: set() for i in t.nodes}
    for i, j in _edges(t):
        adj[i].add(j)
        adj[j].add(i)
    return {i: frozenset(s) for i, s in adj.items()}


@cache
def cartan_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with a[i][j] = <alpha_j, alpha_i^vee> (0-based storage)."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in _edges(t):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    if t.family == "B":
        a[n - 1][n - 2] = -2
    elif t.family == "C":
        a[n - 2][n - 1] = -2
    elif t.family == "F":
        a[2][1] = -2
    elif t.family == "G":
        a[0][1] = -3
    return tuple(tuple(row) for row in a)


@cache
def symmetrizer(t: DynkinType) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a[i][j] = d_j a[j][i]."""
    a = cartan_matrix(t)
    d: list = [None] * t.rank
    d[0] = Fraction(1)
    todo = [1]
    seen = {1}
    while todo:
        i = todo.pop(0)
        for j in sorted(neighbors(t)[i]):
            if j not in seen:
                d[j - 1] = d[i - 1] * Fraction(a[i - 1][j - 1], a[j - 1][i - 1])
                seen.add(j)
                todo.append(j)
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    for i in range(t.rank):
        for j in range(t.rank):
            if ints[i] * a[i][j] != ints[j] * a[j][i]:
                raise ModelIntegrityError(f"no symmetrizer for {t}")
    return tuple(ints)


@cache
def _columns(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Column j - 1 of the Cartan matrix: alpha_j in fundamental weights."""
    return tuple(zip(*cartan_matrix(t)))


def _check_node(t: DynkinType, j) -> None:
    if type(j) is not int or not 0 < j <= t.rank:
        raise DomainError(f"node {j!r} not in {t}")


def simple_root(t: DynkinType, j: int) -> Weight:
    """Simple root alpha_j in fundamental-weight coordinates (matrix column j)."""
    _check_node(t, j)
    return _columns(t)[j - 1]


def reflect(t: DynkinType, mu: Weight, i: int) -> Weight:
    """Simple reflection r_i(mu) = mu - <mu, alpha_i^vee> alpha_i."""
    alpha = simple_root(t, i)
    if len(mu) != t.rank:
        raise DomainError(f"weight must have length {t.rank}")
    c = mu[i - 1]
    return tuple(x - c * a for x, a in zip(mu, alpha))


def positive_roots(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, ...], ...]:
    """Positive roots of the parabolic subsystem on the given nodes.

    Each root is returned as its coefficient vector over the simple roots
    (root-basis coordinates), sorted lexicographically.  Grown from the
    simple roots by the simple reflections that raise a root.
    The node set is checked before the cache, whose entry for node 1 would
    answer for 1.0 or True.
    """
    return _positive_roots(t, _node_set(t, nodes))


@cache
def _positive_roots(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, ...], ...]:
    a, adj = cartan_matrix(t), neighbors(t)
    near = {j: [(k - 1, a[j - 1][k - 1]) for k in adj[j]] for j in nodes}
    stack = [tuple(int(k == j) for k in t.nodes) for j in nodes]
    seen = set(stack)
    while stack:
        c = stack.pop()
        for j in nodes:
            # r_j(beta) = beta - <beta, alpha_j^vee> alpha_j for beta = sum_k c_k
            # alpha_k, where <beta, alpha_j^vee> = 2 c_j + sum_k a[j][k] c_k over
            # the neighbours k of j.  Only raising reflections are taken: a positive
            # root beta != alpha_j with <beta, alpha_j^vee> > 0 is r_j of a lower
            # positive root, so they reach every positive root from the simple ones
            pairing = 2 * c[j - 1] + sum(c[k] * ajk for k, ajk in near[j])
            if pairing >= 0:
                continue
            image = c[: j - 1] + (c[j - 1] - pairing,) + c[j:]
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return tuple(sorted(seen))


def _descent(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, ...], Weight]:
    """Word and end w0_J mu of the greedy descent from mu = sum_{j in J} j varpi_j,
    regular dominant on J: reflect at the smallest node of J with a positive
    coordinate until there is none.  As w0_J alpha_i^vee = -alpha_theta(i)^vee,
    coordinate i of the end is -theta(i)."""
    mu = tuple(j if j in nodes else 0 for j in t.nodes)
    order = sorted(nodes)
    word = []
    while (j := next((j for j in order if mu[j - 1] > 0), None)) is not None:
        mu = reflect(t, mu, j)
        word.append(j)
    return tuple(word), mu


def longest_word(t: DynkinType, nodes: NodeSet) -> tuple[int, ...]:
    """Reduced word for the longest parabolic element, by the greedy descent,
    checked to have length |positive roots|.  The element is an involution,
    so the reading order is immaterial."""
    nodes = _node_set(t, nodes)
    word, _ = _descent(t, nodes)
    if len(word) != len(positive_roots(t, nodes)):
        raise ModelIntegrityError(f"longest word length mismatch on {t}, {sorted(nodes)}")
    return word


@cache
def _two_rho_vee(t: DynkinType) -> tuple[int, ...]:
    """Coefficients n of 2 rho^vee, the sum of the positive coroots
    beta^vee = 2 beta / (beta, beta), over the simple coroots: alpha_k is
    d_k alpha_k^vee, so n_k = sum 2 c_k d_k / (beta, beta), each term an int."""
    a, d, ks = cartan_matrix(t), symmetrizer(t), range(t.rank)
    roots = positive_roots(t, all_nodes(t))
    norms = [sum(c[j] * c[k] * d[k] * a[k][j] for j in ks for k in ks) for c in roots]
    return tuple(sum(2 * c[k] * d[k] // m for c, m in zip(roots, norms)) for k in ks)


def w0J_apply(t: DynkinType, nodes: NodeSet, mu: Weight) -> Weight:
    """Apply the longest parabolic element to a weight (word read right to left)."""
    if len(mu) != t.rank:
        raise DomainError(f"weight must have length {t.rank}")
    for i in reversed(longest_word(t, frozenset(nodes))):
        mu = reflect(t, mu, i)
    return mu


@cache
def _theta_pairs(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, int], ...]:
    _, end = _descent(t, nodes)
    pairs = tuple((j, -end[j - 1]) for j in sorted(nodes))
    if sorted(jp for _, jp in pairs) != sorted(nodes):
        raise ModelIntegrityError(
            f"longest element does not negate a simple root on {t}, {sorted(nodes)}"
        )
    return pairs


def theta(t: DynkinType, nodes: NodeSet) -> dict:
    """Diagram automorphism j -> j' of any node set, alpha_{j'} = -w0_J(alpha_j),
    read off the end of the descent: on a disconnected set the union of its
    components' automorphisms, on the empty set {}.  The node set is checked
    before the cache: 1.0 and True would hit the entry of node 1."""
    return dict(_theta_pairs(t, _node_set(t, nodes)))


@cache
def connected_subdiagrams(t: DynkinType) -> tuple[NodeSet, ...]:
    """All nonempty connected induced subdiagrams, sorted by node bitmask.

    Enumerated by growing connected sets one adjacent node at a time; the
    test suite cross-checks against an exhaustive subset scan.
    """
    adj = neighbors(t)
    seen = {frozenset({i}) for i in t.nodes}
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for v in s:
            for w in adj[v]:
                if w not in s:
                    grown = s | {w}
                    if grown not in seen:
                        seen.add(grown)
                        frontier.append(grown)
    return tuple(sorted(seen, key=node_mask))


def components(t: DynkinType, nodes) -> list:
    """Partition a node set into connected pieces, ascending by smallest node."""
    nodes = set(_node_set(t, nodes))
    adj = neighbors(t)
    out = []
    while nodes:
        start = min(nodes)
        comp = {start}
        todo = [start]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w in nodes and w not in comp:
                    comp.add(w)
                    todo.append(w)
        nodes -= comp
        out.append(frozenset(comp))
    return sorted(out, key=min)


def is_connected(t: DynkinType, nodes) -> bool:
    """Whether the node set is nonempty and connected, cached per type.  The
    node set is checked before the cache: 1.0 and True would hit node 1."""
    return _is_connected(t, _node_set(t, nodes))


@cache
def _is_connected(t: DynkinType, nodes: NodeSet) -> bool:
    return len(components(t, nodes)) == 1


@cache
def _weyl_table(t: DynkinType) -> tuple[tuple, int]:
    """Per positive root alpha = sum_j c_j alpha_j, the row (c_j d_j)_j and
    (rho, alpha) = sum_j c_j d_j; and the product of the (rho, alpha).  Reads
    the module's symmetrizer at build time."""
    d = symmetrizer(t)
    rows = [tuple(map(mul, c, d)) for c in positive_roots(t, all_nodes(t))]
    return tuple((row, sum(row)) for row in rows), prod(map(sum, rows))


def weyl_dim(t: DynkinType, lam: Weight) -> int:
    """Dimension of the irreducible module of highest weight lam, computed
    exactly by the Weyl dimension formula.  Used as the independent size
    oracle for generated crystals.  With (alpha_j, alpha_k) = d_k a[k][j],
    (mu, alpha) = sum_j c_j d_j mu_j for alpha = sum_j c_j alpha_j, so each
    factor (lam + rho, alpha) / (rho, alpha) is a ratio of integer sums; the
    rows and the denominator come from a table cached per type."""
    lam = tuple(lam)
    # one pass when lam is valid; the type test comes first, as "1" < 0 raises
    if len(lam) != t.rank or any(type(x) is not int or x < 0 for x in lam):
        if any(type(x) is not int for x in lam):
            raise DomainError(f"weight {lam} has an entry that is not an int")
        raise DomainError(f"weyl_dim needs a dominant weight of length {t.rank}")
    table, denom = _weyl_table(t)
    numer = 1
    for row, rho_alpha in table:
        numer *= sum(map(mul, row, lam)) + rho_alpha
    dim, rest = divmod(numer, denom)
    if rest:
        # the product can pass the int-to-str digit limit: name the input
        raise ModelIntegrityError(f"Weyl dimension of {t} at {lam} is not an integer")
    return dim
