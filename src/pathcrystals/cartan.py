"""Root-system and Weyl-group combinatorics for the finite Dynkin types.

Weights are stored in fundamental-weight coordinates throughout: coordinate i
of a vector mu is the pairing <mu, alpha_i^vee>.  The Cartan matrix convention
is a[i][j] = <alpha_j, alpha_i^vee>, so column j spells the simple root
alpha_j in those coordinates.  Nodes are numbered 1..rank in Bourbaki style:
the D_n fork sits at nodes n-1 and n (both attached to n-2), the E_n branch
node 2 hangs off node 4, B_n has its short root at node n, C_n its long root
at node n, and G_2 its long root at node 2 (a[1][2] = -3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

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


def simple_root(t: DynkinType, j: int) -> Weight:
    """Simple root alpha_j in fundamental-weight coordinates (matrix column j)."""
    if j not in t.nodes:
        raise DomainError(f"node {j} not in {t}")
    a = cartan_matrix(t)
    return tuple(a[i][j - 1] for i in range(t.rank))


def reflect(t: DynkinType, mu: Weight, i: int) -> Weight:
    """Simple reflection r_i(mu) = mu - <mu, alpha_i^vee> alpha_i."""
    if i not in t.nodes:
        raise DomainError(f"node {i} not in {t}")
    c = mu[i - 1]
    alpha = simple_root(t, i)
    return tuple(x - c * a for x, a in zip(mu, alpha))


@cache
def positive_roots(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, ...], ...]:
    """Positive roots of the parabolic subsystem on the given nodes.

    Each root is returned as its coefficient vector over the simple roots
    (root-basis coordinates), sorted lexicographically.  Computed as the
    reflection closure of the simple roots, filtered to the positive cone.
    """
    nodes = frozenset(nodes)
    if not nodes <= all_nodes(t):
        raise DomainError(f"nodes {sorted(nodes)} not in {t}")
    a = cartan_matrix(t)
    seen = set()
    stack = []
    for j in nodes:
        c = tuple(1 if k == j else 0 for k in t.nodes)
        seen.add(c)
        stack.append(c)
    while stack:
        c = stack.pop()
        for j in nodes:
            # <beta, alpha_j^vee> for beta = sum_k c_k alpha_k
            pairing = sum(c[k - 1] * a[j - 1][k - 1] for k in nodes)
            image = list(c)
            image[j - 1] -= pairing
            image = tuple(image)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return tuple(sorted(c for c in seen if min(c) >= 0))


@cache
def longest_word(t: DynkinType, nodes: NodeSet) -> tuple[int, ...]:
    """Reduced word for the longest parabolic element, by greedy descent.

    Starting from the sum of fundamental weights over the node set, repeatedly
    applies the reflection with the smallest node index whose coordinate is
    still positive.  The recorded word has length |positive roots| and spells
    the longest element (an involution, so the reading order is immaterial).
    """
    nodes = frozenset(nodes)
    if not nodes:
        return ()
    mu = tuple(1 if j in nodes else 0 for j in t.nodes)
    order = sorted(nodes)
    word = []
    while True:
        j = next((j for j in order if mu[j - 1] > 0), None)
        if j is None:
            break
        mu = reflect(t, mu, j)
        word.append(j)
    if len(word) != len(positive_roots(t, nodes)):
        raise ModelIntegrityError(f"longest word length mismatch on {t}, {sorted(nodes)}")
    return tuple(word)


def w0J_apply(t: DynkinType, nodes: NodeSet, mu: Weight) -> Weight:
    """Apply the longest parabolic element to a weight (word read right to left)."""
    for i in reversed(longest_word(t, frozenset(nodes))):
        mu = reflect(t, mu, i)
    return mu


@cache
def _theta_pairs(t: DynkinType, nodes: NodeSet) -> tuple[tuple[int, int], ...]:
    if not is_connected(t, nodes):
        raise DomainError(f"theta needs a connected node set, got {sorted(nodes)}")
    simples = {j: simple_root(t, j) for j in nodes}
    pairs = []
    for j in sorted(nodes):
        image = w0J_apply(t, nodes, simples[j])
        negated = tuple(-x for x in image)
        matches = [jp for jp in nodes if simples[jp] == negated]
        if len(matches) != 1:
            raise ModelIntegrityError(
                f"longest element does not negate a simple root on {t}, {sorted(nodes)}"
            )
        pairs.append((j, matches[0]))
    return tuple(pairs)


def theta(t: DynkinType, nodes: NodeSet) -> dict:
    """Diagram automorphism j -> j' of a connected subdiagram determined by
    alpha_{j'} = -(longest parabolic element)(alpha_j)."""
    return dict(_theta_pairs(t, frozenset(nodes)))


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
    nodes = set(nodes)
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
    return len(components(t, nodes)) == 1


def weyl_dim(t: DynkinType, lam: Weight) -> int:
    """Dimension of the irreducible module of highest weight lam, computed
    exactly by the Weyl dimension formula.  Used as the independent size
    oracle for generated crystals.  With (alpha_j, alpha_k) = d_k a[k][j],
    (mu, alpha) = sum_j c_j d_j mu_j for alpha = sum_j c_j alpha_j, so each
    factor (lam + rho, alpha) / (rho, alpha) is a ratio of integer sums."""
    lam = tuple(lam)
    if len(lam) != t.rank or any(x < 0 for x in lam):
        raise DomainError(f"weyl_dim needs a dominant weight of length {t.rank}")
    d = symmetrizer(t)
    numer = denom = 1
    for coeffs in positive_roots(t, all_nodes(t)):
        numer *= sum(c * dj * (x + 1) for c, dj, x in zip(coeffs, d, lam))
        denom *= sum(c * dj for c, dj in zip(coeffs, d))
    dim, rest = divmod(numer, denom)
    if rest:
        # the product can pass the int-to-str digit limit: name the input
        raise ModelIntegrityError(f"Weyl dimension of {t} at {lam} is not an integer")
    return dim
