"""Partial Schutzenberger-Lusztig involutions and the cactus-group action.

For a connected color set J with diagram automorphism theta, the partial
involution xi_J is the unique map that sends the highest vertex of each
J-component to its lowest vertex and intertwines f_i with e_theta(i) for
every i in J (Henriques-Kamnitzer, "Crystals and coboundary categories").
It is computed by propagating that rule along every J-colored lowering edge
in one sweep over the ids in order, which every lowering edge ascends (as
generate numbers them), so any two lowering words to a vertex must give the
same image; a graph the sweep cannot vouch for is rejected.  The sweep
lives in crystal and takes the twist as the pairs cached by _theta_pairs;
xi_perm first checks (cached) that its color set is nonempty and connected.
The verifier checks, by exhaustive permutation arithmetic, that these
involutions satisfy the cactus relations, over pairs of subdiagrams planned
once per type; it sweeps each connected subdiagram with no such check, as
connected_subdiagrams are connected by construction.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .cartan import (
    _theta_pairs,
    components,
    connected_subdiagrams,
    is_connected,
    node_mask,
    theta,
)
from .crystal import CrystalGraph, _check_vertex, _levi_sweep
from .errors import DomainError, ModelIntegrityError


def xi(graph: CrystalGraph, colors, b: int) -> int:
    """Image of vertex b under the partial involution of a connected color set."""
    _check_vertex(len(graph), b)
    return xi_perm(graph, colors)[b]


def xi_perm(graph: CrystalGraph, colors) -> tuple:
    """The partial involution as a permutation of all vertex ids, computed
    and checked by the id-order sweep crystal._levi_sweep."""
    colors = frozenset(colors)
    if not is_connected(graph.rtype, colors):  # False on the empty set
        raise DomainError("xi_perm needs a nonempty connected color set")
    images, _ = _levi_sweep(graph, _theta_pairs(graph.rtype, colors))
    return tuple(images)


def compose(p: tuple, q: tuple) -> tuple:
    """Permutation composition (p after q)."""
    if len(q) < 2:  # itemgetter of one index returns the item, of none fails
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def identity_perm(graph: CrystalGraph) -> tuple:
    return tuple(range(len(graph)))


def act(graph: CrystalGraph, word, perms=None) -> tuple:
    """Permutation of a word of generators, rightmost letter applied first.

    Each letter is a connected node set.  An optional dict caches the
    per-letter permutations across calls.
    """
    cache = perms if perms is not None else {}
    total = None
    for letter in word:
        letter = frozenset(letter)
        perm = cache.get(letter)
        if perm is None:
            perm = xi_perm(graph, letter)
            cache[letter] = perm
        total = perm if total is None else compose(total, perm)
    return identity_perm(graph) if total is None else total


def theta_image(t, outer, inner) -> frozenset:
    """Image of a nonempty connected subset under the diagram automorphism
    of a superset, which may be disconnected (theta holds for any node set)."""
    inner = frozenset(inner)
    if not is_connected(t, inner):  # through _node_set; the empty set has no component
        raise DomainError("theta_image needs a nonempty connected inner set")
    if not inner <= frozenset(outer):
        raise DomainError("theta_image needs nested node sets")
    twist = theta(t, outer)
    image = frozenset(twist[j] for j in inner)
    if not is_connected(t, image):
        raise ModelIntegrityError("automorphism image of a connected set is disconnected")
    return image


def _first_difference(p, q):
    for v, (a, b) in enumerate(zip(p, q)):
        if a != b:
            return v


@cache
def _relation_plan(t) -> tuple:
    """Disconnected pairs (a, b), a before b by bitmask, and nested triples
    (outer, inner, twisted inner), compared by the relations and by folding's
    component identity.  No triple has inner == outer: both sides would agree."""
    subs = connected_subdiagrams(t)
    pairs = [(a, b) for a in subs for b in subs]
    disjoint = tuple(
        (a, b) for a, b in pairs if node_mask(a) < node_mask(b) and len(components(t, a | b)) > 1
    )
    return disjoint, tuple((a, b, theta_image(t, a, b)) for a, b in pairs if b < a)


def _relation_violations(t, perms: dict, ident: tuple) -> list:
    """Check the three cactus-group relations of type t as permutation
    identities, given the permutation of every connected subdiagram.  Each
    record names the first vertex where the two sides differ."""
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

    disjoint, nested = _relation_plan(t)
    for s in perms:
        square = compose(perms[s], perms[s])
        if square != ident:
            record(1, s, s, square, ident)
    for a, b in disjoint:
        left = compose(perms[a], perms[b])
        right = compose(perms[b], perms[a])
        if left != right:
            record(2, a, b, left, right)
    for outer, inner, image in nested:
        left = compose(perms[outer], perms[inner])
        right = compose(perms[image], perms[outer])
        if left != right:
            record(3, outer, inner, left, right)
    return violations


def verify_cactus_relations(graph: CrystalGraph) -> list:
    """Check the three cactus-group relations as permutation identities over
    all pairs of connected subdiagrams.  Returns violation records; empty
    means the generators define a group action on this crystal."""
    t = graph.rtype
    perms = {s: _levi_sweep(graph, _theta_pairs(t, s))[0] for s in connected_subdiagrams(t)}
    return _relation_violations(t, perms, identity_perm(graph))
