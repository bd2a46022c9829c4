"""B(lam) as the Lakshmibai-Seshadri paths of shape lam, kept as a test oracle
for which paths a generated model holds, with no root operator.

Littelmann (Invent. Math. 116, 1994): an LS path of shape lam is a sequence
sigma_1 > ... > sigma_r of weights in W.lam, in the Bruhat order, with break
times 0 < a_1 < ... < a_{r-1} < 1, such that for each break a_k there is an
a_k-chain from sigma_k down to sigma_{k+1}: a chain of Bruhat covers each of
whose coroot pairings a_k turns into an integer.  For a_k = p/q in lowest
terms, q must divide every pairing on the chain.  The path runs in direction
sigma_k from a_{k-1} to a_k.

Everything is read off weights.  For a positive root beta = sum_k c_k
alpha_k, with (alpha_k, alpha_l) = d_k a[k][l] and d_beta = (beta, beta) / 2,
the coroot is beta^vee = sum_k (c_k d_k / d_beta) alpha_k^vee, so
<mu, beta^vee> = sum_k c_k d_k mu_k / d_beta for mu in fundamental-weight
coordinates.  The length of mu in W.lam is the number of positive coroots
that pair negatively with it, and s_beta mu = mu - <mu, beta^vee> beta covers
mu when <mu, beta^vee> > 0 and the length rises by exactly 1.

The oracle reads only the fields of a path record, never a function of the
paths module.  A path is keyed by its break times and its directions, both
as Fractions, after equal adjacent directions are merged.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from pathcrystals.cartan import all_nodes, cartan_matrix, positive_roots, reflect, symmetrizer


def path_key(path) -> tuple:
    """(break times, directions) of a path record as Fractions, one
    direction per segment, with equal adjacent directions merged."""
    times = [Fraction(t, path.den) for t in path.times]
    dirs = [tuple(Fraction(c, path.vden) for c in d) for d in path.dirs]
    for k in range(len(dirs) - 1, 0, -1):
        if dirs[k] == dirs[k - 1]:
            del times[k], dirs[k]
    return tuple(times), tuple(dirs)


def _coroots(t) -> list:
    """(coroot coefficients over the simple coroots, root in fundamental
    weights) of each positive root."""
    a, d, ks = cartan_matrix(t), symmetrizer(t), range(t.rank)
    out = []
    for c in positive_roots(t, all_nodes(t)):
        twice = sum(c[k] * c[l] * d[k] * a[k][l] for k in ks for l in ks)
        coroot = [2 * c[k] * d[k] for k in ks]
        assert all(x % twice == 0 for x in coroot), (t, c)
        root = tuple(sum(c[k] * a[i][k] for k in ks) for i in ks)
        out.append((tuple(x // twice for x in coroot), root))
    return out


@cache
def _shape(t, lam: tuple, divisible: bool = True) -> tuple:
    """(W.lam, the break times, {q: {sigma: the weights below sigma that an
    a-chain of a break over q reaches}}).  A break time p/q in lowest terms
    is one whose q > 1 divides the pairing of some cover; without the
    divisibility condition every chain of covers counts, at the same times."""
    orbit, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for i in t.nodes:
            if (nu := reflect(t, mu, i)) not in orbit:
                orbit.add(nu)
                todo.append(nu)
    coroots = _coroots(t)

    def pairing(mu, coroot):
        return sum(x * y for x, y in zip(mu, coroot))

    length = {mu: sum(pairing(mu, c) < 0 for c, _ in coroots) for mu in orbit}
    covers = []  # (lower, upper, pairing)
    for mu in orbit:
        for coroot, root in coroots:
            if (p := pairing(mu, coroot)) > 0:
                nu = tuple(x - p * y for x, y in zip(mu, root))
                if length[nu] == length[mu] + 1:
                    covers.append((mu, nu, p))
    denominators = sorted({q for _, _, p in covers for q in range(2, p + 1) if p % q == 0})
    times = sorted(
        Fraction(n, q) for q in denominators for n in range(1, q) if gcd(n, q) == 1
    )
    below = {}
    for q in denominators:
        down = {mu: set() for mu in orbit}
        for lower, upper, p in covers:
            if p % q == 0 or not divisible:
                down[upper].add(lower)
        reach = {}
        for mu in sorted(orbit, key=length.get):  # the lower ones first
            reach[mu] = set().union(*({nu} | reach[nu] for nu in down[mu]))
        below[q] = reach
    return frozenset(orbit), tuple(times), below


def ls_paths(t, lam, divisible: bool = True) -> set:
    """The path keys of the LS paths of shape lam; with divisible=False, of
    the Bruhat chains with breaks at the same times but no a-chain condition."""
    orbit, times, below = _shape(t, tuple(lam), divisible)
    out = set()

    def extend(ts, dirs):
        out.add((ts + (Fraction(1),), dirs))
        for a in times:
            if a > ts[-1]:
                for sigma in below[a.denominator][dirs[-1]]:
                    extend(ts + (a,), dirs + (sigma,))

    for sigma in orbit:
        extend((Fraction(0),), (sigma,))
    return out


def is_ls_path(t, lam, path) -> bool:
    """Whether a path record is an LS path of shape lam: of type t, every
    direction in W.lam, and an a-chain at every break a."""
    orbit, _, below = _shape(t, tuple(lam))
    times, dirs = path_key(path)
    if path.rtype != t or not orbit.issuperset(dirs):
        return False
    return all(
        dirs[k + 1] in below.get(a.denominator, {}).get(dirs[k], ())
        for k, a in enumerate(times[1:-1])
    )
