"""Replaced Cartan routines, kept as test oracles for pathcrystals.cartan.

weyl_dim is the Fraction Weyl dimension formula.  Each positive root alpha
contributes the factor <lam + rho, alpha^vee> / <rho, alpha^vee>, and each
coroot pairing is built as the Fraction 2 (mu, alpha) / (alpha, alpha), with
the root norm summed over the Cartan matrix.  The package cancels
(alpha, alpha) in each factor and divides one integer product by another.
weyl_dim_by_roots is the package's earlier form of that: both products
rebuilt from the root coefficients and the symmetrizer on every call, where
the package now reads the rows and the denominator from a table cached per
type.  Both oracles cache only the oracle's own positive roots and root
norms per type.

positive_roots is the earlier reflection closure of the simple roots, which
sums each pairing over the whole node set, also reaches the negative roots
and filters them out at the end.

longest_word, w0J_apply and theta are the earlier descent and diagram
automorphism.  The descent starts from the sum of the fundamental weights
over the node set, and theta applies w0_J to each simple root of J and
matches the negated image against the simple roots: |J| + 1 descents where
the package makes one.  They reflect with their own columns of the Cartan
matrix.
"""

from fractions import Fraction
from functools import cache

from pathcrystals.cartan import all_nodes, cartan_matrix, symmetrizer
from pathcrystals.errors import DomainError, ModelIntegrityError


def _simple_root(t, j) -> tuple:
    a = cartan_matrix(t)
    return tuple(a[i][j - 1] for i in range(t.rank))


def _reflect(t, mu, i) -> tuple:
    c = mu[i - 1]
    return tuple(x - c * a for x, a in zip(mu, _simple_root(t, i)))


def positive_roots(t, nodes) -> tuple:
    a = cartan_matrix(t)
    stack = [tuple(int(k == j) for k in t.nodes) for j in nodes]
    seen = set(stack)
    while stack:
        c = stack.pop()
        for j in nodes:
            pairing = sum(c[k - 1] * a[j - 1][k - 1] for k in nodes)
            image = c[: j - 1] + (c[j - 1] - pairing,) + c[j:]
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return tuple(sorted(c for c in seen if min(c) >= 0))


def longest_word(t, nodes) -> tuple:
    mu = tuple(1 if j in nodes else 0 for j in t.nodes)
    order = sorted(nodes)
    word = []
    while (j := next((j for j in order if mu[j - 1] > 0), None)) is not None:
        mu = _reflect(t, mu, j)
        word.append(j)
    return tuple(word)


def w0J_apply(t, nodes, mu) -> tuple:
    for i in reversed(longest_word(t, nodes)):
        mu = _reflect(t, mu, i)
    return mu


def theta(t, nodes) -> dict:
    simples = {j: _simple_root(t, j) for j in nodes}
    out = {}
    for j in sorted(nodes):
        negated = tuple(-x for x in w0J_apply(t, nodes, simples[j]))
        matches = [jp for jp in nodes if simples[jp] == negated]
        if len(matches) != 1:
            raise ModelIntegrityError(f"longest element does not negate alpha_{j}")
        out[j] = matches[0]
    return out


@cache
def _all_positive_roots(t) -> tuple:
    return positive_roots(t, all_nodes(t))


@cache
def _half_norm(t, d, coeffs) -> int:
    """(alpha, alpha) / 2, with (alpha_j, alpha_k) = d_k a[k][j]."""
    a = cartan_matrix(t)
    return sum(
        coeffs[j] * coeffs[k] * d[k] * a[k][j]
        for j in range(t.rank)
        for k in range(t.rank)
        if coeffs[j] and coeffs[k]
    )


def _pair_with_covector(t, d, coeffs, mu) -> Fraction:
    """<mu, alpha^vee> for alpha given by root-basis coefficients."""
    numer = sum(c * dj * x for c, dj, x in zip(coeffs, d, mu))
    return Fraction(2 * numer, _half_norm(t, d, coeffs))


def weyl_dim(t, lam) -> int:
    lam = tuple(lam)
    if len(lam) != t.rank or any(x < 0 for x in lam):
        raise DomainError(f"weyl_dim needs a dominant weight of length {t.rank}")
    d = symmetrizer(t)
    rho = (1,) * t.rank
    shifted = tuple(x + 1 for x in lam)
    result = Fraction(1)
    for coeffs in _all_positive_roots(t):
        result *= _pair_with_covector(t, d, coeffs, shifted)
        result /= _pair_with_covector(t, d, coeffs, rho)
    if result.denominator != 1 or result <= 0:
        raise ModelIntegrityError(f"Weyl dimension not a positive integer: {result}")
    return int(result)


def weyl_dim_by_roots(t, lam) -> int:
    d = symmetrizer(t)
    numer = denom = 1
    for coeffs in _all_positive_roots(t):
        numer *= sum(c * dj * (x + 1) for c, dj, x in zip(coeffs, d, lam))
        denom *= sum(c * dj for c, dj in zip(coeffs, d))
    dim, rest = divmod(numer, denom)
    if rest:
        raise ModelIntegrityError(f"Weyl dimension of {t} at {lam} is not an integer")
    return dim
