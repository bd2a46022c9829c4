"""The Fraction Weyl dimension formula, kept as a test oracle for
pathcrystals.cartan.weyl_dim.

Each positive root alpha contributes the factor <lam + rho, alpha^vee> /
<rho, alpha^vee>, and each coroot pairing is built as the Fraction
2 (mu, alpha) / (alpha, alpha), with the root norm summed over the Cartan
matrix.  The package cancels (alpha, alpha) in each factor and divides one
integer product by another.
"""

from fractions import Fraction

from pathcrystals.cartan import all_nodes, cartan_matrix, positive_roots, symmetrizer
from pathcrystals.errors import DomainError, ModelIntegrityError


def _pair_with_covector(t, d, coeffs, mu) -> Fraction:
    """<mu, alpha^vee> for alpha given by root-basis coefficients."""
    a = cartan_matrix(t)
    numer = sum(c * dj * x for c, dj, x in zip(coeffs, d, mu))
    # (alpha, alpha) / 2, with (alpha_j, alpha_k) = d_k a[k][j]
    norm2 = sum(
        coeffs[j] * coeffs[k] * d[k] * a[k][j]
        for j in range(t.rank)
        for k in range(t.rank)
        if coeffs[j] and coeffs[k]
    )
    return Fraction(2 * numer, norm2)


def weyl_dim(t, lam) -> int:
    lam = tuple(lam)
    if len(lam) != t.rank or any(x < 0 for x in lam):
        raise DomainError(f"weyl_dim needs a dominant weight of length {t.rank}")
    d = symmetrizer(t)
    rho = (1,) * t.rank
    shifted = tuple(x + 1 for x in lam)
    result = Fraction(1)
    for coeffs in positive_roots(t, all_nodes(t)):
        result *= _pair_with_covector(t, d, coeffs, shifted)
        result /= _pair_with_covector(t, d, coeffs, rho)
    if result.denominator != 1 or result <= 0:
        raise ModelIntegrityError(f"Weyl dimension not a positive integer: {result}")
    return int(result)
