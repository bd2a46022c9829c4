"""Weight multiplicities by Freudenthal's formula, kept as a test oracle for
the shape of generated crystals (the weight multiset, not only the size).

Exact and stdlib only.  The invariant form comes from the symmetrizer d of
the Cartan matrix: (alpha_i, alpha_j) = d_i a[i][j], so for x = sum_j c_j
alpha_j in root coordinates and mu in fundamental-weight coordinates,
(x, mu) = sum_j c_j d_j mu_j.  Freudenthal's formula

    m(mu) (lam - mu, lam + mu + 2 rho)
        = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha)

is solved on the dominant weights below lam, highest first; m is constant
on Weyl orbits, so every other weight takes the multiplicity of its
dominant conjugate.
"""

from collections import Counter

from pathcrystals.cartan import (
    all_nodes,
    cartan_matrix,
    positive_roots,
    reflect,
    symmetrizer,
    weyl_dim,
)


def _dominant(t, mu):
    while True:
        i = next((k for k in t.nodes if mu[k - 1] < 0), None)
        if i is None:
            return mu
        mu = reflect(t, mu, i)


def _orbit(t, mu):
    orbit = {mu}
    todo = [mu]
    while todo:
        nu = todo.pop()
        for i in t.nodes:
            image = reflect(t, nu, i)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def weight_multiset(t, lam) -> Counter:
    """Counter of the weights of the irreducible module of highest weight lam,
    each with its multiplicity; their total must be the Weyl dimension."""
    lam = tuple(lam)
    a = cartan_matrix(t)
    d = symmetrizer(t)
    n = t.rank

    def pair(c, mu):
        return sum(c[j] * d[j] * mu[j] for j in range(n))

    roots = [
        (b, tuple(sum(a[k][j] * b[j] for j in range(n)) for k in range(n)))
        for b in positive_roots(t, all_nodes(t))
    ]
    # dominant weights below lam, each with lam - mu in root coordinates; a
    # dominant weight below lam is reached from lam by positive roots
    # through dominant weights (Stembridge, the partial order of dominant
    # weights), and the Weyl-dimension check below catches a gap
    depth = {lam: (0,) * n}
    order = [lam]
    for mu in order:
        for b, alpha in roots:
            nu = tuple(x - y for x, y in zip(mu, alpha))
            if nu not in depth and min(nu) >= 0:
                depth[nu] = tuple(c + e for c, e in zip(depth[mu], b))
                order.append(nu)
    order.sort(key=lambda mu: sum(depth[mu]))
    mult = {lam: 1}
    for mu in order[1:]:
        c = depth[mu]
        total = 0
        for b, alpha in roots:
            k = 1
            while all(cj >= k * bj for cj, bj in zip(c, b)):
                nu = tuple(x + k * y for x, y in zip(mu, alpha))
                total += mult.get(_dominant(t, nu), 0) * pair(b, nu)
                k += 1
        shift = tuple(x + y + 2 for x, y in zip(lam, mu))
        m, rest = divmod(2 * total, pair(c, shift))
        assert rest == 0 and m >= 0, (str(t), lam, mu)
        mult[mu] = m
    weights = Counter()
    for mu, m in mult.items():
        for nu in _orbit(t, mu):
            weights[nu] += m
    assert sum(weights.values()) == weyl_dim(t, lam), (str(t), lam)
    return weights
