"""The hand-written folding table and its two checkers, scaling exponents by
propagation along the source diagram, the commutative diagram checked path
by path, and the virtualization check on the whole target model, kept as
test oracles for folding_pair, verify_commutative_diagram and
verify_virtualization.

fold_table writes sigma down beside the automorphism, as folding_pair once
did, and check_root_identity and check_orbit_structure are the checks that
confirmed it: the root identity computed from the Cartan matrices, and
that the orbits are disjoint automorphism orbits partitioning the target
nodes, linked exactly when their source nodes are.

The exponents are solved from psi(alpha_k) = gamma_k * sum of the target
simple roots over sigma(k), one neighbor at a time from node 1, then scaled
to coprime integers.  The diagram check virtualizes the source path of
xi_J(b) and compares it, as a path, with the target path of the induced word
applied to the image of b.  It calls xi_perm and act through the folding
module, so a test that patches them there patches both verifiers.

The virtualization check generates the target model and looks each image up
among its vertices, and calls the source operators on the source paths; like
the diagram check, it calls through the folding module.

The virtual-relations check is verify_virtual_relations as it was before it
computed each induced word once: it calls s_tilde once for the permutations
and again for the letter pairs, which it walks by index, and checks the
relations by the nested loops of xi_oracle.  It calls s_tilde and act through
the folding module too.
"""

from fractions import Fraction
from math import gcd, lcm

from closure_oracle import vertex_ids
from xi_oracle import relation_violations_by_loops

from pathcrystals import folding
from pathcrystals.cactus import compose, identity_perm
from pathcrystals.cartan import DynkinType, cartan_matrix, connected_subdiagrams, neighbors
from pathcrystals.crystal import DEFAULT_MAX_SIZE, generate
from pathcrystals.errors import ModelIntegrityError, NotInImageError
from pathcrystals.paths import paths_equal


def fold_table(x):
    """(target type, sigma, automorphism, branch node) for a foldable x."""
    n = x.rank
    if x.family == "C":
        y = DynkinType("A", 2 * n - 1)
        sigma = {i: {i, 2 * n - i} for i in range(1, n)}
        sigma[n] = {n}
        aut = {i: 2 * n - i for i in y.nodes}
        branch = n
    elif x.family == "B":
        y = DynkinType("D", n + 1)
        sigma = {i: {i} for i in range(1, n)}
        sigma[n] = {n, n + 1}
        aut = {i: i for i in y.nodes}
        aut[n], aut[n + 1] = n + 1, n
        branch = n - 1
    elif x.family == "G":
        y = DynkinType("D", 4)
        sigma = {1: {1, 3, 4}, 2: {2}}
        aut = {1: 3, 2: 2, 3: 4, 4: 1}
        branch = 2
    else:
        y = DynkinType("E", 6)
        sigma = {1: {2}, 2: {4}, 3: {3, 5}, 4: {1, 6}}
        aut = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
        branch = 2
    return y, sigma, aut, branch


def check_root_identity(x, y, sigma, gamma):
    ax = cartan_matrix(x)
    ay = cartan_matrix(y)
    for i in x.nodes:
        # psi(alpha_i): alpha_i = sum_k ax[k][i] Lambda_k, then apply psi
        lhs = [0] * y.rank
        for k in x.nodes:
            coeff = ax[k - 1][i - 1]
            if coeff:
                for j in sigma[k]:
                    lhs[j - 1] += coeff * gamma[k]
        rhs = [0] * y.rank
        for j in sigma[i]:
            for l in y.nodes:
                rhs[l - 1] += gamma[i] * ay[l - 1][j - 1]
        if lhs != rhs:
            raise ModelIntegrityError(
                f"root identity fails for {x} at node {i}: {lhs} != {rhs}"
            )


def check_orbit_structure(x, y, sigma, aut):
    covered = set()
    for i in x.nodes:
        orbit = set(sigma[i])
        if orbit & covered:
            raise ModelIntegrityError(f"orbits of {x} nodes overlap")
        covered |= orbit
        closure = set()
        j = min(orbit)
        while j not in closure:
            closure.add(j)
            j = aut[j]
        if closure != orbit:
            raise ModelIntegrityError(
                f"sigma({i}) = {sorted(orbit)} is not an automorphism orbit"
            )
    if covered != set(y.nodes):
        raise ModelIntegrityError(f"orbits do not partition the nodes of {y}")
    adj_y = neighbors(y)
    adj_x = neighbors(x)
    for i in x.nodes:
        for k in x.nodes:
            if i >= k:
                continue
            linked = any(b in adj_y[a] for a in sigma[i] for b in sigma[k])
            if linked != (k in adj_x[i]):
                raise ModelIntegrityError(
                    f"orbit map is not edge-preserving between {i} and {k}"
                )


def solve_gamma(x, y, sigma) -> dict:
    ax = cartan_matrix(x)
    ay = cartan_matrix(y)
    g: dict = {1: Fraction(1)}
    todo = [1]
    while todo:
        i = todo.pop(0)
        for k in sorted(neighbors(x)[i]):
            if k in g:
                continue
            l = min(sigma[k])
            coupling = sum(ay[l - 1][j - 1] for j in sigma[i])
            g[k] = g[i] * Fraction(coupling, ax[k - 1][i - 1])
            todo.append(k)
    scale = lcm(*(g[i].denominator for i in x.nodes))
    ints = {i: int(g[i] * scale) for i in x.nodes}
    common = gcd(*ints.values())
    ints = {i: v // common for i, v in ints.items()}
    assert all(v > 0 for v in ints.values()), f"non-positive exponents for {x}"
    return ints


def _image_table(fold, gx, gy):
    find = vertex_ids(gy)
    images = {}
    problems = []
    for b in range(len(gx)):
        target = find(folding.virtualize_path(fold, gx.vertices[b]))
        if target is None:
            problems.append({"check": "image-membership", "vertex": b})
        else:
            images[b] = target
    if len(set(images.values())) != len(images):
        problems.append({"check": "injectivity"})
    return images, problems


def verify_commutative_diagram_by_paths(fold, lam, max_size=DEFAULT_MAX_SIZE):
    virtualize = folding.virtualize_path
    x = fold.x_type
    gx = generate(x, lam, max_size=max_size)
    gy = generate(fold.y_type, folding.psi_weight(fold, lam), max_size=max_size)
    images, violations = _image_table(fold, gx, gy)
    for b in range(len(gx)):
        try:
            back = folding.devirtualize(fold, virtualize(fold, gx.vertices[b]))
        except NotInImageError:
            violations.append({"check": "left-inverse", "vertex": b})
            continue
        if not paths_equal(back, gx.vertices[b]):
            violations.append({"check": "left-inverse", "vertex": b})
    image_set = set(images.values())
    cache: dict = {}
    for sub in connected_subdiagrams(x):
        source_perm = folding.xi_perm(gx, sub)
        target_perm = folding.act(gy, folding.s_tilde(fold, sub), cache)
        for b, target in images.items():
            lhs = virtualize(fold, gx.vertices[source_perm[b]])
            rhs = gy.vertices[target_perm[target]]
            if not paths_equal(lhs, rhs):
                violations.append({"check": "diagram", "I": sorted(sub), "vertex": b})
        if {target_perm[v] for v in image_set} != image_set:
            violations.append({"check": "image-stability", "I": sorted(sub)})
    return violations


def verify_virtualization_on_target(fold, lam, max_size=DEFAULT_MAX_SIZE):
    gx = generate(fold.x_type, lam, max_size=max_size)
    gy = generate(fold.y_type, folding.psi_weight(fold, lam), max_size=max_size)
    images, violations = _image_table(fold, gx, gy)
    operators = (
        ("f", folding.root_f, folding.virtual_f),
        ("e", folding.root_e, folding.virtual_e),
    )
    for b, target in images.items():
        pb = gx.vertices[b]
        qb = gy.vertices[target]
        for i in fold.x_type.nodes:
            for name, op, virtual_op in operators:
                moved = op(pb, i)
                virtual_moved = virtual_op(fold, qb, i)
                if (moved is None) != (virtual_moved is None):
                    violations.append({"check": f"{name}-definedness", "vertex": b, "color": i})
                elif (
                    moved is not None
                    and folding.virtualize_path(fold, moved) != virtual_moved
                ):
                    violations.append({"check": f"{name}-intertwine", "vertex": b, "color": i})
            for j in fold.sigma(i):
                if folding.epsilon(qb, j) != fold.gamma(i) * folding.epsilon(
                    pb, i
                ) or folding.phi(qb, j) != fold.gamma(i) * folding.phi(pb, i):
                    violations.append(
                        {"check": "string-scaling", "vertex": b, "color": i, "target_color": j}
                    )
    return violations


def verify_virtual_relations_by_index_loops(fold, lam, max_size=DEFAULT_MAX_SIZE):
    x = fold.x_type
    gy = generate(fold.y_type, folding.psi_weight(fold, lam), max_size=max_size)
    cache: dict = {}
    perms = {
        s: folding.act(gy, folding.s_tilde(fold, s), cache) for s in connected_subdiagrams(x)
    }
    violations = []
    for s in perms:
        letters = folding.s_tilde(fold, s)
        for a in range(len(letters)):
            for b in range(a + 1, len(letters)):
                pa, pb = cache[letters[a]], cache[letters[b]]
                if compose(pa, pb) != compose(pb, pa):
                    violations.append(
                        {"relation": "letter-commute", "I": sorted(s), "J": sorted(letters[b])}
                    )
    return violations + relation_violations_by_loops(x, perms, identity_perm(gy))
