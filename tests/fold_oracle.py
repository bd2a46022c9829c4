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
the diagram check, it calls through the folding module.  It reads epsilon
and phi color by color through paths.epsilon and paths.phi, looked up at
call time, where the verifier reads them off the path scan.

membership_by_endpoint is the image-membership walk of verify_virtualization
as it was before its step budget came from the integrality scan and its
colors from the string lengths: it sums rho^vee-weighted coordinates of the
endpoint over den * vden and floors the quotient, it checks each path it
raises to with the path scan, and it raises by the first color whose root_e,
called through the folding module, is defined.

component_identity_by_loops is verify_component_identity as it was before it
read the cactus relation plan: its own double loop over the connected
subdiagrams, with theta of the outer source set, and only outers whose orbit
image is disconnected.  It calls connected_subdiagrams, components and theta
through the folding module.

psi_weight_by_matrix, virtualize_by_matrix and devirtualize_by_sets are the
embedding and its left inverse as they were before the fold kept per-node
tables: a product with the psi matrix, built here from sigma and gamma, per
weight and per direction, and the left inverse solving each direction with
one set of orbit coordinates per source node.

The virtual-relations check is verify_virtual_relations as it was before it
computed each induced word once: it calls s_tilde once for the permutations
and again for the letter pairs, which it walks by index, and checks the
relations by the nested loops of xi_oracle.  It calls s_tilde and act through
the folding module too.
"""

from fractions import Fraction
from math import gcd, inf, lcm
from operator import mul, sub

from closure_oracle import vertex_ids
from xi_oracle import relation_violations_by_loops

from pathcrystals import folding, paths
from pathcrystals.cactus import compose, identity_perm
from pathcrystals.cartan import (
    DynkinType,
    _two_rho_vee,
    cartan_matrix,
    connected_subdiagrams,
    neighbors,
)
from pathcrystals.crystal import DEFAULT_MAX_SIZE, generate
from pathcrystals.errors import DomainError, ModelIntegrityError, NotInImageError
from pathcrystals.paths import PLPath, _scan, canonicalize, paths_equal, straight_path


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


def psi_matrix(fold):
    """The matrix of psi: gamma_i where target node l is in sigma(i), else 0."""
    x, y = fold.x_type, fold.y_type
    return [[fold.gamma(i) if l in fold.sigma(i) else 0 for i in x.nodes] for l in y.nodes]


def psi_weight_by_matrix(fold, mu):
    return tuple(sum(r * m for r, m in zip(row, mu)) for row in psi_matrix(fold))


def virtualize_by_matrix(fold, path):
    dirs = tuple(psi_weight_by_matrix(fold, d) for d in path.dirs)
    return canonicalize(PLPath(fold.y_type, path.den, path.times, path.vden, dirs))


def devirtualize_by_sets(fold, path):
    nodes = fold.x_type.nodes
    scale = lcm(*(fold.gamma(i) for i in nodes))
    out = []
    for t, d in zip(path.times[1:], path.dirs):
        if any(len({d[j - 1] for j in fold.sigma(i)}) > 1 for i in nodes):
            time = Fraction(t, path.den)
            raise NotInImageError(f"breakpoint at t={time} is outside the embedded lattice")
        out.append(tuple(d[min(fold.sigma(i)) - 1] * (scale // fold.gamma(i)) for i in nodes))
    return canonicalize(PLPath(fold.x_type, path.den, path.times, path.vden * scale, tuple(out)))


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
                if any(
                    stat(qb, j) != fold.gamma(i) * stat(pb, i)
                    for stat in (paths.epsilon, paths.phi)
                ):
                    violations.append(
                        {"check": "string-scaling", "vertex": b, "color": i, "target_color": j}
                    )
    return violations


def component_identity_by_loops(fold):
    x, y = fold.x_type, fold.y_type
    subs = folding.connected_subdiagrams(x)
    violations = []
    for outer in subs:
        image = fold.sigma_set(outer)
        if len(folding.components(y, image)) < 2:
            continue
        twist_outer, twist_image = folding.theta(x, outer), folding.theta(y, image)
        for inner in subs:
            if not inner <= outer:
                continue
            lhs = fold.sigma_set(frozenset(twist_outer[j] for j in inner))
            rhs = frozenset(twist_image[v] for v in fold.sigma_set(inner))
            if lhs != rhs:
                violations.append(
                    {
                        "check": "component-identity",
                        "I": sorted(outer),
                        "J": sorted(inner),
                        "lhs": sorted(lhs),
                        "rhs": sorted(rhs),
                    }
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


def _endpoint(path) -> list:
    """The endpoint over den * vden: directions times segment lengths, summed."""
    lengths = list(map(sub, path.times[1:], path.times))
    return [sum(map(mul, c, lengths)) for c in zip(*path.dirs)]


def membership_by_endpoint(fold, lam, max_size):
    """Lookup: q if the target path q is in B(psi(lam)), else None, by a walk
    that raises q by the first defined root_e, colors ascending, within
    floor(<psi(lam) - end(q), 2 rho^vee> / 2) steps, for end(q) the endpoint
    read off the directions; DomainError at the (max_size + 1)-th path."""
    y, top = fold.y_type, folding.psi_weight(fold, lam)
    rho2 = _two_rho_vee(y)
    known = {straight_path(y, top): True}
    cap = inf if max_size is None else max_size

    def lookup(q):
        twice = sum(r * (a * q.den * q.vden - c) for r, a, c in zip(rho2, top, _endpoint(q)))
        budget = twice // (2 * q.den * q.vden)
        walk, p = [], q
        while (
            p is not None and p not in known and len(walk) < budget and _scan(p) is not None
        ):
            if len(known) + len(walk) >= cap:
                raise DomainError(f"{cap + 1} target paths touched, past the cap {cap}")
            walk.append(p)
            p = next(filter(None, (folding.root_e(p, i) for i in y.nodes)), None)
        known.update(dict.fromkeys(walk, known.get(p, False)))
        return q if known.get(q) else None

    return lookup
