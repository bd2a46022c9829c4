"""Dynkin diagram foldings and virtualization of path crystals.

Four families of non-simply-laced types embed into simply-laced ones by
folding: C_n into A_{2n-1}, B_n into D_{n+1}, G_2 into D_4, and F_4 into E_6.
A folding carries an orbit map sigma from source nodes to orbits of a diagram
automorphism of the target, scaling exponents gamma, and the induced
weight-lattice embedding psi with psi(Lambda_i) = gamma_i * sum of the
fundamental weights over sigma(i).

Neither sigma nor gamma is hard-coded: sigma(i) is the automorphism orbit of
one target node per source node, and gamma is the minimal symmetrizer of the
source Cartan matrix.  The identity psi(alpha_i) = gamma_i * sum of the
target simple roots over sigma(i) is the one construction check, in full, so
the orientation conventions cannot drift.

Path virtualization applies psi direction-wise.  Virtual root operators for
a source color i apply the target operators gamma_i times over each node of
sigma(i).  Verifiers check exhaustively that virtualization intertwines the
operators on the source model, with target membership decided by raising
each image to a known path; and, on the generated target model, that the
induced generators satisfy the cactus relations and that the partial
involutions commute with virtualization, as a permutation identity of the
target ids that the embedding reads off a {path: id} table it builds itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import inf, lcm

from .cactus import _relation_violations, act, compose, identity_perm, xi_perm
from .cartan import (
    DynkinType,
    _check_node,
    _two_rho_vee,
    components,
    connected_subdiagrams,
    is_connected,
    simple_root,
    symmetrizer,
    theta,
)
from .crystal import DEFAULT_MAX_SIZE, generate
from .errors import ConfigurationError, DomainError, ModelIntegrityError, NotInImageError
from .paths import (
    PLPath,
    canonicalize,
    epsilon,
    is_integral,
    phi,
    root_e,
    root_f,
    straight_path,
)


class FoldingPair:
    """Folding data for one source/target pair, immutable after construction."""

    def __init__(self, x_type, y_type, sigma, aut, gamma, branch):
        self.x_type = x_type
        self.y_type = y_type
        self._sigma = {i: frozenset(sigma[i]) for i in x_type.nodes}
        self.aut = dict(aut)
        self._gamma = dict(gamma)
        self.branch = branch
        self.psi_matrix = tuple(
            tuple(
                self._gamma[i] if l in self._sigma[i] else 0
                for i in x_type.nodes
            )
            for l in y_type.nodes
        )

    def sigma(self, i: int) -> frozenset:
        return self._sigma[i]

    def gamma(self, i: int) -> int:
        return self._gamma[i]

    def sigma_set(self, nodes) -> frozenset:
        """Union of the orbits of a set of source nodes."""
        return frozenset().union(*(self._sigma[i] for i in nodes))


def _fold_table(x: DynkinType):
    """Target type, automorphism, one target node per source node (sigma(i)
    is the automorphism orbit of node i's entry) and branch node."""
    n = x.rank
    if x.family == "C":
        y = DynkinType("A", 2 * n - 1)
        aut = {i: 2 * n - i for i in y.nodes}
        return y, aut, x.nodes, n
    if x.family == "B":
        y = DynkinType("D", n + 1)
        aut = {i: i for i in y.nodes}
        aut[n], aut[n + 1] = n + 1, n
        return y, aut, x.nodes, n - 1
    if x.family == "G":
        # order-3 rotation of the outer nodes; the fork swap would give three
        # orbits and no bijection with the two G_2 nodes
        return DynkinType("D", 4), {1: 3, 2: 2, 3: 4, 4: 1}, (1, 2), 2
    if x.family == "F":
        return DynkinType("E", 6), {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}, (2, 4, 3, 1), 2
    raise ConfigurationError(f"{x} has no simply-laced folding")


def _orbit(aut, j) -> frozenset:
    orbit = set()
    while j not in orbit:
        orbit.add(j)
        j = aut[j]
    return frozenset(orbit)


def folding_pair(x) -> FoldingPair:
    """Folding data for a source type among C_n, B_n, G_2, F_4.

    sigma(i) is the orbit of the automorphism through the table's target
    node for i, and the orbits must partition the target nodes.  The scaling
    exponents are the source symmetrizer.  The one construction check is the
    defining root identity psi(alpha_i) = gamma_i * sum of the target simple
    roots over sigma(i), exactly; as the target is simply laced, it also
    requires sigma(i) and sigma(k) to be linked exactly when i and k are.
    """
    if isinstance(x, str):
        x = DynkinType.parse(x)
    y, aut, table_nodes, branch = _fold_table(x)
    sigma = {i: _orbit(aut, j) for i, j in zip(x.nodes, table_nodes)}
    if sorted(j for orbit in sigma.values() for j in orbit) != list(y.nodes):
        raise ModelIntegrityError(f"orbits do not partition the nodes of {y}")
    fold = FoldingPair(x, y, sigma, aut, dict(zip(x.nodes, symmetrizer(x))), branch)
    for i in x.nodes:
        lhs = list(psi_weight(fold, simple_root(x, i)))
        rhs = [fold.gamma(i) * sum(c) for c in zip(*(simple_root(y, j) for j in sigma[i]))]
        if lhs != rhs:
            raise ModelIntegrityError(
                f"root identity fails for {x} at node {i}: {lhs} != {rhs}"
            )
    return fold


def psi_weight(fold: FoldingPair, mu):
    """Apply the weight-lattice embedding to a source weight."""
    if len(mu) != fold.x_type.rank:
        raise ConfigurationError(f"weight must have length {fold.x_type.rank}")
    return tuple(sum(r * m for r, m in zip(row, mu)) for row in fold.psi_matrix)


def virtualize_path(fold: FoldingPair, path: PLPath) -> PLPath:
    """Push a source path to the target lattice, direction by direction."""
    if path.rtype != fold.x_type:
        raise ConfigurationError(f"path lives in {path.rtype}, not {fold.x_type}")
    dirs = tuple(psi_weight(fold, d) for d in path.dirs)
    return canonicalize(PLPath(fold.y_type, path.den, path.times, path.vden, dirs))


def devirtualize(fold: FoldingPair, path: PLPath) -> PLPath:
    """Left inverse of virtualization, by exact per-direction solve.

    Each source coordinate is read off one representative target coordinate
    divided by the scaling exponent; the others must agree, and the error
    names the end of the first direction where they do not: the first
    breakpoint outside the image, as paths start at the origin.  vden is
    multiplied by the lcm of the scaling exponents, so the division is exact.
    """
    if path.rtype != fold.y_type:
        raise ConfigurationError(f"path lives in {path.rtype}, not {fold.y_type}")
    nodes = fold.x_type.nodes
    scale = lcm(*(fold.gamma(i) for i in nodes))
    out = []
    for t, d in zip(path.times[1:], path.dirs):
        if any(len({d[j - 1] for j in fold.sigma(i)}) > 1 for i in nodes):
            time = Fraction(t, path.den)
            raise NotInImageError(f"breakpoint at t={time} is outside the embedded lattice")
        out.append(
            tuple(d[min(fold.sigma(i)) - 1] * (scale // fold.gamma(i)) for i in nodes)
        )
    return canonicalize(PLPath(fold.x_type, path.den, path.times, path.vden * scale, tuple(out)))


def _virtual_op(op, fold: FoldingPair, path: PLPath, i: int):
    _check_node(fold.x_type, i)
    cur = path
    for j in sorted(fold.sigma(i)):
        for _ in range(fold.gamma(i)):
            cur = op(cur, j)
            if cur is None:
                return None
    return cur


def virtual_f(fold: FoldingPair, path: PLPath, i: int):
    """Virtual lowering operator for source color i on a target path: the
    target operator applied gamma_i times over each node of sigma(i).
    Returns None if any step is undefined."""
    return _virtual_op(root_f, fold, path, i)


def virtual_e(fold: FoldingPair, path: PLPath, i: int):
    """Virtual raising operator; mirror of virtual_f."""
    return _virtual_op(root_e, fold, path, i)


def s_tilde(fold: FoldingPair, nodes) -> tuple:
    """Word of target generators induced by a connected source subdiagram:
    the connected components of its orbit image, ascending by smallest node.
    The letters have mutually disconnected supports, so they commute."""
    nodes = frozenset(nodes)
    if not is_connected(fold.x_type, nodes):  # False on the empty set
        raise ConfigurationError("generator index must be connected and nonempty")
    return tuple(components(fold.y_type, fold.sigma_set(nodes)))


def verify_component_identity(fold: FoldingPair) -> list:
    """For nested connected pairs whose outer orbit image is disconnected,
    check that the orbit image of the twisted inner set equals the image of
    the inner orbit image under theta of the (disconnected) outer image."""
    x, y = fold.x_type, fold.y_type
    subs = connected_subdiagrams(x)
    violations = []
    for outer in subs:
        image = fold.sigma_set(outer)
        if len(components(y, image)) < 2:
            continue
        twist_outer, twist_image = theta(x, outer), theta(y, image)
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


def _image_table(virtual, lookup):
    """{source id: lookup(image)} over the images that lookup finds, and the
    image-membership and injectivity records of that table."""
    images, problems = {}, []
    for b, q in enumerate(virtual):
        target = lookup(q)
        if target is None:
            problems.append({"check": "image-membership", "vertex": b})
        else:
            images[b] = target
    if len(set(images.values())) != len(images):
        problems.append({"check": "injectivity"})
    return images, problems


def _embedding(fold: FoldingPair, lam, max_size):
    """Source and target models of lam and psi(lam), the virtualized source
    paths, their target ids from a {path: id} table of the target built here,
    and the image-membership and injectivity records of that lookup."""
    gx = generate(fold.x_type, lam, max_size=max_size)
    gy = generate(fold.y_type, psi_weight(fold, lam), max_size=max_size)
    virtual = [virtualize_path(fold, p) for p in gx.vertices]
    images, problems = _image_table(virtual, {p: k for k, p in enumerate(gy.vertices)}.get)
    return gx, gy, virtual, images, problems


def _membership(fold: FoldingPair, lam, max_size):
    """Lookup: q if the target path q is in B(psi(lam)), else None.  A walk
    raises q by the first defined root_e, colors ascending, to a path with a
    verdict and passes it on to every path it visits.  It fails at a
    non-integral or another dominant path, or past <psi(lam) - wt(q),
    rho^vee> steps.  DomainError at the (max_size + 1)-th path."""
    y, top = fold.y_type, psi_weight(fold, lam)
    rho2 = _two_rho_vee(y)
    known = {straight_path(y, top): True}
    cap = inf if max_size is None else max_size

    def lookup(q):
        twice = sum(r * (a * q.den * q.vden - c) for r, a, c in zip(rho2, top, q.points[-1]))
        budget = twice // (2 * q.den * q.vden)
        walk, p = [], q
        while p is not None and p not in known and len(walk) < budget and is_integral(p):
            if len(known) + len(walk) >= cap:
                raise DomainError(f"{cap + 1} target paths touched, past the cap {cap}")
            walk.append(p)
            p = next(filter(None, (root_e(p, i) for i in y.nodes)), None)
        known.update(dict.fromkeys(walk, known.get(p, False)))
        return q if known.get(q) else None

    return lookup


def verify_virtualization(fold: FoldingPair, lam, max_size=DEFAULT_MAX_SIZE) -> list:
    """Exhaustively check that virtualization embeds the source model, the one
    model generated, into B(psi(lam)): images are members (by _membership),
    the map is injective, the source edges intertwine with the virtual
    operators including definedness, and the string statistics scale by gamma."""
    gx = generate(fold.x_type, lam, max_size=max_size)
    virtual = [virtualize_path(fold, p) for p in gx.vertices]
    images, violations = _image_table(virtual, _membership(fold, lam, max_size))
    operators = (("f", gx.f_to, virtual_f), ("e", gx.e_to, virtual_e))
    for b in images:
        pb, qb = gx.vertices[b], virtual[b]
        for i in fold.x_type.nodes:
            for name, edges, virtual_op in operators:
                moved = edges[i][b]
                virtual_moved = virtual_op(fold, qb, i)
                if (moved is None) != (virtual_moved is None):
                    violations.append({"check": f"{name}-definedness", "vertex": b, "color": i})
                elif moved is not None and virtual[moved] != virtual_moved:
                    violations.append({"check": f"{name}-intertwine", "vertex": b, "color": i})
            eps, ph = fold.gamma(i) * epsilon(pb, i), fold.gamma(i) * phi(pb, i)
            for j in fold.sigma(i):
                if epsilon(qb, j) != eps or phi(qb, j) != ph:
                    violations.append(
                        {"check": "string-scaling", "vertex": b, "color": i, "target_color": j}
                    )
    return violations


def verify_virtual_relations(fold: FoldingPair, lam, max_size=DEFAULT_MAX_SIZE) -> list:
    """Check that the induced generator words satisfy the cactus relations of
    the source diagram, as permutations of the target model of the embedded
    highest weight.  Also checks that the letters of each word commute."""
    gy = generate(fold.y_type, psi_weight(fold, lam), max_size=max_size)
    words = {s: s_tilde(fold, s) for s in connected_subdiagrams(fold.x_type)}
    cache: dict = {}
    perms = {s: act(gy, word, cache) for s, word in words.items()}
    violations = []
    for s, word in words.items():
        for a, b in combinations(word, 2):  # act cached each letter's permutation
            if compose(cache[a], cache[b]) != compose(cache[b], cache[a]):
                violations.append(
                    {
                        "relation": "letter-commute",
                        "I": sorted(s),
                        "J": sorted(b),
                    }
                )
    return violations + _relation_violations(fold.x_type, perms, identity_perm(gy))


def verify_commutative_diagram(fold: FoldingPair, lam, max_size=DEFAULT_MAX_SIZE) -> list:
    """Check, for every connected source subdiagram and every vertex, that
    virtualization intertwines the source partial involution with the induced
    word of target involutions; that devirtualization inverts virtualization;
    and that each induced word maps the image of the model onto itself.

    Virtualization is read off the vertex-id table of the embedding, so the
    diagram v o xi_J = s~_J o v is checked as an identity of permutations of
    vertex ids; a vertex whose xi_J-image is missing from the table fails.
    The left inverse is applied to the virtualized path of every vertex."""
    x = fold.x_type
    gx, gy, virtual, images, violations = _embedding(fold, lam, max_size)
    for b, image in enumerate(virtual):
        try:
            back = devirtualize(fold, image)
        except NotInImageError:
            back = None
        if back != gx.vertices[b]:
            violations.append({"check": "left-inverse", "vertex": b})
    image_set = set(images.values())
    cache: dict = {}
    for sub in connected_subdiagrams(x):
        source_perm = xi_perm(gx, sub)
        target_perm = act(gy, s_tilde(fold, sub), cache)
        for b, target in images.items():
            if images.get(source_perm[b]) != target_perm[target]:
                violations.append(
                    {"check": "diagram", "I": sorted(sub), "vertex": b}
                )
        if {target_perm[v] for v in image_set} != image_set:
            violations.append({"check": "image-stability", "I": sorted(sub)})
    return violations


def fold_info(fold: FoldingPair) -> dict:
    """JSON-ready summary of the folding data."""
    return {
        "X": str(fold.x_type),
        "Y": str(fold.y_type),
        "sigma": {str(i): sorted(fold.sigma(i)) for i in fold.x_type.nodes},
        "gamma": {str(i): fold.gamma(i) for i in fold.x_type.nodes},
        "aut": [fold.aut[j] for j in fold.y_type.nodes],
        "branch": fold.branch,
        "psi_matrix": [list(row) for row in fold.psi_matrix],
    }
