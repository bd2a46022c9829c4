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

Path virtualization applies psi direction-wise, and its left inverse reads
one target coordinate per source node, off tables built with the fold, as
are the induced words s~_J.  Virtual root operators for a source color i
apply the target operators gamma_i times over each node of sigma(i); like
the left inverse, they refuse a path of another type.  Verifiers check
exhaustively that virtualization intertwines the operators on the source
model, through virtual_f, virtual_e and the (eps, phi) of each image's
membership scan, admitting each image that a passing lowering reaches from
an accepted one, so that a passing model holds one path per image; that the
diagram facts behind the cactus relations hold on every pair of the
source's relation plan; and, on the generated target model, that the induced
generators satisfy the relations and that the partial involutions commute
with virtualization, as an identity of target ids of a {path: id} table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import inf, lcm
from operator import mul, sub

from .cactus import _relation_plan, _relation_violations, act, compose, identity_perm, xi_perm
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
from .paths import PLPath, _scan, canonicalize, root_e, root_f, straight_path


class FoldingPair:
    """Folding data for one source/target pair, immutable after construction."""

    def __init__(self, x_type, y_type, sigma, aut, gamma, branch):
        self.x_type = x_type
        self.y_type = y_type
        self._sigma = {i: frozenset(sigma[i]) for i in x_type.nodes}
        self.aut = dict(aut)
        self._gamma = dict(gamma)
        self.branch = branch
        # the orbits partition the target nodes: psi reads per target node one
        # source coordinate times its gamma, and its left inverse per source node
        # a representative target coordinate times lcm(gamma) / gamma_i, which
        # the rest of the orbit must equal
        owner = {l: i for i, s in self._sigma.items() for l in s}
        self._gather = tuple((owner[l] - 1, self._gamma[owner[l]]) for l in y_type.nodes)
        self.psi_matrix = tuple(
            tuple(g if c == k else 0 for c in range(x_type.rank)) for k, g in self._gather
        )
        self._lcm = lcm(*self._gamma.values())
        self._spread = tuple(
            (min(s) - 1, self._lcm // self._gamma[i], tuple(j - 1 for j in sorted(s)[1:]))
            for i, s in self._sigma.items()
        )

    def sigma(self, i: int) -> frozenset:
        return self._sigma[i]

    def gamma(self, i: int) -> int:
        return self._gamma[i]

    def sigma_set(self, nodes) -> frozenset:
        """Union of the orbits of a set of source nodes."""
        return frozenset().union(*(self._sigma[i] for i in nodes))

    @cached_property
    def words(self) -> dict:
        """{J: s~_J} over the connected source subdiagrams J, once per fold."""
        subs = connected_subdiagrams(self.x_type)
        return {s: tuple(components(self.y_type, self.sigma_set(s))) for s in subs}


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
    return tuple([mu[k] * g for k, g in fold._gather])


def virtualize_path(fold: FoldingPair, path: PLPath) -> PLPath:
    """Push a source path to the target lattice, direction by direction."""
    if path.rtype != fold.x_type:
        raise ConfigurationError(f"path lives in {path.rtype}, not {fold.x_type}")
    dirs = tuple(tuple([d[k] * g for k, g in fold._gather]) for d in path.dirs)
    return canonicalize(PLPath(fold.y_type, path.den, path.times, path.vden, dirs))


def devirtualize(fold: FoldingPair, path: PLPath) -> PLPath:
    """Left inverse of virtualization, by exact per-direction solve.

    Each source coordinate is read off one representative target coordinate
    divided by the scaling exponent; the others must agree, and the error
    names the end of the first direction where they do not: the first
    breakpoint outside the image, as paths start at the origin.  vden is
    multiplied by the lcm of the scaling exponents, so the division is exact."""
    if path.rtype != fold.y_type:
        raise ConfigurationError(f"path lives in {path.rtype}, not {fold.y_type}")
    spread, out = fold._spread, []
    for t, d in zip(path.times[1:], path.dirs):
        if any(d[j] != d[r] for r, _, rest in spread for j in rest):
            time = Fraction(t, path.den)
            raise NotInImageError(f"breakpoint at t={time} is outside the embedded lattice")
        out.append(tuple([d[r] * f for r, f, _ in spread]))
    vden = path.vden * fold._lcm
    return canonicalize(PLPath(fold.x_type, path.den, path.times, vden, tuple(out)))


def _virtual_op(op, fold: FoldingPair, path: PLPath, i: int):
    if path.rtype != fold.y_type:
        raise ConfigurationError(f"path lives in {path.rtype}, not {fold.y_type}")
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
    return fold.words[nodes]


def verify_component_identity(fold: FoldingPair) -> list:
    """Check over the source's relation plan the diagram facts that make s_J -> s~_J
    respect the cactus relations: sigma(theta_J(K)) = theta_{sigma(J)}(sigma(K)) for
    each nested triple (J, K, theta_J(K)), and sigma(J | K) has the components of
    sigma(J) and sigma(K) for each disjoint pair.  A word's letters commute, so this
    and verify_cactus_relations on B(psi(lam)) imply verify_virtual_relations."""
    y, sigma_set = fold.y_type, fold.sigma_set
    disjoint, nested = _relation_plan(fold.x_type)
    violations = []
    for outer, inner, twisted in nested:
        lhs = sigma_set(twisted)
        rhs = frozenset(map(theta(y, sigma_set(outer)).get, sigma_set(inner)))
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
    count = {s: len(components(y, sigma_set(s))) for s in set().union(*disjoint)}
    for a, b in disjoint:
        if len(components(y, sigma_set(a | b))) != count[a] + count[b]:
            violations.append({"check": "component-count", "I": sorted(a), "J": sorted(b)})
    return violations


def _embedding(fold: FoldingPair, lam, max_size):
    """Source and target models of lam and psi(lam), the virtualized source paths,
    their ids in the target model, and the image-membership and injectivity records."""
    gx = generate(fold.x_type, lam, max_size=max_size)
    gy = generate(fold.y_type, psi_weight(fold, lam), max_size=max_size)
    virtual = [virtualize_path(fold, p) for p in gx.vertices]
    ids = {p: k for k, p in enumerate(gy.vertices)}
    images = {b: ids[q] for b, q in enumerate(virtual) if q in ids}
    missing = [b for b in range(len(virtual)) if b not in images]
    problems = [{"check": "image-membership", "vertex": b} for b in missing]
    if len(set(images.values())) != len(images):
        problems.append({"check": "injectivity"})
    return gx, gy, virtual, images, problems


class _Explorer:
    """B(psi(lam)) explored one target path at a time, for one verifier call,
    holding only the paths with a verdict (known) and the cap.  admit(q)
    holds q as a member.  member(q) is the (eps, phi) of q's scan if q is in
    B(psi(lam)), else None: a path with no verdict is raised by the first
    color with epsilon at least one in its scan to a path with one, which
    each path of the walk takes; a walk fails at a non-integral or another
    dominant path, or past <psi(lam) - wt(q), rho^vee> steps.  The cap
    counts every path held."""

    def __init__(self, fold: FoldingPair, lam, max_size):
        y, self.fold, self.top = fold.y_type, fold, psi_weight(fold, lam)
        self.rho2, self.known = _two_rho_vee(y), {straight_path(y, self.top): True}
        self.cap = inf if max_size is None else max_size

    def _hold(self, more):
        if len(self.known) + more >= self.cap:
            raise DomainError(f"{self.cap + 1} target paths touched, past the cap {self.cap}")

    def admit(self, q):
        if q not in self.known:
            self._hold(0)
            self.known[q] = True

    def member(self, q):
        y, known, scan = self.fold.y_type, self.known, _scan(q)
        budget = 0 if scan is None else sum(map(mul, self.rho2, map(sub, self.top, scan[0]))) // 2
        walk, p, first = [], q, scan
        while p is not None and p not in known and len(walk) < budget:
            if walk and (scan := _scan(p)) is None:
                break
            self._hold(len(walk))
            walk.append(p)
            i = next((i for i, eps in zip(y.nodes, scan[1]) if eps), None)
            p = None if i is None else root_e(p, i)
        known.update(dict.fromkeys(walk, known.get(p, False)))
        return first[1:] if known.get(q) else None


def verify_virtualization(fold: FoldingPair, lam, max_size=DEFAULT_MAX_SIZE) -> list:
    """Exhaustively check that virtualization embeds the source model, the one
    model generated, into B(psi(lam)): images are members, the map is
    injective, the source edges intertwine with the virtual operators
    including definedness, and the string statistics scale by gamma.  Images
    come in id order, after an f-parent; the explorer admits each lowering of
    an accepted image that passes the f-intertwine and walks only images that
    none reached.  So a passing model holds one path per image, and no target
    path is scanned, or raised or lowered in a color, twice."""
    gx = generate(fold.x_type, lam, max_size=max_size)
    virtual = [virtualize_path(fold, p) for p in gx.vertices]
    explorer, nodes = _Explorer(fold, lam, max_size), fold.x_type.nodes
    accepted, violations = {}, []
    for b, qb in enumerate(virtual):
        if (strings := explorer.member(qb)) is None:
            violations.append({"check": "image-membership", "vertex": b})
            continue
        lows = [virtual_f(fold, qb, i) for i in nodes]
        accepted[b] = strings, lows
        for i, low in zip(nodes, lows):
            if (moved := gx.f_to[i][b]) is not None and virtual[moved] == low:
                explorer.admit(virtual[moved])
    if len({virtual[b] for b in accepted}) != len(accepted):
        violations.append({"check": "injectivity"})
    for b, ((eps_q, phi_q), lows) in accepted.items():
        qb, (eps_b, phi_b) = virtual[b], _scan(gx.vertices[b])[1:]
        for i, low in zip(nodes, lows):
            up = virtual_e(fold, qb, i)
            for name, edges, virtual_moved in (("f", gx.f_to, low), ("e", gx.e_to, up)):
                moved = edges[i][b]
                if (moved is None) != (virtual_moved is None):
                    violations.append({"check": f"{name}-definedness", "vertex": b, "color": i})
                elif moved is not None and virtual[moved] != virtual_moved:
                    violations.append({"check": f"{name}-intertwine", "vertex": b, "color": i})
            eps, ph = fold.gamma(i) * eps_b[i - 1], fold.gamma(i) * phi_b[i - 1]
            for j in fold.sigma(i):
                if eps_q[j - 1] != eps or phi_q[j - 1] != ph:
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
                violations.append({"relation": "letter-commute", "I": sorted(s), "J": sorted(b)})
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
                violations.append({"check": "diagram", "I": sorted(sub), "vertex": b})
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
