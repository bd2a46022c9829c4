import gc
import itertools
import random
import weakref
from fractions import Fraction as F
from collections import Counter

import export_oracle
import fold_oracle
import kernel_bench
import ls_oracle
import paths_oracle
import pytest
from closure_oracle import vertex_ids
from fold_oracle import (
    check_orbit_structure,
    check_root_identity,
    fold_table,
    solve_gamma,
    verify_commutative_diagram_by_paths,
    verify_virtual_relations_by_index_loops,
    verify_virtualization_on_target,
)
from test_acceptance import SIZE_CASES, VIRT_CASES
from test_cli import _no_lowering_admitted

from pathcrystals.cartan import (
    DynkinType,
    all_nodes,
    cartan_matrix,
    components,
    connected_subdiagrams,
    is_connected,
    reflect,
    symmetrizer,
    theta,
    weyl_dim,
)
from pathcrystals import crystal, folding, paths
from pathcrystals.cactus import act, compose, verify_cactus_relations
from pathcrystals.crystal import DEFAULT_MAX_SIZE, export_json, generate
from pathcrystals.errors import (
    ConfigurationError,
    DomainError,
    ModelIntegrityError,
    NotInImageError,
)
from pathcrystals.folding import (
    devirtualize,
    fold_info,
    folding_pair,
    psi_weight,
    s_tilde,
    verify_commutative_diagram,
    verify_component_identity,
    verify_virtual_relations,
    verify_virtualization,
    virtual_e,
    virtual_f,
    virtualize_path,
)
from pathcrystals.paths import (
    PLPath,
    canonicalize,
    epsilon,
    paths_equal,
    phi,
    root_e,
    root_f,
    straight_path,
    weight_int,
)

FOLD_CASES = {
    # family: (target, sigma, gamma, aut as a node map)
    "C2": ("A3", {1: [1, 3], 2: [2]}, [1, 2], [3, 2, 1]),
    "C3": ("A5", {1: [1, 5], 2: [2, 4], 3: [3]}, [1, 1, 2], [5, 4, 3, 2, 1]),
    "C4": ("A7", {1: [1, 7], 2: [2, 6], 3: [3, 5], 4: [4]}, [1, 1, 1, 2], [7, 6, 5, 4, 3, 2, 1]),
    "B2": ("D3", {1: [1], 2: [2, 3]}, [2, 1], [1, 3, 2]),
    "B3": ("D4", {1: [1], 2: [2], 3: [3, 4]}, [2, 2, 1], [1, 2, 4, 3]),
    "B4": ("D5", {1: [1], 2: [2], 3: [3], 4: [4, 5]}, [2, 2, 2, 1], [1, 2, 3, 5, 4]),
    "G2": ("D4", {1: [1, 3, 4], 2: [2]}, [1, 3], [3, 2, 4, 1]),
    "F4": ("E6", {1: [2], 2: [4], 3: [3, 5], 4: [1, 6]}, [2, 2, 1, 1], [6, 2, 5, 4, 3, 1]),
}

BRANCH = {"C2": 2, "C3": 3, "C4": 4, "B2": 1, "B3": 2, "B4": 3, "G2": 2, "F4": 2}


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_folding_data(name):
    target, sigma, gamma, aut = FOLD_CASES[name]
    fold = folding_pair(name)
    assert str(fold.y_type) == target
    assert {i: sorted(fold.sigma(i)) for i in fold.x_type.nodes} == sigma
    assert [fold.gamma(i) for i in fold.x_type.nodes] == gamma
    assert [fold.aut[j] for j in fold.y_type.nodes] == aut
    assert fold.branch == BRANCH[name]


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_root_identity(name):
    """psi of a source simple root is gamma times the sum of the target
    simple roots over its orbit, checked coordinate by coordinate."""
    fold = folding_pair(name)
    ax = cartan_matrix(fold.x_type)
    ay = cartan_matrix(fold.y_type)
    for i in fold.x_type.nodes:
        alpha = tuple(ax[k][i - 1] for k in range(fold.x_type.rank))
        lhs = psi_weight(fold, alpha)
        rhs = [0] * fold.y_type.rank
        for j in fold.sigma(i):
            for l in range(fold.y_type.rank):
                rhs[l] += fold.gamma(i) * ay[l][j - 1]
        assert list(lhs) == rhs


FOLDABLE_MAX_RANK = 11
FOLDABLE = [f"{family}{n}" for family in "CB" for n in range(2, FOLDABLE_MAX_RANK + 1)]


@pytest.mark.parametrize("name", FOLDABLE + ["G2", "F4"])
def test_gamma_equals_symmetrizer(name):
    # folding_pair takes the exponents from the source symmetrizer; the
    # oracle solves them independently from the root identity
    fold = folding_pair(name)
    sigma = {i: fold.sigma(i) for i in fold.x_type.nodes}
    gamma = {i: fold.gamma(i) for i in fold.x_type.nodes}
    assert gamma == solve_gamma(fold.x_type, fold.y_type, sigma)


@pytest.mark.parametrize("name", FOLDABLE + ["G2", "F4"])
def test_fold_info_matches_oracle_table(name):
    # sigma derived from the automorphism equals the hand-written table, and
    # every other field follows from that table and the solved exponents
    x = DynkinType.parse(name)
    y, sigma, aut, branch = fold_table(x)
    gamma = solve_gamma(x, y, sigma)
    check_root_identity(x, y, sigma, gamma)
    check_orbit_structure(x, y, sigma, aut)
    assert fold_info(folding_pair(x)) == {
        "X": name,
        "Y": str(y),
        "sigma": {str(i): sorted(sigma[i]) for i in x.nodes},
        "gamma": {str(i): gamma[i] for i in x.nodes},
        "aut": [aut[j] for j in y.nodes],
        "branch": branch,
        "psi_matrix": [[gamma[i] if l in sigma[i] else 0 for i in x.nodes] for l in y.nodes],
    }


def _oracle_checkers_accept(x, y, sigma, aut):
    gamma = dict(zip(x.nodes, symmetrizer(x)))
    try:
        check_root_identity(x, y, sigma, gamma)
        check_orbit_structure(x, y, sigma, aut)
    except ModelIntegrityError:
        return False
    return True


def _construction_accepts(monkeypatch, x, table):
    monkeypatch.setattr(folding, "_fold_table", lambda _: table)
    try:
        fold = folding_pair(x)
    except ModelIntegrityError:
        return False
    assert all(_aut_orbit(table[1], j) == fold.sigma(i) for i, j in zip(x.nodes, table[2]))
    return True


def _aut_orbit(aut, j) -> frozenset:
    orbit = {j}
    while aut[j] not in orbit:
        j = aut[j]
        orbit.add(j)
    return frozenset(orbit)


ASSIGNMENT_TYPES = [f"{family}{n}" for family in "CB" for n in range(2, 7)] + ["G2", "F4"]


def test_construction_accepts_what_the_orbit_and_root_checkers_accept(monkeypatch):
    # every bijection of source nodes onto the automorphism orbits, each orbit
    # named by its smallest node: the partition and root-identity checks of
    # folding_pair accept exactly what the two oracle checkers accept
    tried, accepted = 0, []
    for name in ASSIGNMENT_TYPES:
        x = DynkinType.parse(name)
        y, table_sigma, aut, branch = fold_table(x)
        for orbits in itertools.permutations(table_sigma.values()):
            sigma = dict(zip(x.nodes, orbits))
            table = (y, aut, tuple(min(o) for o in orbits), branch)
            new = _construction_accepts(monkeypatch, x, table)
            assert new == _oracle_checkers_accept(x, y, sigma, aut), (name, sigma)
            tried += 1
            if new:
                accepted.append(name)
    assert tried == 1770
    assert sorted(accepted) == sorted(ASSIGNMENT_TYPES)


@pytest.mark.parametrize("name", ["C2", "C3", "B2", "B3", "G2"])
def test_construction_matches_checkers_on_every_node_map(monkeypatch, name):
    # every map of source nodes to target nodes, overlapping orbits included
    x = DynkinType.parse(name)
    y, _, aut, branch = fold_table(x)
    for picks in itertools.product(y.nodes, repeat=x.rank):
        sigma = {i: _aut_orbit(aut, j) for i, j in zip(x.nodes, picks)}
        new = _construction_accepts(monkeypatch, x, (y, aut, picks, branch))
        assert new == _oracle_checkers_accept(x, y, sigma, aut), (name, picks)


@pytest.mark.parametrize(
    "name,aut,nodes,message",
    [
        ("F4", None, (4, 2, 3, 1), r"^root identity fails for F4 at node 1: "),
        ("C3", None, (1, 5, 3), r"^orbits do not partition the nodes of A5$"),
        ("G2", {1: 1, 2: 2, 3: 4, 4: 3}, (1, 2), r"^orbits do not partition the nodes of D4$"),
    ],
)
def test_construction_rejects_a_wrong_table(monkeypatch, name, aut, nodes, message):
    x = DynkinType.parse(name)
    y, table_aut, _, branch = folding._fold_table(x)
    table = (y, aut or table_aut, nodes, branch)
    monkeypatch.setattr(folding, "_fold_table", lambda _: table)
    with pytest.raises(ModelIntegrityError, match=message):
        folding_pair(x)


def test_aut_matches_target_theta_except_known_cases():
    for name in sorted(FOLD_CASES):
        fold = folding_pair(name)
        theta_y = theta(fold.y_type, all_nodes(fold.y_type))
        even_d = fold.y_type.family == "D" and fold.y_type.rank % 2 == 0
        if name == "G2" or (fold.x_type.family == "B" and even_d):
            assert fold.aut != theta_y
        else:
            assert fold.aut == theta_y


def test_unsupported_types_rejected():
    with pytest.raises(ConfigurationError):
        folding_pair("A3")
    with pytest.raises(ConfigurationError):
        folding_pair("D4")
    assert folding_pair("C5").y_type == DynkinType("A", 9)  # the rank cap is the CLI's


def test_psi_weight_examples():
    fold = folding_pair("C2")
    assert psi_weight(fold, (0, 0)) == (0, 0, 0)
    assert psi_weight(fold, (1, 0)) == (1, 0, 1)
    assert psi_weight(fold, (0, 1)) == (0, 2, 0)
    assert fold.psi_matrix == ((1, 0), (0, 2), (1, 0))


def test_psi_weight_refuses_a_weight_of_the_wrong_length():
    with pytest.raises(ConfigurationError) as info:
        psi_weight(folding_pair("C2"), (1, 0, 0))
    assert str(info.value) == "weight must have length 2"


def test_virtualize_and_devirtualize_refuse_a_path_of_the_wrong_type():
    fold = folding_pair("C2")
    with pytest.raises(ConfigurationError) as info:
        virtualize_path(fold, straight_path(fold.y_type, (1, 0, 1)))
    assert str(info.value) == "path lives in A3, not C2"
    with pytest.raises(ConfigurationError) as info:
        devirtualize(fold, straight_path(fold.x_type, (1, 0)))
    assert str(info.value) == "path lives in C2, not A3"


def test_psi_preserves_dominance_random():
    rng = random.Random(4401)
    for name in sorted(FOLD_CASES):
        fold = folding_pair(name)
        for _ in range(10):
            lam = tuple(rng.randint(0, 4) for _ in fold.x_type.nodes)
            assert all(x >= 0 for x in psi_weight(fold, lam))


def test_virtualize_straight_path():
    fold = folding_pair("C2")
    lam = (1, 1)
    image = virtualize_path(fold, straight_path(fold.x_type, lam))
    assert paths_equal(image, straight_path(fold.y_type, psi_weight(fold, lam)))


def test_virtualize_commutes_with_weight():
    fold = folding_pair("B2")
    g = generate(fold.x_type, (1, 0))
    for p in g.vertices:
        assert weight_int(virtualize_path(fold, p)) == psi_weight(fold, weight_int(p))


def test_virtualize_injective_on_model():
    fold = folding_pair("C2")
    g = generate(fold.x_type, (0, 1))
    images = {virtualize_path(fold, p) for p in g.vertices}
    assert len(images) == len(g)


def test_devirtualize_roundtrip():
    fold = folding_pair("G2")
    g = generate(fold.x_type, (1, 0))
    for p in g.vertices:
        assert paths_equal(devirtualize(fold, virtualize_path(fold, p)), p)


def test_devirtualize_of_straight_image():
    fold = folding_pair("C3")
    lam = (1, 0, 0)
    image = straight_path(fold.y_type, psi_weight(fold, lam))
    assert paths_equal(devirtualize(fold, image), straight_path(fold.x_type, lam))


def test_devirtualize_rejects_off_image_path():
    # the error names the first breakpoint outside the image: the end of the
    # first direction outside it, as the path starts at the origin; the A3
    # path below leaves the image at t=2/3 and is back in it at t=1
    fold = folding_pair("C2")
    message = "^breakpoint at t={} is outside the embedded lattice$"
    with pytest.raises(NotInImageError, match=message.format(1)):
        devirtualize(fold, straight_path(fold.y_type, (1, 0, 0)))
    bps = [(0, (0, 0, 0)), (F(1, 3), (F(1, 3), 0, F(1, 3))), (F(2, 3), (F(2, 3), 0, F(1, 3)))]
    path = PLPath.from_breakpoints(fold.y_type, [*bps, (1, (F(2, 3), 0, F(2, 3)))])
    with pytest.raises(NotInImageError, match=message.format("2/3")):
        devirtualize(fold, path)


@pytest.mark.parametrize(
    "name", [*(f"C{n}" for n in range(2, 9)), *(f"B{n}" for n in range(2, 9)), "G2", "F4"]
)
def test_the_words_of_a_fold_are_the_components_of_each_orbit_image(name):
    # computed once per fold; s_tilde reads them after its connectivity check
    fold = folding_pair(name)
    subs = connected_subdiagrams(fold.x_type)
    assert fold.words == {s: tuple(components(fold.y_type, fold.sigma_set(s))) for s in subs}
    assert all(s_tilde(fold, s) is fold.words[s] for s in subs)
    for nodes in [set(), {1, 3}] if fold.x_type.rank > 2 else [set()]:
        with pytest.raises(ConfigurationError, match="^generator index must be connected"):
            s_tilde(fold, nodes)


def test_virtual_operators_intertwine_c2():
    fold = folding_pair("C2")
    g = generate(fold.x_type, (1, 0))
    for p in g.vertices:
        q = virtualize_path(fold, p)
        for i in fold.x_type.nodes:
            lowered = root_f(p, i)
            virtual = virtual_f(fold, q, i)
            assert (lowered is None) == (virtual is None)
            if lowered is not None:
                assert paths_equal(virtualize_path(fold, lowered), virtual)


def test_virtual_operator_order_independent_on_image():
    fold = folding_pair("C2")
    g = generate(fold.x_type, (0, 1))
    for p in g.vertices:
        q = virtualize_path(fold, p)
        for i in fold.x_type.nodes:
            for op, virtual in ((root_f, virtual_f), (root_e, virtual_e)):
                rev = q
                for j in sorted(fold.sigma(i), reverse=True):
                    for _ in range(fold.gamma(i)):
                        if rev is not None:
                            rev = op(rev, j)
                fwd = virtual(fold, q, i)
                assert (fwd is None) == (rev is None)
                if fwd is not None:
                    assert paths_equal(fwd, rev)


def test_string_statistics_scale_by_gamma():
    fold = folding_pair("B2")
    g = generate(fold.x_type, (0, 1))
    for p in g.vertices:
        q = virtualize_path(fold, p)
        for i in fold.x_type.nodes:
            for j in fold.sigma(i):
                assert epsilon(q, j) == fold.gamma(i) * epsilon(p, i)
                assert phi(q, j) == fold.gamma(i) * phi(p, i)


def test_s_tilde_examples():
    fold = folding_pair("C3")
    assert s_tilde(fold, {3}) == (frozenset({3}),)
    assert s_tilde(fold, {1}) == (frozenset({1}), frozenset({5}))
    assert s_tilde(fold, {1, 2, 3}) == (frozenset({1, 2, 3, 4, 5}),)
    g2 = folding_pair("G2")
    assert s_tilde(g2, {1}) == (frozenset({1}), frozenset({3}), frozenset({4}))


def test_s_tilde_rejects_disconnected():
    fold = folding_pair("C3")
    with pytest.raises(ConfigurationError):
        s_tilde(fold, {1, 3})


def test_component_identity_c3_nested_example():
    fold = folding_pair("C3")
    outer = frozenset({1, 2})
    inner = frozenset({1})
    tw = theta(fold.x_type, outer)
    lhs = fold.sigma_set(frozenset(tw[j] for j in inner))
    # components of sigma({1,2}) = {1,2} and {4,5}; per-part twists reverse
    assert lhs == frozenset({2, 4})


@pytest.mark.parametrize("name", ["C2", "C3", "B3", "G2", "F4"])
def test_component_identity_passes(name):
    assert verify_component_identity(folding_pair(name)) == []


def test_component_identity_reports_untwisted_components(monkeypatch):
    # without the per-component twists of the target, the C3 pair I = {1, 2},
    # whose image is {1, 2} and {4, 5} in A5, fails for both inner nodes
    fold = folding_pair("C3")
    real = folding.theta

    def untwisted(t, nodes):
        return {j: j for j in nodes} if t == fold.y_type else real(t, nodes)

    monkeypatch.setattr(folding, "theta", untwisted)
    assert verify_component_identity(fold) == [
        {"check": "component-identity", "I": [1, 2], "J": [1], "lhs": [2, 4], "rhs": [1, 5]},
        {"check": "component-identity", "I": [1, 2], "J": [2], "lhs": [1, 5], "rhs": [2, 4]},
    ]


COMPONENT_IDENTITY_FOLDS = [f"{family}{n}" for family in "CB" for n in range(2, 9)] + [
    "G2",
    "F4",
    "C12",
    "B12",
    "C20",
    "B20",
]


def _untwist_target(monkeypatch, fold, moved):
    """Patch folding.theta to the identity on the target node sets that moved
    accepts; source sets and other target sets keep their real theta."""
    real = folding.theta

    def untwisted(t, nodes):
        return {j: j for j in nodes} if t == fold.y_type and moved(nodes) else real(t, nodes)

    monkeypatch.setattr(folding, "theta", untwisted)


@pytest.mark.parametrize("patched", [False, True], ids=["real", "untwisted"])
@pytest.mark.parametrize("name", COMPONENT_IDENTITY_FOLDS)
def test_component_identity_matches_the_loop_oracle_on_disconnected_images(
    monkeypatch, name, patched
):
    # the records for outers whose image is disconnected are the loop's, in
    # its order; unpatched, every fold up to rank 20 passes
    fold = folding_pair(name)
    if patched:
        _untwist_target(monkeypatch, fold, lambda nodes: True)
    report = verify_component_identity(fold)
    disconnected = [
        r
        for r in report
        if r["check"] == "component-identity"
        and not is_connected(fold.y_type, fold.sigma_set(r["I"]))
    ]
    assert disconnected == fold_oracle.component_identity_by_loops(fold)
    assert patched or report == []


def test_component_identity_reports_an_untwisted_connected_image(monkeypatch):
    # the F4 pair I = {1, 2} has the connected image {2, 4} in E6; the loop
    # skips connected images, the plan checks every nested triple
    fold = folding_pair("F4")
    _untwist_target(monkeypatch, fold, lambda nodes: is_connected(fold.y_type, nodes))
    assert fold_oracle.component_identity_by_loops(fold) == []
    assert verify_component_identity(fold) == [
        {"check": "component-identity", "I": [1, 2], "J": [1], "lhs": [4], "rhs": [2]},
        {"check": "component-identity", "I": [1, 2], "J": [2], "lhs": [2], "rhs": [4]},
    ]


def test_component_identity_reports_in_plan_order(monkeypatch):
    # records follow the plan's bitmask order: with every target twist
    # untwisted, the connected-image outer {1, 2} comes before {3, 4}, the
    # first F4 outer whose image is disconnected
    fold = folding_pair("F4")
    _untwist_target(monkeypatch, fold, lambda nodes: True)
    assert verify_component_identity(fold) == [
        {"check": "component-identity", "I": [1, 2], "J": [1], "lhs": [4], "rhs": [2]},
        {"check": "component-identity", "I": [1, 2], "J": [2], "lhs": [2], "rhs": [4]},
        {"check": "component-identity", "I": [3, 4], "J": [3], "lhs": [1, 6], "rhs": [3, 5]},
        {"check": "component-identity", "I": [3, 4], "J": [4], "lhs": [3, 5], "rhs": [1, 6]},
    ]


def test_component_identity_reports_two_swapped_orbits():
    # C3 with sigma(2) and sigma(3) swapped: theta of I = {1, 2} moves 1 to 2
    # but sigma({1, 2}) = {1, 3, 5} is three fixed points, and sigma(1) and
    # sigma(3) are linked in A5 though 1 and 3 are not in C3
    x, y = DynkinType("C", 3), DynkinType("A", 5)
    sigma = {1: {1, 5}, 2: {3}, 3: {2, 4}}
    fold = folding.FoldingPair(x, y, sigma, {j: 6 - j for j in y.nodes}, {1: 1, 2: 1, 3: 2}, 3)
    assert verify_component_identity(fold) == [
        {"check": "component-identity", "I": [1, 2], "J": [1], "lhs": [3], "rhs": [1, 5]},
        {"check": "component-identity", "I": [1, 2], "J": [2], "lhs": [1, 5], "rhs": [3]},
        {"check": "component-count", "I": [1], "J": [3]},
    ]


VIRTUALIZATION_CASES = [
    ("C2", (1, 0)),
    ("C2", (0, 1)),
    ("B2", (1, 0)),
    ("B2", (0, 1)),
    ("C3", (1, 0, 0)),
    ("G2", (1, 0)),
]


@pytest.mark.parametrize("name,lam", VIRTUALIZATION_CASES)
def test_virtualization_verifier_passes(name, lam):
    assert verify_virtualization(folding_pair(name), lam) == []


def test_virtualization_image_size_c2():
    fold = folding_pair("C2")
    assert weyl_dim(fold.y_type, psi_weight(fold, (1, 0))) == 15
    gx = generate(fold.x_type, (1, 0))
    gy = generate(fold.y_type, psi_weight(fold, (1, 0)))
    find = vertex_ids(gy)
    images = {find(virtualize_path(fold, p)) for p in gx.vertices}
    assert None not in images and len(images) == 4


def test_virtualization_of_zero_weight():
    fold = folding_pair("C2")
    assert verify_virtualization(fold, (0, 0)) == []
    assert verify_commutative_diagram(fold, (0, 0)) == []


def _never_defined(real):
    return lambda fold, path, i: None


def _standing_still(real):
    # defined where the real operator is, but leaves the path where it was
    return lambda fold, path, i: None if real(fold, path, i) is None else path


BROKEN_VIRTUAL_OPS = {"definedness": _never_defined, "intertwine": _standing_still}


def _patch(monkeypatch, fold, lam, points):
    for owner, attr, broken in points:
        monkeypatch.setattr(owner, attr, broken(getattr(owner, attr), fold, lam))


@pytest.mark.parametrize("check", sorted(BROKEN_VIRTUAL_OPS))
@pytest.mark.parametrize("name,op", [("f", root_f), ("e", root_e)])
def test_virtualization_reports_broken_virtual_operators(monkeypatch, check, name, op):
    # each break is reported at every vertex and color where the source
    # operator is defined, and nowhere else
    fold = folding_pair("C2")
    _patch(monkeypatch, fold, (1, 0), VIRTUALIZATION_PATCHES[f"{name}-{check}"])
    gx = generate(fold.x_type, (1, 0))
    expected = [
        {"check": f"{name}-{check}", "vertex": b, "color": i}
        for b in range(len(gx))
        for i in fold.x_type.nodes
        if op(gx.vertices[b], i) is not None
    ]
    assert expected and verify_virtualization(fold, (1, 0)) == expected


@pytest.mark.parametrize("stat", ["epsilon", "phi"])
def test_virtualization_reports_unscaled_string_statistics(monkeypatch, stat):
    # one more step on every target string breaks the scaling at every
    # vertex, source color and node of its orbit
    fold = folding_pair("C2")
    _patch(monkeypatch, fold, (1, 0), _one_more_step(stat)[:1])
    expected = [
        {"check": "string-scaling", "vertex": b, "color": i, "target_color": j}
        for b in range(weyl_dim(fold.x_type, (1, 0)))
        for i in fold.x_type.nodes
        for j in fold.sigma(i)
    ]
    assert verify_virtualization(fold, (1, 0)) == expected


@pytest.mark.parametrize("name,lam", [("C2", (1, 0)), ("G2", (1, 0))])
def test_virtual_relations_pass(name, lam):
    assert verify_virtual_relations(folding_pair(name), lam) == []


def _shifted_word_of_one(monkeypatch, fold):
    # the values of the induced permutation for {1} shifted cyclically
    broken_word = s_tilde(fold, {1})

    def corrupted(graph, word, perms=None):
        perm = act(graph, word, perms)
        if tuple(word) == broken_word:
            perm = tuple(perm[(v + 1) % len(perm)] for v in range(len(perm)))
        return perm

    monkeypatch.setattr(folding, "act", corrupted)


def _adjacent_letters_for_one(monkeypatch, fold):
    # an induced word for {1} made of the target letters {1} and {2}
    real = folding.s_tilde

    def adjacent(fold, nodes):
        return (frozenset({1}), frozenset({2})) if set(nodes) == {1} else real(fold, nodes)

    monkeypatch.setattr(folding, "s_tilde", adjacent)


def test_virtual_relation_violations_carry_witness(monkeypatch):
    # shifting the values of the induced permutation for {1} cyclically breaks
    # all three source relations: its square, its commutation with {3}, and
    # its conjugation by the full generator
    fold = folding_pair("C3")
    _shifted_word_of_one(monkeypatch, fold)
    lam = (1, 0, 0)
    report = verify_virtual_relations(fold, lam)
    size = weyl_dim(fold.y_type, psi_weight(fold, lam))
    assert {r["relation"] for r in report} == {1, 2, 3}
    assert all(0 <= r["witness_vertex"] < size for r in report)


def test_virtual_relations_report_letters_that_do_not_commute(monkeypatch):
    # an induced word for {1} made of the adjacent A3 letters {1} and {2}
    fold = folding_pair("C2")
    _adjacent_letters_for_one(monkeypatch, fold)
    report = verify_virtual_relations(fold, (1, 0))
    assert [r for r in report if r["relation"] == "letter-commute"] == [
        {"relation": "letter-commute", "I": [1], "J": [2]}
    ]


@pytest.mark.parametrize("name,lam", VIRTUALIZATION_CASES)
def test_commutative_diagram_passes(name, lam):
    assert verify_commutative_diagram(folding_pair(name), lam) == []


ABOVE_RANK_FOUR = [
    ("C5", (1, 0, 0, 0, 0), "A9", 99),
    ("B5", (1, 0, 0, 0, 0), "D6", 77),
    ("C6", (1, 0, 0, 0, 0, 0), "A11", 143),
    ("B6", (1, 0, 0, 0, 0, 0), "D7", 104),
    ("B5", (0, 0, 0, 0, 1), "D6", 792),
]


@pytest.mark.parametrize("name,lam,target,size", ABOVE_RANK_FOUR)
def test_folding_verifiers_pass_above_rank_four(name, lam, target, size):
    # the rank cap is the command line's; through the API the theorem is
    # checked on sources of rank 5 and 6
    fold = folding_pair(name)
    assert str(fold.y_type) == target
    assert weyl_dim(fold.y_type, psi_weight(fold, lam)) == size
    assert verify_component_identity(fold) == []
    assert verify_virtualization(fold, lam) == []
    assert verify_virtual_relations(fold, lam) == []
    assert verify_commutative_diagram(fold, lam) == []


# the folding workload of the benchmark: every weight of each symmetry class
# whose target has 15 to 200 vertices, and the pinned F4 case
FOLDING_WORKLOAD_CASES = [
    ("B2", (0, 1)),
    ("C2", (1, 0)),
    ("B2", (1, 0)),
    ("C2", (0, 1)),
    ("B3", (1, 0, 0)),
    ("C3", (1, 0, 0)),
    ("B3", (0, 0, 1)),
    ("B2", (0, 2)),
    ("C2", (2, 0)),
    ("B2", (2, 0)),
    ("C2", (0, 2)),
    ("B2", (1, 1)),
    ("C2", (1, 1)),
    ("C3", (0, 0, 1)),
    ("C3", (0, 1, 0)),
    ("F4", (0, 0, 0, 1)),
]


DIAGRAM_ORACLE_CASES = VIRTUALIZATION_CASES + [
    ("C2", (1, 1)),
    ("B3", (0, 1, 0)),
    ("F4", (0, 0, 0, 1)),
]


@pytest.mark.parametrize(
    "name,lam",
    DIAGRAM_ORACLE_CASES + [c for c in FOLDING_WORKLOAD_CASES if c not in DIAGRAM_ORACLE_CASES],
)
def test_commutative_diagram_matches_path_oracle(name, lam):
    fold = folding_pair(name)
    assert verify_commutative_diagram(fold, lam) == verify_commutative_diagram_by_paths(
        fold, lam
    )


@pytest.mark.parametrize(
    "name,lam", [("C2", (1, 0)), ("C3", (1, 0, 0)), ("B3", (0, 1, 0)), ("G2", (1, 0))]
)
def test_commutative_diagram_matches_path_oracle_on_broken_involution(
    monkeypatch, name, lam
):
    # swapping the images of two vertices under xi_{1} breaks the diagram at
    # both vertices; each verifier must report the same violations
    real_xi_perm = folding.xi_perm

    def corrupted(graph, colors):
        perm = list(real_xi_perm(graph, colors))
        if frozenset(colors) == {1}:
            perm[0], perm[-1] = perm[-1], perm[0]
        return tuple(perm)

    fold = folding_pair(name)
    monkeypatch.setattr(folding, "xi_perm", corrupted)
    report = verify_commutative_diagram(fold, lam)
    assert {"check": "diagram", "I": [1], "vertex": 0} in report
    assert report == verify_commutative_diagram_by_paths(fold, lam)


def _off_lattice(fold, path):
    # bent paths land off the target lattice, so their vertices have no image
    q = virtualize_path(fold, path)
    if len(path.breakpoints) == 2:
        return q
    doubled = tuple((t, tuple(2 * c for c in p)) for t, p in q.breakpoints)
    return PLPath.from_breakpoints(q.rtype, doubled)


def _endpoint_shifted(fold, path):
    # a left inverse that moves the endpoint of every bent path
    out = devirtualize(fold, path)
    if len(out.breakpoints) == 2:
        return out
    t, p = out.breakpoints[-1]
    shifted = out.breakpoints[:-1] + ((t, tuple(c + 1 for c in p)),)
    return PLPath.from_breakpoints(out.rtype, shifted)


@pytest.mark.parametrize(
    "attr,broken", [("virtualize_path", _off_lattice), ("devirtualize", _endpoint_shifted)]
)
@pytest.mark.parametrize("name,lam", [("C2", (1, 1)), ("G2", (1, 0))])
def test_commutative_diagram_matches_path_oracle_on_broken_virtualization(
    monkeypatch, attr, broken, name, lam
):
    # the left inverse is applied to the table's target path, and to a fresh
    # virtualization for a vertex without one; both give the oracle's records
    fold = folding_pair(name)
    monkeypatch.setattr(folding, attr, broken)
    report = verify_commutative_diagram(fold, lam)
    assert any(r["check"] == "left-inverse" for r in report)
    assert report == verify_commutative_diagram_by_paths(fold, lam)


def test_commutative_diagram_reports_a_left_inverse_off_the_image(monkeypatch):
    # a devirtualization that finds no path records one left-inverse per vertex
    def not_in_image(fold, path):
        raise NotInImageError("patched")

    fold = folding_pair("C2")
    monkeypatch.setattr(folding, "devirtualize", not_in_image)
    report = verify_commutative_diagram(fold, (1, 0))
    assert report == [{"check": "left-inverse", "vertex": b} for b in range(4)]


FULL_TARGET_CASES = sorted(set(DIAGRAM_ORACLE_CASES + FOLDING_WORKLOAD_CASES))


def _outcome(call, *args):
    try:
        return call(*args)
    except NotInImageError as exc:
        return str(exc)


def _off_orbit(fold, q):
    """q with one coordinate outside the representative of its orbit moved by
    one, for each such coordinate and each direction in turn."""
    rest = [j - 1 for i in fold.x_type.nodes for j in sorted(fold.sigma(i))[1:]]
    for k, j in itertools.product(range(len(q.dirs)), rest):
        dirs = [list(d) for d in q.dirs]
        dirs[k][j] += 1
        yield PLPath(q.rtype, q.den, q.times, q.vden, tuple(map(tuple, dirs)))


@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_psi_and_its_left_inverse_match_the_matrix_and_set_oracles(name, lam):
    # the per-node tables against the psi matrix and the orbit sets: on
    # random weights, on every image, and on every image with one orbit
    # coordinate moved off its representative, same paths or same error
    fold = folding_pair(name)
    rng = random.Random(f"{name}{lam}")
    for _ in range(50):
        mu = tuple(rng.randrange(-9, 10) for _ in fold.x_type.nodes)
        assert psi_weight(fold, mu) == fold_oracle.psi_weight_by_matrix(fold, mu)
    refused = 0
    for p in generate(fold.x_type, lam).vertices:
        q = virtualize_path(fold, p)
        assert q == fold_oracle.virtualize_by_matrix(fold, p)
        assert devirtualize(fold, q) == fold_oracle.devirtualize_by_sets(fold, q) == p
        for off in _off_orbit(fold, q):
            outcome = _outcome(devirtualize, fold, off)
            assert outcome == _outcome(fold_oracle.devirtualize_by_sets, fold, off)
            refused += isinstance(outcome, str)
    assert refused


def _weyl_orbit(t, lam) -> set:
    """W.lam, the closure of lam under the simple reflections."""
    orbit, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for i in t.nodes:
            if (nu := reflect(t, mu, i)) not in orbit:
                orbit.add(nu)
                todo.append(nu)
    return orbit


def _ls_form_faults(path, orbit) -> list:
    """How a path fails to be a reduced LS path of the orbit's weight: a
    direction denominator, two equal adjacent directions, a direction
    outside the orbit."""
    dirs = path.dirs
    faults = ["vden"] if path.vden != 1 else []
    if any(d == e for d, e in zip(dirs, dirs[1:])):
        faults.append("adjacent")
    if not orbit.issuperset(dirs):
        faults.append("orbit")
    return faults


def _ls_form_models():
    """Every model of SIZE_CASES, and the source and target of every folding
    case whose target tier-1 generates."""
    cases = [(t, lam) for t, lam, _ in SIZE_CASES]
    above = [(name, lam) for name, lam, _, _ in ABOVE_RANK_FOUR]
    for name, lam in FULL_TARGET_CASES + VIRT_CASES + above:
        fold = folding_pair(name)
        cases += [(fold.x_type, lam), (fold.y_type, psi_weight(fold, lam))]
    return list(dict.fromkeys(cases))


@pytest.mark.parametrize("t,lam", _ls_form_models(), ids=lambda x: str(x).replace(" ", ""))
def test_generated_paths_are_reduced_ls_paths(t, lam):
    # the LS form is built for this traffic: integral directions in W.lam,
    # one per segment
    orbit = _weyl_orbit(t, lam)
    faults = [(b, _ls_form_faults(p, orbit)) for b, p in enumerate(generate(t, lam).vertices)]
    assert not [fault for fault in faults if fault[1]][:3]


def test_ls_form_check_flags_a_direction_off_the_orbit():
    t, lam = DynkinType("C", 2), (1, 1)
    p = next(p for p in generate(t, lam).vertices if len(p.dirs) > 1)
    off = PLPath(t, p.den, p.times, p.vden, (tuple(2 * c for c in p.dirs[0]), *p.dirs[1:]))
    assert _ls_form_faults(p, _weyl_orbit(t, lam)) == []
    assert _ls_form_faults(off, _weyl_orbit(t, lam)) == ["orbit"]


@pytest.mark.parametrize("t,lam", _ls_form_models(), ids=lambda x: str(x).replace(" ", ""))
def test_path_kernel_matches_the_direct_reflection_oracle(t, lam):
    # the operators read each reflected direction from a memo per type and
    # color, and weight_int and the one path scan that weighs each new vertex
    # sum the directions; the oracle reflects every direction afresh and
    # reads the last of the points.  The scan's string lengths are those of
    # epsilon and phi, color by color
    g = generate(t, lam)
    assert g.weights == tuple(weight_int(p) for p in g.vertices)
    for p in g.vertices:
        assert weight_int(p) == paths_oracle.points_weight_int(p), p
        scan = paths._scan(p)
        assert scan == paths_oracle.scan(p) and scan is not None, p
        assert scan[0] == paths_oracle.integral_weight(p), p
        for i in t.nodes:
            assert root_f(p, i) == paths_oracle.direct_root_f(p, i), (p, i)
            assert root_e(p, i) == paths_oracle.direct_root_e(p, i), (p, i)


@pytest.mark.parametrize("t,lam", _ls_form_models(), ids=lambda x: str(x).replace(" ", ""))
def test_exports_of_folding_models_match_the_oracles(t, lam):
    # each distinct breakpoint rendered once a call, against json.dumps of the
    # export object and the renderer that rendered every breakpoint of every path
    g = generate(t, lam)
    text = export_json(g)
    assert text == export_oracle.export_json(g) == export_oracle.export_json_by_path(g)


@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_virtualization_matches_full_target_oracle(name, lam):
    fold = folding_pair(name)
    assert verify_virtualization(fold, lam) == verify_virtualization_on_target(fold, lam)


@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_virtual_relations_match_index_loop_oracle(name, lam):
    fold = folding_pair(name)
    assert verify_virtual_relations(fold, lam) == verify_virtual_relations_by_index_loops(
        fold, lam
    )


@pytest.mark.parametrize("patch", [_shifted_word_of_one, _adjacent_letters_for_one])
@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_virtual_relations_match_index_loop_oracle_on_broken_words(
    monkeypatch, patch, name, lam
):
    # a corrupted letter permutation and a word of letters that need not
    # commute: both checkers report the same records, in the same order
    fold = folding_pair(name)
    patch(monkeypatch, fold)
    report = verify_virtual_relations(fold, lam)
    assert report and report == verify_virtual_relations_by_index_loops(fold, lam)


@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_virtual_relations_follow_from_the_target_relations_and_the_component_identity(
    name, lam
):
    # the cactus relations of B(psi(lam)) and the diagram facts on the source
    # plan imply the virtual relations; all three hold on every full target
    fold = folding_pair(name)
    assert verify_cactus_relations(generate(fold.y_type, psi_weight(fold, lam))) == []
    assert verify_component_identity(fold) == []
    assert verify_virtual_relations(fold, lam) == []


def test_virtual_relations_compute_each_induced_word_once(monkeypatch):
    # one s_tilde call per connected source subdiagram: the letter pairs are
    # read off the same words as the permutations
    fold = folding_pair("C3")
    real, calls = folding.s_tilde, Counter()

    def counted(fold, nodes):
        calls[frozenset(nodes)] += 1
        return real(fold, nodes)

    monkeypatch.setattr(folding, "s_tilde", counted)
    assert verify_virtual_relations(fold, (1, 0, 0)) == []
    assert calls == Counter(connected_subdiagrams(fold.x_type))


def _one_more_step(stat):
    # one more step on every target string of stat: on the (eps, phi) that
    # the explorer's member returns for an image, which the verifier reads,
    # and on paths.epsilon or paths.phi of a target path, which the oracle reads
    k = ("epsilon", "phi").index(stat)

    def on_explorer(real, fold, lam):
        def member(explorer, q):
            strings = real(explorer, q)
            if strings is None:
                return None
            out = list(strings)
            out[k] = tuple(n + 1 for n in out[k])
            return tuple(out)

        return member

    def on_paths(real, fold, lam):
        return lambda path, i: real(path, i) + (path.rtype == fold.y_type)

    return [(folding._Explorer, "member", on_explorer), (paths, stat, on_paths)]


def _merging(real, fold, lam):
    # vertex 1 goes to the image of vertex 0: two vertices share one path
    gx = generate(fold.x_type, lam)
    return lambda fold, path: real(fold, gx.vertices[0] if path == gx.vertices[1] else path)


def _bent_images(move):
    # the image of every bent path is moved; a straight path keeps its image
    def broken(real, fold, lam):
        def virtualize(fold, path):
            q = real(fold, path)
            return q if len(path.breakpoints) == 2 else move(q)

        return virtualize

    return broken


def _to_zero(q):
    # a dominant path of another component: raising it stops short of the top
    return straight_path(q.rtype, (0,) * q.rtype.rank)


# each patch lists its points as (owner, attribute, broken(real, fold, lam)):
# a break that the verifier and the oracle both read, or a break of the
# verifier's read and the same break of the oracle's
VIRTUALIZATION_PATCHES = {
    **{
        f"{name}-{check}": [
            (
                folding,
                f"virtual_{name}",
                lambda real, fold, lam, check=check: BROKEN_VIRTUAL_OPS[check](real),
            ),
        ]
        for name in ("f", "e")
        for check in sorted(BROKEN_VIRTUAL_OPS)
    },
    "string-scaling-epsilon": _one_more_step("epsilon"),
    "string-scaling-phi": _one_more_step("phi"),
    "image-membership": [(folding, "virtualize_path", lambda real, fold, lam: _off_lattice)],
    "image-membership-at-zero": [(folding, "virtualize_path", _bent_images(_to_zero))],
    "injectivity": [(folding, "virtualize_path", _merging)],
}


@pytest.mark.parametrize("patch", sorted(VIRTUALIZATION_PATCHES))
@pytest.mark.parametrize("name,lam", [("C2", (1, 1)), ("B3", (0, 1, 0)), ("G2", (1, 0))])
def test_virtualization_matches_full_target_oracle_on_broken_models(
    monkeypatch, patch, name, lam
):
    # the patch name starts with a check the break must show
    fold = folding_pair(name)
    _patch(monkeypatch, fold, lam, VIRTUALIZATION_PATCHES[patch])
    report = verify_virtualization(fold, lam)
    assert any(patch.startswith(r["check"]) for r in report)
    assert report == verify_virtualization_on_target(fold, lam)


def test_membership_walk_is_bounded(monkeypatch):
    # a raising operator that stands still never reaches a known path: each
    # walk from a C2(1,0) image below the top stops at its step budget, with
    # no verdict of membership
    fold = folding_pair("C2")
    images = [virtualize_path(fold, p) for p in generate(fold.x_type, (1, 0)).vertices]
    monkeypatch.setattr(folding, "root_e", lambda path, i: path)
    member = _member(fold, (1, 0), None)
    assert [member(q) is q for q in images] == [True, False, False, False]


def test_membership_cap_counts_touched_paths_exactly(monkeypatch):
    # the passing G2(1,1) model holds its 64 images, so the cap on the 64
    # source vertices refuses first; where no lowering is admitted, the walks
    # touch 565 target paths, the straight path included
    fold = folding_pair("G2")
    assert verify_virtualization(fold, (1, 1), max_size=64) == []
    with pytest.raises(DomainError, match=r"^crystal of size 64 exceeds the cap 63$"):
        verify_virtualization(fold, (1, 1), max_size=63)
    _no_lowering_admitted(monkeypatch)
    report = verify_virtualization(fold, (1, 1), max_size=565)
    assert report and {r["check"] for r in report} == {"f-intertwine"}
    with pytest.raises(DomainError, match=r"^565 target paths touched, past the cap 564$"):
        verify_virtualization(fold, (1, 1), max_size=564)


def test_an_admitted_image_counts_against_the_cap():
    fold = folding_pair("C2")
    images = [virtualize_path(fold, p) for p in generate(fold.x_type, (1, 1)).vertices]
    explorer = folding._Explorer(fold, (1, 1), 2)
    for q in images[:2]:  # the top is held from the start
        explorer.admit(q)
    with pytest.raises(DomainError, match=r"^3 target paths touched, past the cap 2$"):
        explorer.admit(images[2])
    assert list(explorer.known) == images[:2]


def _explorers(monkeypatch, refer=lambda explorer: explorer):
    """The list that refer(explorer) of each explorer built from here on is
    appended to; refer keeps the explorer itself by default."""
    built, init = [], folding._Explorer.__init__

    def recording(explorer, *args):
        init(explorer, *args)
        built.append(refer(explorer))

    monkeypatch.setattr(folding._Explorer, "__init__", recording)
    return built


def _walked(monkeypatch):
    """The set that each path a walk of the explorer's member holds is added
    to, from here on."""
    walked, member = set(), folding._Explorer.member

    def recording(explorer, q):
        before = set(explorer.known)
        try:
            return member(explorer, q)
        finally:
            walked.update(explorer.known.keys() - before)

    monkeypatch.setattr(folding._Explorer, "member", recording)
    return walked


@pytest.mark.parametrize("patch", [None, *sorted(VIRTUALIZATION_PATCHES)])
@pytest.mark.parametrize("name,lam", VIRTUALIZATION_CASES + [("G2", (1, 1))])
def test_the_explorer_holds_only_the_paths_the_cap_counts(monkeypatch, patch, name, lam):
    # once the verifier returns, the paths the explorer refers to are the
    # ones the cap counted, each the top, an image or a walk path: no
    # lowering that failed its intertwine, no string lengths of a rejected
    # image, no virtual operator's path
    fold = folding_pair(name)
    if patch is not None:
        _patch(monkeypatch, fold, lam, VIRTUALIZATION_PATCHES[patch])
    built, walked = _explorers(monkeypatch), _walked(monkeypatch)
    verify_virtualization(fold, lam)
    (explorer,) = built
    assert kernel_bench.held_paths(explorer) == len(explorer.known)
    top = straight_path(fold.y_type, psi_weight(fold, lam))
    images = {folding.virtualize_path(fold, p) for p in generate(fold.x_type, lam).vertices}
    assert explorer.known.keys() <= images | walked | {top}
    if (name, lam, patch) == ("G2", (1, 1), None):
        assert len(explorer.known) == 64


@pytest.mark.parametrize("name,lam", VIRTUALIZATION_CASES + [("G2", (1, 1))])
def test_a_passing_model_is_admitted_without_a_walk(monkeypatch, name, lam):
    # the images come in id order, each after an f-parent, so every image
    # below the top is admitted off a passing lowering before member sees it:
    # no walk takes a step (a step holds its path), and the explorer holds
    # exactly the images
    fold = folding_pair(name)
    images = [virtualize_path(fold, p) for p in generate(fold.x_type, lam).vertices]
    built, walked = _explorers(monkeypatch), _walked(monkeypatch)
    assert verify_virtualization(fold, lam) == []
    (explorer,) = built
    assert walked == set()
    assert explorer.known == dict.fromkeys(images, True)
    assert kernel_bench.held_paths(explorer) == len(images)


def test_the_explorer_is_freed_without_the_cyclic_collector(monkeypatch):
    # the explorer is in no reference cycle: with the cyclic collector off,
    # it is freed, and every path it held with it, when the verifier returns
    built = _explorers(monkeypatch, weakref.ref)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert verify_virtualization(folding_pair("C2"), (1, 1)) == []
        (ref,) = built
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _member(fold, lam, max_size):
    # q or None, as the oracle's lookup answers: member returns the (eps, phi)
    # of an accepted q
    member = folding._Explorer(fold, lam, max_size).member
    return lambda q: None if member(q) is None else q


def _walks(monkeypatch, membership, fold, lam, images, max_size=None):
    """(record, handed) of the images in turn, through one lookup of
    membership(fold, lam, max_size).  The record holds each image's verdict
    and the steps of its walk: the path and color of each root_e call that
    raised a path.  On a refusal, the index of the image and the message
    take the place of the pair, and the record ends there.  handed lists
    the path of every root_e call, defined or not."""
    handed, steps, real = [], [], folding.root_e

    def raising(p, i):
        handed.append(p)
        raised = real(p, i)
        if raised is not None:
            steps.append((p, i))
        return raised

    monkeypatch.setattr(folding, "root_e", raising)
    lookup, record = membership(fold, lam, max_size), []
    try:
        for b, q in enumerate(images):
            steps.clear()
            try:
                record.append((lookup(q), tuple(steps)))
            except DomainError as exc:
                record.append((b, str(exc)))
                break
    finally:
        monkeypatch.setattr(folding, "root_e", real)
    return record, handed


def _halved(fold, path):
    # bent paths halved: their minima or endpoints leave the lattice
    q = virtualize_path(fold, path)
    return q if len(q.dirs) == 1 else PLPath(q.rtype, q.den, q.times, 2 * q.vden, q.dirs)


@pytest.mark.parametrize(
    "virtualize", [virtualize_path, _off_lattice, _halved], ids=["plain", "off", "halved"]
)
@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_membership_walk_matches_the_endpoint_budget_oracle(monkeypatch, virtualize, name, lam):
    # the step budget and the colors come from the one path scan, and no walk
    # from a non-integral path; the oracle floors the rho^vee pairing of the
    # endpoint over den * vden, and tries root_e color by color.  Same
    # verdicts, same paths raised by the same colors, no undefined root_e
    # call in the walk, and the same refusal one path short of the total
    fold = folding_pair(name)
    images = [virtualize(fold, p) for p in generate(fold.x_type, lam).vertices]
    walks, handed = _walks(monkeypatch, _member, fold, lam, images)
    oracle = fold_oracle.membership_by_endpoint
    walks_by_endpoint, tried = _walks(monkeypatch, oracle, fold, lam, images)
    assert walks == walks_by_endpoint
    assert handed == [p for _, steps in walks for p, _ in steps]
    assert all(verdict is None or verdict is q for (verdict, _), q in zip(walks, images))
    assert any(steps for _, steps in walks)
    if virtualize is _halved and any(len(q.dirs) > 1 for q in images):
        assert any(paths._scan(q) is None for q in images)
    cap = len(set(tried))  # the oracle hands root_e each path it touches; the top is one more
    refused, _ = _walks(monkeypatch, _member, fold, lam, images, cap)
    assert refused[-1][1] == f"{cap + 1} target paths touched, past the cap {cap}"
    assert refused == _walks(monkeypatch, oracle, fold, lam, images, cap)[0]


@pytest.mark.parametrize(
    "virtualize", [virtualize_path, _off_lattice, _halved], ids=["plain", "off", "halved"]
)
@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_path_scan_matches_the_scan_it_replaced_on_images(virtualize, name, lam):
    # None where the weight-only scan gave None; elsewhere weight_int, and
    # epsilon and phi of every target color
    fold = folding_pair(name)
    images = [virtualize(fold, p) for p in generate(fold.x_type, lam).vertices]
    scans = [paths._scan(q) for q in images]
    assert scans == [paths_oracle.scan(q) for q in images]
    assert [s is None for s in scans] == [paths_oracle.weight_scan(q) is None for q in images]
    assert any(s is not None for s in scans)


@pytest.mark.parametrize("t,lam", _ls_form_models(), ids=lambda x: str(x).replace(" ", ""))
def test_generated_models_are_the_ls_paths_of_their_shape(t, lam):
    # the closure under the root operators against Littelmann's definition,
    # read off Bruhat covers and a-chains alone
    keys = {ls_oracle.path_key(p) for p in generate(t, lam).vertices}
    assert keys == ls_oracle.ls_paths(t, lam)


@pytest.mark.parametrize(
    "virtualize", [virtualize_path, _off_lattice, _halved], ids=["plain", "off", "halved"]
)
@pytest.mark.parametrize("name,lam", FULL_TARGET_CASES)
def test_membership_walk_matches_the_ls_criterion(virtualize, name, lam):
    # the walk raises each image to a verdict; the criterion reads its
    # directions and break times
    fold = folding_pair(name)
    y, top, lookup = fold.y_type, psi_weight(fold, lam), _member(fold, lam, None)
    images = [virtualize(fold, p) for p in generate(fold.x_type, lam).vertices]
    walks = [lookup(q) is not None for q in images]
    assert walks == [ls_oracle.is_ls_path(y, top, q) for q in images]
    # every image is a member, and no moved bent one is
    bent = [len(q.dirs) > 1 for q in images]
    assert walks == [virtualize is virtualize_path or not b for b in bent]


def test_membership_walk_matches_the_ls_criterion_on_two_segment_paths():
    # every direction pair of W.psi(lam) on C2(1,1), broken at every time of
    # denominator 2 to 6
    fold = folding_pair("C2")
    y, top, lookup = fold.y_type, psi_weight(fold, (1, 1)), _member(fold, (1, 1), None)
    orbit = _weyl_orbit(y, top)
    candidates = [
        PLPath(y, q, (0, n, q), 1, (d, e))
        for q in range(2, 7)
        for n in range(1, q)
        if F(n, q).denominator == q
        for d, e in itertools.permutations(sorted(orbit), 2)
    ]
    walks = [lookup(q) is not None for q in candidates]
    assert len(candidates) == 6072 and sum(walks) == 69
    assert walks == [ls_oracle.is_ls_path(y, top, q) for q in candidates]


def test_ls_paths_need_the_a_chain_divisibility():
    # without it, every Bruhat chain counts at every break time
    c2 = DynkinType("C", 2)
    assert len(ls_oracle.ls_paths(c2, (1, 1))) == weyl_dim(c2, (1, 1)) == 16
    assert len(ls_oracle.ls_paths(c2, (1, 1), divisible=False)) == 225


@pytest.mark.parametrize("cap", [564, 100])
def test_membership_walk_refuses_where_the_endpoint_budget_oracle_does(monkeypatch, cap):
    # the API's refusal and the command line's, on the G2(1,1) walks
    fold = folding_pair("G2")
    images = [virtualize_path(fold, p) for p in generate(fold.x_type, (1, 1)).vertices]
    refused, _ = _walks(monkeypatch, _member, fold, (1, 1), images, cap)
    assert refused[-1][1] == f"{cap + 1} target paths touched, past the cap {cap}"
    oracle = fold_oracle.membership_by_endpoint
    assert refused == _walks(monkeypatch, oracle, fold, (1, 1), images, cap)[0]


@pytest.mark.parametrize("name,lam", [("G2", (1, 1)), ("C3", (1, 1, 1)), ("G2", (2, 2))])
def test_virtualization_reaches_past_the_target_cap(name, lam):
    fold = folding_pair(name)
    assert weyl_dim(fold.y_type, psi_weight(fold, lam)) > DEFAULT_MAX_SIZE
    assert verify_virtualization(fold, lam) == []


def test_virtualization_generates_the_source_model_only(monkeypatch):
    built = []

    def recorded(t, lam, max_size=None):
        built.append(t)
        return generate(t, lam, max_size=max_size)

    monkeypatch.setattr(folding, "generate", recorded)
    fold = folding_pair("C2")
    assert verify_virtualization(fold, (1, 1)) == []
    assert built == [fold.x_type]


def test_commutative_diagram_reports_unstable_image(monkeypatch):
    # each induced word cut to its first letter: the word for {1} in the C2
    # folding becomes xi_1 alone, which moves the image off itself
    fold = folding_pair("C2")
    real_act = folding.act
    monkeypatch.setattr(
        folding, "act", lambda graph, word, perms=None: real_act(graph, tuple(word)[:1], perms)
    )
    report = verify_commutative_diagram(fold, (1, 0))
    assert [r for r in report if r["check"] == "image-stability"] == [
        {"check": "image-stability", "I": [1]}
    ]
    assert report == verify_commutative_diagram_by_paths(fold, (1, 0))


def test_dropping_a_letter_falsifies_action():
    # the induced word for I = {1} in the C2 folding is (xi_1, xi_3); with a
    # letter dropped the image of the embedded model is no longer preserved
    # and the nested relation against the full generator fails
    fold = folding_pair("C2")
    gy = generate(fold.y_type, psi_weight(fold, (1, 0)))
    gx = generate(fold.x_type, (1, 0))
    find = vertex_ids(gy)
    image = {find(virtualize_path(fold, p)) for p in gx.vertices}
    cache = {}
    broken = act(gy, [frozenset({1})], cache)
    assert {broken[v] for v in image} != image
    full = act(gy, s_tilde(fold, {1, 2}), cache)
    assert compose(full, broken) != compose(broken, full)


def test_fold_info_schema():
    info = fold_info(folding_pair("G2"))
    assert info == {
        "X": "G2",
        "Y": "D4",
        "sigma": {"1": [1, 3, 4], "2": [2]},
        "gamma": {"1": 1, "2": 3},
        "aut": [3, 2, 4, 1],
        "branch": 2,
        "psi_matrix": [[1, 0], [0, 3], [1, 0], [1, 0]],
    }


def _results_are_canonical(results):
    bad = [q for q in results if q is not None and canonicalize(q) != q]
    assert not bad, bad[:3]


@pytest.mark.parametrize("t,lam", [(t, lam) for t, lam, _ in SIZE_CASES])
def test_root_operator_results_are_canonical(t, lam):
    # the verifiers compare the package's own paths with ==, which is
    # pointwise equality only on canonical paths
    _results_are_canonical(
        op(p, i) for p in generate(t, lam).vertices for i in t.nodes for op in (root_f, root_e)
    )


@pytest.mark.parametrize("name,lam", VIRT_CASES)
def test_virtualization_results_are_canonical(name, lam):
    fold = folding_pair(name)
    source = generate(fold.x_type, lam).vertices
    target = generate(fold.y_type, psi_weight(fold, lam)).vertices
    images = [virtualize_path(fold, p) for p in source]
    _results_are_canonical(images)
    _results_are_canonical(devirtualize(fold, q) for q in images)
    for t, model in ((fold.x_type, source), (fold.y_type, target)):
        _results_are_canonical(
            op(p, i) for p in model for i in t.nodes for op in (root_f, root_e)
        )


# root_f and root_e calls of each verifier, all and defined, on C2(1,1) and
# F4(0,0,0,1): generate reaches root_f through crystal, the virtualization
# verifier's walk and virtual operators reach both through folding, once per
# path and color.  generate calls an operator only where the scan says it is
# defined, and not at an f-edge that closes a square with a non-adjacent
# color (68 of the 324 f-edges of the A3 target of C2(1,1), 615 of the 1,380
# of the E6 target of F4, 6 of the 32 of the F4 source).  On a passing model
# no walk takes a step: the target calls are the virtual operators', as
# many root_e as root_f, and the undefined ones fall one at each source
# vertex and color without an edge (14 of each on C2(1,1), 72 on F4)
VERIFIER_OPERATOR_CALLS = [
    ("C2", (1, 1), verify_virtualization, (68, 54, 50, 36)),
    ("C2", (1, 1), verify_virtual_relations, (256, 256, 0, 0)),
    ("C2", (1, 1), verify_commutative_diagram, (274, 274, 0, 0)),
    ("F4", (0, 0, 0, 1), verify_virtualization, (162, 90, 136, 64)),
    ("F4", (0, 0, 0, 1), verify_virtual_relations, (765, 765, 0, 0)),
    ("F4", (0, 0, 0, 1), verify_commutative_diagram, (791, 791, 0, 0)),
]


@pytest.mark.parametrize("name,lam,verifier,expected", VERIFIER_OPERATOR_CALLS)
def test_verifier_operator_call_counts(monkeypatch, name, lam, verifier, expected):
    # a change that adds operator calls to a verifier shows here first
    calls = dict.fromkeys(("root_f", "root_f defined", "root_e", "root_e defined"), 0)

    def counted(label, op):
        def wrapper(path, i):
            out = op(path, i)
            calls[label] += 1
            calls[f"{label} defined"] += out is not None
            return out

        return wrapper

    for module in (crystal, folding):
        for op in (root_f, root_e):
            monkeypatch.setattr(module, op.__name__, counted(op.__name__, op))
    assert verifier(folding_pair(name), lam) == []
    assert tuple(calls.values()) == expected


@pytest.mark.parametrize("patch", [None, "image-membership-at-zero"])
@pytest.mark.parametrize("name,lam", [("C2", (1, 1)), ("F4", (0, 0, 0, 1)), ("G2", (1, 1))])
def test_the_verifier_moves_images_through_the_virtual_operators_alone(
    monkeypatch, patch, name, lam
):
    # one folding.virtual_f and one folding.virtual_e call per accepted image
    # and source color, and no other call of the operators they share: a
    # patch or a tracer of the two module names sees every move
    fold = folding_pair(name)
    if patch is not None:
        _patch(monkeypatch, fold, lam, VIRTUALIZATION_PATCHES[patch])
    calls, shared = Counter(), folding._virtual_op

    def counted(label, real):
        def wrapper(fold, q, i):
            calls[(label, q, i)] += 1
            return real(fold, q, i)

        return wrapper

    def counted_shared(op, fold, q, i):
        calls["_virtual_op"] += 1
        return shared(op, fold, q, i)

    monkeypatch.setattr(folding, "_virtual_op", counted_shared)
    for label in ("virtual_f", "virtual_e"):
        monkeypatch.setattr(folding, label, counted(label, getattr(folding, label)))
    images = [folding.virtualize_path(fold, p) for p in generate(fold.x_type, lam).vertices]
    report = verify_virtualization(fold, lam)
    rejected = {r["vertex"] for r in report if r["check"] == "image-membership"}
    assert bool(rejected) == (patch is not None)
    expected = Counter(
        (label, q, i)
        for label in ("virtual_f", "virtual_e")
        for b, q in enumerate(images)
        if b not in rejected
        for i in fold.x_type.nodes
    )
    assert calls.pop("_virtual_op") == expected.total()
    assert calls == expected


@pytest.mark.parametrize("name,lam", [("C2", (1, 1)), ("F4", (0, 0, 0, 1)), ("G2", (1, 1))])
def test_virtualization_asks_each_target_fact_once(monkeypatch, name, lam):
    # within one call, no target path is scanned twice and no (path, color)
    # reaches root_f or root_e twice, whichever module the verifier reads
    # them through; the walk and the virtual operators share the answers
    fold = folding_pair(name)
    asked = Counter()

    def recorded(label, op):
        def wrapper(path, *color):
            if path.rtype == fold.y_type:
                asked[(label, path, *color)] += 1
            return op(path, *color)

        return wrapper

    ops = (root_f, root_e, paths._scan)
    for module in (folding, paths):
        for op in ops:
            monkeypatch.setattr(module, op.__name__, recorded(op.__name__, op))
    assert verify_virtualization(fold, lam) == []
    assert {label for label, *_ in asked} == {"root_f", "root_e", "_scan"}
    assert [key for key, n in asked.items() if n > 1] == []
