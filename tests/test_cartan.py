import functools
import itertools
import random
import re
from operator import mul

import cartan_oracle
import pytest

from pathcrystals import cartan
from pathcrystals.cartan import (
    DynkinType,
    all_nodes,
    cartan_matrix,
    components,
    connected_subdiagrams,
    is_connected,
    longest_word,
    neighbors,
    node_mask,
    positive_roots,
    reflect,
    simple_root,
    symmetrizer,
    theta,
    w0J_apply,
    weyl_dim,
)
from pathcrystals.cactus import act, theta_image, xi_perm
from pathcrystals.crystal import generate, levi
from pathcrystals.errors import ConfigurationError, DomainError, ModelIntegrityError
from pathcrystals.folding import folding_pair, s_tilde

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
A3 = DynkinType("A", 3)
B2 = DynkinType("B", 2)
C2 = DynkinType("C", 2)
C3 = DynkinType("C", 3)
D3 = DynkinType("D", 3)
D4 = DynkinType("D", 4)
D5 = DynkinType("D", 5)
E6 = DynkinType("E", 6)
F4 = DynkinType("F", 4)
G2 = DynkinType("G", 2)

BATTERY = [A1, A2, A3, B2, DynkinType("B", 3), C2, C3, D3, D4, E6, F4, G2]


def test_parse_roundtrip():
    for text in ("A1", "C2", "A5", "E6", "g2"):
        t = DynkinType.parse(text)
        assert str(t) == text.upper()


@pytest.mark.parametrize("bad", ["Z9", "E9", "B1", "D2", "F5", "G3", "A0", "", "C"])
def test_parse_rejects_inadmissible(bad):
    with pytest.raises(ConfigurationError):
        DynkinType.parse(bad)


def test_cartan_matrix_a1():
    assert cartan_matrix(A1) == ((2,),)


def test_cartan_matrix_c2():
    assert cartan_matrix(C2) == ((2, -2), (-1, 2))


def test_cartan_matrix_g2_long_node_two():
    assert cartan_matrix(G2) == ((2, -3), (-1, 2))


def test_cartan_matrix_d4_fork():
    a = cartan_matrix(D4)
    assert neighbors(D4)[2] == frozenset({1, 3, 4})
    for i in range(4):
        for j in range(4):
            if i != j:
                assert a[i][j] in (0, -1)
                assert a[i][j] == a[j][i]


@pytest.mark.parametrize("t", BATTERY)
def test_cartan_matrix_invariants(t):
    a = cartan_matrix(t)
    for i in range(t.rank):
        assert a[i][i] == 2
        for j in range(t.rank):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


@pytest.mark.parametrize("t", BATTERY)
def test_symmetrizer_small_positive(t):
    d = symmetrizer(t)
    a = cartan_matrix(t)
    assert all(x in (1, 2, 3) for x in d)
    for i in range(t.rank):
        for j in range(t.rank):
            assert d[i] * a[i][j] == d[j] * a[j][i]


def test_simple_root_examples():
    assert simple_root(A2, 1) == (2, -1)
    assert simple_root(C2, 2) == (-2, 2)
    assert simple_root(G2, 2) == (-3, 2)


def test_reflect_fixes_orthogonal_weight():
    for t in (A2, C2, G2):
        lam2 = tuple(1 if i == 2 else 0 for i in t.nodes)
        assert reflect(t, lam2, 1) == lam2


def test_reflect_fundamental_a2():
    assert reflect(A2, (1, 0), 1) == (-1, 1)


def test_reflect_involution_random():
    rng = random.Random(7291)
    for t in BATTERY:
        for _ in range(10):
            mu = tuple(rng.randint(-4, 5) for _ in t.nodes)
            i = rng.choice(list(t.nodes))
            assert reflect(t, reflect(t, mu, i), i) == mu


POSITIVE_ROOT_COUNTS = [
    (A2, 3),
    (A3, 6),
    (B2, 4),
    (DynkinType("B", 3), 9),
    (C2, 4),
    (C3, 9),
    (D3, 6),
    (D4, 12),
    (D5, 20),
    (E6, 36),
    (F4, 24),
    (G2, 6),
]


@pytest.mark.parametrize("t,count", POSITIVE_ROOT_COUNTS)
def test_positive_root_counts(t, count):
    assert len(positive_roots(t, all_nodes(t))) == count


def test_positive_roots_empty_set():
    assert positive_roots(A3, frozenset()) == ()


def test_positive_roots_are_nonnegative_vectors():
    for c in positive_roots(F4, all_nodes(F4)):
        assert min(c) >= 0 and max(c) > 0


def test_longest_word_examples():
    assert longest_word(A1, frozenset({1})) == (1,)
    assert len(longest_word(A2, frozenset({1, 2}))) == 3
    assert len(longest_word(C2, frozenset({1, 2}))) == 4


@pytest.mark.parametrize("t", BATTERY)
def test_longest_word_length_matches_roots(t):
    for sub in connected_subdiagrams(t):
        assert len(longest_word(t, sub)) == len(positive_roots(t, sub))


def test_w0J_empty_is_identity():
    assert w0J_apply(A3, frozenset(), (3, -1, 2)) == (3, -1, 2)


def test_w0J_negates_a1_fundamental():
    assert w0J_apply(A1, frozenset({1}), (1,)) == (-1,)


def test_w0J_squared_is_identity_random():
    rng = random.Random(515)
    for t in (A3, C3, D4, G2):
        for sub in connected_subdiagrams(t):
            mu = tuple(rng.randint(-3, 4) for _ in t.nodes)
            assert w0J_apply(t, sub, w0J_apply(t, sub, mu)) == mu


def test_w0J_sends_dominant_to_antidominant_on_sub():
    for t in (A3, C3, G2, D4):
        for sub in connected_subdiagrams(t):
            mu = tuple(1 if i in sub else 0 for i in t.nodes)
            image = w0J_apply(t, sub, mu)
            assert all(image[j - 1] <= 0 for j in sub)


THETA_FULL = [
    (A3, {1: 3, 2: 2, 3: 1}),
    (DynkinType("A", 5), {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}),
    (C2, {1: 1, 2: 2}),
    (C3, {1: 1, 2: 2, 3: 3}),
    (E6, {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}),
    (D3, {1: 1, 2: 3, 3: 2}),
    (D5, {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}),
    (D4, {1: 1, 2: 2, 3: 3, 4: 4}),
    (B2, {1: 1, 2: 2}),
    (F4, {1: 1, 2: 2, 3: 3, 4: 4}),
    (G2, {1: 1, 2: 2}),
]


@pytest.mark.parametrize("t,expected", THETA_FULL)
def test_theta_full_diagram(t, expected):
    assert theta(t, all_nodes(t)) == expected


@pytest.mark.parametrize("t", BATTERY)
def test_theta_is_involutive_diagram_automorphism(t):
    adj = neighbors(t)
    for sub in _nonempty_subsets(t):
        tw = theta(t, sub)
        assert set(tw) == set(sub)
        for j in sub:
            assert tw[tw[j]] == j
        for j in sub:
            for k in sub:
                assert (k in adj[j]) == (tw[k] in adj[tw[j]])


def test_theta_of_a_disconnected_or_empty_set_is_the_union_over_components():
    # theta refused a disconnected set, so Levi views and the component
    # identity each assembled the union from components
    assert theta(A3, {1, 3}) == {1: 1, 3: 3}
    assert theta(DynkinType("A", 5), {1, 2, 4, 5}) == {1: 2, 2: 1, 4: 5, 5: 4}
    assert theta(D4, {1, 3, 4}) == {1: 1, 3: 3, 4: 4}
    assert theta(A3, set()) == {}
    for t in DESCENT_TYPES:
        for nodes in [frozenset(), *_nonempty_subsets(t)]:
            union = {}
            for part in components(t, nodes):
                union.update(theta(t, part))
            assert theta(t, nodes) == union, (t, sorted(nodes))


def _brute_connected_subsets(t):
    """Oracle: scan all nonempty subsets for graph connectivity."""
    adj = neighbors(t)
    nodes = list(t.nodes)
    found = []
    for r in range(1, len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            setc = set(combo)
            seen = {combo[0]}
            todo = [combo[0]]
            while todo:
                v = todo.pop()
                for w in adj[v]:
                    if w in setc and w not in seen:
                        seen.add(w)
                        todo.append(w)
            if seen == setc:
                found.append(frozenset(setc))
    return sorted(found, key=node_mask)


@pytest.mark.parametrize("t", [A2, A3, B2, C3, D3, D4, E6, F4, G2])
def test_connected_subdiagrams_against_subset_scan(t):
    assert list(connected_subdiagrams(t)) == _brute_connected_subsets(t)


def test_connected_subdiagram_counts():
    assert len(connected_subdiagrams(A2)) == 3
    for n in range(1, 7):
        t = DynkinType("A", n)
        assert len(connected_subdiagrams(t)) == n * (n + 1) // 2
    assert len(connected_subdiagrams(D4)) == 11


def test_components_examples():
    assert components(A3, {1, 3}) == [frozenset({1}), frozenset({3})]
    assert components(A3, {1, 2, 3}) == [frozenset({1, 2, 3})]
    assert components(DynkinType("A", 5), {1, 5}) == [frozenset({1}), frozenset({5})]
    assert components(A3, set()) == []
    assert is_connected(A3, {2, 3}) and not is_connected(A3, {1, 3})


NODE_OUTSIDE_TYPE = {
    "xi_perm": lambda: xi_perm(generate(A2, (1, 0)), {9}),
    "act": lambda: act(generate(A2, (1, 0)), [{9}]),
    "s_tilde": lambda: s_tilde(folding_pair("C2"), {9}),
    "theta": lambda: theta(A2, {9}),
    "is_connected": lambda: is_connected(A2, {9}),
}


@pytest.mark.parametrize("name", sorted(NODE_OUTSIDE_TYPE))
def test_node_outside_the_type_is_a_domain_error(name):
    # components checks membership for every caller, worded as positive_roots
    with pytest.raises(DomainError, match=r"^nodes \[9\] not in (A2|C2)$"):
        NODE_OUTSIDE_TYPE[name]()


WEYL_DIMS = [
    (A2, (1, 0), 3),
    (A1, (2,), 3),
    (C2, (1, 0), 4),
    (C2, (0, 1), 5),
    (C2, (1, 1), 16),
    (B2, (0, 1), 4),
    (B2, (1, 0), 5),
    (G2, (1, 0), 7),
    (A3, (1, 0, 1), 15),
    (A3, (0, 1, 0), 6),
    (A3, (0, 2, 0), 20),
    (C3, (1, 0, 0), 6),
    (D3, (2, 0, 0), 20),
    (D3, (0, 1, 1), 15),
    (D4, (1, 0, 0, 0), 8),
    (D4, (1, 0, 1, 1), 350),
    (DynkinType("A", 5), (1, 0, 0, 0, 1), 35),
    (F4, (0, 0, 0, 1), 26),
    (E6, (1, 0, 0, 0, 0, 1), 650),
]


@pytest.mark.parametrize("t,lam,dim", WEYL_DIMS)
def test_weyl_dim_values(t, lam, dim):
    assert weyl_dim(t, lam) == dim


def test_weyl_dim_of_zero_weight():
    for t in BATTERY:
        assert weyl_dim(t, (0,) * t.rank) == 1


def test_weyl_dim_rejects_non_dominant():
    for lam in ((1, -1), (1,)):
        with pytest.raises(DomainError, match="^weyl_dim needs a dominant weight of length 2$"):
            weyl_dim(A2, lam)


@pytest.mark.parametrize("lam", [(1.0, 1), (0.5, 0), ("1", 1), (True, 1), (1, False)])
def test_weyl_dim_rejects_entries_that_are_not_ints(lam):
    # (1.0, 1) gave 8.0 and (0.5, 0) a ModelIntegrityError; bool is refused
    # as path JSON refuses it
    with pytest.raises(DomainError, match=r"^weight .* has an entry that is not an int$"):
        weyl_dim(A2, lam)
    with pytest.raises(DomainError, match="not an int"):
        generate(A2, lam)


@pytest.mark.parametrize("color", [1.0, True, "1", 0, 3])
def test_simple_root_and_reflect_reject_colors_that_are_not_ints(color):
    # 1.0 and True pass "in range(1, 3)": True acted as node 1; 0 and 3 are
    # ints outside A2, refused by the same guard, which reflect takes from
    # simple_root
    message = rf"^node {re.escape(repr(color))} not in A2$"
    with pytest.raises(DomainError, match=message):
        simple_root(A2, color)
    with pytest.raises(DomainError, match=message):
        reflect(A2, (1, 0), color)


@pytest.mark.parametrize("mu", [(1, 0), (1, 0, 0, 5)])
def test_reflect_and_w0J_apply_reject_weights_of_the_wrong_length(mu):
    # reflect gave (-1, 1) and (-1, 1, 0), and w0J_apply (0, -1) on {1, 2}
    with pytest.raises(DomainError, match="^weight must have length 3$"):
        reflect(A3, mu, 1)
    for nodes in (frozenset(), frozenset({1, 2})):
        with pytest.raises(DomainError, match="^weight must have length 3$"):
            w0J_apply(A3, nodes, mu)


ADMISSIBLE_UP_TO_RANK_8 = [
    DynkinType(family, n)
    for family in "ABCDEFG"
    for n in range(1, 9)
    if cartan._ADMISSIBLE_RANK[family](n)
]


def _oracle_weights(t):
    """Every weight with entries 0-2 up to rank 4; above it each fundamental
    weight, rho and 2 rho."""
    if t.rank <= 4:
        return list(itertools.product(range(3), repeat=t.rank))
    fundamental = [tuple(int(k == i) for k in t.nodes) for i in t.nodes]
    return fundamental + [(1,) * t.rank, (2,) * t.rank]


@pytest.mark.parametrize("t", ADMISSIBLE_UP_TO_RANK_8, ids=str)
def test_weyl_dim_matches_fraction_oracle(t):
    for lam in _oracle_weights(t):
        assert weyl_dim(t, lam) == cartan_oracle.weyl_dim(t, lam), (str(t), lam)


@pytest.mark.parametrize("t", ADMISSIBLE_UP_TO_RANK_8, ids=str)
def test_two_rho_vee_pairs_every_simple_root_to_two(t):
    # <alpha_j, 2 rho^vee> = 2 for every j; the Cartan matrix is invertible,
    # so these pairings alone determine 2 rho^vee
    n = cartan._two_rho_vee(t)
    assert [sum(map(mul, n, simple_root(t, j))) for j in t.nodes] == [2] * t.rank


def test_two_rho_vee_of_d4_and_f4():
    assert cartan._two_rho_vee(D4) == (6, 10, 6, 6)
    assert cartan._two_rho_vee(F4) == (22, 42, 30, 16)


NODE_SET_GUARDS = {
    "components": lambda nodes: components(A2, nodes),
    "is_connected": lambda nodes: is_connected(A2, nodes),
    "positive_roots": lambda nodes: positive_roots(A2, frozenset(nodes)),
    "longest_word": lambda nodes: longest_word(A2, frozenset(nodes)),
    "levi": lambda nodes: levi(generate(A2, (1, 1)), nodes),
    # theta read its cache before any node check, so after {1, 2} the set
    # {1.0, 2} returned {1: 2, 2: 1}
    "theta": lambda nodes: theta(A2, nodes),
    "theta_image": lambda nodes: theta_image(A2, nodes, nodes),
    "theta_image_inner": lambda nodes: theta_image(A2, {1, 2}, nodes),
}


@pytest.mark.parametrize("node", [1.0, True, "1"], ids=repr)
@pytest.mark.parametrize("name", sorted(NODE_SET_GUARDS))
def test_node_sets_reject_nodes_that_are_not_ints(name, node):
    # 1.0 and True hash and compare equal to node 1, so the answers cached
    # for {1} and {1, 2}, asked for first, must not answer for them; at the
    # parent components and levi accepted them and longest_word raised
    # TypeError
    guard = NODE_SET_GUARDS[name]
    guard({1})
    guard({1, 2})
    for nodes in ({node}, {node, 2}):
        with pytest.raises(DomainError, match=rf"^node {re.escape(repr(node))} not in A2$"):
            guard(nodes)


def test_weyl_dim_rejects_a_wrong_symmetrizer(monkeypatch):
    # the B2 symmetrizer is (2, 1); swapped, the products stop dividing
    monkeypatch.setattr(cartan, "symmetrizer", lambda t: (1, 2))
    monkeypatch.setattr(cartan, "_weyl_table", cartan._weyl_table.__wrapped__)
    with pytest.raises(ModelIntegrityError, match=r"^Weyl dimension of B2 at \(1, 0\) "):
        weyl_dim(B2, (1, 0))


# the benchmark's candidate types, then the folding targets not among them
WEYL_TABLE_TYPES = [
    DynkinType.parse(name)
    for name in ("A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 G2 F4" + " A5 D3 E6").split()
]


@pytest.mark.parametrize("t", WEYL_TABLE_TYPES, ids=str)
def test_weyl_dim_matches_the_replaced_product_and_the_fraction_oracle(t):
    for lam in itertools.product(range(4), repeat=t.rank):
        dim = weyl_dim(t, lam)
        assert dim == cartan_oracle.weyl_dim_by_roots(t, lam), (str(t), lam)
        assert dim == cartan_oracle.weyl_dim(t, lam), (str(t), lam)


def test_weyl_dim_builds_its_table_once_per_type(monkeypatch):
    # the product was rebuilt from the roots and the symmetrizer on every call
    calls = []
    for name in ("positive_roots", "symmetrizer"):
        real = getattr(cartan, name)
        monkeypatch.setattr(cartan, name, lambda *a, r=real, n=name: calls.append(n) or r(*a))
    monkeypatch.setattr(cartan, "_weyl_table", functools.cache(cartan._weyl_table.__wrapped__))
    weights = itertools.islice(itertools.product(range(10), repeat=F4.rank), 1000)
    assert len([weyl_dim(F4, lam) for lam in weights]) == 1000
    assert sorted(calls) == ["positive_roots", "symmetrizer"]


@pytest.mark.parametrize(
    "lam,message",
    [
        ((1.0, 1), "weight (1.0, 1) has an entry that is not an int"),
        ((1, 0, 0), "weyl_dim needs a dominant weight of length 2"),
        ((1, -1), "weyl_dim needs a dominant weight of length 2"),
    ],
)
def test_weyl_dim_checks_the_weight_before_its_table(monkeypatch, lam, message):
    def refuse(t):
        raise AssertionError("table built")

    monkeypatch.setattr(cartan, "_weyl_table", refuse)
    with pytest.raises(DomainError) as info:
        weyl_dim(A2, lam)
    assert str(info.value) == message


DESCENT_TYPES = [
    DynkinType(family, n)
    for family, ranks in (
        ("A", range(1, 9)),
        ("B", range(2, 7)),
        ("C", range(2, 7)),
        ("D", range(4, 8)),
        ("E", range(6, 9)),
        ("F", (4,)),
        ("G", (2,)),
    )
    for n in ranks
]


def _nonempty_subsets(t):
    for mask in range(1, 1 << t.rank):
        yield frozenset(j for j in t.nodes if mask >> (j - 1) & 1)


@pytest.mark.parametrize("t", DESCENT_TYPES, ids=str)
def test_one_descent_matches_the_replaced_routines(t):
    # 1,439 nonempty node sets in all; the descent starts from
    # sum_j j varpi_j and the oracle from sum_j varpi_j, both regular
    # dominant on J, so the greedy words agree
    mu = tuple(range(t.rank, 0, -1))
    for nodes in _nonempty_subsets(t):
        assert longest_word(t, nodes) == cartan_oracle.longest_word(t, nodes), sorted(nodes)
        assert w0J_apply(t, nodes, mu) == cartan_oracle.w0J_apply(t, nodes, mu), sorted(nodes)
        assert theta(t, nodes) == cartan_oracle.theta(t, nodes), sorted(nodes)


@pytest.mark.parametrize("t", DESCENT_TYPES, ids=str)
def test_positive_roots_match_the_reflection_closure(t):
    # the closure grows upward only; the oracle reflects every way and
    # filters the negative roots out at the end
    for nodes in _nonempty_subsets(t):
        assert positive_roots(t, nodes) == cartan_oracle.positive_roots(t, nodes), sorted(nodes)


def test_positive_roots_match_the_reflection_closure_on_a40():
    t = DynkinType("A", 40)
    roots = positive_roots(t, all_nodes(t))
    assert len(roots) == 820 and roots == cartan_oracle.positive_roots(t, all_nodes(t))


SIMPLY_LACED_UP_TO_RANK_9 = (
    [DynkinType("A", n) for n in range(1, 10)]
    + [DynkinType("D", n) for n in range(3, 10)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


def _positive_root_sum(t):
    return tuple(sum(col) for col in zip(*positive_roots(t, all_nodes(t))))


@pytest.mark.parametrize("t", SIMPLY_LACED_UP_TO_RANK_9, ids=str)
def test_two_rho_vee_is_the_positive_root_sum_when_simply_laced(t):
    # the folding membership walk took its budget from this sum; it differs
    # from 2 rho^vee on B3, C3, G2 and F4
    assert cartan._two_rho_vee(t) == _positive_root_sum(t)


def test_theta_makes_one_descent_of_one_reflection_per_positive_root(monkeypatch):
    # the per-node routine made one descent to spell w0_J and one to apply
    # it for each node: 200 reflections on D5
    calls = []
    real_reflect = cartan.reflect
    monkeypatch.setattr(cartan, "reflect", lambda *args: calls.append(args) or real_reflect(*args))
    monkeypatch.setattr(cartan, "w0J_apply", None)
    cartan._theta_pairs.cache_clear()
    assert theta(D5, all_nodes(D5)) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert len(calls) == len(positive_roots(D5, all_nodes(D5))) == 20


@pytest.mark.parametrize("end", [(-1, -1), (-2, -3), (1, 2)])
def test_theta_refuses_a_descent_end_that_is_not_a_permutation(monkeypatch, end):
    monkeypatch.setattr(cartan, "_descent", lambda t, nodes: ((1, 2, 1), end))
    cartan._theta_pairs.cache_clear()
    message = r"^longest element does not negate a simple root on A2, \[1, 2\]$"
    with pytest.raises(ModelIntegrityError, match=message):
        theta(A2, {1, 2})
    with pytest.raises(ModelIntegrityError, match=message):
        theta_image(A2, {1, 2}, {1})


@pytest.mark.parametrize(
    "nodes,message",
    [
        ({True}, "node True not in A3"),
        ({1.0}, "node 1.0 not in A3"),
        ({0}, "nodes [0] not in A3"),
        ({4}, "nodes [4] not in A3"),
    ],
    ids=repr,
)
def test_is_connected_cache_answers_only_for_checked_node_sets(nodes, message):
    # frozenset({True}) == frozenset({1}): a cache keyed before the node-set
    # check would answer for node 1
    g = generate(A3, (1, 0, 1))
    assert xi_perm(g, {1}) and is_connected(A3, {1})
    for guard in (xi_perm, lambda _, nodes: is_connected(A3, nodes)):
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            guard(g, nodes)


@pytest.mark.parametrize("nodes", [set(), {1, 3}], ids=repr)
def test_xi_perm_refuses_an_empty_or_disconnected_set_after_the_cache_is_filled(nodes):
    g = generate(A3, (1, 0, 1))
    assert xi_perm(g, {1}) and is_connected(A3, {1})
    for _ in range(2):  # a miss, then a hit
        assert not is_connected(A3, nodes)
        with pytest.raises(DomainError, match="^xi_perm needs a nonempty connected color set$"):
            xi_perm(g, nodes)


@pytest.mark.parametrize("t", DESCENT_TYPES, ids=str)
def test_cached_is_connected_matches_the_component_search(t):
    # the 1,439 nonempty node sets, each asked twice: a miss, then a hit
    connected = set(connected_subdiagrams(t))
    for nodes in _nonempty_subsets(t):
        expected = len(components(t, nodes)) == 1
        assert expected == (nodes in connected)
        assert is_connected(t, nodes) is is_connected(t, set(nodes)) is expected, sorted(nodes)
