import itertools
import random

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
from pathcrystals.errors import ConfigurationError, DomainError, ModelIntegrityError

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
    for sub in connected_subdiagrams(t):
        tw = theta(t, sub)
        assert set(tw) == set(sub)
        for j in sub:
            assert tw[tw[j]] == j
        for j in sub:
            for k in sub:
                assert (k in adj[j]) == (tw[k] in adj[tw[j]])


def test_theta_rejects_disconnected():
    with pytest.raises(DomainError):
        theta(A3, frozenset({1, 3}))


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
    with pytest.raises(DomainError):
        weyl_dim(A2, (1, -1))
    with pytest.raises(DomainError):
        weyl_dim(A2, (1,))


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


def test_weyl_dim_rejects_a_wrong_symmetrizer(monkeypatch):
    # the B2 symmetrizer is (2, 1); swapped, the products stop dividing
    monkeypatch.setattr(cartan, "symmetrizer", lambda t: (1, 2))
    with pytest.raises(ModelIntegrityError, match=r"^Weyl dimension of B2 at \(1, 0\) "):
        weyl_dim(B2, (1, 0))
