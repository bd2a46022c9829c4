import json
from itertools import product

import pytest
from closure_oracle import graph_from_edges, levi_by_undirected_search
from hypothesis import given, settings
from hypothesis import strategies as st
from test_crystal import BROKEN_COMPONENTS, SHAPE_CASES
from xi_oracle import (
    levi_by_vertex_scan,
    relation_violations_by_loops,
    schutzenberger,
    xi_perm_by_bfs,
    xi_perm_by_words,
)

from pathcrystals import cactus
from pathcrystals.cactus import (
    act,
    compose,
    identity_perm,
    theta_image,
    verify_cactus_relations,
    xi,
    xi_perm,
)
from pathcrystals.cartan import (
    DynkinType,
    all_nodes,
    connected_subdiagrams,
    w0J_apply,
    weyl_dim,
)
from pathcrystals.crystal import generate, levi
from pathcrystals.errors import DomainError, ModelIntegrityError

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
A3 = DynkinType("A", 3)
C2 = DynkinType("C", 2)
B3 = DynkinType("B", 3)
C3 = DynkinType("C", 3)
D4 = DynkinType("D", 4)
G2 = DynkinType("G", 2)


def test_xi_sends_highest_to_lowest():
    g = generate(C2, (1, 0))
    full = all_nodes(C2)
    view = levi(g, full)
    comp = view.components[0]
    assert xi(g, full, view.highest_of(comp)) == view.lowest_of(comp)


def test_xi_on_a1_string_reverses():
    g = generate(A1, (2,))
    # vertices 0,1,2 form a single lowering string
    for k in range(3):
        assert xi(g, {1}, k) == 2 - k


def test_xi_singleton_reverses_every_string():
    g = generate(C2, (1, 1))
    for i in C2.nodes:
        perm = xi_perm(g, {i})
        view = levi(g, {i})
        for comp in view.components:
            top, bottom = view.highest_of(comp), view.lowest_of(comp)
            cur, mirrored = top, bottom
            while cur is not None:
                assert perm[cur] == mirrored
                cur = g.f(cur, i)
                mirrored = g.e(mirrored, i) if mirrored is not None else None


def test_xi_full_on_a2_fundamental():
    # the 3-vertex model: 0 -> 1 (color 1) -> 2 (color 2); the full involution
    # swaps the ends and must fix the middle (an involution on an odd set
    # always has a fixed point)
    g = generate(A2, (1, 0))
    assert xi_perm(g, {1, 2}) == (2, 1, 0)


def test_xi_rejects_disconnected_or_empty():
    g = generate(A3, (1, 0, 0))
    with pytest.raises(DomainError):
        xi_perm(g, {1, 3})
    with pytest.raises(DomainError):
        xi_perm(g, set())


@pytest.mark.parametrize(
    "t,lam",
    [(A2, (1, 0)), (A1, (2,)), (C2, (1, 0)), (C2, (0, 1)), (G2, (1, 0)), (A3, (1, 0, 1))],
)
def test_xi_involution_weight_twist_intertwining(t, lam):
    g = generate(t, lam)
    ident = identity_perm(g)
    from pathcrystals.cartan import theta as diagram_theta

    for sub in connected_subdiagrams(t):
        perm = xi_perm(g, sub)
        assert compose(perm, perm) == ident
        twist = diagram_theta(t, sub)
        for v in range(len(g)):
            assert g.weights[perm[v]] == w0J_apply(t, sub, g.weights[v])
            for j in sub:
                w = g.f(v, j)
                image = g.e(perm[v], twist[j])
                if w is None:
                    assert image is None
                else:
                    assert perm[w] == image


WORD_CASES = [
    (C2, (1, 1)),
    (A3, (0, 1, 0)),
    (G2, (1, 0)),
    (G2, (1, 1)),
    (C3, (1, 1, 0)),
    (B3, (1, 0, 1)),
    (A3, (1, 1, 1)),
    (D4, (1, 0, 1, 0)),
]


@pytest.mark.parametrize("t,lam", WORD_CASES)
def test_xi_word_independence(t, lam):
    # the word-based oracle in both color orders
    g = generate(t, lam)
    for sub in connected_subdiagrams(t):
        perm = xi_perm(g, sub)
        assert perm == xi_perm_by_words(g, sub)
        assert perm == xi_perm_by_words(g, sub, descending=True)


@pytest.mark.parametrize("t,lam", WORD_CASES)
def test_levi_matches_undirected_search(t, lam):
    g = generate(t, lam)
    for sub in connected_subdiagrams(t):
        view = levi(g, sub)
        comps, highest, lowest = levi_by_undirected_search(g, sub)
        assert view.components == comps
        for comp in comps:
            assert view.highest_of(comp) == highest[comp]
            assert view.lowest_of(comp) == lowest[comp]
            assert all(view.component_of(v) == comp for v in comp)


INCONSISTENT_RAISING = [(A2, (1, 1), (2, 2), (3, 2)), (C2, (1, 1), (3, 2), (8, 2))]


def _swap_raising_edges(t, lam, first, second):
    g = generate(t, lam)
    e_edges = dict(g.e_edges)
    e_edges[first], e_edges[second] = e_edges[second], e_edges[first]
    return graph_from_edges(g.rtype, g.highest_weight, g.vertices, g.f_edges, e_edges)


@pytest.mark.parametrize("t,lam,first,second", INCONSISTENT_RAISING)
def test_xi_rejects_inconsistent_raising_edges(t, lam, first, second):
    # swapping the targets of two color-2 raising edges still gives a
    # permutation along any one lowering word, but two edges into one vertex
    # disagree; in the C2 case only edges outside the BFS tree see it
    bad = _swap_raising_edges(t, lam, first, second)
    with pytest.raises(ModelIntegrityError):
        xi_perm(bad, {1, 2})


def test_xi_rejects_out_of_range_vertex():
    g = generate(A2, (1, 0))
    for b in (-1, len(g)):
        with pytest.raises(DomainError):
            xi(g, {1, 2}, b)


def test_act_empty_word_is_identity():
    g = generate(C2, (1, 0))
    assert act(g, []) == identity_perm(g)


def test_act_generator_squared_is_identity():
    g = generate(C2, (1, 0))
    for sub in connected_subdiagrams(C2):
        assert act(g, [sub, sub]) == identity_perm(g)


def test_act_is_associative_composition():
    g = generate(A3, (0, 1, 0))
    word = [frozenset({1}), frozenset({1, 2}), frozenset({3})]
    left = compose(act(g, word[:1]), act(g, word[1:]))
    assert act(g, word) == left


def test_theta_image_examples():
    assert theta_image(A3, all_nodes(A3), frozenset({1})) == frozenset({3})
    assert theta_image(C3, all_nodes(C3), frozenset({1, 2})) == frozenset({1, 2})
    full = all_nodes(A2)
    assert theta_image(A2, full, full) == full


def test_theta_image_requires_nesting():
    with pytest.raises(DomainError):
        theta_image(A3, frozenset({1, 2}), frozenset({3}))


@pytest.mark.parametrize(
    "t,lam",
    [(A3, (0, 1, 0)), (C2, (1, 1)), (G2, (1, 0)), (D4, (1, 0, 0, 0))],
)
def test_cactus_relations_pass(t, lam):
    assert verify_cactus_relations(generate(t, lam)) == []


def test_relation_three_needs_the_twist():
    # on the A2 fundamental model, the full generator conjugates the color-1
    # generator to the color-2 one; dropping the twist breaks the relation
    g = generate(A2, (1, 0))
    full = xi_perm(g, {1, 2})
    one = xi_perm(g, {1})
    two = xi_perm(g, {2})
    assert compose(full, one) == compose(two, full)
    assert compose(full, one) != compose(one, full)


def test_report_records_are_json_serializable():
    g = generate(C2, (1, 0))
    report = verify_cactus_relations(g)
    assert json.loads(json.dumps(report)) == report


def _shift_generator_one(monkeypatch):
    """Make xi_perm shift the values of the {1} generator cyclically."""
    real_xi_perm = cactus.xi_perm

    def corrupted(graph, colors):
        perm = real_xi_perm(graph, colors)
        if frozenset(colors) == {1}:
            perm = tuple(perm[(v + 1) % len(perm)] for v in range(len(perm)))
        return perm

    monkeypatch.setattr(cactus, "xi_perm", corrupted)


def test_relation_violations_carry_witness(monkeypatch):
    # shifting the values of the {1} generator cyclically breaks all three
    # relations: its square, its commutation with {3}, and its conjugation
    # by the full generator
    g = generate(A3, (0, 1, 0))
    _shift_generator_one(monkeypatch)
    report = verify_cactus_relations(g)
    assert {r["relation"] for r in report} == {1, 2, 3}
    assert all(0 <= r["witness_vertex"] < len(g) for r in report)


# the crystals of WORD_CASES and every crystal the acceptance criteria build
XI_CASES = WORD_CASES + [case for case in SHAPE_CASES if case not in WORD_CASES]


@pytest.mark.parametrize("t,lam", XI_CASES)
def test_xi_perm_matches_bfs_oracle(t, lam):
    g = generate(t, lam)
    for sub in connected_subdiagrams(t):
        assert xi_perm(g, sub) == xi_perm_by_bfs(g, sub)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("t,lam,first,second", INCONSISTENT_RAISING)
def test_xi_errors_match_bfs_oracle_on_inconsistent_raising_edges(t, lam, first, second):
    bad = _swap_raising_edges(t, lam, first, second)
    expected = _outcome(xi_perm_by_bfs, bad, {1, 2})
    assert expected[0] is ModelIntegrityError
    assert _outcome(xi_perm, bad, {1, 2}) == expected


@pytest.mark.parametrize("t,lam,f_edges,e_edges", BROKEN_COMPONENTS)
def test_levi_errors_match_vertex_scan_oracle_on_broken_components(t, lam, f_edges, e_edges):
    g = generate(t, lam)
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    expected = _outcome(levi_by_vertex_scan, broken, all_nodes(t))
    assert expected[0] is ModelIntegrityError
    assert _outcome(lambda: levi(broken, t.nodes).components) == expected
    assert _outcome(xi_perm, broken, t.nodes) == expected
    assert _outcome(xi_perm_by_bfs, broken, t.nodes) == expected


@pytest.mark.parametrize("t,lam", WORD_CASES)
def test_relation_violations_match_loop_oracle(monkeypatch, t, lam):
    # the same records in the same order as the checker that looped over
    # all pairs of subdiagrams, on a broken {1} generator
    g = generate(t, lam)
    _shift_generator_one(monkeypatch)
    perms = {s: cactus.xi_perm(g, s) for s in connected_subdiagrams(t)}
    expected = relation_violations_by_loops(t, perms, identity_perm(g))
    assert expected and verify_cactus_relations(g) == expected


@pytest.mark.parametrize("t,lam", SHAPE_CASES)
def test_xi_full_diagram_matches_schutzenberger_closed_form(t, lam):
    g = generate(t, lam)
    images = [g.find(schutzenberger(g.path(b))) for b in range(len(g))]
    assert images == list(xi_perm(g, all_nodes(t)))


def test_schutzenberger_closed_form_rejects_swapped_images():
    g = generate(C2, (1, 1))
    perm = list(xi_perm(g, all_nodes(C2)))
    perm[0], perm[1] = perm[1], perm[0]
    images = [g.find(schutzenberger(g.path(b))) for b in range(len(g))]
    assert [b for b in range(len(g)) if images[b] != perm[b]] == [0, 1]


# every (type, dominant weight with entries 0-2) whose crystal has at most
# 150 vertices
SMALL_CRYSTALS = [
    (t, lam)
    for t in map(DynkinType.parse, "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 D5 G2 F4 E6".split())
    for lam in product(range(3), repeat=t.rank)
    if weyl_dim(t, lam) <= 150
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(SMALL_CRYSTALS))
def test_xi_perm_is_an_involution_matching_bfs_oracle(case):
    t, lam = case
    g = generate(t, lam)
    ident = identity_perm(g)
    for sub in connected_subdiagrams(t):
        perm = xi_perm(g, sub)
        assert compose(perm, perm) == ident
        assert perm == xi_perm_by_bfs(g, sub)
