import functools
import json
import random
import re
from collections import Counter
from itertools import product
from operator import mul

import pytest
from closure_oracle import edge_map, graph_from_edges, levi_by_undirected_search, vertex_ids
from hypothesis import given, settings
from hypothesis import strategies as st
from tensor_oracle import reversal_xi
from test_crystal import BROKEN_COMPONENTS, SHAPE_CASES, TENSOR_CASES, _crystal, _splits
from test_folding import FULL_TARGET_CASES
from xi_oracle import (
    _f_words,
    levi_by_vertex_scan,
    levi_sweep_by_triples,
    relation_violations_by_loops,
    schutzenberger,
    xi_perm_by_bfs,
    xi_perm_by_words,
)

from pathcrystals import cactus, cartan
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
    _two_rho_vee,
    all_nodes,
    components,
    connected_subdiagrams,
    w0J_apply,
    weyl_dim,
)
from pathcrystals.cartan import theta as diagram_theta
from pathcrystals.crystal import _levi_sweep, generate, levi, verify_seminormal
from pathcrystals.errors import DomainError, ModelIntegrityError
from pathcrystals.folding import folding_pair, psi_weight

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
                cur = g.f_to[i][cur]
                mirrored = g.e_to[i][mirrored] if mirrored is not None else None


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
    for sub in connected_subdiagrams(t):
        perm = xi_perm(g, sub)
        assert compose(perm, perm) == ident
        twist = diagram_theta(t, sub)
        for v in range(len(g)):
            assert g.weights[perm[v]] == w0J_apply(t, sub, g.weights[v])
            for j in sub:
                w = g.f_to[j][v]
                image = g.e_to[twist[j]][perm[v]]
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


def _subsets(t):
    """Every node set of t, the empty and the disconnected ones included."""
    for mask in range(1 << t.rank):
        yield frozenset(j for j in t.nodes if mask >> (j - 1) & 1)


@pytest.mark.parametrize("t,lam", WORD_CASES)
def test_levi_matches_undirected_search(t, lam):
    g = generate(t, lam)
    for sub in _subsets(t):
        view = levi(g, sub)
        comps, highest, lowest = levi_by_undirected_search(g, sub)
        assert view.components == comps
        assert levi_by_vertex_scan(g, sub) == (comps, highest, lowest)
        for comp in comps:
            assert view.highest_of(comp) == highest[comp]
            assert view.lowest_of(comp) == lowest[comp]
            assert all(view.component_of(v) == comp for v in comp)


@pytest.mark.parametrize("t,lam", WORD_CASES)
def test_f_word_matches_the_breadth_first_oracle(t, lam):
    # the search stops at b, yet returns the word of the whole search
    g = generate(t, lam)
    for sub in _subsets(t):
        view = levi(g, sub)
        for comp in view.components:
            words = _f_words(g, sub, view.highest_of(comp), set(comp), descending=False)
            assert {b: view.f_word(comp, b) for b in comp} == words


INCONSISTENT_RAISING = [(A2, (1, 1), (2, 2), (3, 2)), (C2, (1, 1), (3, 2), (8, 2))]


def _swap_raising_edges(t, lam, first, second):
    g = generate(t, lam)
    e_edges = edge_map(g.e_to)
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


def test_vertex_ids_must_be_ints():
    # True and 1.0 compare equal to vertex 1, and "1" fails the range test
    g = generate(A2, (1, 0))
    view = levi(g, {1})
    comp = view.component_of(1)
    for b in (1.0, True, "1", -1, len(g)):
        message = f"^{re.escape(f'vertex {b!r} out of range')}$"
        with pytest.raises(DomainError, match=message):
            xi(g, {1}, b)
        with pytest.raises(DomainError, match=message):
            view.component_of(b)
        with pytest.raises(DomainError, match=message):
            view.f_word(comp, b)


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
    # the outer set may be disconnected: theta holds for any node set
    assert theta_image(A3, {1, 3}, {1}) == frozenset({1})


def test_theta_image_requires_nesting():
    with pytest.raises(DomainError):
        theta_image(A3, frozenset({1, 2}), frozenset({3}))


@pytest.mark.parametrize("inner", [set(), {1, 3}], ids=repr)
def test_theta_image_refuses_an_empty_or_disconnected_inner_set(inner):
    # these reached the image check and raised ModelIntegrityError, an
    # internal fault, for a bad argument
    with pytest.raises(DomainError, match="^theta_image needs a nonempty connected inner set$"):
        theta_image(A3, {1, 2, 3}, inner)


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
    """Make the sweep that xi_perm and the verifier read shift the values of
    the {1} generator cyclically."""
    real_sweep = cactus._levi_sweep

    def corrupted(graph, pairs):
        images, top_of = real_sweep(graph, pairs)
        if {i for i, _ in pairs} == {1}:
            images = [images[(v + 1) % len(images)] for v in range(len(images))]
        return images, top_of

    monkeypatch.setattr(cactus, "_levi_sweep", corrupted)


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


def _sweep(graph, colors):
    """The sweep of a node set, given the set's cached twist pairs."""
    return _levi_sweep(graph, cartan._theta_pairs(graph.rtype, frozenset(colors)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


def _pinned(cases, messages, *case):
    """The error xi_perm raises on a listed broken graph: messages[k] belongs
    to cases[k]."""
    return ModelIntegrityError, messages[cases.index(case)]


# on both INCONSISTENT_RAISING graphs the oracle raises the same message
INCONSISTENT_RAISING_ERRORS = [
    "involution image of vertex 7 is inconsistent along color 2",
    "involution image of vertex 12 is inconsistent along color 1",
]


@pytest.mark.parametrize("t,lam,first,second", INCONSISTENT_RAISING)
def test_xi_errors_match_bfs_oracle_on_inconsistent_raising_edges(t, lam, first, second):
    bad = _swap_raising_edges(t, lam, first, second)
    expected = _pinned(INCONSISTENT_RAISING, INCONSISTENT_RAISING_ERRORS, t, lam, first, second)
    assert _outcome(xi_perm_by_bfs, bad, {1, 2}) == expected
    assert _outcome(xi_perm, bad, {1, 2}) == expected


@pytest.mark.parametrize("t,lam,first,second", INCONSISTENT_RAISING)
def test_levi_rejects_inconsistent_raising_edges(t, lam, first, second):
    # the vertex scan finds one component here; the sweep that LeviView reads
    # rejects the graph, which verify_seminormal flags too
    bad = _swap_raising_edges(t, lam, first, second)
    assert len(levi_by_vertex_scan(bad, {1, 2})[0]) == 1
    expected = _pinned(INCONSISTENT_RAISING, INCONSISTENT_RAISING_ERRORS, t, lam, first, second)
    assert _outcome(levi, bad, {1, 2}) == expected
    assert verify_seminormal(bad)


# the sweep meets each fault at another check than the vertex scan: a missing
# raising edge below the highest vertex, two lowering edges from vertex 0,
# and a raising edge at vertex 1, which no lowering edge from above reaches
BROKEN_COMPONENT_ERRORS = [
    "involution image of vertex 2 is inconsistent along color 1",
    "involution image of vertex 1 is inconsistent along color 1",
    "normality violation: vertex 1 has a raising edge but no edge from above",
]


@pytest.mark.parametrize("t,lam,f_edges,e_edges", BROKEN_COMPONENTS)
def test_levi_errors_match_vertex_scan_oracle_on_broken_components(t, lam, f_edges, e_edges):
    g = generate(t, lam)
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    expected = _outcome(levi_by_vertex_scan, broken, all_nodes(t))
    assert expected[0] is ModelIntegrityError
    assert _outcome(xi_perm_by_bfs, broken, t.nodes) == expected
    pinned = _pinned(BROKEN_COMPONENTS, BROKEN_COMPONENT_ERRORS, t, lam, f_edges, e_edges)
    assert _outcome(lambda: levi(broken, t.nodes).components) == pinned
    assert _outcome(xi_perm, broken, t.nodes) == pinned


@pytest.mark.parametrize("t,lam", XI_CASES)
def test_sweep_of_a_disconnected_set_is_the_product_of_its_parts(t, lam):
    # w0_J of J = J1 + J2 is the product of the longest elements of J1 and J2
    g = generate(t, lam)
    subs = connected_subdiagrams(t)
    pairs = [(a, b) for a in subs for b in subs if components(t, a | b) == [a, b]]
    assert pairs or t.rank < 3
    for a, b in pairs:
        assert diagram_theta(t, a | b) == {**diagram_theta(t, a), **diagram_theta(t, b)}
        images, _ = _sweep(g, a | b)
        assert tuple(images) == compose(xi_perm(g, a), xi_perm(g, b))


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
    find = vertex_ids(g)
    images = [find(schutzenberger(p)) for p in g.vertices]
    assert images == list(xi_perm(g, all_nodes(t)))


def test_schutzenberger_closed_form_rejects_swapped_images():
    g = generate(C2, (1, 1))
    perm = list(xi_perm(g, all_nodes(C2)))
    perm[0], perm[1] = perm[1], perm[0]
    find = vertex_ids(g)
    images = [find(schutzenberger(p)) for p in g.vertices]
    assert [b for b in range(len(g)) if images[b] != perm[b]] == [0, 1]


REVERSAL_CASES = [
    (C2, (1, 1)),
    (C3, (1, 1, 1)),
    (DynkinType("C", 4), (1, 0, 0, 1)),
    (B3, (1, 0, 1)),
    (B3, (1, 1, 1)),
    (G2, (1, 1)),
    (G2, (2, 2)),
    (DynkinType("F", 4), (1, 0, 0, 1)),
]


@pytest.mark.parametrize("t,lam", REVERSAL_CASES)
def test_xi_full_diagram_matches_tensor_reversal(t, lam):
    # an oracle for xi on the source types B, C, F4 and G2 that reads xi on
    # the two smaller factors only: the Henriques-Kamnitzer reversal
    # x (x) y -> xi(y) (x) xi(x) maps the Cartan component of B(lam1) (x)
    # B(lam2) onto that of B(lam2) (x) B(lam1), highest to lowest
    g = _crystal(t, lam)
    expected = list(xi_perm(g, all_nodes(t)))
    for first, second in _halved_splits(lam):
        got = reversal_xi(g, _crystal(t, first), _crystal(t, second), all_nodes(t), xi_perm)
        assert got == expected, (first, second)


@pytest.mark.parametrize(
    "t,lam,count", [(C2, (1, 1), 16), (DynkinType("F", 4), (1, 0, 0, 1), 1046)]
)
def test_tensor_reversal_rejects_an_identity_involution_on_the_factors(t, lam, count):
    # with the identity in place of xi on the factors, the reversal is the
    # flip x (x) y -> y (x) x, which mismatches xi on nearly every vertex
    def identity(graph, nodes):
        return range(len(graph))

    g, ((first, second),) = _crystal(t, lam), _halved_splits(lam)
    got = reversal_xi(g, _crystal(t, first), _crystal(t, second), all_nodes(t), identity)
    xi_full = xi_perm(g, all_nodes(t))
    assert sum(a != b for a, b in zip(got, xi_full)) == count


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


def _halved_splits(lam) -> list:
    """The splits lam = lam1 + lam2 into nonzero dominant weights, one of
    each pair (lam1, lam2), (lam2, lam1)."""
    return [(a, b) for a, b in _splits(lam) if a >= b]


# every B, C, F4 and G2 model that tier-1 generates, as a case or as a factor
# of a tensor case, whose weight splits into two nonzero dominant weights: 37
# models; the others are B(0) and the fundamental crystals
PARTIAL_REVERSAL_CASES = sorted(
    {
        (t, lam)
        for t, weight in SMALL_CRYSTALS + REVERSAL_CASES + TENSOR_CASES
        for lam in [weight, *(part for split in _splits(weight) for part in split)]
        if t.family in "BCFG" and _splits(lam)
    },
    key=lambda case: (str(case[0]), case[1]),
)


@pytest.mark.parametrize("t,lam", PARTIAL_REVERSAL_CASES, ids=lambda x: str(x).replace(" ", ""))
def test_xi_of_every_connected_set_matches_the_tensor_reversal(t, lam):
    # xi_J for proper J too: the reversal lands on a J-component of
    # B(lam2) (x) B(lam1) that is in general not v's, and the J-crystal
    # isomorphism carries it back; xi_J is read on the two factors only
    g = _crystal(t, lam)
    for first, second in _halved_splits(lam):
        for nodes in connected_subdiagrams(t):
            got = reversal_xi(g, _crystal(t, first), _crystal(t, second), nodes, xi_perm)
            assert got == list(xi_perm(g, nodes)), (first, second, sorted(nodes))


def test_partial_reversal_cases_cover_the_source_families():
    assert len(PARTIAL_REVERSAL_CASES) == 37
    assert {str(t) for t, _ in PARTIAL_REVERSAL_CASES} == {"B2", "B3", "B4", "C2", "C3", "C4", "F4", "G2"}


def test_partial_tensor_reversal_rejects_an_identity_involution_on_the_factors():
    # the identity in place of xi_J on the factors: a mismatch for every J
    def identity(graph, nodes):
        return range(len(graph))

    g = _crystal(C3, (1, 1, 1))
    first, second = _crystal(C3, (1, 0, 0)), _crystal(C3, (0, 1, 1))
    mismatches = {}
    for nodes in connected_subdiagrams(C3):
        got = reversal_xi(g, first, second, nodes, identity)
        mismatches["".join(map(str, sorted(nodes)))] = sum(
            a != b for a, b in zip(got, xi_perm(g, nodes))
        )
    assert mismatches == {"1": 476, "2": 486, "12": 501, "3": 424, "23": 502, "123": 512}


def test_partial_tensor_reversal_rejects_an_identity_twist_on_a_type_a_interval(monkeypatch):
    # theta of the A3 interval {1, 2, 3} of C4 patched to the identity.  The
    # sweep refuses the twist on C4(0,2,0,0) itself, but not on its factor
    # C4(0,1,0,0), whose wrong xi_J the reversal carries into a mismatch
    c4, nodes = DynkinType("C", 4), frozenset({1, 2, 3})
    g, factor = _crystal(c4, (0, 2, 0, 0)), generate(c4, (0, 1, 0, 0))
    expected = list(xi_perm(g, nodes))
    assert reversal_xi(g, factor, factor, nodes, xi_perm) == expected
    real = cactus._theta_pairs

    def untwisted(t, colors):
        return tuple((i, i) for i in sorted(colors)) if colors == nodes else real(t, colors)

    monkeypatch.setattr(cactus, "_theta_pairs", untwisted)
    got = reversal_xi(g, factor, factor, nodes, xi_perm)
    assert (sum(a != b for a, b in zip(got, expected)), got.count(None), len(g)) == (226, 20, 308)
    with pytest.raises(ModelIntegrityError, match="^involution image of vertex 29 is inconsistent"):
        xi_perm(g, nodes)


@pytest.mark.parametrize("t", [A1, A2, A3, C2, B3, C3, D4, G2, DynkinType("F", 4)])
def test_relation_plan_has_no_triple_with_equal_sets(t):
    # xi_a xi_a == xi_theta(a) xi_a holds for every a, so (a, a, a) is dropped
    _, nested = cactus._relation_plan(t)
    assert bool(nested) == (t.rank > 1)
    assert all(outer != inner for outer, inner, _ in nested)


_small_crystal = functools.cache(generate)


def _edit_edges(g, direction, color, first, second):
    """g with the color-`color` edges at sources first and second of one
    direction swapped, or the edge at first dropped when second is first."""
    f_edges, e_edges = dict(g.f_edges), edge_map(g.e_to)
    edges = f_edges if direction == "f" else e_edges
    a, b = (first, color), (second, color)
    if a == b:
        del edges[a]
    else:
        edges[a], edges[b] = edges[b], edges[a]
    return graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)


def _raised(outcome):
    return len(outcome) == 2 and isinstance(outcome[0], type)


def _assert_xi_keeps_the_oracle_contract(graph) -> Counter:
    """On every subdiagram: where xi_perm returns, it returns the oracle's
    permutation; where the oracle raises, xi_perm raises ModelIntegrityError;
    xi_perm raises where the oracle returns only on a graph with seminormal
    violations.  Counts the outcomes by kind."""
    kinds = Counter()
    for sub in connected_subdiagrams(graph.rtype):
        got, expected = _outcome(xi_perm, graph, sub), _outcome(xi_perm_by_bfs, graph, sub)
        if not _raised(got):
            assert got == expected
            kinds["same permutation"] += 1
        elif _raised(expected):
            assert got[0] is expected[0] is ModelIntegrityError
            kinds["both raise"] += 1
        else:
            assert got[0] is ModelIntegrityError and verify_seminormal(graph)
            kinds["only xi_perm raises"] += 1
    return kinds


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_xi_perm_matches_bfs_oracle_on_edited_edges(data):
    # the same permutation or the same error as the oracle on every subdiagram
    g = _small_crystal(*data.draw(st.sampled_from(SMALL_CRYSTALS)))
    direction = data.draw(st.sampled_from("fe"))
    color = data.draw(st.sampled_from(g.rtype.nodes))
    lists = g.f_to if direction == "f" else g.e_to
    sources = [v for v, w in enumerate(lists[color]) if w is not None]
    if not sources:
        return
    first = data.draw(st.sampled_from(sources))
    second = data.draw(st.sampled_from(sources))
    _assert_xi_keeps_the_oracle_contract(_edit_edges(g, direction, color, first, second))


def _has_f_cycle(graph):
    """Whether the lowering edges of all colors contain a cycle: Kahn's
    topological sort leaves some vertex out."""
    below = [[] for _ in range(len(graph))]
    for (v, _), w in graph.f_edges.items():
        below[v].append(w)
    indegree = Counter(w for targets in below for w in targets)
    ready = [v for v in range(len(graph)) if not indegree[v]]
    for v in ready:
        for w in below[v]:
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return len(ready) < len(graph)


@pytest.mark.parametrize("t,lam", [(A2, (1, 1)), (C2, (1, 1)), (A3, (1, 0, 1)), (G2, (1, 0))])
def test_xi_perm_matches_bfs_oracle_on_every_swap_and_drop(t, lam):
    g = generate(t, lam)
    cycles = 0
    kinds = Counter()
    for direction, color in product("fe", t.nodes):
        lists = g.f_to if direction == "f" else g.e_to
        sources = [v for v, w in enumerate(lists[color]) if w is not None]
        for first, second in product(sources, repeat=2):
            if first <= second:
                edited = _edit_edges(g, direction, color, first, second)
                cycles += _has_f_cycle(edited)
                kinds += _assert_xi_keeps_the_oracle_contract(edited)
    assert cycles
    assert kinds["same permutation"] and kinds["both raise"] and kinds["only xi_perm raises"]


# graphs that fail one check of the sweep alone (the checks that once handed
# the graph to a Levi walk), with the error each raises:
# - lowering edges from the highest vertex into a cycle (0 -> 1 -> 2 -> 1) and
#   into a loop (0 -> 1 -> 2 -> 2), where the descent must stop;
# - one A2 edge 0 -> 2, with images 2, 1, 1 that do not permute;
# - 0 -> 1 along both colors, with images 3 and 1 that disagree; keeping the
#   second would give a permutation;
# - vertex 1 below highest vertices 0 and 2, with images 1, 2, 3, 0 that agree
#   and permute
SWEEP_FALLBACKS = [
    (A1, (2,), {(0, 1): 1, (1, 1): 2, (2, 1): 1}, {(1, 1): 0, (2, 1): 1}),
    (A1, (2,), {(0, 1): 1, (1, 1): 2, (2, 1): 2}, {(1, 1): 0, (2, 1): 1}),
    (A2, (1, 0), {(0, 1): 2}, {(2, 1): 0, (2, 2): 1}),
    (
        A2,
        (1, 1),
        {(0, 1): 1, (0, 2): 1, (1, 1): 3},
        {(1, 1): 0, (1, 2): 0, (3, 1): 1, (3, 2): 3},
    ),
    (A2, (1, 1), {(0, 1): 1, (2, 1): 3, (2, 2): 1}, {(1, 2): 2, (3, 1): 2, (3, 2): 0}),
]


SWEEP_FALLBACK_ERRORS = [
    "normality violation: lowering cycle below vertex 0",
    "normality violation: lowering cycle below vertex 0",
    "involution image is not a permutation",
    "involution image of vertex 1 is inconsistent along color 2",
    "normality violation: vertex 1 is below highest vertices 0 and 2",
]


@pytest.mark.parametrize("t,lam,f_edges,e_edges", SWEEP_FALLBACKS)
def test_xi_errors_match_bfs_oracle_on_sweep_fallbacks(t, lam, f_edges, e_edges):
    # the oracle raises too: on the cycle and the loop it finds 0 lowest
    # vertices below vertex 0, on the other three the same message
    g = generate(t, lam)
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    assert _outcome(xi_perm_by_bfs, broken, t.nodes)[0] is ModelIntegrityError
    pinned = _pinned(SWEEP_FALLBACKS, SWEEP_FALLBACK_ERRORS, t, lam, f_edges, e_edges)
    assert _outcome(xi_perm, broken, t.nodes) == pinned


def _relabel(g, order):
    """g with vertex order[k] renamed k."""
    new = {old: k for k, old in enumerate(order)}
    f_edges = {(new[v], i): new[w] for (v, i), w in g.f_edges.items()}
    e_edges = {(new[v], i): new[w] for (v, i), w in edge_map(g.e_to).items()}
    vertices = [g.vertices[old] for old in order]
    return graph_from_edges(g.rtype, g.highest_weight, vertices, f_edges, e_edges), new


def _relabelled(perm, new) -> tuple:
    """perm with each vertex v renamed new[v]."""
    out = [None] * len(perm)
    for v, w in enumerate(perm):
        out[new[v]] = new[w]
    return tuple(out)


# on reversed ids vertex 0 is the lowest vertex, taken as highest and
# refused at its raising edge
REVERSED_C2_ERROR = "normality violation: vertex 0 has a raising edge but no edge from above"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_xi_perm_on_ids_out_of_depth_order(data):
    # ids that need not ascend along the lowering edges: xi_perm and the
    # relation checker give the relabelled answer or refuse the graph
    g = _small_crystal(*data.draw(st.sampled_from(SMALL_CRYSTALS)))
    reversal = st.just(range(len(g) - 1, -1, -1))
    shuffled, new = _relabel(g, data.draw(reversal | st.permutations(range(len(g)))))
    for sub in connected_subdiagrams(g.rtype):
        got = _outcome(xi_perm, shuffled, sub)
        if _raised(got):
            assert got[0] is ModelIntegrityError
        else:
            assert got == _relabelled(xi_perm(g, sub), new)
    got = _outcome(verify_cactus_relations, shuffled)
    assert got == [] or _raised(got) and got[0] is ModelIntegrityError


def test_reversed_ids_match_the_walk_oracle():
    # in reverse depth order vertex 0 is the lowest vertex: the walk oracle,
    # which finds the highest vertices by scan, still returns a permutation,
    # while the sweep and the relation checker refuse the graph
    g = generate(C2, (1, 1))
    reversed_graph, new = _relabel(g, range(len(g) - 1, -1, -1))
    refused = (ModelIntegrityError, REVERSED_C2_ERROR)
    assert _outcome(verify_cactus_relations, reversed_graph) == refused
    for sub in connected_subdiagrams(C2):
        assert xi_perm_by_bfs(reversed_graph, sub) == _relabelled(xi_perm(g, sub), new)
        assert _outcome(xi_perm, reversed_graph, sub) == refused


# the source and target models of the folds whose whole target the folding
# tests generate
FOLD_MODELS = sorted(
    {
        case
        for name, lam in FULL_TARGET_CASES
        for fold in [folding_pair(name)]
        for case in [(fold.x_type, lam), (fold.y_type, psi_weight(fold, lam))]
        if case not in XI_CASES
    },
    key=lambda case: (str(case[0]), case[1]),
)


# named for the Levi walk that xi_perm once fell back to on ids out of depth
# order; the sweep visits the ids in order, and it is generate that numbers
# them so that they ascend along every lowering edge
@pytest.mark.parametrize("t,lam", XI_CASES + FOLD_MODELS)
def test_generated_crystals_never_reach_the_walk(t, lam):
    g = generate(t, lam)
    assert all(w > v for i in t.nodes for v, w in enumerate(g.f_to[i]) if w is not None)
    assert verify_cactus_relations(g) == []


# XI_CASES hold SHAPE_CASES, so SIZE_CASES too
@pytest.mark.parametrize("t,lam", XI_CASES)
def test_every_lowering_edge_lowers_the_two_rho_vee_pairing_by_two(t, lam):
    g = generate(t, lam)
    n = _two_rho_vee(t)
    pairing = [sum(map(mul, n, wt)) for wt in g.weights]
    assert all(pairing[v] - pairing[w] == 2 for (v, _), w in g.f_edges.items())


@pytest.mark.parametrize("t,lam", [(A1, (0,)), (G2, (0, 0))])
def test_one_vertex_crystal(t, lam):
    g = generate(t, lam)
    assert len(g) == 1
    assert compose((0,), (0,)) == (0,)
    assert act(g, []) == act(g, [t.nodes, {1}]) == (0,)
    assert all(xi_perm(g, sub) == (0,) for sub in connected_subdiagrams(t))
    assert verify_cactus_relations(g) == []


def test_compose_of_empty_permutations():
    assert compose((), ()) == ()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_compose_matches_map_composition(data):
    n = data.draw(st.integers(0, 40))
    p = tuple(data.draw(st.permutations(range(n))))
    q = tuple(data.draw(st.permutations(range(n))))
    composed = compose(p, q)
    assert type(composed) is tuple
    assert composed == tuple(map(p.__getitem__, q))


def test_act_composes_once_per_letter_after_the_first(monkeypatch):
    g = generate(A3, (0, 1, 0))
    word = [frozenset({1}), frozenset({1, 2}), frozenset({3})]
    expected = compose(compose(xi_perm(g, word[0]), xi_perm(g, word[1])), xi_perm(g, word[2]))
    calls = []
    real_compose = cactus.compose

    def counted(p, q):
        calls.append(1)
        return real_compose(p, q)

    monkeypatch.setattr(cactus, "compose", counted)
    assert act(g, word[:1]) == xi_perm(g, word[0]) and not calls
    assert act(g, word) == expected and len(calls) == 2


def _layer_shuffled(g):
    """g with its ids shuffled within each depth layer, so that they still
    ascend along every lowering edge."""
    n, rng = _two_rho_vee(g.rtype), random.Random(len(g))
    depth = [-sum(map(mul, n, wt)) for wt in g.weights]
    return _relabel(g, sorted(range(len(g)), key=lambda v: (depth[v], rng.random())))[0]


# the sweep as it stood before it read (lowering, mirror) pairs and built one
# set; it is compared on every node set, as LeviView takes any set
@pytest.mark.parametrize("t,lam", XI_CASES)
def test_levi_sweep_matches_the_replaced_sweep_on_every_node_set(t, lam):
    g = generate(t, lam)
    for graph in (g, _layer_shuffled(g)):
        for sub in _subsets(t):
            assert _outcome(_sweep, graph, sub) == _outcome(levi_sweep_by_triples, graph, sub)


def _assert_sweeps_agree_on_every_node_set(graph) -> set:
    """The errors the sweep raises on the node sets of the graph's type, each
    the replaced sweep's error."""
    errors = set()
    for sub in _subsets(graph.rtype):
        got = _outcome(_sweep, graph, sub)
        assert got == _outcome(levi_sweep_by_triples, graph, sub), sorted(sub)
        if _raised(got):
            errors.add(got)
    return errors


@pytest.mark.parametrize("t,lam,f_edges,e_edges", SWEEP_FALLBACKS)
def test_levi_sweep_raises_as_the_replaced_sweep_on_sweep_fallbacks(t, lam, f_edges, e_edges):
    g = generate(t, lam)
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    pinned = _pinned(SWEEP_FALLBACKS, SWEEP_FALLBACK_ERRORS, t, lam, f_edges, e_edges)
    assert pinned in _assert_sweeps_agree_on_every_node_set(broken)


@pytest.mark.parametrize("t,lam,first,second", INCONSISTENT_RAISING)
def test_levi_sweep_raises_as_the_replaced_sweep_on_inconsistent_raising(t, lam, first, second):
    bad = _swap_raising_edges(t, lam, first, second)
    pinned = _pinned(INCONSISTENT_RAISING, INCONSISTENT_RAISING_ERRORS, t, lam, first, second)
    assert pinned in _assert_sweeps_agree_on_every_node_set(bad)


def _swaps_and_drops(g):
    """g with each swap or drop of _edit_edges made, one at a time."""
    for direction, color in product("fe", g.rtype.nodes):
        lists = g.f_to if direction == "f" else g.e_to
        sources = [v for v, w in enumerate(lists[color]) if w is not None]
        for first, second in product(sources, repeat=2):
            if first <= second:
                yield _edit_edges(g, direction, color, first, second)


# the checks that some swap or drop fails, in generated or layer-shuffled
# ids; the SWEEP_FALLBACKS graphs fail the other two
SWAP_AND_DROP_CHECKS = {
    "normality violation: vertex N has a raising edge but no edge from above",
    "involution image of vertex N is inconsistent along color N",
    "normality violation: second lowest vertex N below N",
}


@pytest.mark.parametrize(
    "t,lam,more",
    [(A2, (1, 1), set()), (C2, (1, 1), {"normality violation: lowering cycle below vertex N"})],
)
def test_levi_sweep_raises_as_the_replaced_sweep_on_every_swap_and_drop(t, lam, more):
    g = generate(t, lam)
    checks = set()
    for base in (g, _layer_shuffled(g)):
        for edited in _swaps_and_drops(base):
            errors = _assert_sweeps_agree_on_every_node_set(edited)
            checks |= {re.sub(r"[0-9]+", "N", message) for _, message in errors}
    assert checks == SWAP_AND_DROP_CHECKS | more


def test_levi_sweep_raises_as_the_replaced_sweep_on_every_two_edits():
    # two edits can fail two checks at one edge, e.g. the f_1 edges at 0
    # and 2 swapped and the e_1 edge at 1 dropped: vertex 1 is below highest
    # vertices 1 and 0 and its images disagree, and the image check comes first
    g = generate(A2, (1, 1))
    pinned = (ModelIntegrityError, "involution image of vertex 1 is inconsistent along color 1")
    edited = _edit_edges(_edit_edges(g, "f", 1, 0, 2), "e", 1, 1, 1)
    assert _outcome(_sweep, edited, {1, 2}) == pinned
    for once in _swaps_and_drops(g):
        for twice in _swaps_and_drops(once):
            _assert_sweeps_agree_on_every_node_set(twice)


def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_relations_read_one_involution_per_subdiagram_and_a_cached_guard(monkeypatch):
    # one sweep per connected subdiagram; on a second graph of the type
    # neither the twist pairs nor the relation plan searches for components
    calls = Counter()
    _count_calls(monkeypatch, calls, cactus, "_levi_sweep")
    assert verify_cactus_relations(generate(C3, (1, 1, 0))) == []
    assert calls == {"_levi_sweep": len(connected_subdiagrams(C3))}
    _count_calls(monkeypatch, calls, cartan, "components")
    _count_calls(monkeypatch, calls, cactus, "components")
    assert verify_cactus_relations(generate(C3, (0, 1, 0))) == []
    assert calls == {"_levi_sweep": 2 * len(connected_subdiagrams(C3))}


@pytest.mark.parametrize("t,lam", [(C3, (1, 1, 0)), (D4, (1, 0, 1, 0)), (G2, (1, 1))])
def test_the_verifier_sweeps_each_subdiagram_from_its_cached_pairs(monkeypatch, t, lam):
    # after a warm-up of the type's caches: one sweep per connected
    # subdiagram, in their order, each given the set's cached twist pairs,
    # and no node-set check, connectivity lookup, theta dict or xi_perm call
    first, graph = generate(t, tuple(reversed(lam))), generate(t, lam)
    verify_cactus_relations(first)
    swept, calls = [], Counter()
    real_sweep = cactus._levi_sweep
    monkeypatch.setattr(
        cactus, "_levi_sweep", lambda g, pairs: swept.append(pairs) or real_sweep(g, pairs)
    )
    for module, name in (
        (cartan, "_node_set"),
        (cartan, "is_connected"),
        (cactus, "is_connected"),
        (cartan, "theta"),
        (cactus, "theta"),
        (cactus, "xi_perm"),
    ):
        _count_calls(monkeypatch, calls, module, name)
    assert verify_cactus_relations(graph) == []
    assert swept == [cartan._theta_pairs(t, s) for s in connected_subdiagrams(t)]
    assert not calls


def _shifted(perm):
    return tuple(perm[(v + 1) % len(perm)] for v in range(len(perm)))


@pytest.mark.parametrize("shift", [False, True], ids=["plain", "shifted"])
@pytest.mark.parametrize("t,lam", XI_CASES)
def test_relations_match_the_loop_oracle_over_the_bfs_involutions(monkeypatch, t, lam, shift):
    # the verifier, which sweeps each subdiagram with no guard, against the
    # loop checker over the involutions of the breadth-first oracle, as they
    # are and with the {1} generator shifted cyclically on both sides
    g = generate(t, lam)
    perms = {s: xi_perm_by_bfs(g, s) for s in connected_subdiagrams(t)}
    if shift:
        _shift_generator_one(monkeypatch)
        perms[frozenset({1})] = _shifted(perms[frozenset({1})])
    expected = relation_violations_by_loops(t, perms, identity_perm(g))
    if t.rank > 1:  # on A1 the shift can keep the square, the one relation
        assert bool(expected) == shift
    assert verify_cactus_relations(g) == expected
