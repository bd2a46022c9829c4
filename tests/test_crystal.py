import hashlib
import json
from collections import Counter

import export_oracle
import paths_oracle
import pytest
from closure_oracle import generate_by_both_operators, graph_from_edges
from freudenthal_oracle import weight_multiset
from seminormal_oracle import seminormal_by_lookups
from stembridge_oracle import violations as stembridge_violations
from test_acceptance import SIZE_CASES, VIRT_CASES

from pathcrystals import crystal
from pathcrystals.cartan import DynkinType, reflect, weyl_dim
from pathcrystals.crystal import (
    export_dot,
    export_json,
    generate,
    levi,
    verify_seminormal,
)
from pathcrystals.errors import DomainError, ModelIntegrityError
from pathcrystals.folding import folding_pair, psi_weight
from pathcrystals.paths import path_from_json

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
A3 = DynkinType("A", 3)
B2 = DynkinType("B", 2)
B3 = DynkinType("B", 3)
C2 = DynkinType("C", 2)
C3 = DynkinType("C", 3)
F4 = DynkinType("F", 4)
G2 = DynkinType("G", 2)

SMALL_MODELS = [
    (A2, (1, 0)),
    (A1, (2,)),
    (C2, (1, 0)),
    (C2, (0, 1)),
    (B2, (0, 1)),
    (G2, (1, 0)),
    (A3, (1, 0, 1)),
]


@pytest.mark.parametrize("t,lam", SMALL_MODELS)
def test_size_matches_weyl_dim(t, lam):
    assert len(generate(t, lam)) == weyl_dim(t, lam)


def test_a1_two_lambda_is_one_string():
    g = generate(A1, (2,))
    assert len(g) == 3
    assert g.f(0, 1) == 1 and g.f(1, 1) == 2 and g.f(2, 1) is None
    assert g.weights == ((2,), (0,), (-2,))


def test_zero_weight_single_vertex():
    g = generate(C2, (0, 0))
    assert len(g) == 1 and not g.f_edges and not g.e_edges


def test_generation_is_deterministic():
    a = generate(C2, (1, 1))
    b = generate(C2, (1, 1))
    assert a.vertices == b.vertices
    assert a.f_edges == b.f_edges and a.e_edges == b.e_edges


def test_max_size_guard():
    with pytest.raises(DomainError):
        generate(C2, (1, 1), max_size=10)


@pytest.mark.parametrize("t,lam", SMALL_MODELS)
def test_seminormal_axioms_pass(t, lam):
    assert verify_seminormal(generate(t, lam)) == []


def test_seminormal_detects_deleted_edge():
    g = generate(A1, (2,))
    broken_f = dict(g.f_edges)
    del broken_f[(0, 1)]
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, broken_f, g.e_edges)
    violations = verify_seminormal(broken)
    assert any(v["axiom"] == "mutual-inverse" for v in violations)


def test_character_is_reflection_invariant():
    for t, lam in SMALL_MODELS:
        g = generate(t, lam)
        multiset = Counter(g.weights)
        for i in t.nodes:
            assert Counter(reflect(t, w, i) for w in g.weights) == multiset


def test_levi_full_and_empty():
    g = generate(A2, (1, 0))
    assert len(levi(g, {1, 2}).components) == 1
    assert len(levi(g, set()).components) == len(g)


def test_levi_components_a2():
    g = generate(A2, (1, 0))
    view = levi(g, {1})
    assert sorted(len(c) for c in view.components) == [1, 2]


def test_levi_rejects_foreign_colors():
    g = generate(A2, (1, 0))
    with pytest.raises(DomainError):
        levi(g, {3})


def test_highest_lowest_of_full_view():
    g = generate(C2, (1, 0))
    view = levi(g, {1, 2})
    comp = view.components[0]
    assert view.highest_of(comp) == 0
    assert g.weights[view.lowest_of(comp)] == (-1, 0)


def test_highest_of_single_string():
    g = generate(A1, (2,))
    view = levi(g, {1})
    comp = view.component_of(1)
    assert view.highest_of(comp) == 0 and view.lowest_of(comp) == 2


def test_each_levi_component_has_unique_extremes():
    for t, lam in ((C2, (1, 1)), (A3, (1, 0, 1)), (G2, (1, 0))):
        g = generate(t, lam)
        for i in t.nodes:
            view = levi(g, {i})
            for comp in view.components:
                view.highest_of(comp)
                view.lowest_of(comp)


def test_f_word_properties():
    g = generate(A2, (1, 0))
    view = levi(g, {1, 2})
    comp = view.components[0]
    assert view.f_word(comp, 0) == ()
    b = g.f(0, 1)
    assert view.f_word(comp, b) == (1,)
    for v in comp:
        word = view.f_word(comp, v)
        cur = view.highest_of(comp)
        for color in word:
            cur = g.f(cur, color)
        assert cur == v


def test_f_word_length_is_bfs_depth():
    from collections import deque

    g = generate(C2, (1, 1))
    view = levi(g, {1, 2})
    comp = view.components[0]
    top = view.highest_of(comp)
    depth = {top: 0}
    queue = deque([top])
    while queue:
        v = queue.popleft()
        for i in C2.nodes:
            w = g.f(v, i)
            if w is not None and w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    for v in comp:
        assert len(view.f_word(comp, v)) == depth[v]


def test_export_json_structure():
    g = generate(C2, (1, 0))
    data = json.loads(export_json(g))
    assert data["type"] == "C2"
    assert data["highest_weight"] == [1, 0]
    assert len(data["vertices"]) == 4
    assert all(set(v) == {"id", "weight", "path"} for v in data["vertices"])
    assert all(set(e) == {"from", "to", "color"} for e in data["edges"])
    for v in data["vertices"]:
        assert path_from_json(C2, v["path"]) == g.path(v["id"])


def test_export_json_deterministic():
    assert export_json(generate(C2, (1, 1))) == export_json(generate(C2, (1, 1)))


def test_export_dot_counts():
    g = generate(A1, (2,))
    dot = export_dot(g)
    assert dot.startswith("digraph crystal {")
    assert dot.count("->") == 2
    assert dot.count("[label=") == 3 + 2


def test_seminormal_detects_doctored_e_edge():
    g = generate(A1, (2,))
    bad_e = dict(g.e_edges)
    bad_e[(1, 1)] = 1
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, g.f_edges, bad_e)
    assert verify_seminormal(broken) != []


CLOSURE_CASES = [(t, lam) for t, lam, _ in SIZE_CASES] + [
    (G2, (2, 2)),
    (C3, (1, 1, 1)),
    (B3, (1, 1, 0)),
    (F4, (0, 0, 0, 1)),
]


@pytest.mark.parametrize("t,lam", CLOSURE_CASES)
def test_lowering_closure_matches_both_operator_closure(t, lam):
    g = generate(t, lam)
    oracle = generate_by_both_operators(t, lam)
    assert g.vertices == oracle.vertices
    assert g.f_edges == oracle.f_edges and g.e_edges == oracle.e_edges
    assert export_json(g) == export_json(oracle)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("t,lam", CLOSURE_CASES)
def test_generate_matches_fraction_kernel_closure(monkeypatch, t, lam):
    # the same search driven by the Fraction operators of tests/paths_oracle.py
    # gives the same vertices in the same order, the same edge maps, and the
    # same JSON export when that export reads paths through the oracle too
    g = generate(t, lam)
    vertices, f_edges, e_edges = paths_oracle.closure(t, lam)
    assert [p.breakpoints for p in g.vertices] == [q.breakpoints for q in vertices]
    assert g.f_edges == f_edges and g.e_edges == e_edges
    digest = _sha256(export_json(g))
    monkeypatch.setattr(crystal, "path_to_json", paths_oracle.path_to_json)
    monkeypatch.setattr(crystal, "weight_int", paths_oracle.weight_int)
    oracle = graph_from_edges(t, lam, vertices, f_edges, e_edges)
    assert _sha256(export_json(oracle)) == digest
    assert export_json(oracle) == export_oracle.export_json(oracle)


def test_generate_never_raises(monkeypatch):
    def forbidden(path, i):
        raise AssertionError("generate called root_e")

    monkeypatch.setattr(crystal, "root_e", forbidden)
    assert len(generate(C2, (1, 1))) == 16


def test_seminormal_checks_raising_operator(monkeypatch):
    g = generate(C2, (1, 1))
    real = crystal.root_e
    monkeypatch.setattr(
        crystal, "root_e", lambda path, i: None if i == 1 else real(path, i)
    )
    records = [v for v in verify_seminormal(g) if v["axiom"] == "raising-operator"]
    expected = [v for v in range(len(g)) if g.e(v, 1) is not None]
    assert expected and [(r["vertex"], r["color"]) for r in records] == [
        (v, 1) for v in expected
    ]


def test_seminormal_checks_raising_operator_target():
    # an e-edge that points at the wrong vertex of the right weight
    g = generate(C2, (1, 1))
    raisable = [u for u in range(len(g)) if g.e(u, 1) is not None]
    v, w = next(
        (a, b) for a in raisable for b in raisable if a < b and g.weights[a] == g.weights[b]
    )
    e_edges = dict(g.e_edges)
    e_edges[(v, 1)], e_edges[(w, 1)] = e_edges[(w, 1)], e_edges[(v, 1)]
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, g.f_edges, e_edges)
    records = [r for r in verify_seminormal(broken) if r["axiom"] == "raising-operator"]
    assert [(r["vertex"], r["color"]) for r in records] == [(v, 1), (w, 1)]


BROKEN_COMPONENTS = [
    # e-edge (1, 1) dropped: vertex 2 is below highest vertices 0 and 1
    (A1, (2,), {(0, 1): 1, (1, 1): 2}, {(2, 1): 1}),
    # vertex 0 lowered along both colors: two lowest vertices below it
    (A2, (1, 0), {(0, 1): 1, (0, 2): 2}, {(1, 1): 0, (2, 2): 0}),
    # a cycle 1 <-> 2 away from vertex 0: both are below no highest vertex
    (A1, (2,), {(1, 1): 2, (2, 1): 1}, {(1, 1): 2, (2, 1): 1}),
]


@pytest.mark.parametrize("t,lam,f_edges,e_edges", BROKEN_COMPONENTS)
def test_levi_rejects_broken_components(t, lam, f_edges, e_edges):
    g = generate(t, lam)
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    with pytest.raises(ModelIntegrityError):
        levi(broken, t.nodes)


def test_component_of_out_of_range():
    g = generate(A2, (1, 0))
    view = levi(g, {1})
    with pytest.raises(DomainError):
        view.component_of(len(g))
    with pytest.raises(DomainError):
        view.component_of(-1)


def _source_and_target(name, lam):
    fold = folding_pair(name)
    return [(fold.x_type, lam), (fold.y_type, psi_weight(fold, lam))]


# SIZE_CASES and every other crystal the acceptance criteria build: the
# cactus cases, and the source and target models of the folding cases
SHAPE_CASES = (
    [(t, lam) for t, lam, _ in SIZE_CASES]
    + [(A3, (0, 1, 0)), (C2, (1, 1)), (G2, (1, 0)), (DynkinType("D", 4), (1, 0, 0, 0))]
    + [case for name, lam in VIRT_CASES for case in _source_and_target(name, lam)]
    + _source_and_target("F4", (0, 0, 0, 1))
)


@pytest.mark.parametrize(
    "t,lam", [(A1, (0,))] + CLOSURE_CASES + [c for c in SHAPE_CASES if c not in CLOSURE_CASES]
)
def test_exports_match_json_dumps_oracle(t, lam):
    # the templates against json.dumps(obj, indent=2) of the export object and
    # the DOT lines against the sorted edge map, byte for byte
    g = generate(t, lam)
    text = export_json(g)
    assert text == export_oracle.export_json(g)
    assert export_dot(g) == export_oracle.export_dot(g)
    assert ('"edges": []' in text) == (len(g) == 1)


@pytest.mark.parametrize("t,lam", SHAPE_CASES)
def test_weights_match_freudenthal(t, lam):
    assert Counter(generate(t, lam).weights) == weight_multiset(t, lam)


def test_freudenthal_rejects_a_moved_weight():
    # a vertex of a repeated weight moved to the highest weight: the size is
    # still the Weyl dimension and the same weights occur, with the wrong
    # multiplicities
    g = generate(C2, (1, 1))
    weights = list(g.weights)
    v = next(v for v, w in enumerate(weights) if weights.count(w) > 1)
    weights[v] = weights[0]
    assert len(weights) == weyl_dim(C2, (1, 1)) and set(weights) == set(g.weights)
    assert Counter(weights) != weight_multiset(C2, (1, 1))


@pytest.mark.parametrize("t,lam", [c for c in SHAPE_CASES if c[0].family in "ADE"])
def test_simply_laced_crystals_satisfy_stembridge_axioms(t, lam):
    assert stembridge_violations(generate(t, lam)) == []


def test_stembridge_rejects_a_non_simply_laced_crystal():
    # the B2 string shifts follow a_ji, not the a_ij of the simply-laced axioms
    found = stembridge_violations(generate(B2, (1, 1)))
    assert found and {v["axiom"] for v in found} == {"string-shift"}


def test_stembridge_rejects_two_swapped_edges():
    # f_1 at vertices 16 and 17 of D4(1,0,1,1), which share a weight, trade
    # targets: the size, the weights and the string law hold, the squares break
    g = generate(DynkinType("D", 4), (1, 0, 1, 1))
    assert g.weights[16] == g.weights[17]
    f_edges, e_edges = dict(g.f_edges), dict(g.e_edges)
    w16, w17 = f_edges[(16, 1)], f_edges[(17, 1)]
    f_edges[(16, 1)], f_edges[(17, 1)] = w17, w16
    e_edges[(w17, 1)], e_edges[(w16, 1)] = 16, 17
    broken = graph_from_edges(g.rtype, g.highest_weight, g.vertices, f_edges, e_edges)
    assert {v["axiom"] for v in verify_seminormal(broken)} == {"raising-operator"}
    assert {"commute", "braid"} <= {v["axiom"] for v in stembridge_violations(broken)}


def _broken_graphs():
    """Generated graphs with edited edge maps: an edge deleted, a raising
    edge pointing back at its source, two raising edges swapped, and the
    broken Levi components (a vertex with two highest vertices above it, a
    vertex with two lowest below it, a cycle)."""
    a1 = generate(A1, (2,))
    c2 = generate(C2, (1, 1))
    deleted = dict(a1.f_edges)
    del deleted[(0, 1)]
    looped = dict(a1.e_edges)
    looped[(1, 1)] = 1
    swapped = dict(c2.e_edges)
    swapped[(3, 2)], swapped[(8, 2)] = swapped[(8, 2)], swapped[(3, 2)]
    edits = [(a1, deleted, a1.e_edges), (a1, a1.f_edges, looped), (c2, c2.f_edges, swapped)]
    edits += [(generate(t, lam), f, e) for t, lam, f, e in BROKEN_COMPONENTS]
    return [graph_from_edges(g.rtype, g.highest_weight, g.vertices, f, e) for g, f, e in edits]


def test_seminormal_matches_lookup_oracle():
    graphs = [generate(t, lam) for t, lam in CLOSURE_CASES] + _broken_graphs()
    broken = 0
    for g in graphs:
        expected = seminormal_by_lookups(g)
        broken += bool(expected)
        assert verify_seminormal(g) == expected
    assert broken == 6
