"""Hypothesis properties over (type, dominant weight) pairs whose crystals
have at most 150 vertices: raising undoes lowering, canonicalize is
idempotent, the JSON export round-trips, and devirtualization undoes
virtualization."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from test_cactus import SMALL_CRYSTALS

from pathcrystals.crystal import export_json, generate
from pathcrystals.folding import devirtualize, folding_pair, virtualize_path
from pathcrystals.paths import PLPath, canonicalize, path_from_json, root_e, root_f

FOLD_SOURCES = [(t, lam) for t, lam in SMALL_CRYSTALS if t.family in "BCGF"]
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@PROPERTY
@given(st.sampled_from(SMALL_CRYSTALS))
def test_raising_undoes_lowering(case):
    t, lam = case
    for p in generate(t, lam).vertices:
        for i in t.nodes:
            lowered = root_f(p, i)
            if lowered is not None:
                assert root_e(lowered, i) == p


def _refined(p: PLPath, k: int) -> PLPath:
    """The same path over k times each denominator, each segment cut into k
    pieces of one direction: pointwise equal to p, never reduced."""
    times = [k * t0 + j * (t1 - t0) for t0, t1 in zip(p.times, p.times[1:]) for j in range(k)]
    dirs = tuple(tuple(k * c for c in d) for d in p.dirs for _ in range(k))
    return PLPath(p.rtype, k * p.den, (*times, k * p.den), k * p.vden, dirs)


@PROPERTY
@given(st.sampled_from(SMALL_CRYSTALS), st.integers(2, 4))
def test_canonicalize_is_idempotent(case, k):
    t, lam = case
    for p in generate(t, lam).vertices:
        q = canonicalize(_refined(p, k))
        assert q == p and canonicalize(q) == q


@PROPERTY
@given(st.sampled_from(SMALL_CRYSTALS))
def test_export_round_trip(case):
    t, lam = case
    g = generate(t, lam)
    data = json.loads(export_json(g))
    assert data["type"] == str(t) and data["highest_weight"] == list(lam)
    vertices = data["vertices"]
    assert [v["id"] for v in vertices] == list(range(len(g)))
    assert [path_from_json(t, v["path"]) for v in vertices] == list(g.vertices)
    assert [tuple(v["weight"]) for v in vertices] == list(g.weights)
    edges = [(v, i, g.f_to[i][v]) for v in range(len(g)) for i in t.nodes]
    assert [(e["from"], e["color"], e["to"]) for e in data["edges"]] == [
        edge for edge in edges if edge[2] is not None
    ]


@PROPERTY
@given(st.sampled_from(FOLD_SOURCES))
def test_devirtualize_undoes_virtualize(case):
    t, lam = case
    fold = folding_pair(t)
    for p in generate(t, lam).vertices:
        assert devirtualize(fold, virtualize_path(fold, p)) == p
