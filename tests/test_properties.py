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
    """The same path over k times the denominator, each segment cut into k
    collinear pieces: pointwise equal to p, never reduced."""
    times, points = [], []
    for (t0, p0), (t1, p1) in zip(zip(p.times, p.points), zip(p.times[1:], p.points[1:])):
        for j in range(k):
            times.append(k * t0 + j * (t1 - t0))
            points.append(tuple(k * a + j * (b - a) for a, b in zip(p0, p1)))
    times.append(k * p.times[-1])
    points.append(tuple(k * c for c in p.points[-1]))
    return PLPath(p.rtype, k * p.den, tuple(times), tuple(points))


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
