"""The partial involutions of type A against tableaux, RSK and evacuation
(tests/tableau_oracle.py), which read no theta and no involution."""

import itertools
import random

import pytest
from closure_oracle import vertex_ids
from tableau_oracle import (
    evacuate,
    intervals,
    is_semistandard,
    mismatches,
    rsk,
    rsk_inverse,
    shape,
    tableaux,
)
from test_acceptance import SIZE_CASES
from test_cactus import WORD_CASES

from pathcrystals import crystal
from pathcrystals.cactus import xi_perm
from pathcrystals.cartan import DynkinType, connected_subdiagrams
from pathcrystals.crystal import generate
from pathcrystals.errors import ModelIntegrityError
from pathcrystals.folding import folding_pair, psi_weight, s_tilde, virtualize_path

A = {n: DynkinType("A", n) for n in range(1, 6)}

TYPE_A_CASES = sorted(
    {(t, lam) for t, lam, _ in SIZE_CASES if t.family == "A"}
    | {(t, lam) for t, lam in WORD_CASES if t.family == "A"}
    | {
        (A[1], (3,)),
        (A[2], (1, 1)),
        (A[2], (2, 1)),
        (A[3], (1, 0, 1)),
        (A[3], (1, 1, 1)),
        (A[3], (2, 1, 0)),
        (A[4], (1, 0, 1, 0)),
        (A[4], (1, 1, 0, 1)),
        (A[5], (1, 0, 0, 0, 1)),
    },
    key=lambda case: (case[0].rank, case[1]),
)

# C_n folds into A_{2n-1}; C5 is above the command line's rank cap
SYMPLECTIC_CASES = [
    ("C2", (1, 0)),
    ("C2", (0, 1)),
    ("C2", (1, 1)),
    ("C3", (1, 0, 0)),
    ("C3", (0, 1, 0)),
    ("C3", (0, 0, 1)),
    ("C4", (1, 0, 0, 0)),
    ("C5", (1, 0, 0, 0, 0)),
]


def _ids(cases):
    return [f"{t}{','.join(map(str, lam))}" for t, lam in cases]


def test_rsk_inverse_inverts_rsk():
    rng = random.Random(5)
    for _ in range(200):
        word = [rng.randint(1, 5) for _ in range(rng.randint(0, 9))]
        assert rsk_inverse(*rsk(word)) == word


@pytest.mark.parametrize("t,lam", TYPE_A_CASES, ids=_ids(TYPE_A_CASES))
def test_tableaux_are_the_semistandard_tableaux_of_the_shape(t, lam):
    g = generate(t, lam)
    tabs = tableaux(g)
    rows = shape(lam)
    assert all(is_semistandard(tab) and tuple(map(len, tab)) == rows for tab in tabs)
    letters = range(1, t.rank + 2)
    weak = itertools.product(*(itertools.combinations_with_replacement(letters, n) for n in rows))
    assert sum(map(is_semistandard, weak)) == len(g)


@pytest.mark.parametrize("t,lam", TYPE_A_CASES, ids=_ids(TYPE_A_CASES))
def test_evacuation_is_an_involution_that_keeps_the_shape(t, lam):
    for tab in tableaux(generate(t, lam)):
        for a, b in intervals(t.rank):
            image = evacuate(tab, a, b)
            assert is_semistandard(image) and tuple(map(len, image)) == tuple(map(len, tab))
            assert evacuate(image, a, b) == tab


@pytest.mark.parametrize("t,lam", TYPE_A_CASES, ids=_ids(TYPE_A_CASES))
def test_xi_perm_matches_evacuation(t, lam):
    g = generate(t, lam)
    tabs = tableaux(g)
    for a, b in intervals(t.rank):
        assert mismatches(g, xi_perm(g, range(a, b)), a, b, tabs) == [], (a, b)


@pytest.mark.parametrize("name,lam", SYMPLECTIC_CASES, ids=_ids(SYMPLECTIC_CASES))
def test_xi_perm_matches_evacuation_on_symplectic_targets(name, lam):
    fold = folding_pair(name)
    g = generate(fold.y_type, psi_weight(fold, lam))
    tabs = tableaux(g)
    for a, b in intervals(fold.y_type.rank):
        assert mismatches(g, xi_perm(g, range(a, b)), a, b, tabs) == [], (a, b)


@pytest.mark.parametrize("name,lam", SYMPLECTIC_CASES, ids=_ids(SYMPLECTIC_CASES))
def test_diagram_target_side_matches_evacuation(name, lam):
    # v o xi_J = s~_J o v with each letter of s~_J applied as an evacuation
    # of the tableau of v(b), letter by letter
    fold = folding_pair(name)
    gx = generate(fold.x_type, lam)
    gy = generate(fold.y_type, psi_weight(fold, lam))
    tabs = tableaux(gy)
    find = vertex_ids(gy)
    image = [find(virtualize_path(fold, p)) for p in gx.vertices]
    for sub in connected_subdiagrams(fold.x_type):
        source_perm = xi_perm(gx, sub)
        for b in range(len(gx)):
            tab = tabs[image[b]]
            for letter in s_tilde(fold, sub):
                tab = evacuate(tab, min(letter), max(letter) + 1)
            assert tab == tabs[image[source_perm[b]]], (sorted(sub), b)


@pytest.mark.parametrize(
    "t,lam", [(A[2], (1, 1)), (A[3], (1, 0, 1)), (A[4], (1, 1, 0, 1))], ids=["A2", "A3", "A4"]
)
def test_identity_twist_is_flagged(monkeypatch, t, lam):
    # with theta patched to the identity the sweep either raises or returns
    # a wrong involution, which the oracle flags; one color needs no twist
    g = generate(t, lam)
    tabs = tableaux(g)
    monkeypatch.setattr(crystal, "theta", lambda rtype, colors: {i: i for i in colors})
    flagged, raised = {}, 0
    for a, b in intervals(t.rank):
        try:
            perm = xi_perm(g, range(a, b))
        except ModelIntegrityError:
            raised += 1
            continue
        flagged[a, b] = mismatches(g, perm, a, b, tabs)
    assert all(not flagged[a, a + 1] for a in t.nodes)
    assert all(flagged[a, b] for a, b in flagged if b > a + 1)
    assert raised + len(flagged) == len(intervals(t.rank))
    if t.rank == 2:
        assert raised == 0 and flagged[1, 3] == [1, 2, 3, 4, 5, 6]
    else:
        assert raised > 0
