"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import subprocess
import sys

from xi_oracle import xi_perm_by_words

from pathcrystals.cactus import (
    compose,
    identity_perm,
    verify_cactus_relations,
    xi_perm,
)
from pathcrystals.cartan import (
    DynkinType,
    cartan_matrix,
    connected_subdiagrams,
    theta,
    w0J_apply,
    weyl_dim,
)
from pathcrystals.crystal import generate, verify_seminormal
from pathcrystals.folding import (
    devirtualize,
    folding_pair,
    psi_weight,
    verify_commutative_diagram,
    verify_component_identity,
    verify_virtual_relations,
    verify_virtualization,
    virtualize_path,
)
from pathcrystals.paths import paths_equal

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
A3 = DynkinType("A", 3)
B2 = DynkinType("B", 2)
C2 = DynkinType("C", 2)
C3 = DynkinType("C", 3)
D4 = DynkinType("D", 4)
G2 = DynkinType("G", 2)

SIZE_CASES = [
    (A2, (1, 0), 3),
    (A1, (2,), 3),
    (C2, (1, 0), 4),
    (C2, (0, 1), 5),
    (B2, (0, 1), 4),
    (G2, (1, 0), 7),
    (A3, (1, 0, 1), 15),
]

VIRT_CASES = [
    ("C2", (1, 0)),
    ("C2", (0, 1)),
    ("B2", (1, 0)),
    ("B2", (0, 1)),
    ("C3", (1, 0, 0)),
    ("G2", (1, 0)),
]


def _report(number, name, failures):
    ok = not failures
    print(f"acceptance {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): {failures}"


def test_criterion_01_size_oracle_agreement():
    failures = []
    for t, lam, expected in SIZE_CASES:
        dim = weyl_dim(t, lam)
        size = len(generate(t, lam))
        if not (dim == size == expected):
            failures.append((str(t), lam, dim, size, expected))
    _report(1, "size-oracle", failures)


def test_criterion_02_seminormal_axioms():
    failures = []
    for t, lam, _ in SIZE_CASES:
        violations = verify_seminormal(generate(t, lam))
        if violations:
            failures.append((str(t), lam, violations))
    _report(2, "seminormal-axioms", failures)


def test_criterion_03_partial_involutions():
    failures = []
    for t, lam, _ in SIZE_CASES:
        graph = generate(t, lam)
        ident = identity_perm(graph)
        for sub in connected_subdiagrams(t):
            perm = xi_perm(graph, sub)
            if compose(perm, perm) != ident:
                failures.append((str(t), lam, sorted(sub), "involution"))
            for descending in (False, True):
                if perm != xi_perm_by_words(graph, sub, descending):
                    failures.append((str(t), lam, sorted(sub), "word-oracle", descending))
            twist = theta(t, sub)
            for v in range(len(graph)):
                if graph.weights[perm[v]] != w0J_apply(t, sub, graph.weights[v]):
                    failures.append((str(t), lam, sorted(sub), "weight-twist", v))
                for j in sub:
                    lowered = graph.f_to[j][v]
                    mirrored = graph.e_to[twist[j]][perm[v]]
                    if (lowered is None) != (mirrored is None):
                        failures.append((str(t), lam, sorted(sub), "intertwine", v, j))
                    elif lowered is not None and perm[lowered] != mirrored:
                        failures.append((str(t), lam, sorted(sub), "intertwine", v, j))
    _report(3, "partial-involutions", failures)


def test_criterion_04_cactus_relations():
    failures = []
    for t, lam in ((A3, (0, 1, 0)), (C2, (1, 1)), (G2, (1, 0)), (D4, (1, 0, 0, 0))):
        violations = verify_cactus_relations(generate(t, lam))
        if violations:
            failures.append((str(t), lam, violations))
    _report(4, "cactus-relations", failures)


def test_criterion_05_folding_root_identity():
    failures = []
    for name in ("C2", "C3", "C4", "B2", "B3", "B4", "G2", "F4"):
        try:
            fold = folding_pair(name)  # construction re-checks the identity
        except Exception as exc:  # pragma: no cover - failure reporting only
            failures.append((name, repr(exc)))
            continue
        ax = cartan_matrix(fold.x_type)
        ay = cartan_matrix(fold.y_type)
        for i in fold.x_type.nodes:
            alpha = tuple(ax[k][i - 1] for k in range(fold.x_type.rank))
            lhs = list(psi_weight(fold, alpha))
            rhs = [0] * fold.y_type.rank
            for j in fold.sigma(i):
                for l in range(fold.y_type.rank):
                    rhs[l] += fold.gamma(i) * ay[l][j - 1]
            if lhs != rhs:
                failures.append((name, i, lhs, rhs))
    _report(5, "folding-root-identity", failures)


def test_criterion_06_component_identity():
    failures = []
    for name in ("C2", "C3", "B3", "G2", "F4"):
        violations = verify_component_identity(folding_pair(name))
        if violations:
            failures.append((name, violations))
    _report(6, "component-identity", failures)


def test_criterion_07_virtualization():
    failures = []
    for name, lam in VIRT_CASES:
        violations = verify_virtualization(folding_pair(name), lam)
        if violations:
            failures.append((name, lam, violations))
    _report(7, "virtualization", failures)


def test_criterion_08_commutative_diagram():
    failures = []
    for name, lam in VIRT_CASES:
        fold = folding_pair(name)
        violations = verify_commutative_diagram(fold, lam)
        if violations:
            failures.append((name, lam, violations))
        graph = generate(fold.x_type, lam)
        for b in range(len(graph)):
            path = graph.vertices[b]
            if not paths_equal(devirtualize(fold, virtualize_path(fold, path)), path):
                failures.append((name, lam, "round-trip", b))
    _report(8, "commutative-diagram", failures)


def test_criterion_09_virtual_relations():
    failures = []
    for name, lam in (("C2", (1, 0)), ("G2", (1, 0))):
        violations = verify_virtual_relations(folding_pair(name), lam)
        if violations:
            failures.append((name, lam, violations))
    _report(9, "virtual-relations", failures)


def test_criterion_10_extended_f4_into_e6():
    failures = []
    fold = folding_pair("F4")
    lam = (0, 0, 0, 1)
    embedded = psi_weight(fold, lam)
    if len(generate(fold.x_type, lam)) != 26:
        failures.append("source size")
    if len(generate(fold.y_type, embedded)) != weyl_dim(fold.y_type, embedded):
        failures.append("target size")
    failures += verify_virtualization(fold, lam)
    failures += verify_commutative_diagram(fold, lam)
    _report(10, "extended-f4-e6", failures)


def test_criterion_11_export_determinism(cli_env):
    def run():
        return subprocess.run(
            [sys.executable, "-m", "pathcrystals", "crystal", "C2", "1,1", "--export", "json"],
            capture_output=True,
            env=cli_env,
        )

    first, second = run(), run()
    failures = []
    if first.returncode != 0 or second.returncode != 0:
        failures.append("nonzero exit")
    if first.stdout != second.stdout:
        failures.append("stdout differs between runs")
    _report(11, "export-determinism", failures)
