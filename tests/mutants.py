"""A catalogue of mutants of src/ and the tests that must catch each one.

Each entry names a module of src/pathcrystals, an exact snippet that occurs
once in it, the snippet's replacement, and the pytest ids that must fail
once the snippet is replaced.  A test id names a test function, and every
case of a parametrized one; it fails when any of its cases fails.
tests/test_mutants.py checks in the tier-1 suite that each snippet occurs
exactly once and that each named test is defined, so a change that rewrites
a guarded line updates its mutant in the same change.

    python tests/mutants.py

For each mutant, one at a time, the run copies src/, tests/, README.md and
pyproject.toml into a temporary directory, applies the replacement there and
runs the named tests in one pytest subprocess, with PYTHONPATH set to the
copy's src/.  A mutant is caught when every named test fails.  The run prints
one line per mutant and exits 0 when every mutant is caught.  This file is
not collected by pytest.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathcrystals"
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

MUTANTS = (
    Mutant(
        "component-identity-skips-connected-images",
        "folding.py",
        "    for outer, inner, twisted in nested:\n",
        "    for outer, inner, twisted in nested:\n"
        "        if len(components(y, sigma_set(outer))) < 2:\n"
        "            continue\n",
        ("tests/test_folding.py::test_component_identity_reports_an_untwisted_connected_image",),
    ),
    Mutant(
        "component-identity-inner-image-as-lhs",
        "folding.py",
        "        lhs = sigma_set(twisted)\n",
        "        lhs = sigma_set(inner)\n",
        (
            "tests/test_folding.py::test_component_identity_passes",
            "tests/test_folding.py::test_component_identity_reports_untwisted_components",
            "tests/test_folding.py::test_component_identity_reports_two_swapped_orbits",
        ),
    ),
    Mutant(
        "component-count-loop-dropped",
        "folding.py",
        "    for a, b in disjoint:\n",
        "    for a, b in ():\n",
        ("tests/test_folding.py::test_component_identity_reports_two_swapped_orbits",),
    ),
    Mutant(
        "relation-plan-keeps-equal-sets",
        "cactus.py",
        "for a, b in pairs if b < a)",
        "for a, b in pairs if b <= a)",
        ("tests/test_cactus.py::test_relation_plan_has_no_triple_with_equal_sets",),
    ),
    Mutant(
        "cli-rank-cap-removed",
        "cli.py",
        "    if t.rank > DEFAULT_MAX_RANK:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_fold_info_rank_above_the_cap",),
    ),
    Mutant(
        "cli-vertex-checked-after-generation",
        "cli.py",
        "    if vertex is not None:  # the vertex count is the Weyl dimension\n"
        "        _check_vertex(weyl_dim(t, lam), vertex)\n",
        "",
        ("tests/test_cli.py::test_vertex_and_levi_are_refused_before_generation",),
    ),
    Mutant(
        "cli-weight-not-taken-guard-removed",
        "cli.py",
        "    if not needs_weight and weight_text is not None:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_one_line_guards_exit_two",),
    ),
    Mutant(
        "is-connected-cache-keyed-before-the-check",
        "cartan.py",
        "    return _is_connected(t, _node_set(t, nodes))\n",
        "    return _is_connected(t, frozenset(nodes))\n",
        ("tests/test_cartan.py::test_node_sets_reject_nodes_that_are_not_ints",),
    ),
    Mutant(
        "cli-levi-accepts-dot-export",
        "cli.py",
        '    if colors is not None and args.export == "dot":\n',
        "    if False:\n",
        ("tests/test_cli.py::test_vertex_and_levi_are_refused_before_generation",),
    ),
    Mutant(
        "sweep-identity-twist",
        "crystal.py",
        "    columns = [(f_to[i], e_to[j]) for i, j in pairs]  # (f_i, e_theta(i))\n",
        "    columns = [(f_to[i], e_to[i]) for i, j in pairs]  # (f_i, e_theta(i))\n",
        (
            "tests/test_tableaux.py::test_xi_perm_matches_evacuation",
            "tests/test_cactus.py::test_xi_of_every_connected_set_matches_the_tensor_reversal",
        ),
    ),
    Mutant(
        "reduced-keeps-the-time-gcd",
        "paths.py",
        "    if den > 1 and (g := gcd(den, *times)) > 1:\n",
        "    if False:\n",
        (
            "tests/test_paths.py::test_unreduced_paths_match_the_breakpoint_kernels",
            "tests/test_paths.py::test_json_roundtrip",
        ),
    ),
    Mutant(
        "integrality-scan-keeps-the-falling-flag",
        "paths.py",
        "                    falling = False\n",
        "",
        ("tests/test_paths.py::test_integral_weight_matches_the_oracles_on_random_paths",),
    ),
    Mutant(
        "scan-phi-one-step-short-in-color-one",
        "paths.py",
        "        phi.append((h - low) // scale)\n",
        "        phi.append((h - low) // scale - (x == 0 and h > low))\n",
        ("tests/test_acceptance.py::test_criterion_01_size_oracle_agreement",),
    ),
    Mutant(
        "membership-walk-raises-by-the-last-color",
        "folding.py",
        "next((i for i, eps in zip(y.nodes, scan[1]) if eps), None)",
        "next((i for i, eps in reversed([*zip(y.nodes, scan[1])]) if eps), None)",
        ("tests/test_folding.py::test_membership_walk_matches_the_endpoint_budget_oracle",),
    ),
    Mutant(
        "string-scaling-swaps-epsilon-and-phi",
        "folding.py",
        "    for b, ((eps_q, phi_q), lows) in accepted.items():\n",
        "    for b, ((phi_q, eps_q), lows) in accepted.items():\n",
        ("tests/test_folding.py::test_virtualization_matches_full_target_oracle",),
    ),
    Mutant(
        "explorer-walk-defaults-to-member",
        "folding.py",
        "        known.update(dict.fromkeys(walk, known.get(p, False)))\n",
        "        known.update(dict.fromkeys(walk, known.get(p, True)))\n",
        (
            "tests/test_folding.py::test_membership_walk_is_bounded",
            "tests/test_folding.py::test_membership_walk_matches_the_ls_criterion",
        ),
    ),
    Mutant(
        "explorer-walk-raises-by-root-f",
        "folding.py",
        "            p = None if i is None else root_e(p, i)\n",
        "            p = None if i is None else root_f(p, i)\n",
        (
            "tests/test_folding.py::test_membership_walk_matches_the_ls_criterion",
            "tests/test_folding.py::test_membership_walk_matches_the_endpoint_budget_oracle",
        ),
    ),
    Mutant(
        "virtual-raising-reads-f",
        "folding.py",
        "    return _virtual_op(root_e, fold, path, i)\n",
        "    return _virtual_op(root_f, fold, path, i)\n",
        (
            "tests/test_folding.py::test_virtualization_verifier_passes",
            "tests/test_folding.py::test_virtual_operator_order_independent_on_image",
        ),
    ),
    Mutant(
        "virtual-operators-take-a-path-of-another-type",
        "folding.py",
        "    if path.rtype != fold.y_type:\n"
        "        raise ConfigurationError(f\"path lives in {path.rtype}, not {fold.y_type}\")\n"
        "    _check_node(fold.x_type, i)\n",
        "    _check_node(fold.x_type, i)\n",
        ("tests/test_paths.py::test_virtual_operators_refuse_a_path_of_another_type",),
    ),
    Mutant(
        "explorer-admits-past-the-cap",
        "folding.py",
        "            self._hold(0)\n",
        "",
        ("tests/test_folding.py::test_an_admitted_image_counts_against_the_cap",),
    ),
    Mutant(
        "verifier-admits-off-the-raising-edges",
        "folding.py",
        "(moved := gx.f_to[i][b])",
        "(moved := gx.e_to[i][b])",
        ("tests/test_folding.py::test_a_passing_model_is_admitted_without_a_walk",),
    ),
    Mutant(
        "verifier-lowers-again-for-the-f-check",
        "folding.py",
        '("f", gx.f_to, low)',
        '("f", gx.f_to, virtual_f(fold, qb, i))',
        (
            "tests/test_folding.py::test_virtualization_asks_each_target_fact_once",
            "tests/test_folding.py::test_the_verifier_moves_images_through_the_virtual_operators_alone",
        ),
    ),
    Mutant(
        "verifier-admits-every-lowering-of-a-member",
        "folding.py",
        "            if (moved := gx.f_to[i][b]) is not None and virtual[moved] == low:\n"
        "                explorer.admit(virtual[moved])\n",
        "            if low is not None:\n                explorer.admit(low)\n",
        ("tests/test_folding.py::test_the_explorer_holds_only_the_paths_the_cap_counts",),
    ),
    Mutant(
        "verifier-visits-the-images-in-reverse",
        "folding.py",
        "    for b, qb in enumerate(virtual):\n",
        "    for b, qb in reversed([*enumerate(virtual)]):\n",
        (
            "tests/test_folding.py::test_a_passing_model_is_admitted_without_a_walk",
            "tests/test_folding.py::test_virtualization_matches_full_target_oracle_on_broken_models",
        ),
    ),
    Mutant(
        "psi-gathers-the-gamma-of-the-wrong-node",
        "folding.py",
        "tuple([d[k] * g for k, g in fold._gather]) for d in path.dirs",
        "tuple([d[k] * fold.gamma(len(d) - k) for k, g in fold._gather]) for d in path.dirs",
        ("tests/test_folding.py::test_psi_and_its_left_inverse_match_the_matrix_and_set_oracles",),
    ),
    Mutant(
        "left-inverse-skips-an-orbit-coordinate",
        "folding.py",
        "tuple(j - 1 for j in sorted(s)[1:])",
        "tuple(j - 1 for j in sorted(s)[2:])",
        ("tests/test_folding.py::test_psi_and_its_left_inverse_match_the_matrix_and_set_oracles",),
    ),
    Mutant(
        "explorer-keeps-a-bound-method",
        "folding.py",
        "        return first[1:] if known.get(q) else None\n",
        "        self.last = self.member\n        return first[1:] if known.get(q) else None\n",
        ("tests/test_folding.py::test_the_explorer_is_freed_without_the_cyclic_collector",),
    ),
    Mutant(
        "explorer-strings-of-the-last-scan",
        "folding.py",
        "        return first[1:] if known.get(q) else None\n",
        "        return scan[1:] if known.get(q) else None\n",
        ("tests/test_folding.py::test_virtualization_matches_full_target_oracle_on_broken_models",),
    ),
    Mutant(
        "explorer-strings-rescan",
        "folding.py",
        "        return first[1:] if known.get(q) else None\n",
        "        return _scan(q)[1:] if known.get(q) else None\n",
        ("tests/test_folding.py::test_virtualization_asks_each_target_fact_once",),
    ),
    Mutant(
        "path-record-accepts-a-denominator-below-one",
        "paths.py",
        "        if type(den) is not int or den < 1:\n",
        "        if type(den) is not int:\n",
        ("tests/test_paths.py::test_a_malformed_record_is_refused_when_it_is_built",),
    ),
    Mutant(
        "path-record-accepts-any-direction-count",
        "paths.py",
        "        if len(dirs) != len(times) - 1:\n",
        "        if False:\n",
        ("tests/test_paths.py::test_a_malformed_record_is_refused_when_it_is_built",),
    ),
    Mutant(
        "path-record-replace-skips-the-guards",
        "paths.py",
        "    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: guarded\n",
        "",
        ("tests/test_paths.py::test_records_keep_their_repr_immutability_pickling_and_order",),
    ),
    Mutant(
        "dynkin-type-accepts-a-rank-that-is-not-an-int",
        "cartan.py",
        "or type(rank) is not int or",
        "or",
        ("tests/test_cartan.py::test_a_rank_that_is_not_an_int_is_refused",),
    ),
    Mutant(
        "verifier-sweeps-with-the-pairs-of-the-whole-diagram",
        "cactus.py",
        "_levi_sweep(graph, _theta_pairs(t, s))[0]",
        "_levi_sweep(graph, _theta_pairs(t, frozenset(t.nodes)))[0]",
        (
            "tests/test_cactus.py::test_the_verifier_sweeps_each_subdiagram_from_its_cached_pairs",
            "tests/test_cactus.py::test_relations_match_the_loop_oracle_over_the_bfs_involutions",
        ),
    ),
    Mutant(
        "sweep-consistency-check-dropped",
        "crystal.py",
        "                if mirrored is None or seen is not None and seen != mirrored:\n",
        "                if mirrored is None:\n",
        ("tests/test_cactus.py::test_xi_errors_match_bfs_oracle_on_inconsistent_raising_edges",),
    ),
    Mutant(
        "sweep-walks-the-highest-vertices-in-reverse",
        "crystal.py",
        "    for v in steps:\n",
        "    for v in reversed(steps):\n",
        (
            "tests/test_cactus.py::test_xi_perm_matches_bfs_oracle",
            "tests/test_cactus.py::test_generated_crystals_never_reach_the_walk",
            "tests/test_cactus.py::test_levi_sweep_matches_the_replaced_sweep_on_every_node_set",
        ),
    ),
    Mutant(
        "relation-plan-reverses-the-nested-triples",
        "cactus.py",
        "tuple((a, b, theta_image(t, a, b)) for a, b in pairs if b < a)",
        "tuple(reversed([(a, b, theta_image(t, a, b)) for a, b in pairs if b < a]))",
        ("tests/test_cactus.py::test_relation_violations_match_loop_oracle",),
    ),
    Mutant(
        "square-taken-across-adjacent-colors",
        "crystal.py",
        " for k in t.nodes if k != i and k not in adj[i]]",
        " for k in t.nodes if k != i]",
        (
            "tests/test_crystal.py::test_lowering_closure_matches_both_operator_closure",
            "tests/test_crystal.py::test_generate_matches_fraction_kernel_closure",
            "tests/test_crystal.py::test_generate_calls_root_f_once_per_f_edge",
        ),
    ),
    Mutant(
        "square-lowers-its-corner-in-color-i",
        "crystal.py",
        "                    if (w := f_k[u]) is not None:\n",
        "                    if (w := f_i[u]) is not None:\n",
        (
            "tests/test_crystal.py::test_lowering_closure_matches_both_operator_closure",
            "tests/test_crystal.py::test_generate_matches_fraction_kernel_closure",
            "tests/test_crystal.py::test_generate_calls_root_f_once_per_f_edge",
        ),
    ),
    Mutant(
        "string-lengths-count-a-cycle-as-an-end",
        "crystal.py",
        "        base = -1 if cur is None else lengths[cur]\n",
        "        base = -1 if cur is None else lengths[cur] or 0\n",
        (
            "tests/test_crystal.py::test_seminormal_flags_strings_that_run_into_a_cycle",
            "tests/test_crystal.py::test_string_lengths_match_the_walk_from_each_vertex",
        ),
    ),
    Mutant(
        "reduced-keeps-equal-directions",
        "paths.py",
        "        if dirs[k] == dirs[k - 1]:\n",
        "        if False:\n",
        (
            "tests/test_paths.py::test_canonicalize_merges_collinear",
            "tests/test_properties.py::test_canonicalize_is_idempotent",
        ),
    ),
)


def _failed_ids(output: str) -> set:
    """The node ids of the FAILED lines of pytest's short summary: each up to
    the " - " before the message, or to the end of the line, as a
    parametrized id may hold spaces."""
    return set(re.findall(r"^FAILED (.+?)(?: - .*)?$", output, re.MULTILINE))


def _caught(test_id: str, failed: set) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def run_mutant(mutant: Mutant) -> tuple:
    """(caught, the named tests that did not fail or the reason) for one mutant,
    run in a temporary copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            source, copy = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy)
        module = Path(tmp) / "src" / "pathcrystals" / mutant.file
        text = module.read_text()
        if text.count(mutant.snippet) != 1:
            return False, "snippet does not occur exactly once"
        module.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(
                argv + list(mutant.tests),
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False, f"no verdict within {TIMEOUT_S} s"
    failed = _failed_ids(done.stdout)
    missed = [t for t in mutant.tests if not _caught(t, failed)]
    return not missed, ", ".join(missed) or f"{len(failed)} failed"


def main() -> int:
    missed = 0
    for mutant in MUTANTS:
        caught, detail = run_mutant(mutant)
        missed += not caught
        verdict = "caught" if caught else "MISSED"
        print(f"{verdict:6}  {mutant.file}: {mutant.name} ({detail})", flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
