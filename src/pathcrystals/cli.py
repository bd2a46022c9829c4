"""Command-line front end: generation, verification, and export.

Exit codes: 0 all checks pass, 1 verification or model-integrity failure,
2 usage, parse, or configuration error.  Nothing is randomized and all
arithmetic is exact, so every export is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import cache

from .cactus import verify_cactus_relations, xi_perm
from .cartan import (
    DynkinType,
    all_nodes,
    cartan_matrix,
    connected_subdiagrams,
    positive_roots,
    theta,
    weyl_dim,
)
from .crystal import (
    DEFAULT_MAX_SIZE, _check_vertex, export_dot, export_json, generate, levi, verify_seminormal
)
from .errors import (
    ConfigurationError,
    DomainError,
    ModelIntegrityError,
    NotInImageError,
)
from .folding import (
    _embedding,
    fold_info,
    folding_pair,
    verify_commutative_diagram,
    verify_component_identity,
    verify_virtual_relations,
    verify_virtualization,
)

DEFAULT_MAX_RANK = 4

VERIFY_KINDS = (
    "seminormal",
    "cactus",
    "virtual-relations",
    "virtualization",
    "diagram",
    "component-identity",
)


def _parse_ints(text: str, what: str) -> list:
    # ASCII digits only: int() also takes "1_0", "+1", " 1" and non-ASCII digits
    if re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        try:
            return [int(x) for x in text.split(",")]
        except ValueError:  # past the int-from-str digit limit
            pass
    raise ConfigurationError(f"cannot parse {what} {text!r}")


def _parse_int(text: str, what: str) -> int:
    parts = _parse_ints(text, what)
    if len(parts) != 1:
        raise ConfigurationError(f"cannot parse {what} {text!r}")
    return parts[0]


def _parse_weight(t: DynkinType, text: str) -> tuple:
    parts = _parse_ints(text, "weight")
    if len(parts) != t.rank:
        raise ConfigurationError(
            f"weight {text!r} must have {t.rank} comma-separated entries"
        )
    if any(x < 0 for x in parts):
        raise ConfigurationError("weight entries must be nonnegative")
    return tuple(parts)


def _parse_nodes(t: DynkinType, text: str) -> frozenset:
    nodes = frozenset(_parse_ints(text, "node set"))
    if not nodes <= all_nodes(t):
        raise ConfigurationError(f"node set {text!r} not contained in {t}")
    return nodes


def _folding_pair(text: str):
    """folding_pair of the type, refused above rank DEFAULT_MAX_RANK."""
    t = DynkinType.parse(text)
    if t.rank > DEFAULT_MAX_RANK:
        raise ConfigurationError(f"rank {t.rank} above the cap {DEFAULT_MAX_RANK}")
    return folding_pair(t)


def _emit(text: str, out=None) -> None:
    end = "" if text.endswith("\n") else "\n"  # print writes it apart: no copy of text
    if out:
        try:
            with open(out, "w") as handle:
                print(text, end=end, file=handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text, end=end)


def cmd_info(args) -> int:
    t = DynkinType.parse(args.type)
    full = all_nodes(t)
    data = {
        "type": str(t),
        "rank": t.rank,
        "cartan_matrix": [list(row) for row in cartan_matrix(t)],
        "positive_roots": len(positive_roots(t, full)),
        "theta": {str(i): j for i, j in sorted(theta(t, full).items())},
        "connected_subdiagrams": len(connected_subdiagrams(t)),
    }
    if args.json:
        _emit(json.dumps(data, indent=2))
    else:
        lines = [f"type: {data['type']}", f"rank: {data['rank']}", "cartan matrix:"]
        for row in data["cartan_matrix"]:
            lines.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
        lines.append(f"positive roots: {data['positive_roots']}")
        lines.append(
            "theta: " + " ".join(f"{i}->{j}" for i, j in data["theta"].items())
        )
        lines.append(f"connected subdiagrams: {data['connected_subdiagrams']}")
        _emit("\n".join(lines))
    return 0


def cmd_crystal(args) -> int:
    t = DynkinType.parse(args.type)
    lam = _parse_weight(t, args.weight)
    max_size = _parse_int(args.max_size, "max size")
    colors = None if args.levi is None else _parse_nodes(t, args.levi) if args.levi else frozenset()
    if colors is not None and args.export == "dot":
        raise ConfigurationError("--export dot does not apply to --levi, which prints JSON")
    graph = generate(t, lam, max_size=max_size)
    if colors is not None:
        view = levi(graph, colors)
        comps = [
            {
                "vertices": list(comp),
                "highest": view.highest_of(comp),
                "lowest": view.lowest_of(comp),
            }
            for comp in view.components
        ]
        data = {
            "type": str(t),
            "highest_weight": list(lam),
            "levi": sorted(colors),
            "components": comps,
        }
        _emit(json.dumps(data, indent=2), args.out)
        return 0
    if args.export == "dot":
        _emit(export_dot(graph), args.out)
    else:
        _emit(export_json(graph), args.out)
    return 0


def cmd_xi(args) -> int:
    t = DynkinType.parse(args.type)
    lam = _parse_weight(t, args.weight)
    colors = _parse_nodes(t, args.nodes)
    vertex = None if args.vertex is None else _parse_int(args.vertex, "vertex")
    max_size = _parse_int(args.max_size, "max size")
    if vertex is not None:  # the vertex count is the Weyl dimension
        _check_vertex(weyl_dim(t, lam), vertex)
    graph = generate(t, lam, max_size=max_size)
    perm = xi_perm(graph, colors)
    data = {
        "type": str(t),
        "highest_weight": list(lam),
        "nodes": sorted(colors),
        "involution": list(perm),
    }
    if vertex is not None:
        data.update(vertex=vertex, image=perm[vertex])
    _emit(json.dumps(data, indent=2))
    return 0


def cmd_fold_info(args) -> int:
    fold = _folding_pair(args.type)
    _emit(json.dumps(fold_info(fold), indent=2))
    return 0


def cmd_virtualize(args) -> int:
    fold = _folding_pair(args.type)
    lam = _parse_weight(fold.x_type, args.weight)
    max_size = _parse_int(args.max_size, "max size")
    gx, gy, _, images, problems = _embedding(fold, lam, max_size)
    if problems:
        raise ModelIntegrityError(f"not an embedding: {json.dumps(problems[0])}")
    data = {
        "X": str(fold.x_type),
        "Y": str(fold.y_type),
        "highest_weight": list(lam),
        "embedded_weight": list(gy.highest_weight),
        "x_size": len(gx),
        "y_size": len(gy),
        "image": [{"x_id": b, "y_id": images[b]} for b in range(len(gx))],
    }
    _emit(json.dumps(data, indent=2))
    return 0


def _verify_violations(kind, type_text, weight_text, max_size):
    needs_weight = kind != "component-identity"
    if needs_weight and weight_text is None:
        raise ConfigurationError(f"verify {kind} needs TYPE and WEIGHT")
    if not needs_weight and weight_text is not None:
        raise ConfigurationError(f"verify {kind} takes no weight")
    if kind in ("seminormal", "cactus"):
        t = DynkinType.parse(type_text)
        lam = _parse_weight(t, weight_text)
        graph = generate(t, lam, max_size=max_size)
        if kind == "seminormal":
            return verify_seminormal(graph)
        return verify_cactus_relations(graph)
    fold = _folding_pair(type_text)
    if kind == "component-identity":
        return verify_component_identity(fold)
    lam = _parse_weight(fold.x_type, weight_text)
    if kind == "virtualization":
        return verify_virtualization(fold, lam, max_size=max_size)
    if kind == "virtual-relations":
        return verify_virtual_relations(fold, lam, max_size=max_size)
    return verify_commutative_diagram(fold, lam, max_size=max_size)


def cmd_verify(args) -> int:
    start = time.perf_counter()
    max_size = _parse_int(args.max_size, "max size")
    violations = _verify_violations(args.kind, args.type, args.weight, max_size)
    elapsed = time.perf_counter() - start
    report = {
        "status": "pass" if not violations else "fail",
        "violations": violations,
        "elapsed_s": round(elapsed, 6),
    }
    if args.json:
        _emit(json.dumps(report, indent=2))
    else:
        for record in violations:
            _emit("violation: " + json.dumps(record))
        _emit(
            f"{args.kind}: {report['status'].upper()} "
            f"({len(violations)} violations, {elapsed:.3f}s)"
        )
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcrystals",
        description="Exact path crystals, cactus actions, and folding virtualization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="Cartan data of a Dynkin type")
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("crystal", help="generate and export a crystal")
    p.add_argument("type")
    p.add_argument("weight")
    p.add_argument("--export", choices=("json", "dot"), default="json")
    p.add_argument("--levi", metavar="NODES")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--max-size", default=str(DEFAULT_MAX_SIZE))
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("xi", help="partial involution as a vertex permutation")
    p.add_argument("type")
    p.add_argument("weight")
    p.add_argument("nodes")
    p.add_argument("--vertex")
    p.add_argument("--max-size", default=str(DEFAULT_MAX_SIZE))
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("fold-info", help="folding data for a foldable type")
    p.add_argument("type")
    p.set_defaults(func=cmd_fold_info)

    p = sub.add_parser("virtualize", help="embed a model into its folding target")
    p.add_argument("type")
    p.add_argument("weight")
    p.add_argument("--max-size", default=str(DEFAULT_MAX_SIZE))
    p.set_defaults(func=cmd_virtualize)

    p = sub.add_parser("verify", help="run a verifier and report violations")
    p.add_argument("kind", choices=VERIFY_KINDS)
    p.add_argument("type")
    p.add_argument("weight", nargs="?")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-size", default=str(DEFAULT_MAX_SIZE))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cactus-verify", help="alias for: verify cactus")
    p.add_argument("type")
    p.add_argument("weight")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-size", default=str(DEFAULT_MAX_SIZE))
    p.set_defaults(func=cmd_verify, kind="cactus")

    return parser


_parser = cache(build_parser)


def main(argv=None) -> int:
    """Parse argv (sys.argv[1:] if None), run the command, return its exit code.

    The parser is built once per process.  The cmd_* functions it dispatches
    to are bound when it is built, so patching cli.cmd_* later does not reach
    main; the names they call (generate, verify_seminormal, ...) are still
    looked up at call time."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelIntegrityError, NotInImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
