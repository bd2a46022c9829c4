"""Test-only oracles: the crystal exports as the code they replaced.

export_json builds the whole export object and hands it to
json.dumps(obj, indent=2); export_dot loops over the sorted f_edges map.
Both read paths through paths.path_to_json at call time, so a test that
patches that name drives these oracles.

export_json_by_path is the template renderer that read every vertex
through path_to_json and rendered each of its breakpoints afresh, where
the package's export_json renders each distinct breakpoint once a call.
"""

import functools
import json

from pathcrystals import crystal, paths
from pathcrystals.crystal import _BREAKPOINT, _EDGE, _NL, _PAIR, _VERTEX, _edges


def export_json(graph) -> str:
    obj = {
        "type": str(graph.rtype),
        "highest_weight": list(graph.highest_weight),
        "vertices": [
            {
                "id": v,
                "weight": list(graph.weights[v]),
                "path": paths.path_to_json(graph.vertices[v]),
            }
            for v in range(len(graph))
        ],
        "edges": [
            {"from": v, "to": w, "color": i}
            for (v, i), w in sorted(graph.f_edges.items())
        ],
    }
    return json.dumps(obj, indent=2)


def export_json_by_path(graph) -> str:
    weights, vertices = graph.weights, graph.vertices
    weight_sep, breakpoint_sep, pair_sep = "," + _NL[4], "," + _NL[5], "," + _NL[7]
    pair = functools.cache(lambda num, den: _PAIR % (num, den))  # pairs repeat

    def vertex(v):
        breakpoints = [
            _BREAKPOINT % (tn, td, pair_sep.join([pair(cn, cd) for cn, cd in coords]))
            for tn, td, coords in paths.path_to_json(vertices[v])["breakpoints"]
        ]
        weight = weight_sep.join(map(str, weights[v]))
        return _VERTEX % (v, weight, breakpoint_sep.join(breakpoints))

    parts = ['{\n  "type": ', json.dumps(str(graph.rtype))]
    for key, items in (
        ("highest_weight", map(str, graph.highest_weight)),
        ("vertices", map(vertex, range(len(graph)))),
        ("edges", (_EDGE % (v, w, i) for v, i, w in _edges(graph.f_to, len(graph)))),
    ):
        parts.append(f',\n  "{key}": [')
        start = len(parts)
        for item in items:
            parts += (_NL[2], item, ",")
        if len(parts) > start:
            parts[-1] = _NL[1]  # in place of the last item's comma
        parts.append("]")
    parts.append("\n}")
    return "".join(parts)


def export_dot(graph) -> str:
    palette = crystal._DOT_PALETTE
    lines = ["digraph crystal {"]
    for v in range(len(graph)):
        label = f"{v}: ({','.join(str(x) for x in graph.weights[v])})"
        lines.append(f'  n{v} [label="{label}"];')
    for (v, i), w in sorted(graph.f_edges.items()):
        color = palette[(i - 1) % len(palette)]
        lines.append(f'  n{v} -> n{w} [label="{i}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
