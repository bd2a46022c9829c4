"""Test-only oracle: the crystal exports as the object-plus-json.dumps code
they replaced.

export_json builds the whole export object and hands it to
json.dumps(obj, indent=2); export_dot loops over the sorted f_edges map.
Paths are read through crystal.path_to_json, so a test that patches that
name drives this oracle and the package export alike.
"""

import json

from pathcrystals import crystal


def export_json(graph) -> str:
    obj = {
        "type": str(graph.rtype),
        "highest_weight": list(graph.highest_weight),
        "vertices": [
            {
                "id": v,
                "weight": list(graph.weights[v]),
                "path": crystal.path_to_json(graph.vertices[v]),
            }
            for v in range(len(graph))
        ],
        "edges": [
            {"from": v, "to": w, "color": i}
            for (v, i), w in sorted(graph.f_edges.items())
        ],
    }
    return json.dumps(obj, indent=2)


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
