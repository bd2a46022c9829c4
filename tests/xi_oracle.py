"""Word-based partial involution, kept as a test oracle for xi_perm.

A vertex b is written as a lowering word applied to the highest vertex of its
Levi component (LeviView.f_word, with BFS parent chains in ascending or
descending color order); its image is the twisted raising word applied to the
lowest vertex of that component.  This is quadratic in the component size.
"""

from pathcrystals.cartan import theta
from pathcrystals.crystal import levi


def _apply_raising_word(graph, start, word, twist):
    cur = start
    for color in word:
        cur = graph.e(cur, twist[color])
        assert cur is not None, "raising word left the component"
    return cur


def xi_perm_by_words(graph, colors, descending=False) -> tuple:
    colors = frozenset(colors)
    view = levi(graph, colors)
    twist = theta(graph.rtype, colors)
    out = [None] * len(graph)
    for comp in view.components:
        lowest = view.lowest_of(comp)
        for b in comp:
            word = view.f_word(comp, b, descending)
            out[b] = _apply_raising_word(graph, lowest, word, twist)
    return tuple(out)
