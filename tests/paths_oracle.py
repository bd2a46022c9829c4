"""Root operators with a rewrite loop each, kept as a test oracle for
root_f and root_e.

Each operator has its own window search, its own level-crossing formula and
its own rewrite loop: root_f subtracts (H - m) * alpha_i on the window and
alpha_i on the tail, root_e subtracts (H - (m + 1)) * alpha_i on the window
and adds alpha_i on the tail.  _with_time returns a breakpoint tuple and keeps
scanning after it has inserted the new time.
"""

from pathcrystals.cartan import simple_root
from pathcrystals.errors import ModelIntegrityError
from pathcrystals.paths import (
    PLPath,
    _guard_integer,
    _h_values,
    _scale,
    _sub,
    _vec,
    canonicalize,
)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _with_time(path: PLPath, tnew):
    """Breakpoint list with an extra breakpoint at tnew (interpolated)."""
    bps = path.breakpoints
    out = []
    inserted = False
    for k, (t, p) in enumerate(bps):
        if t == tnew:
            return bps
        if t > tnew and not inserted:
            t0, p0 = bps[k - 1]
            frac = (tnew - t0) / (t - t0)
            point = tuple(a + frac * (b - a) for a, b in zip(p0, p))
            out.append((tnew, point))
            inserted = True
        out.append((t, p))
    return tuple(out)


def root_f(path: PLPath, i: int) -> PLPath | None:
    """Lowering operator for color i; returns None when undefined.

    With m the minimum of the coordinate function H of color i, the operator
    is defined iff H(1) - m >= 1.  It keeps the path up to the last time H
    attains m, reflects the stretch up to the first later time H reaches
    m + 1, and translates the tail by -alpha_i.
    """
    h = _h_values(path, i)
    m = min(h)
    _guard_integer(m, f"minimum of H_{i}")
    if h[-1] - m < 1:
        return None
    times = [t for t, _ in path.breakpoints]
    ka = max(k for k, v in enumerate(h) if v == m)
    t_a = times[ka]
    t_b = None
    for k in range(ka, len(h) - 1):
        if h[k + 1] >= m + 1:
            if h[k + 1] == m + 1:
                t_b = times[k + 1]
            else:
                t_b = times[k] + (m + 1 - h[k]) * (times[k + 1] - times[k]) / (h[k + 1] - h[k])
            break
    if t_b is None:
        raise ModelIntegrityError("level m+1 not reached despite H(1) - m >= 1")
    alpha = _vec(simple_root(path.rtype, i))
    out = []
    for t, p in _with_time(path, t_b):
        if t <= t_a:
            q = p
        elif t <= t_b:
            q = _sub(p, _scale(p[i - 1] - m, alpha))
        else:
            q = _sub(p, alpha)
        out.append((t, q))
    return canonicalize(PLPath(path.rtype, tuple(out)))


def root_e(path: PLPath, i: int) -> PLPath | None:
    """Raising operator for color i; returns None when undefined.

    Mirror of root_f: defined iff the minimum m of the coordinate function is
    at most -1; reflects between the last time H equals m + 1 before its
    first minimum and that minimum, then translates the tail by +alpha_i.
    """
    h = _h_values(path, i)
    m = min(h)
    _guard_integer(m, f"minimum of H_{i}")
    if m > -1:
        return None
    times = [t for t, _ in path.breakpoints]
    kb = min(k for k, v in enumerate(h) if v == m)
    t_b = times[kb]
    t_a = None
    for k in range(kb - 1, -1, -1):
        if h[k] == m + 1:
            t_a = times[k]
            break
        if h[k] > m + 1:
            t_a = times[k] + (h[k] - (m + 1)) * (times[k + 1] - times[k]) / (h[k] - h[k + 1])
            break
    if t_a is None:
        raise ModelIntegrityError("level m+1 not found before the minimum")
    alpha = _vec(simple_root(path.rtype, i))
    out = []
    for t, p in _with_time(path, t_a):
        if t <= t_a:
            q = p
        elif t <= t_b:
            q = _sub(p, _scale(p[i - 1] - (m + 1), alpha))
        else:
            q = _add(p, alpha)
        out.append((t, q))
    return canonicalize(PLPath(path.rtype, tuple(out)))
