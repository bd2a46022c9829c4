"""Piecewise-linear paths with exact rational breakpoints and root operators.

A path is a map [0,1] -> weight space, linear between breakpoints, starting
at the origin.  Coordinates are fundamental-weight coordinates, so the i-th
coordinate function of a path is the pairing of the moving point against
alpha_i^vee.  Everything is computed with Fraction; no floating point enters
anywhere.  The lowering and raising operators use the non-recursive
three-piece formulas: each finds its window of the coordinate function, and
one reflection rewrite keeps the path before the window, reflects it on the
window and translates the tail.  They agree with the classical path
operators on models whose coordinate functions have integral local minima;
generation asserts that property for every path it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import DynkinType, simple_root
from .errors import DomainError, ModelIntegrityError

RatVec = tuple  # of Fraction


def _vec(xs) -> RatVec:
    return tuple(Fraction(x) for x in xs)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _scale(c, v):
    return tuple(c * a for a in v)


@dataclass(frozen=True)
class PLPath:
    """Piecewise-linear path given by its breakpoint sequence."""

    rtype: DynkinType
    breakpoints: tuple

    def value(self, time) -> RatVec:
        """Exact evaluation at a rational time in [0, 1]."""
        time = Fraction(time)
        if not 0 <= time <= 1:
            raise DomainError(f"time {time} outside [0, 1]")
        bps = self.breakpoints
        for k in range(len(bps) - 1):
            t0, p0 = bps[k]
            t1, p1 = bps[k + 1]
            if t0 <= time <= t1:
                if time == t0:
                    return p0
                if time == t1:
                    return p1
                frac = (time - t0) / (t1 - t0)
                return tuple(a + frac * (b - a) for a, b in zip(p0, p1))
        raise ModelIntegrityError("breakpoint times do not cover [0, 1]")


def canonicalize(path: PLPath) -> PLPath:
    """Minimal breakpoint representation: drops interior breakpoints where the
    velocity does not change.  Two paths are pointwise equal iff their
    canonical breakpoint sequences coincide."""
    bps = path.breakpoints
    if len(bps) < 2:
        raise DomainError("a path needs at least two breakpoints")
    times = [t for t, _ in bps]
    if times[0] != 0 or times[-1] != 1:
        raise DomainError("path must be parametrized over [0, 1]")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise DomainError("breakpoint times must be strictly increasing")
    rank = path.rtype.rank
    if any(len(p) != rank for _, p in bps):
        raise DomainError("breakpoint coordinates must have length rank")
    if any(x != 0 for x in bps[0][1]):
        raise DomainError("path must start at the origin")
    velocities = []
    for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
        dt = t1 - t0
        velocities.append(tuple((b - a) / dt for a, b in zip(p0, p1)))
    kept = [bps[0]]
    for k in range(1, len(bps) - 1):
        if velocities[k] != velocities[k - 1]:
            kept.append(bps[k])
    kept.append(bps[-1])
    return PLPath(path.rtype, tuple(kept))


def paths_equal(a: PLPath, b: PLPath) -> bool:
    """Pointwise equality, decided on canonical forms."""
    if a.rtype != b.rtype:
        return False
    return canonicalize(a).breakpoints == canonicalize(b).breakpoints


def straight_path(t: DynkinType, lam) -> PLPath:
    """The straight path s -> s*lam for a dominant weight lam."""
    lam = tuple(lam)
    if len(lam) != t.rank:
        raise DomainError(f"weight must have length {t.rank}")
    if any(x < 0 for x in lam):
        raise DomainError("straight_path needs a dominant weight")
    zero = _vec([0] * t.rank)
    return PLPath(t, ((Fraction(0), zero), (Fraction(1), _vec(lam))))


def weight(path: PLPath) -> RatVec:
    """Endpoint of the path (its weight)."""
    return path.breakpoints[-1][1]


def weight_int(path: PLPath) -> tuple:
    """Endpoint as an integer vector; raises if it is not integral."""
    w = weight(path)
    if any(c.denominator != 1 for c in w):
        raise ModelIntegrityError("non-integral path weight")
    return tuple(int(c) for c in w)


def h_function(path: PLPath, i: int) -> tuple:
    """The coordinate function of color i as (time, value) breakpoint pairs."""
    if i not in path.rtype.nodes:
        raise DomainError(f"node {i} not in {path.rtype}")
    return tuple((t, p[i - 1]) for t, p in path.breakpoints)


def _h_values(path, i):
    return [p[i - 1] for _, p in path.breakpoints]


def _guard_integer(x, what):
    if x.denominator != 1:
        raise ModelIntegrityError(f"{what} is not an integer: {x}")
    return int(x)


def epsilon(path: PLPath, i: int) -> int:
    """Number of defined raising steps in color i (closed form: minus the
    minimum of the coordinate function)."""
    m = min(_h_values(path, i))
    return -_guard_integer(m, f"minimum of H_{i}")


def phi(path: PLPath, i: int) -> int:
    """Number of defined lowering steps in color i (closed form: endpoint
    value minus the minimum)."""
    h = _h_values(path, i)
    m = min(h)
    _guard_integer(m, f"minimum of H_{i}")
    return _guard_integer(h[-1] - m, f"endpoint of H_{i} minus its minimum")


def is_integral(path: PLPath) -> bool:
    """Whether every local minimum of every coordinate function is an integer
    and the endpoint is an integral weight.  Generated models must satisfy
    this; the operators are only the classical ones on such paths."""
    for i in path.rtype.nodes:
        h = _h_values(path, i)
        compressed = [h[0]]
        for v in h[1:]:
            if v != compressed[-1]:
                compressed.append(v)
        if compressed[-1].denominator != 1:
            return False
        for k in range(1, len(compressed) - 1):
            if compressed[k] < compressed[k - 1] and compressed[k] < compressed[k + 1]:
                if compressed[k].denominator != 1:
                    return False
    return True


def _with_time(path: PLPath, tnew) -> PLPath:
    """The same path with a breakpoint at tnew, interpolated if it has none."""
    bps = path.breakpoints
    for k, (t, p) in enumerate(bps):
        if t == tnew:
            return path
        if t > tnew:
            t0, p0 = bps[k - 1]
            frac = (tnew - t0) / (t - t0)
            point = tuple(a + frac * (b - a) for a, b in zip(p0, p))
            return PLPath(path.rtype, bps[:k] + ((tnew, point),) + bps[k:])


def _crossing(times, h, k, level):
    """Time in [times[k], times[k + 1]] at which h, linear there, equals level."""
    if h[k] == level:
        return times[k]
    if h[k + 1] == level:
        return times[k + 1]
    return times[k] + (level - h[k]) * (times[k + 1] - times[k]) / (h[k + 1] - h[k])


def _reflect(path: PLPath, i: int, t_a, t_b) -> PLPath:
    """Keep the path up to t_a, map p to p - (H(p) - H(t_a)) * alpha_i on
    (t_a, t_b], and translate the tail by the shift reached at t_b.  The path
    must have breakpoints at t_a and t_b."""
    alpha = _vec(simple_root(path.rtype, i))
    out = []
    for t, p in path.breakpoints:
        if t <= t_a:
            h_a = p[i - 1]
        elif t <= t_b:
            shift = _scale(p[i - 1] - h_a, alpha)
            p = _sub(p, shift)
        else:
            p = _sub(p, shift)
        out.append((t, p))
    return canonicalize(PLPath(path.rtype, tuple(out)))


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
    level, k = m + 1, ka
    while h[k + 1] < level:  # stops by the end, as H(1) >= m + 1
        k += 1
    t_b = _crossing(times, h, k, level)
    return _reflect(_with_time(path, t_b), i, times[ka], t_b)


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
    level = m + 1
    for k in range(kb - 1, -1, -1):
        if h[k] >= level:
            t_a = _crossing(times, h, k, level)
            break
    else:
        raise ModelIntegrityError("level m+1 not found before the minimum")
    return _reflect(_with_time(path, t_a), i, t_a, times[kb])


def path_to_json(path: PLPath) -> dict:
    """JSON form: {"breakpoints": [[t_num, t_den, [[c_num, c_den], ...]], ...]}."""
    return {
        "breakpoints": [
            [t.numerator, t.denominator, [[c.numerator, c.denominator] for c in p]]
            for t, p in path.breakpoints
        ]
    }


def path_from_json(t: DynkinType, data) -> PLPath:
    """Inverse of path_to_json; validates and canonicalizes."""
    try:
        bps = tuple(
            (Fraction(tn, td), tuple(Fraction(cn, cd) for cn, cd in coords))
            for tn, td, coords in data["breakpoints"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed path JSON: {exc}") from exc
    return canonicalize(PLPath(t, bps))
