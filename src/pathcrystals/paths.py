"""Piecewise-linear paths with integer breakpoints over one common
denominator, and root operators.

A path is a map [0,1] -> weight space, linear between breakpoints, starting
at the origin.  Coordinates are fundamental-weight coordinates, so the i-th
coordinate function of a path is the pairing of the moving point against
alpha_i^vee.  A path stores integer times and points over one positive
denominator den.  The package only produces reduced paths (den and all
entries have gcd 1, no breakpoint is redundant), so dataclass equality is
pointwise equality.  All arithmetic is exact and on integers.  The lowering
and raising operators use the non-recursive three-piece formulas: each finds
its window of the coordinate function, and one rewrite pass keeps the path
before the window, inserts the level crossing, reflects the window and
translates the tail; the result is reduced once.  They agree with the
classical path operators on models whose coordinate functions have integral
local minima; generation asserts that property for every path it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .cartan import DynkinType, _check_node, _columns
from .errors import DomainError, ModelIntegrityError


@dataclass(frozen=True, slots=True)
class PLPath:
    """Piecewise-linear path: breakpoint k is (times[k] / den, points[k] / den)
    with integer times and integer point tuples."""

    rtype: DynkinType
    den: int
    times: tuple
    points: tuple

    @classmethod
    def from_breakpoints(cls, rtype: DynkinType, breakpoints) -> PLPath:
        """Path from rational (time, point) pairs, keeping every breakpoint.
        Raises DomainError on times not rising strictly from 0 to 1 or a wrong rank."""
        bps = [(Fraction(t), tuple(Fraction(c) for c in p)) for t, p in breakpoints]
        den = lcm(*(x.denominator for x in chain.from_iterable((t, *p) for t, p in bps)))
        times = tuple(int(t * den) for t, _ in bps)
        path = cls(rtype, den, times, tuple(tuple(int(c * den) for c in p) for _, p in bps))
        _validate(path)
        return path

    @property
    def breakpoints(self) -> tuple:
        """Read-only rational view: ((time, point), ...) as Fractions."""
        return tuple(
            (Fraction(t, self.den), tuple(Fraction(c, self.den) for c in p))
            for t, p in zip(self.times, self.points)
        )


def _validate(path: PLPath) -> None:
    times = path.times
    if len(times) < 2:
        raise DomainError("a path needs at least two breakpoints")
    if times[0] != 0 or times[-1] != path.den:
        raise DomainError("path must be parametrized over [0, 1]")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise DomainError("breakpoint times must be strictly increasing")
    if any(len(p) != path.rtype.rank for p in path.points):
        raise DomainError("breakpoint coordinates must have length rank")


def _check_origin(path: PLPath) -> None:
    if any(path.points[0]):
        raise DomainError("path must start at the origin")


def _reduced(rtype, den, times, points) -> PLPath:
    """Drop breakpoints where the velocity does not change (compared by
    cross-multiplication), then divide den and all entries by their gcd; the
    points are read only if den and the times have a common factor."""
    kept = [0]
    for k in range(1, len(times) - 1):
        dt0, dt1 = times[k] - times[k - 1], times[k + 1] - times[k]
        for a, b, c in zip(points[k - 1], points[k], points[k + 1]):
            if (b - a) * dt1 != (c - b) * dt0:
                kept.append(k)
                break
    kept.append(len(times) - 1)
    if len(kept) < len(times):
        times = [times[k] for k in kept]
        points = [points[k] for k in kept]
    g = gcd(den, *times)
    if g > 1:
        g = gcd(g, *chain.from_iterable(points))
    if g > 1:
        den //= g
        times = [t // g for t in times]
        points = [tuple(c // g for c in p) for p in points]
    return PLPath(rtype, den, tuple(times), tuple(points))


def canonicalize(path: PLPath) -> PLPath:
    """Reduced representation: drops interior breakpoints where the velocity
    does not change and divides out the gcd of den and all entries.  Two
    paths are pointwise equal iff their canonical forms coincide."""
    _validate(path)
    _check_origin(path)
    return _reduced(path.rtype, path.den, path.times, path.points)


def paths_equal(a: PLPath, b: PLPath) -> bool:
    """Pointwise equality, decided on canonical forms."""
    return a.rtype == b.rtype and canonicalize(a) == canonicalize(b)


def straight_path(t: DynkinType, lam) -> PLPath:
    """The straight path s -> s*lam for a dominant weight lam."""
    lam = tuple(lam)
    if any(type(x) is not int for x in lam):
        raise DomainError(f"weight {lam} has an entry that is not an int")
    if len(lam) != t.rank:
        raise DomainError(f"weight must have length {t.rank}")
    if any(x < 0 for x in lam):
        raise DomainError("straight_path needs a dominant weight")
    return PLPath.from_breakpoints(t, ((0, (0,) * t.rank), (1, lam)))


def weight_int(path: PLPath) -> tuple:
    """Endpoint as an integer vector; raises if it is not integral."""
    den, end = path.den, path.points[-1]
    if any(c % den for c in end):
        raise ModelIntegrityError("non-integral path weight")
    return tuple(c // den for c in end)


def _guard_integer(x: int, den: int, what: str) -> int:
    if x % den:
        raise ModelIntegrityError(f"{what} is not an integer: {Fraction(x, den)}")
    return x // den


def epsilon(path: PLPath, i: int) -> int:
    """Number of defined raising steps in color i (closed form: minus the
    minimum of the coordinate function)."""
    _, m = _heights(path, i)
    return -m // path.den


def phi(path: PLPath, i: int) -> int:
    """Number of defined lowering steps in color i (closed form: endpoint
    value minus the minimum)."""
    h, m = _heights(path, i)
    return _guard_integer(h[-1] - m, path.den, f"endpoint of H_{i} minus its minimum")


def is_integral(path: PLPath) -> bool:
    """Whether every local minimum of every coordinate function is an integer
    and the endpoint is an integral weight.  Generated models must satisfy
    this; the operators are only the classical ones on such paths."""
    den, points = path.den, path.points
    for x in range(path.rtype.rank):
        low = mid = points[0][x]  # the last two distinct heights
        for p in points:
            if p[x] != mid:
                if low > mid < p[x] and mid % den:
                    return False
                low, mid = mid, p[x]
        if mid % den:
            return False
    return True


def _heights(path: PLPath, i: int):
    """H_i at every breakpoint and its minimum, after the input checks that the
    root operators and the string statistics share (messages built on failure)."""
    _check_node(path.rtype, i)
    _check_origin(path)
    h = [p[i - 1] for p in path.points]
    if (m := min(h)) % path.den:
        _guard_integer(m, path.den, f"minimum of H_{i}")
    return h, m


def _rewrite(path: PLPath, i: int, level: int, k: int, j: int) -> PLPath:
    """The operator's output in one pass, reduced once.  H crosses level on
    segment k; p -> p - (H(p) - ref) * alpha_i reflects the window from
    breakpoint j to the crossing if j <= k (root_f, ref = H(j)), else from the
    crossing to j (root_e, ref = level), and the tail moves by the shift at the
    window's end.  A crossing inside segment k becomes breakpoint k + 1, scaled
    by the least r that keeps it integral; if r = 1 the prefix is reused."""
    den, times, points = path.den, path.times, path.points
    x = i - 1
    alpha = _columns(path.rtype)[x]
    (t0, t1), (p0, p1) = times[k : k + 2], points[k : k + 2]
    h_j = points[j][x]
    ref, shift = (h_j, level - h_j) if j <= k else (level, h_j - level)
    rise, step = p1[x] - p0[x], level - p0[x]
    if step == 0 or step == rise:  # the crossing is breakpoint k or k + 1
        r, c, g = 1, k + (step == rise), 0
    else:
        if rise < 0:
            rise, step = -rise, -step
        g = gcd(rise, step * gcd(t1 - t0, *(v - u for u, v in zip(p0, p1))))
        r, c = rise // g, k
    a, b = (j, c) if j <= k else (c, j)
    kept = points[: a + 1]
    out = list(kept) if r == 1 else [tuple([v * r for v in p]) for p in kept]
    for p in points[a + 1 : b + 1]:
        d = (p[x] - ref) * r
        out.append(tuple([v * r - d * y for v, y in zip(p, alpha)]))
    moved = [shift * r * y for y in alpha]
    out.extend([tuple([v * r - s for v, s in zip(p, moved)]) for p in points[b + 1 :]])
    if g:
        d = (level - ref) * r
        crossing = [u * r + step * (v - u) // g - d * y for u, v, y in zip(p0, p1, alpha)]
        out.insert(k + 1, tuple(crossing))
        times = [t * r for t in times]
        times.insert(k + 1, t0 * r + step * (t1 - t0) // g)
    return _reduced(path.rtype, den * r, times, out)


def root_f(path: PLPath, i: int) -> PLPath | None:
    """Lowering operator for color i; returns None when undefined.

    With m the minimum of the coordinate function H of color i, the operator
    is defined iff H(1) - m >= 1.  It keeps the path up to the last time H
    attains m, reflects the stretch up to the first later time H reaches
    m + 1, and translates the tail by -alpha_i, all in one rewrite pass.
    """
    h, m = _heights(path, i)
    level = m + path.den
    if h[-1] < level:
        return None
    ka = len(h) - 1 - h[::-1].index(m)
    k = ka
    while h[k + 1] < level:  # stops by the end, as H(1) >= m + 1
        k += 1
    return _rewrite(path, i, level, k, ka)


def root_e(path: PLPath, i: int) -> PLPath | None:
    """Raising operator for color i; returns None when undefined.

    Mirror of root_f: defined iff the minimum m of the coordinate function is
    at most -1; reflects between the last time H equals m + 1 before its
    first minimum and that minimum, then translates the tail by +alpha_i, in
    the same rewrite pass.
    """
    h, m = _heights(path, i)
    level = m + path.den
    if level > 0:
        return None
    kb = h.index(m)
    k = kb - 1
    while h[k] < level:  # stops by the start, as H(0) = 0 >= m + 1
        k -= 1
    return _rewrite(path, i, level, k, kb)


def _ratio(x: int, den: int) -> list:
    g = gcd(x, den)
    return [x // g, den // g]


def path_to_json(path: PLPath) -> dict:
    """JSON form: {"breakpoints": [[t_num, t_den, [[c_num, c_den], ...]], ...]},
    every fraction in lowest terms."""
    den = path.den
    return {
        "breakpoints": [
            [*_ratio(t, den), [_ratio(c, den) for c in p]]
            for t, p in zip(path.times, path.points)
        ]
    }


def path_from_json(t: DynkinType, data) -> PLPath:
    """Inverse of path_to_json; validates and canonicalizes."""
    def fraction(num, den):
        if bool in (type(num), type(den)):
            raise TypeError("JSON booleans are not integers")
        return Fraction(num, den)

    try:
        bps = tuple(
            (fraction(tn, td), tuple(fraction(cn, cd) for cn, cd in coords))
            for tn, td, coords in data["breakpoints"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed path JSON: {exc}") from exc
    return canonicalize(PLPath.from_breakpoints(t, bps))
