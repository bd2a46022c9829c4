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
translates the tail; the result is reduced once, by one walk that copies the
breakpoint lists only if it drops one or divides by a common factor.  They
agree with the classical path operators on models whose coordinate functions
have integral local minima; generation asserts that property for every path
it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import sub

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
    dropped = []
    t1, t2, p1, p2 = times[0], times[1], points[0], points[1]
    for k in range(2, len(times)):
        t0, t1, t2, p0, p1, p2 = t1, t2, times[k], p1, p2, points[k]
        dt0, dt1 = t1 - t0, t2 - t1
        for a, b, c in zip(p0, p1, p2):
            if (b - a) * dt1 != (c - b) * dt0:
                break
        else:
            dropped.append(k - 1)
    if dropped:
        times, points = list(times), list(points)
        for k in reversed(dropped):
            del times[k], points[k]
    if (g := gcd(den, *times)) > 1 and (g := gcd(g, *chain.from_iterable(points))) > 1:
        den //= g
        times = [t // g for t in times]
        points = [tuple([c // g for c in p]) for p in points]
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
    """The straight path s -> s*lam for a dominant weight lam, on den 1."""
    lam = tuple(lam)
    if any(type(x) is not int for x in lam):
        raise DomainError(f"weight {lam} has an entry that is not an int")
    if len(lam) != t.rank:
        raise DomainError(f"weight must have length {t.rank}")
    if any(x < 0 for x in lam):
        raise DomainError("straight_path needs a dominant weight")
    return PLPath(t, 1, (0, 1), ((0,) * t.rank, lam))


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
    crossing to j (root_e, ref = level); its last point and the tail move by
    one precomputed multiple of alpha_i.  A crossing inside segment k becomes
    breakpoint k + 1 of the path scaled by the least r that keeps it integral."""
    den, times, points = path.den, path.times, path.points
    x = i - 1
    alpha = _columns(path.rtype)[x]
    p0, p1 = points[k], points[k + 1]
    h_j = points[j][x]
    ref, shift = (h_j, level - h_j) if j <= k else (level, h_j - level)
    rise, step = p1[x] - p0[x], level - p0[x]
    if step == 0 or step == rise:  # the crossing is breakpoint k or k + 1
        c = k + (step == rise)
    else:
        if rise < 0:
            rise, step = -rise, -step
        t0, t1 = times[k], times[k + 1]
        g = gcd(rise, step * gcd(t1 - t0, *map(sub, p1, p0)))
        r = rise // g
        crossing = tuple([u * r + step * (v - u) // g for u, v in zip(p0, p1)])
        if r > 1:  # the prefix tuples are reused only if r = 1
            den, ref, shift = den * r, ref * r, shift * r
            times = [t * r for t in times]
            points = [tuple([v * r for v in p]) for p in points]
        times = [*times[: k + 1], t0 * r + step * (t1 - t0) // g, *times[k + 1 :]]
        points = [*points[: k + 1], crossing, *points[k + 1 :]]
        c, j = k + 1, j + (j > k)
    a, b = (j, c) if j < c else (c, j)
    out = list(points[: a + 1])
    for p in points[a + 1 : b]:
        d = p[x] - ref
        out.append(tuple([v - d * y for v, y in zip(p, alpha)]))
    moved = tuple([shift * y for y in alpha])
    out += [tuple(map(sub, p, moved)) for p in points[b:]]
    return _reduced(path.rtype, den, times, out)


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
    ka = len(h) - 1
    while h[ka] != m:
        ka -= 1
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
