"""Piecewise-linear paths in Littelmann's LS form, and root operators.

A path is a map [0,1] -> weight space, linear between breakpoints, starting
at the origin.  Coordinates are fundamental-weight coordinates, so the i-th
coordinate function of a path is the pairing of the moving point against
alpha_i^vee.  A path stores integer break times over a denominator den and
one integer direction (velocity) per segment over a second denominator vden
(Littelmann, Invent. Math. 1994); its points are sums of directions times
segment lengths, so it starts at the origin by construction.  The record is
a tuple of its fields, hashed and compared in C; it guards its own O(1)
invariants when it is built (den and vden are positive ints, and there is
one direction per segment), so no reader checks them again; weights are
read off it here only, by the one path scan or weight_int.  The package
only produces reduced paths (adjacent directions differ, and den and vden
each have gcd 1 with their entries), so equality of the records, the type
included, is pointwise equality.  All
arithmetic is exact and on integers.  The lowering and raising operators use
the non-recursive three-piece formulas: each finds its window of the
coordinate function, splits the segment where the window ends inside it, and
reflects the window's directions by s_i, each read from a memo per type and
color that holds at most the distinct directions reflected (W.lam per model
lam), so the tail moves by alpha_i without being touched; the result is
reduced once.  They agree with the classical path operators on models whose
coordinate functions have integral local minima; generation asserts that
property for every path it accepts in _scan, the one path scan, which
returns the path's weight and every color's string lengths as it goes, so
that its callers call an operator only where it is defined.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .cartan import DynkinType, _check_node, _columns
from .errors import DomainError, ModelIntegrityError


class _PLPathFields(NamedTuple):
    rtype: DynkinType
    den: int
    times: tuple
    vden: int
    dirs: tuple


class PLPath(_PLPathFields):
    """Piecewise-linear path in LS form: segment k runs from time
    times[k] / den to times[k + 1] / den with velocity dirs[k] / vden, for
    integer times and integer direction tuples.  An immutable tuple record:
    it is hashed and compared as the tuple of its fields, the type included.
    Building one refuses a den or vden that is not a positive int, bools
    included, and a direction count other than one per segment: the
    record's O(1) invariants."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: guarded

    def __new__(cls, rtype: DynkinType, den: int, times: tuple, vden: int, dirs: tuple):
        if type(den) is not int or den < 1:
            raise DomainError(f"time denominator {den!r} is not a positive int")
        if type(vden) is not int or vden < 1:
            raise DomainError(f"direction denominator {vden!r} is not a positive int")
        if len(dirs) != len(times) - 1:
            raise DomainError(f"{len(dirs)} directions for {len(times)} break times")
        return tuple.__new__(cls, (rtype, den, times, vden, dirs))

    @classmethod
    def from_breakpoints(cls, rtype: DynkinType, breakpoints) -> PLPath:
        """Path from rational (time, point) pairs, keeping every breakpoint.
        Raises DomainError on times not rising strictly from 0 to 1, a wrong
        rank or a first point off the origin."""
        bps = [(Fraction(t), tuple(Fraction(c) for c in p)) for t, p in breakpoints]
        times = [t for t, _ in bps]
        _validate(rtype, 1, times, [p for _, p in bps])
        if any(bps[0][1]):
            raise DomainError("path must start at the origin")
        segments = zip(bps, bps[1:])
        vel = [[(b - a) / (t1 - t0) for a, b in zip(p0, p1)] for (t0, p0), (t1, p1) in segments]
        den = lcm(*(t.denominator for t in times))
        vden = lcm(*(c.denominator for c in chain.from_iterable(vel)))
        dirs = tuple(tuple(int(c * vden) for c in v) for v in vel)
        return cls(rtype, den, tuple(int(t * den) for t in times), vden, dirs)

    @property
    def points(self) -> tuple:
        """Read-only view: the point at each breakpoint, integers over den * vden."""
        times, points = self.times, [(0,) * self.rtype.rank]
        for k, d in enumerate(self.dirs):
            dt = times[k + 1] - times[k]
            points.append(tuple([c + v * dt for c, v in zip(points[-1], d)]))
        return tuple(points)

    @property
    def breakpoints(self) -> tuple:
        """Read-only rational view: ((time, point), ...) as Fractions."""
        den, scale = self.den, self.den * self.vden
        return tuple(
            (Fraction(t, den), tuple(Fraction(c, scale) for c in p))
            for t, p in zip(self.times, self.points)
        )


def _validate(rtype: DynkinType, den, times, vectors) -> None:
    if len(times) < 2:
        raise DomainError("a path needs at least two breakpoints")
    if times[0] != 0 or times[-1] != den:
        raise DomainError("path must be parametrized over [0, 1]")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise DomainError("breakpoint times must be strictly increasing")
    if any(len(v) != rtype.rank for v in vectors):
        raise DomainError("breakpoint coordinates must have length rank")


def _reduced(rtype, den, times: list, vden, dirs: list) -> PLPath:
    """Drop each breakpoint where the direction does not change, then divide
    den and the times, and vden and the directions, by their gcds; the
    directions are read only if vden > 1.  Edits the caller's lists."""
    for k in range(len(dirs) - 1, 0, -1):
        if dirs[k] == dirs[k - 1]:
            del times[k], dirs[k]
    if den > 1 and (g := gcd(den, *times)) > 1:
        den //= g
        times = [t // g for t in times]
    if vden > 1 and (g := gcd(vden, *chain.from_iterable(dirs))) > 1:
        vden //= g
        dirs = [tuple([c // g for c in d]) for d in dirs]
    return PLPath(rtype, den, tuple(times), vden, tuple(dirs))


def canonicalize(path: PLPath) -> PLPath:
    """Reduced representation: adjacent directions differ, and den and vden
    each have gcd 1 with their entries.  Two paths are pointwise equal iff
    their canonical forms coincide."""
    _validate(path.rtype, path.den, path.times, path.dirs)
    return _reduced(path.rtype, path.den, list(path.times), path.vden, list(path.dirs))


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
    return PLPath(t, 1, (0, 1), 1, (lam,))


def weight_int(path: PLPath) -> tuple:
    """Endpoint, each direction times its segment's length summed over
    den * vden, as an integer vector; raises if it is not integral."""
    lengths = list(map(sub, path.times[1:], path.times))
    scale, end = path.den * path.vden, [sum(map(mul, c, lengths)) for c in zip(*path.dirs)]
    if any(c % scale for c in end):
        raise ModelIntegrityError("non-integral path weight")
    return tuple(c // scale for c in end)


def _guard_integer(x: int, den: int, what: str) -> int:
    if x % den:
        raise ModelIntegrityError(f"{what} is not an integer: {Fraction(x, den)}")
    return x // den


def epsilon(path: PLPath, i: int) -> int:
    """Number of defined raising steps in color i (closed form: minus the
    minimum of the coordinate function)."""
    _, m, scale = _heights(path, i)
    return -m // scale


def phi(path: PLPath, i: int) -> int:
    """Number of defined lowering steps in color i (closed form: endpoint
    value minus the minimum)."""
    h, m, scale = _heights(path, i)
    return _guard_integer(h[-1] - m, scale, f"endpoint of H_{i} minus its minimum")


def _scan(path: PLPath) -> tuple | None:
    """(weight, eps, phi), three int tuples in color order, if the endpoint
    and every local minimum of every coordinate function are integral, else
    None: the package's one path scan.  eps[i - 1] = -min H_i and
    phi[i - 1] = H_i(1) - min H_i are the string lengths, so root_e and
    root_f of color i are defined exactly where they are at least one (the
    minimum is a local minimum, the endpoint or H(0) = 0).  generate makes
    it once per new path, and the folding explorer once per target path."""
    scale, times, weight, eps, phi = path.den * path.vden, path.times, [], [], []
    for x in range(path.rtype.rank):
        h = low = 0  # H at the start of segment k; its least local minimum so far
        falling = False  # whether H last fell
        for k, d in enumerate(path.dirs):
            v = d[x]
            if v > 0:
                if falling:
                    if h % scale:
                        return None
                    if h < low:
                        low = h
                    falling = False
            elif v < 0:
                falling = True
            h += v * (times[k + 1] - times[k])
        if h % scale:
            return None
        if h < low:
            low = h
        weight.append(h // scale)
        eps.append(-low // scale)
        phi.append((h - low) // scale)
    return tuple(weight), tuple(eps), tuple(phi)


def _heights(path: PLPath, i: int):
    """H_i at every breakpoint, over scale = den * vden, its minimum and
    scale, after the color check that the root operators and the string
    statistics share (its message built on failure)."""
    _check_node(path.rtype, i)
    x, times = i - 1, path.times
    h, height = [0], 0
    for k, d in enumerate(path.dirs):
        height += d[x] * (times[k + 1] - times[k])
        h.append(height)
    if (m := min(h)) % (scale := path.den * path.vden):
        _guard_integer(m, scale, f"minimum of H_{i}")
    return h, m, scale


@cache
def _reflections(t: DynkinType) -> tuple:
    """Per color of t, alpha_i and a memo d -> s_i(d) of the directions seen."""
    return tuple(({}, alpha) for alpha in _columns(t))


def _rewrite(path: PLPath, i: int, h, level: int, k: int, j: int) -> PLPath:
    """The operator's output, reduced once.  H crosses level on segment k;
    each direction d from breakpoint j to the crossing if j <= k (root_f),
    else from the crossing to j (root_e), becomes s_i(d) = d - d[i] * alpha_i.
    A crossing inside segment k splits it, on the times scaled by the least r
    that keeps the new time integral; the directions and the tail stay."""
    den, times, dirs = path.den, list(path.times), path.dirs
    x = i - 1
    step = level - h[k]
    if step == 0 or h[k + 1] == level:  # the crossing is breakpoint k or k + 1
        c = k + (step != 0)
    else:
        dx = dirs[k][x]
        r = abs(dx) // gcd(step, dx)
        if r > 1:
            den *= r
            times = [t * r for t in times]
        times.insert(k + 1, times[k] + step * r // dx)
        dirs = [*dirs[: k + 1], *dirs[k:]]
        c, j = k + 1, j + (j > k)
    a, b = (j, c) if j < c else (c, j)
    memo, alpha = _reflections(path.rtype)[x]
    window = []
    for d in dirs[a:b]:
        if (s := memo.get(d)) is None:
            s = memo[d] = tuple([v - d[x] * y for v, y in zip(d, alpha)])
        window.append(s)
    return _reduced(path.rtype, den, times, path.vden, [*dirs[:a], *window, *dirs[b:]])


def root_f(path: PLPath, i: int) -> PLPath | None:
    """Lowering operator for color i; returns None when undefined.

    With m the minimum of the coordinate function H of color i, the operator
    is defined iff H(1) - m >= 1.  It keeps the path up to the last time H
    attains m and reflects the directions up to the first later time H
    reaches m + 1; the tail keeps its directions, so it moves by -alpha_i.
    """
    h, m, scale = _heights(path, i)
    level = m + scale
    if h[-1] < level:
        return None
    ka = len(h) - 1
    while h[ka] != m:
        ka -= 1
    k = ka
    while h[k + 1] < level:  # stops by the end, as H(1) >= m + 1
        k += 1
    return _rewrite(path, i, h, level, k, ka)


def root_e(path: PLPath, i: int) -> PLPath | None:
    """Raising operator for color i; returns None when undefined.

    Mirror of root_f: defined iff the minimum m of the coordinate function is
    at most -1; reflects the directions between the last time H equals m + 1
    before its first minimum and that minimum, so the tail moves by +alpha_i.
    """
    h, m, scale = _heights(path, i)
    level = m + scale
    if level > 0:
        return None
    kb = h.index(m)
    k = kb - 1
    while h[k] < level:  # stops by the start, as H(0) = 0 >= m + 1
        k -= 1
    return _rewrite(path, i, h, level, k, kb)


def _ratio(x: int, den: int) -> list:
    g = gcd(x, den)
    return [x // g, den // g]


def path_to_json(path: PLPath) -> dict:
    """JSON form: {"breakpoints": [[t_num, t_den, [[c_num, c_den], ...]], ...]},
    every fraction in lowest terms."""
    den, scale = path.den, path.den * path.vden
    return {
        "breakpoints": [
            [*_ratio(t, den), [_ratio(c, scale) for c in p]]
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
