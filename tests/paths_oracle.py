"""The Fraction path kernel, kept as a test oracle for pathcrystals.paths.

Paths here are FPath values: a type and a tuple of (time, point) pairs of
Fractions, compared breakpoint by breakpoint.  The oracle functions read any
path through its rtype and breakpoints attributes, so they also take the
package's integer paths through their rational view.

Each root operator has its own window search, its own level-crossing formula
and its own rewrite loop: root_f subtracts (H - m) * alpha_i on the window
and alpha_i on the tail, root_e subtracts (H - (m + 1)) * alpha_i on the
window and adds alpha_i on the tail.  _with_time returns a breakpoint tuple
and keeps scanning after it has inserted the new time.  closure builds a
crystal's vertices and edge maps by the same breadth-first search as
generate, with these operators.  epsilon and phi are the closed forms as the
package had them before they shared the operators' input checks: they take
the minimum of the coordinate function and guard its integrality, and check
neither the color nor the origin.  value evaluates a path pointwise.

The package stored paths as integer breakpoints over one denominator before
it stored them in Littelmann's LS form, and its two integer kernels on that
form are kept at the end, on PointsPath records of their own; points_form
gives a package path's record.  Both check their input as the package did,
the origin included.  The one-pass kernel, one_pass_root_f and
one_pass_root_e, finds the crossing and rewrites the path in one pass: it
scales every point when the crossing falls between breakpoints, reflects the
window and translates the tail by one precomputed multiple of alpha_i, then
_one_pass_reduced walks the breakpoints once and drops those where the
velocity, compared by cross-multiplication, does not change.
one_pass_canonicalize and one_pass_is_integral are the package's canonical
form and integrality test of that time.  The two-pass kernel that the
one-pass rewrite replaced, two_pass_root_f and two_pass_root_e, runs
_crossing, which rescales the whole path when the level is crossed between
breakpoints, then _reflect, which rebuilds every point, and _reduced, which
drops collinear breakpoints with any(genexpr) and divides by the gcd of den
and every entry.  two_pass_canonicalize is _reduced after the same input
checks, and compressed_is_integral builds each color's list of distinct
heights.

The package's first LS-form kernel is kept last, on the package's own
paths: direct_root_f and direct_root_e find their windows as the package
does, through its _heights (imported as _ls_heights: the breakpoint kernels
have a _heights of their own), and _direct_rewrite computes each reflected
direction d - d[i] * alpha_i afresh, where the package reads it from a memo
per type and color; _direct_reduced copies the lists it is given.
points_weight_int reads the endpoint off the last of the path's points,
and integral_weight, the oracle of the package's one integrality scan,
returns it where one_pass_is_integral holds on the path's points form and
None elsewhere.

weight_scan is the package's integrality scan as it was before it read the
string lengths too: per color, a flag for whether the coordinate function
last fell, and the endpoint as it goes.  scan is the oracle of the package's
one path scan: None where weight_scan is, else the package's weight_int,
and its epsilon and phi of every color, each a pass of its own.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import sub

from pathcrystals import paths as ls
from pathcrystals.cartan import DynkinType, _columns, cartan_matrix, simple_root
from pathcrystals.errors import DomainError, ModelIntegrityError
from pathcrystals.paths import PLPath
from pathcrystals.paths import _heights as _ls_heights


@dataclass(frozen=True)
class FPath:
    """Piecewise-linear path given by its Fraction breakpoint sequence."""

    rtype: DynkinType
    breakpoints: tuple


def _vec(xs):
    return tuple(Fraction(x) for x in xs)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _scale(c, v):
    return tuple(c * a for a in v)


def _h_values(path, i):
    return [p[i - 1] for _, p in path.breakpoints]


def _guard_integer(x, what):
    if x.denominator != 1:
        raise ModelIntegrityError(f"{what} is not an integer: {x}")
    return int(x)


def canonicalize(path) -> FPath:
    """Minimal breakpoint representation: drops interior breakpoints where the
    velocity does not change."""
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
    return FPath(path.rtype, tuple(kept))


def straight_path(t, lam) -> FPath:
    zero = _vec([0] * t.rank)
    return FPath(t, ((Fraction(0), zero), (Fraction(1), _vec(lam))))


def weight_int(path) -> tuple:
    w = path.breakpoints[-1][1]
    if any(c.denominator != 1 for c in w):
        raise ModelIntegrityError("non-integral path weight")
    return tuple(int(c) for c in w)


def is_integral(path) -> bool:
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


def value(path, time) -> tuple:
    """Exact evaluation at a rational time in [0, 1]."""
    time = Fraction(time)
    if not 0 <= time <= 1:
        raise DomainError(f"time {time} outside [0, 1]")
    bps = path.breakpoints
    for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
        if time <= t1:
            frac = (time - t0) / (t1 - t0)
            return tuple(a + frac * (b - a) for a, b in zip(p0, p1))


def epsilon(path, i: int) -> int:
    """Minus the minimum of the coordinate function of color i."""
    return -_guard_integer(min(_h_values(path, i)), f"minimum of H_{i}")


def phi(path, i: int) -> int:
    """Endpoint value of the coordinate function of color i minus its minimum."""
    h = _h_values(path, i)
    m = _guard_integer(min(h), f"minimum of H_{i}")
    return _guard_integer(h[-1] - m, f"endpoint of H_{i} minus its minimum")


def path_to_json(path) -> dict:
    return {
        "breakpoints": [
            [t.numerator, t.denominator, [[c.numerator, c.denominator] for c in p]]
            for t, p in path.breakpoints
        ]
    }


def _with_time(path, tnew):
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


def root_f(path, i: int) -> FPath | None:
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
    return canonicalize(FPath(path.rtype, tuple(out)))


def root_e(path, i: int) -> FPath | None:
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
    return canonicalize(FPath(path.rtype, tuple(out)))


def closure(t, lam):
    """(vertices, f_edges, e_edges) of the crystal of lam: breadth-first along
    the lowering operators, colors ascending, each e-edge the inverse of an
    f-edge; every vertex must pass is_integral."""
    start = straight_path(t, lam)
    vertices = [start]
    index = {start: 0}
    f_edges: dict = {}
    e_edges: dict = {}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in t.nodes:
            lowered = root_f(vertices[v], i)
            if lowered is None:
                continue
            w = index.get(lowered)
            if w is None:
                assert is_integral(lowered), "generated path with non-integral minima"
                w = index[lowered] = len(vertices)
                vertices.append(lowered)
                queue.append(w)
            assert (w, i) not in e_edges, "f_i is not injective"
            f_edges[(v, i)] = w
            e_edges[(w, i)] = v
    return vertices, f_edges, e_edges


@dataclass(frozen=True, slots=True)
class PointsPath:
    """A path in the breakpoint form: breakpoint k is (times[k] / den,
    points[k] / den) with integer times and integer point tuples."""

    rtype: DynkinType
    den: int
    times: tuple
    points: tuple

    @property
    def breakpoints(self) -> tuple:
        return tuple(
            (Fraction(t, self.den), tuple(Fraction(c, self.den) for c in p))
            for t, p in zip(self.times, self.points)
        )


def points_form(path) -> PointsPath:
    """A package path's record in lowest terms: its points and its times over
    den * vden, all divided by their gcd with that denominator.  Two package
    paths have equal records iff they have the same breakpoints."""
    times, points = [t * path.vden for t in path.times], path.points
    g = gcd(path.den * path.vden, *times, *chain.from_iterable(points))
    points = tuple(tuple(c // g for c in p) for p in points)
    return PointsPath(path.rtype, path.den * path.vden // g, tuple(t // g for t in times), points)


def _validate(path: PointsPath) -> None:
    times = path.times
    if len(times) < 2:
        raise DomainError("a path needs at least two breakpoints")
    if times[0] != 0 or times[-1] != path.den:
        raise DomainError("path must be parametrized over [0, 1]")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise DomainError("breakpoint times must be strictly increasing")
    if any(len(p) != path.rtype.rank for p in path.points):
        raise DomainError("breakpoint coordinates must have length rank")


def _check_origin(path: PointsPath) -> None:
    if any(path.points[0]):
        raise DomainError("path must start at the origin")


def _guard_int(x: int, den: int, what: str) -> int:
    if x % den:
        raise ModelIntegrityError(f"{what} is not an integer: {Fraction(x, den)}")
    return x // den


def _heights(path: PointsPath, i: int):
    if i not in path.rtype.nodes:
        raise DomainError(f"node {i} not in {path.rtype}")
    _check_origin(path)
    h = [p[i - 1] for p in path.points]
    m = min(h)
    _guard_int(m, path.den, f"minimum of H_{i}")
    return h, m


def _reduced(rtype, den, times, points) -> PointsPath:
    kept = [0]
    for k in range(1, len(times) - 1):
        dt0, dt1 = times[k] - times[k - 1], times[k + 1] - times[k]
        p0, p1, p2 = points[k - 1], points[k], points[k + 1]
        if any((b - a) * dt1 != (c - b) * dt0 for a, b, c in zip(p0, p1, p2)):
            kept.append(k)
    kept.append(len(times) - 1)
    times = tuple(times[k] for k in kept)
    points = tuple(points[k] for k in kept)
    g = gcd(den, *times, *chain.from_iterable(points))
    if g > 1:
        den //= g
        times = tuple(t // g for t in times)
        points = tuple(tuple(c // g for c in p) for p in points)
    return PointsPath(rtype, den, times, points)


def _crossing(path: PointsPath, h, k, level):
    for j in (k, k + 1):
        if h[j] == level:
            return path.den, path.times, path.points, j
    rise, step = h[k + 1] - h[k], level - h[k]
    if rise < 0:
        rise, step = -rise, -step
    (t0, t1), (p0, p1) = path.times[k : k + 2], path.points[k : k + 2]
    times = [t * rise for t in path.times]
    points = [tuple(c * rise for c in p) for p in path.points]
    times.insert(k + 1, t0 * rise + step * (t1 - t0))
    points.insert(k + 1, tuple(a * rise + step * (b - a) for a, b in zip(p0, p1)))
    return path.den * rise, times, points, k + 1


def _reflect(rtype, den, times, points, i: int, a: int, b: int) -> PointsPath:
    alpha = [row[i - 1] for row in cartan_matrix(rtype)]
    h_a = points[a][i - 1]
    out = list(points[: a + 1])
    for p in points[a + 1 : b + 1]:
        c = p[i - 1] - h_a
        out.append(tuple(x - c * y for x, y in zip(p, alpha)))
    shift = [c * y for y in alpha]
    out.extend(tuple(x - s for x, s in zip(p, shift)) for p in points[b + 1 :])
    return _reduced(rtype, den, times, out)


def _one_pass_reduced(rtype, den, times, points) -> PointsPath:
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
    return PointsPath(rtype, den, tuple(times), tuple(points))


def _one_pass_rewrite(path: PointsPath, i: int, level: int, k: int, j: int) -> PointsPath:
    den, times, points = path.den, path.times, path.points
    x = i - 1
    alpha = _columns(path.rtype)[x]
    p0, p1 = points[k], points[k + 1]
    h_j = points[j][x]
    ref, shift = (h_j, level - h_j) if j <= k else (level, h_j - level)
    rise, step = p1[x] - p0[x], level - p0[x]
    if step == 0 or step == rise:
        c = k + (step == rise)
    else:
        if rise < 0:
            rise, step = -rise, -step
        t0, t1 = times[k], times[k + 1]
        g = gcd(rise, step * gcd(t1 - t0, *map(sub, p1, p0)))
        r = rise // g
        crossing = tuple([u * r + step * (v - u) // g for u, v in zip(p0, p1)])
        if r > 1:
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
    return _one_pass_reduced(path.rtype, den, times, out)


def one_pass_canonicalize(path: PointsPath) -> PointsPath:
    _validate(path)
    _check_origin(path)
    return _one_pass_reduced(path.rtype, path.den, path.times, path.points)


def one_pass_root_f(path: PointsPath, i: int) -> PointsPath | None:
    h, m = _heights(path, i)
    level = m + path.den
    if h[-1] < level:
        return None
    ka = len(h) - 1
    while h[ka] != m:
        ka -= 1
    k = ka
    while h[k + 1] < level:
        k += 1
    return _one_pass_rewrite(path, i, level, k, ka)


def one_pass_root_e(path: PointsPath, i: int) -> PointsPath | None:
    h, m = _heights(path, i)
    level = m + path.den
    if level > 0:
        return None
    kb = h.index(m)
    k = kb - 1
    while h[k] < level:
        k -= 1
    return _one_pass_rewrite(path, i, level, k, kb)


def one_pass_is_integral(path: PointsPath) -> bool:
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


def two_pass_canonicalize(path: PointsPath) -> PointsPath:
    _validate(path)
    _check_origin(path)
    return _reduced(path.rtype, path.den, path.times, path.points)


def two_pass_root_f(path: PointsPath, i: int) -> PointsPath | None:
    h, m = _heights(path, i)
    level = m + path.den
    if h[-1] < level:
        return None
    ka = len(h) - 1 - h[::-1].index(m)
    k = ka
    while h[k + 1] < level:
        k += 1
    den, times, points, kb = _crossing(path, h, k, level)
    return _reflect(path.rtype, den, times, points, i, ka, kb)


def two_pass_root_e(path: PointsPath, i: int) -> PointsPath | None:
    h, m = _heights(path, i)
    level = m + path.den
    if level > 0:
        return None
    kb = h.index(m)
    k = kb - 1
    while h[k] < level:
        k -= 1
    den, times, points, ka = _crossing(path, h, k, level)
    kb += len(times) - len(path.times)
    return _reflect(path.rtype, den, times, points, i, ka, kb)


def compressed_is_integral(path: PointsPath) -> bool:
    den = path.den
    for i in path.rtype.nodes:
        compressed = [path.points[0][i - 1]]
        for p in path.points[1:]:
            if p[i - 1] != compressed[-1]:
                compressed.append(p[i - 1])
        if compressed[-1] % den:
            return False
        for low, mid, high in zip(compressed, compressed[1:], compressed[2:]):
            if low > mid < high and mid % den:
                return False
    return True


def _direct_reduced(rtype, den, times, vden, dirs) -> PLPath:
    times, dirs = list(times), list(dirs)
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


def _direct_rewrite(path: PLPath, i: int, h, level: int, k: int, j: int) -> PLPath:
    den, times, dirs = path.den, path.times, path.dirs
    x = i - 1
    step = level - h[k]
    if step == 0 or h[k + 1] == level:
        c = k + (step != 0)
    else:
        dx = dirs[k][x]
        r = abs(dx) // gcd(step, dx)
        if r > 1:
            den *= r
            times = [t * r for t in times]
        times = [*times[: k + 1], times[k] + step * r // dx, *times[k + 1 :]]
        dirs = [*dirs[: k + 1], *dirs[k:]]
        c, j = k + 1, j + (j > k)
    a, b = (j, c) if j < c else (c, j)
    alpha = _columns(path.rtype)[x]
    window = [tuple([v - d[x] * y for v, y in zip(d, alpha)]) for d in dirs[a:b]]
    return _direct_reduced(path.rtype, den, times, path.vden, [*dirs[:a], *window, *dirs[b:]])


def direct_root_f(path: PLPath, i: int) -> PLPath | None:
    h, m, scale = _ls_heights(path, i)
    level = m + scale
    if h[-1] < level:
        return None
    ka = len(h) - 1
    while h[ka] != m:
        ka -= 1
    k = ka
    while h[k + 1] < level:
        k += 1
    return _direct_rewrite(path, i, h, level, k, ka)


def direct_root_e(path: PLPath, i: int) -> PLPath | None:
    h, m, scale = _ls_heights(path, i)
    level = m + scale
    if level > 0:
        return None
    kb = h.index(m)
    k = kb - 1
    while h[k] < level:
        k -= 1
    return _direct_rewrite(path, i, h, level, k, kb)


def points_weight_int(path: PLPath) -> tuple:
    scale, end = path.den * path.vden, path.points[-1]
    if any(c % scale for c in end):
        raise ModelIntegrityError("non-integral path weight")
    return tuple(c // scale for c in end)


def integral_weight(path: PLPath) -> tuple | None:
    if not one_pass_is_integral(points_form(path)):
        return None
    return points_weight_int(path)


def weight_scan(path: PLPath) -> tuple | None:
    scale, times, weight = path.den * path.vden, path.times, []
    for x in range(path.rtype.rank):
        h, falling = 0, False  # H at the start of segment k; whether H last fell
        for k, d in enumerate(path.dirs):
            v = d[x]
            if v > 0:
                if falling and h % scale:
                    return None
                falling = False
            elif v < 0:
                falling = True
            h += v * (times[k + 1] - times[k])
        if h % scale:
            return None
        weight.append(h // scale)
    return tuple(weight)


def scan(path: PLPath) -> tuple | None:
    if weight_scan(path) is None:
        return None
    nodes = path.rtype.nodes
    return (
        ls.weight_int(path),
        tuple(ls.epsilon(path, i) for i in nodes),
        tuple(ls.phi(path, i) for i in nodes),
    )
