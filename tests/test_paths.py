import itertools
import json
import random
import re
from fractions import Fraction

import paths_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import SIZE_CASES, VIRT_CASES

from pathcrystals.cartan import DynkinType
from pathcrystals.crystal import generate
from pathcrystals.errors import DomainError, ModelIntegrityError
from pathcrystals.folding import folding_pair, psi_weight, virtual_e, virtual_f, virtualize_path
from pathcrystals.paths import (
    PLPath,
    canonicalize,
    epsilon,
    is_integral,
    path_from_json,
    path_to_json,
    paths_equal,
    phi,
    root_e,
    root_f,
    straight_path,
    weight_int,
)

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
C2 = DynkinType("C", 2)
G2 = DynkinType("G", 2)

F = Fraction


def test_weight_int_refuses_a_non_integral_endpoint():
    half = PLPath.from_breakpoints(A2, [(0, (0, 0)), (1, (F(1, 2), 0))])
    with pytest.raises(ModelIntegrityError) as info:
        weight_int(half)
    assert str(info.value) == "non-integral path weight"


def test_straight_path_breakpoints():
    p = straight_path(A1, (1,))
    assert p.breakpoints == ((F(0), (F(0),)), (F(1), (F(1),)))


def test_straight_path_zero_weight():
    p = straight_path(C2, (0, 0))
    assert p.breakpoints == ((F(0), (F(0), F(0))), (F(1), (F(0), F(0))))
    assert canonicalize(p) == p


def test_straight_path_rejects_non_dominant():
    with pytest.raises(DomainError, match="^straight_path needs a dominant weight$"):
        straight_path(A2, (1, -1))
    with pytest.raises(DomainError, match="^weight must have length 2$"):
        straight_path(A2, (1,))


@pytest.mark.parametrize("lam", [("1", 1), (1.0, 1), (0.5, 0), (True, 1), (1, False)])
def test_straight_path_rejects_entries_that_are_not_ints(lam):
    # ("1", 1) raised TypeError; booleans are refused as path JSON refuses them
    with pytest.raises(DomainError, match=r"^weight .* has an entry that is not an int$"):
        straight_path(A2, lam)


STRAIGHT_TYPES = ["A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


@pytest.mark.parametrize("name", STRAIGHT_TYPES)
def test_straight_path_equals_the_validating_constructor(name):
    # straight_path builds its path on den 1 without Fractions; on every
    # weight with entries 0-3, the zero weight included, it must be the path
    # from_breakpoints gives, with int entries only
    t = DynkinType.parse(name)
    for lam in itertools.product(range(4), repeat=t.rank):
        p = straight_path(t, lam)
        assert p == PLPath.from_breakpoints(t, ((0, (0,) * t.rank), (1, lam))), lam
        assert all(type(c) is int for c in (p.den, *p.times, p.vden, *p.dirs[0]))


@pytest.mark.parametrize(
    "lam,message",
    [
        ((1, 0.5), "weight (1, 0.5) has an entry that is not an int"),
        (("1",), "weight ('1',) has an entry that is not an int"),
        ((-1,), "weight must have length 2"),
        ((1, 2, 3), "weight must have length 2"),
        ((1, -1), "straight_path needs a dominant weight"),
    ],
)
def test_straight_path_messages_are_exact(lam, message):
    # the checks run in this order: entry types, length, dominance
    with pytest.raises(DomainError) as info:
        straight_path(A2, lam)
    assert str(info.value) == message


def test_weight_is_endpoint():
    assert weight_int(straight_path(A2, (2, 1))) == (2, 1)


def test_h_function_linear_on_straight():
    p = straight_path(C2, (3, 2))
    assert tuple((t, q[0]) for t, q in p.breakpoints) == ((F(0), F(0)), (F(1), F(3)))
    assert paths_oracle.value(p, F(1, 3)) == (F(1), F(2, 3))


def test_h_starts_at_zero_everywhere():
    g = generate(C2, (1, 1))
    for p in g.vertices:
        t0, start = p.breakpoints[0]
        for i in C2.nodes:
            assert (t0, start[i - 1]) == (F(0), F(0))


def test_root_f_on_a1_fundamental():
    p = root_f(straight_path(A1, (1,)), 1)
    assert p.breakpoints == ((F(0), (F(0),)), (F(1), (F(-1),)))


def test_root_f_undefined_when_phi_zero():
    p = straight_path(A2, (1, 0))
    assert phi(p, 2) == 0
    assert root_f(p, 2) is None


def test_root_e_undefined_on_dominant_straight():
    for t, lam in ((A2, (1, 1)), (C2, (2, 0)), (G2, (1, 0))):
        p = straight_path(t, lam)
        for i in t.nodes:
            assert root_e(p, i) is None


def test_f_drops_h_endpoint_by_two():
    p = straight_path(A1, (2,))
    q = root_f(p, 1)
    assert q.breakpoints[-1][1][0] == p.breakpoints[-1][1][0] - 2


def test_weight_ladder():
    g = generate(C2, (1, 1))
    alpha = {1: (2, -1), 2: (-2, 2)}
    for p in g.vertices:
        for i in C2.nodes:
            q = root_f(p, i)
            if q is not None:
                assert weight_int(q) == tuple(
                    a - b for a, b in zip(weight_int(p), alpha[i])
                )
            r = root_e(p, i)
            if r is not None:
                assert weight_int(r) == tuple(
                    a + b for a, b in zip(weight_int(p), alpha[i])
                )


@pytest.mark.parametrize("t,lam", [(A2, (1, 1)), (C2, (1, 1)), (G2, (1, 0))])
def test_mutual_inverse_on_generated_model(t, lam):
    g = generate(t, lam)
    for p in g.vertices:
        for i in t.nodes:
            q = root_f(p, i)
            if q is not None:
                assert paths_equal(root_e(q, i), p)
            r = root_e(p, i)
            if r is not None:
                assert paths_equal(root_f(r, i), p)


def _dual(p):
    """Littelmann's dual path, t -> p(1 - t) - p(1)."""
    end = p.breakpoints[-1][1]
    bps = tuple(
        (1 - t, tuple(a - b for a, b in zip(q, end))) for t, q in reversed(p.breakpoints)
    )
    return canonicalize(PLPath.from_breakpoints(p.rtype, bps))


@pytest.mark.parametrize("t,lam", [(t, lam) for t, lam, _ in SIZE_CASES])
def test_root_e_is_dual_of_root_f(t, lam):
    # Littelmann's duality e_i = dual o f_i o dual: an oracle for root_e that
    # runs only root_f and path reversal; undefined results must agree too
    for p in generate(t, lam).vertices:
        for i in t.nodes:
            raised = root_e(p, i)
            lowered = root_f(_dual(p), i)
            assert (raised is None) == (lowered is None)
            if raised is not None:
                assert paths_equal(raised, _dual(lowered))


def _iterated_count(path, i, step):
    """Oracle: count applications of a root operator until undefined."""
    count = 0
    cur = path
    while True:
        nxt = step(cur, i)
        if nxt is None:
            return count
        cur = nxt
        count += 1
        assert count < 200


@pytest.mark.parametrize("t,lam", [(A2, (1, 1)), (C2, (0, 1)), (G2, (1, 0))])
def test_epsilon_phi_closed_form_vs_iteration(t, lam):
    g = generate(t, lam)
    for p in g.vertices:
        for i in t.nodes:
            assert epsilon(p, i) == _iterated_count(p, i, root_e)
            assert phi(p, i) == _iterated_count(p, i, root_f)


def test_string_identity_everywhere():
    for t, lam in ((A2, (1, 1)), (C2, (1, 1)), (G2, (1, 0))):
        g = generate(t, lam)
        for p in g.vertices:
            for i in t.nodes:
                assert phi(p, i) - epsilon(p, i) == weight_int(p)[i - 1]


def _statistics_models():
    cases = [(t, lam) for t, lam, _ in SIZE_CASES]
    for name, lam in VIRT_CASES:
        fold = folding_pair(name)
        cases += [(fold.x_type, lam), (fold.y_type, psi_weight(fold, lam))]
    return list(dict.fromkeys(cases))


@pytest.mark.parametrize("t,lam", _statistics_models())
def test_string_statistics_match_oracle(t, lam):
    # epsilon and phi read H through the operators' input checks; on valid
    # input they must give the values of the oracle's unchecked closed forms
    for p in generate(t, lam).vertices:
        for i in t.nodes:
            assert epsilon(p, i) == paths_oracle.epsilon(p, i), (str(t), lam, p, i)
            assert phi(p, i) == paths_oracle.phi(p, i), (str(t), lam, p, i)


def test_epsilon_increases_under_f():
    g = generate(C2, (1, 0))
    for p in g.vertices:
        for i in C2.nodes:
            q = root_f(p, i)
            if q is not None:
                assert epsilon(q, i) == epsilon(p, i) + 1


def test_dominant_straight_statistics():
    p = straight_path(C2, (2, 3))
    assert (epsilon(p, 1), epsilon(p, 2)) == (0, 0)
    assert (phi(p, 1), phi(p, 2)) == (2, 3)


def test_canonicalize_merges_collinear():
    lam = (2, 0)
    p = PLPath.from_breakpoints(
        C2,
        (
            (F(0), (F(0), F(0))),
            (F(1, 2), (F(1), F(0))),
            (F(1), (F(2), F(0))),
        ),
    )
    assert canonicalize(p).breakpoints == straight_path(C2, lam).breakpoints


def test_canonicalize_idempotent_and_pointwise_safe():
    rng = random.Random(90125)
    p = PLPath.from_breakpoints(
        A2,
        (
            (F(0), (F(0), F(0))),
            (F(1, 4), (F(1, 2), F(0))),
            (F(1, 2), (F(1), F(0))),
            (F(3, 4), (F(1), F(1))),
            (F(1), (F(0), F(2))),
        ),
    )
    q = canonicalize(p)
    assert canonicalize(q) == q
    for _ in range(100):
        t = F(rng.randint(0, 1000), 1000)
        assert paths_oracle.value(p, t) == paths_oracle.value(q, t)


MALFORMED_BREAKPOINTS = [
    ("at least two breakpoints", A1, ((0, (0,)),)),
    ("strictly increasing", A1, ((0, (0,)), (F(1, 2), (1,)), (F(1, 2), (1,)), (1, (2,)))),
    ("length rank", A2, ((0, (0,)), (1, (1,)))),
]


@pytest.mark.parametrize("message,t,bps", MALFORMED_BREAKPOINTS)
def test_malformed_breakpoints_rejected(message, t, bps):
    with pytest.raises(DomainError, match=message):
        PLPath.from_breakpoints(t, bps)
    rational = tuple((F(time), tuple(map(F, point))) for time, point in bps)
    data = paths_oracle.path_to_json(paths_oracle.FPath(t, rational))
    with pytest.raises(DomainError, match=message):
        path_from_json(t, data)


def test_canonicalize_rejects_bad_paths():
    with pytest.raises(DomainError):
        canonicalize(PLPath.from_breakpoints(A1, ((F(0), (F(0),)), (F(1, 2), (F(1),)))))
    with pytest.raises(DomainError):
        canonicalize(PLPath.from_breakpoints(A1, ((F(0), (F(1),)), (F(1), (F(0),)))))


def test_operators_commute_with_canonicalize():
    p = PLPath.from_breakpoints(
        C2,
        (
            (F(0), (F(0), F(0))),
            (F(1, 3), (F(1, 3), F(1, 3))),
            (F(2, 3), (F(2, 3), F(2, 3))),
            (F(1), (F(1), F(1))),
        ),
    )
    q = canonicalize(p)
    for i in C2.nodes:
        a = root_f(p, i)
        b = root_f(q, i)
        assert (a is None) == (b is None)
        if a is not None:
            assert paths_equal(a, b)


def test_non_integral_minimum_raises():
    p = PLPath.from_breakpoints(
        A1,
        (
            (F(0), (F(0),)),
            (F(1, 2), (F(-1, 2),)),
            (F(1), (F(1),)),
        ),
    )
    assert not is_integral(p)
    with pytest.raises(ModelIntegrityError):
        epsilon(p, 1)
    with pytest.raises(ModelIntegrityError):
        root_f(p, 1)


def test_is_integral_rejects_non_integral_endpoint():
    # H rises straight to 1/2: no interior minimum, only the endpoint is off
    assert not is_integral(PLPath.from_breakpoints(A1, ((0, (0,)), (1, (F(1, 2),)))))


def test_json_roundtrip():
    g = generate(G2, (1, 0))
    for p in g.vertices:
        data = path_to_json(p)
        assert path_from_json(G2, data) == p


def test_json_rejects_garbage():
    with pytest.raises(DomainError):
        path_from_json(A1, {"breakpoints": [[0, 1, [[0, 0]]], [1, 1, [[1, 1]]]]})
    with pytest.raises(DomainError):
        path_from_json(A1, {})
    # json.loads reads true as a bool, which Fraction would take as 1
    text = "[[0,1,[[0,1]]],[%s,%s,[[%s,%s]]]]"
    one = path_from_json(A1, {"breakpoints": json.loads(text % (1, 1, 1, 1))})
    assert one == straight_path(A1, (1,))
    for entries in [("true", "true", "true", 1), (1, 1, 1, "true"), (1, 1, "false", 1)]:
        with pytest.raises(DomainError, match="booleans"):
            path_from_json(A1, {"breakpoints": json.loads(text % entries)})


ORACLE_CASES = [(t, lam) for t, lam, _ in SIZE_CASES] + [
    (G2, (1, 1)),
    (DynkinType("C", 3), (1, 0, 1)),
    (DynkinType("B", 3), (1, 1, 0)),
    (C2, (2, 1)),
]


def _view(path):
    return None if path is None else (path.rtype, path.breakpoints)


def _crosses_between_breakpoints(p, i, op):
    """Whether op's window on color i ends at a level m + 1 that H reaches
    strictly between two breakpoints, so the operator inserts a breakpoint."""
    h = [q[i - 1] for q in p.points]
    m = min(h)
    level = m + p.den * p.vden
    if op == "root_f":
        if h[-1] < level:
            return False
        k = len(h) - 1 - h[::-1].index(m)
        while h[k] < level:
            k += 1
    else:
        if level > 0:
            return False
        k = h.index(m)
        while h[k] < level:
            k -= 1
    return h[k] != level


def test_root_operators_match_oracle():
    # the oracle has its own window search and rewrite loop per operator; the
    # cases also cross a level between two breakpoints, counted here, so the
    # interpolating branch of the rewrite is compared too
    interpolated = {"root_f": 0, "root_e": 0}
    for t, lam in ORACLE_CASES:
        for p in generate(t, lam).vertices:
            for i in t.nodes:
                for current, op, oracle in (
                    ("root_f", root_f, paths_oracle.root_f),
                    ("root_e", root_e, paths_oracle.root_e),
                ):
                    expected = _view(oracle(p, i))
                    assert _view(op(p, i)) == expected, (str(t), lam, p, i, current)
                    interpolated[current] += _crosses_between_breakpoints(p, i, current)
    assert interpolated == {"root_f": 195, "root_e": 195}


def _folding_target(x, lam):
    fold = folding_pair(x)
    return fold.y_type, psi_weight(fold, lam)


TWO_PASS_CASES = ORACLE_CASES + [
    (DynkinType("D", 4), (1, 1, 1, 1)),
    (G2, (2, 2)),
    (DynkinType("C", 3), (1, 1, 1)),
    # target models the folding verifiers generate: A5(0,1,0,1,0) with 189
    # vertices, D4(0,0,1,1) and E6(1,0,0,0,0,1) with 650
    _folding_target("C3", (0, 1, 0)),
    _folding_target("B3", (0, 0, 1)),
    _folding_target("F4", (0, 0, 0, 1)),
]


def _exact_outcome(op, *args):
    """The result, or the exception's type and message."""
    try:
        return op(*args)
    except Exception as exc:  # the type and the message are the outcome
        return type(exc), str(exc)


def _points(outcome):
    """A path through its points_form record; None and an exception's type
    and message as they are."""
    if outcome is None or type(outcome) is tuple:
        return outcome
    return paths_oracle.points_form(outcome)


def _match_two_pass(p):
    """Each operator, canonicalize and is_integral against the one-pass
    breakpoint kernel, through the points in lowest terms, and that kernel
    against the two-pass one it replaced, on p and every color of its type."""
    q = paths_oracle.points_form(p)
    for i in p.rtype.nodes:
        for op, one_pass, two_pass in (
            (root_f, paths_oracle.one_pass_root_f, paths_oracle.two_pass_root_f),
            (root_e, paths_oracle.one_pass_root_e, paths_oracle.two_pass_root_e),
        ):
            expected = _exact_outcome(one_pass, q, i)
            assert _exact_outcome(two_pass, q, i) == expected, (p, i, op)
            assert _points(_exact_outcome(op, p, i)) == expected, (p, i, op)
    expected = _exact_outcome(paths_oracle.one_pass_canonicalize, q)
    assert _exact_outcome(paths_oracle.two_pass_canonicalize, q) == expected
    assert _points(_exact_outcome(canonicalize, p)) == expected
    expected = paths_oracle.one_pass_is_integral(q)
    assert is_integral(p) == expected == paths_oracle.compressed_is_integral(q)


@pytest.mark.parametrize("t,lam", TWO_PASS_CASES)
def test_root_operators_match_two_pass_oracle(t, lam):
    for p in generate(t, lam).vertices:
        _match_two_pass(p)


def _fractions(denominators):
    return st.builds(Fraction, st.integers(-4, 4), st.sampled_from(denominators))


@st.composite
def rational_paths(draw):
    """A type and breakpoints with strictly increasing times from 0 to 1 and
    small rational points, mostly integral.  A drawn split adds a collinear
    breakpoint, so the path need not be reduced; one in eight does not start
    at the origin, which PLPath.from_breakpoints must refuse."""
    t = draw(st.sampled_from([A1, A2, C2, G2, DynkinType("B", 3)]))
    inner = draw(st.lists(_fractions([2, 3, 4, 5, 6]), max_size=4, unique=True))
    times = [F(0)] + sorted(x for x in inner if 0 < x < 1) + [F(1)]
    coords = st.tuples(*[_fractions([1, 1, 1, 2, 3])] * t.rank)
    start = draw(coords) if draw(st.integers(0, 7)) == 0 else (F(0),) * t.rank
    bps = [(F(0), start)]
    for time in times[1:]:
        point = draw(coords)
        if draw(st.booleans()):
            t0, p0 = bps[-1]
            bps.append(((t0 + time) / 2, tuple((a + b) / 2 for a, b in zip(p0, point))))
        bps.append((time, point))
    return t, bps


def _outcome(op, p, i):
    try:
        return _view(op(p, i))
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _scaled(p, a, b):
    """p over a times den and b times vden: pointwise equal, not reduced if a
    or b is above 1."""
    dirs = tuple(tuple(b * c for c in d) for d in p.dirs)
    return PLPath(p.rtype, a * p.den, tuple(a * x for x in p.times), b * p.vden, dirs)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(rational_paths(), st.integers(1, 3), st.integers(1, 3))
def test_root_operators_match_oracle_on_random_paths(case, a, b):
    t, bps = case
    if any(bps[0][1]):
        with pytest.raises(DomainError, match="^path must start at the origin$"):
            PLPath.from_breakpoints(t, bps)
        return
    p = _scaled(PLPath.from_breakpoints(t, bps), a, b)
    for i in p.rtype.nodes:
        assert _outcome(root_f, p, i) == _outcome(paths_oracle.root_f, p, i)
        assert _outcome(root_e, p, i) == _outcome(paths_oracle.root_e, p, i)
    # against the breakpoint kernels: equal results, or the same exception
    # with the same message
    _match_two_pass(p)


@pytest.mark.parametrize(
    "p,reduced",
    [
        # the straight A1 path of weight 1 with a breakpoint at 1/2: dropping
        # it leaves times (0, 2) over den 2, which reduce to (0, 1) over 1
        (PLPath(A1, 2, (0, 1, 2), 1, ((1,), (1,))), straight_path(A1, (1,))),
        (PLPath(A1, 2, (0, 1, 2), 2, ((2,), (2,))), straight_path(A1, (1,))),
        (
            PLPath(A2, 4, (0, 2, 4), 2, ((2, 0), (-2, 2))),
            PLPath(A2, 2, (0, 1, 2), 1, ((1, 0), (-1, 1))),
        ),
    ],
)
def test_unreduced_paths_match_the_breakpoint_kernels(p, reduced):
    assert canonicalize(p) == reduced
    _match_two_pass(p)


def test_operators_reject_paths_off_the_origin():
    # the A1 path from -1 to 1 and the A2 path from (-1, 0) to (1, 0): a path
    # starts at the origin by construction, so neither its constructor nor
    # path JSON builds these, and the operators need no check of their own
    for t, start, end in ((A1, (-1,), (1,)), (A2, (-1, 0), (1, 0))):
        bps = ((0, start), (1, end))
        with pytest.raises(DomainError, match="^path must start at the origin$"):
            PLPath.from_breakpoints(t, bps)
        rational = tuple((F(time), tuple(map(F, point))) for time, point in bps)
        data = paths_oracle.path_to_json(paths_oracle.FPath(t, rational))
        with pytest.raises(DomainError, match="^path must start at the origin$"):
            path_from_json(t, data)


def test_operators_reject_colors_outside_the_type():
    p = straight_path(A2, (1, 1))
    for op in (root_f, root_e, epsilon, phi):
        # 1.0 and True pass "in range(1, 3)": root_f(p, 1.0) raised TypeError
        # from tuple indexing and root_f(p, True) acted as color 1
        for i in (0, 3, 1.0, True, "1"):
            with pytest.raises(DomainError, match=rf"^node {re.escape(repr(i))} not in A2$"):
                op(p, i)


def test_operators_reject_a_non_integral_minimum():
    # _heights formats this message only when the minimum is not an integer
    p = PLPath.from_breakpoints(A1, ((0, (0,)), (F(1, 2), (F(-1, 2),)), (1, (1,))))
    for op in (root_f, root_e, epsilon, phi):
        with pytest.raises(ModelIntegrityError, match=r"^minimum of H_1 is not an integer: -1/2$"):
            op(p, 1)


def test_virtual_operators_reject_colors_outside_the_source_type():
    # the virtual operators read sigma(i) and gamma(i) unguarded: color 0 raised
    # a bare KeyError, and True and 1.0 acted as color 1
    fold = folding_pair("C2")
    q = virtualize_path(fold, straight_path(C2, (1, 1)))
    for op in (virtual_f, virtual_e):
        for i in (0, 3, 1.0, True, "1"):
            with pytest.raises(DomainError, match=rf"^node {re.escape(repr(i))} not in C2$"):
                op(fold, q, i)
