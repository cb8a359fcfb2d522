"""Staircase evaluation, Perron cross-checks, and exact comparisons."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import _oracle as oracle
from _oracle import (
    CapExceeded,
    brute_force_psi,
    iter_brute_force_psi,
    nearest_integer_distance,
    perron_bracket,
)
from irrmeasure import (
    ApproximationError,
    ComparisonUndecided,
    ExplicitSource,
    FunctionTuple,
    NotAJumpPoint,
    PeriodicSource,
    RationalBracket,
    SeededSource,
    SourceExhausted,
    bracket,
    order_vector_at,
    parse_source,
    psi_at,
    psi_left_limit,
)
from irrmeasure import psi as psi_module
from irrmeasure.order_dynamics import _by_ends, _certify
from irrmeasure.psi import strictly_below

PHI = parse_source("periodic:[1;|1]")
RT2 = parse_source("periodic:[1;|2]")
E = parse_source("rule:e")


def contains(b, value) -> bool:
    lo = mp.mpf(b.lo.numerator) / b.lo.denominator
    hi = mp.mpf(b.hi.numerator) / b.hi.denominator
    return lo <= value <= hi


def test_psi_phi_small_values():
    # ||phi|| = 2 - phi, then |3 phi - 5| from t = 3 onward
    err = psi_at(PHI, 1)
    assert contains(err.bracket, 2 - oracle.phi_value())
    err = psi_at(PHI, 4)
    assert err.m == 3 and err.q == 3
    assert contains(err.bracket, abs(3 * oracle.phi_value() - 5))


def test_psi_rt2_at_5():
    err = psi_at(RT2, 5)
    assert err.m == 2 and err.q == 5
    assert contains(err.bracket, abs(5 * oracle.rt2_value() - 7))


def test_psi_matches_oracle_staircase_spot_checks():
    for source, alpha, rule in [
        (PHI, oracle.phi_value(), oracle.phi_quotient),
        (RT2, oracle.rt2_value(), oracle.rt2_quotient),
        (E, oracle.e_value(), oracle.e_quotient),
    ]:
        for t in [3, 7, 19, 101, 5000]:
            err = psi_at(source, t)
            assert contains(err.bracket, oracle.staircase_value(alpha, rule, t))


def test_psi_target_width_honored():
    width = Fraction(1, 10**40)
    err = psi_at(PHI, 100, target_width=width)
    assert err.bracket.width <= width


def test_left_limit_phi_at_5():
    err = psi_left_limit(PHI, 5)
    assert err.q == 3
    assert contains(err.bracket, abs(3 * oracle.phi_value() - 5))


def test_left_limit_rt2_at_5():
    err = psi_left_limit(RT2, 5)
    assert err.q == 2
    assert contains(err.bracket, abs(2 * oracle.rt2_value() - 3))


def test_left_limit_exceeds_value_at_jump():
    for source in (PHI, RT2, E):
        for m in range(2, 11):
            t = source.state(m).q
            if t == source.state(m - 1).q:
                continue
            before = psi_left_limit(source, t)
            after = psi_at(source, t)
            before.refine_to(Fraction(1, 10**30))
            after.refine_to(Fraction(1, 10**30))
            assert before.bracket.lo > after.bracket.hi


def test_left_limit_requires_jump_point():
    with pytest.raises(NotAJumpPoint):
        psi_left_limit(PHI, 6)
    with pytest.raises(NotAJumpPoint):
        psi_left_limit(PHI, 1)


def test_perron_phi_m3():
    # 1/(3 phi + 2), same real as |3 phi - 5|
    b = perron_bracket(PHI, 3)
    assert contains(b, 1 / (3 * oracle.phi_value() + 2))
    assert contains(b, abs(3 * oracle.phi_value() - 5))


def test_perron_rt2_m2():
    b = perron_bracket(RT2, 2)
    assert contains(b, 1 / (5 * (1 + oracle.rt2_value()) + 2))


@pytest.mark.parametrize("source", [PHI, RT2, E], ids=["phi", "rt2", "e"])
def test_perron_overlaps_direct_value(source):
    for m in range(1, 31):
        q = source.state(m).q
        direct = psi_at(source, q)
        assert direct.m >= m  # q_0 = q_1 collapses to the later index
        via_tail = perron_bracket(source, direct.m)
        assert via_tail.intersects(direct.bracket)


# an order vector lists the larger value first


def test_compare_phi_rt2_at_4():
    pair = FunctionTuple.build([("phi", PHI), ("rt2", RT2)])
    assert order_vector_at(pair, 4) == ("rt2", "phi")


def test_compare_rt2_phi_at_2():
    pair = FunctionTuple.build([("rt2", RT2), ("phi", PHI)])
    assert order_vector_at(pair, 2) == ("phi", "rt2")


def test_compare_same_number_undecided():
    pair = FunctionTuple.build([("a", PHI), ("b", parse_source("periodic:[1;|1]"))])
    with pytest.raises(ComparisonUndecided) as info:
        order_vector_at(pair, 10, depth_limit=16)
    assert info.value.rounds == 16


def test_verdict_stable_under_extra_refinement():
    a = psi_at(PHI, 4, label="phi")
    b = psi_at(RT2, 4, label="rt2")
    assert _certify([a, b], 4, 64) == ("rt2", "phi")
    a.refine(2)
    b.refine(2)
    assert a.bracket.hi < b.bracket.lo  # still cleanly separated, same order


def test_brute_force_phi_12():
    b = brute_force_psi(PHI, 12)
    assert contains(b, abs(8 * oracle.phi_value() - 13))


def test_brute_force_rt2_12():
    b = brute_force_psi(RT2, 12)
    assert contains(b, abs(12 * oracle.rt2_value() - 17))


def test_brute_force_cap():
    with pytest.raises(CapExceeded):
        brute_force_psi(PHI, 10**6, cap=10**5)


@pytest.mark.parametrize("source", [PHI, RT2, E], ids=["phi", "rt2", "e"])
def test_brute_sweep_overlaps_psi_at(source):
    for t, b in iter_brute_force_psi(source, 60):
        err = psi_at(source, t, target_width=Fraction(1, 10**14))
        assert b.intersects(err.bracket)
        assert b.width <= Fraction(2, 10**13)


def test_level_zero_with_unit_first_quotient_against_brute_force():
    # phi = [1; 1, 1, ...]: q_0 = q_1 = 1 and the integer nearest to phi
    # is a_0 + 1 = p_1, not p_0
    err = ApproximationError(PHI, 0)
    err.refine_to(Fraction(1, 10**30))
    assert err.bracket.width <= Fraction(1, 10**30)
    assert brute_force_psi(PHI, 1).encloses(err.bracket)
    assert contains(err.bracket, 2 - oracle.phi_value())


def test_brute_sweep_against_oracle_brute():
    alpha = oracle.e_value()
    for t, b in iter_brute_force_psi(E, 40):
        assert contains(b, oracle.brute_staircase_value(alpha, t))


def test_refine_shrinks_strictly():
    err = psi_at(PHI, 8, target_width=Fraction(1, 2**20))
    w = err.bracket.width
    err.refine()
    assert err.bracket.width < w


def test_nearest_integer_distance_cases():
    assert nearest_integer_distance(
        RationalBracket(Fraction(29, 10), Fraction(31, 10))
    ).lo == 0
    half = nearest_integer_distance(
        RationalBracket(Fraction(24, 10), Fraction(26, 10))
    )
    assert half.hi == Fraction(1, 2)
    wide = nearest_integer_distance(RationalBracket(Fraction(0), Fraction(3, 2)))
    assert (wide.lo, wide.hi) == (0, Fraction(1, 2))
    plain = nearest_integer_distance(
        RationalBracket(Fraction(31, 10), Fraction(32, 10))
    )
    assert (plain.lo, plain.hi) == (Fraction(1, 10), Fraction(1, 5))


def test_psi_monotone_nonincreasing_prefix():
    values = [psi_at(PHI, t, target_width=Fraction(1, 10**25)) for t in range(1, 60)]
    for a, b in zip(values, values[1:]):
        assert b.bracket.lo <= a.bracket.hi
        if b.m == a.m:
            assert (b.bracket.lo, b.bracket.hi) == (a.bracket.lo, a.bracket.hi)
        else:
            assert b.bracket.hi < a.bracket.lo


# ------------------------------------------------ stopping rule and memo

TARGETS = [
    Fraction(1),
    Fraction(3, 7),
    Fraction(1, 10**6),
    Fraction(1, 10**24),
    Fraction(1, 2**80),
]

quotients = st.integers(min_value=1, max_value=9)
# each draw rebuilds its source, so two calls give two independent sources
source_factories = st.one_of(
    st.builds(
        lambda a0, pre, period: lambda: PeriodicSource([a0] + pre, period),
        st.integers(min_value=0, max_value=3),
        st.lists(quotients, max_size=4),
        st.lists(quotients, min_size=1, max_size=4),
    ),
    st.builds(
        lambda seed, bound: lambda: SeededSource(seed, bound),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=12),
    ),
    st.builds(
        lambda terms: lambda: ExplicitSource([0] + terms),
        st.lists(quotients, min_size=1, max_size=120),
    ),
)


def fraction_width_refine_to(err, target_width, step):
    """The stopping rule as it read before the integer width test."""
    while err.bracket.width > target_width:
        width = err.bracket.width
        err.refine(step)
        assert err.bracket.width < width  # a stuck bracket would loop forever


def outcome(fn):
    try:
        err = fn()
    except SourceExhausted as exc:
        return ("exhausted", exc.index, exc.available)
    return err.depth, err.bracket


@given(
    source_factories,
    st.one_of(st.just(0), st.integers(min_value=0, max_value=40)),
    st.sampled_from(TARGETS),
    st.sampled_from([1, 4]),
)
def test_refine_to_matches_the_fraction_width_loop(make_source, m, target, step):
    def run(stop):
        err = ApproximationError(make_source(), m)
        stop(err, target, step)
        return err

    expected = outcome(lambda: run(fraction_width_refine_to))
    got = outcome(lambda: run(ApproximationError.refine_to))
    assert got == expected
    if isinstance(got[0], int):
        # the final bracket is the Fraction enclosure of ||q_m * alpha||
        source = make_source()
        q = source.state(m).q
        assert got[1] == nearest_integer_distance(bracket(source, got[0]).scale(q))


def test_refine_to_starts_at_level_zero_with_unit_first_quotient():
    # phi: the bracket at m = 0 has the integer end 0 and its width is q_0/(q_2*q_1)
    err = ApproximationError(PHI, 0)
    assert err.bracket.lo == 0
    err.refine_to(Fraction(1, 2))
    assert err.depth == 3 and err.bracket.width == Fraction(1, 2)


def memo_outcome(call, source, t, width):
    """(m, depth, integer ends) of call's handle, or None off a jump point."""
    try:
        err = call(source, t, width)
    except NotAJumpPoint:
        return None
    return err.m, err.depth, integer_ends(err)


@pytest.mark.parametrize("spec", ["periodic:[1;|1]", "rule:e", "seeded:5:9"])
def test_bracket_memo_matches_fresh_sources(spec):
    swept = parse_source(spec)
    widths = [Fraction(1), Fraction(3, 7), Fraction(1, 2**80), Fraction(1, 10**24)]
    for t in range(1, 300):
        for width in widths:
            for call in (psi_at, psi_left_limit):
                got = memo_outcome(call, swept, t, width)
                assert got == memo_outcome(call, parse_source(spec), t, width)
    # the settled depth depends on the starting depth and the step too
    for m in range(20):
        for extra in (0, 1, 3):
            for step, width in itertools.product((1, 4), widths):
                got, expected = (
                    ApproximationError(source, m) for source in (swept, parse_source(spec))
                )
                if extra:
                    got.refine(extra)
                    expected.refine(extra)
                got.refine_to(width, step)
                expected.refine_to(width, step)
                assert (got.depth, integer_ends(got)) == (expected.depth, integer_ends(expected))


def test_refining_a_handle_leaves_later_values_alone():
    shared, fresh = parse_source("seeded:5:9"), parse_source("seeded:5:9")
    held = psi_at(shared, 700)
    held_depth = held.depth
    held.refine(5)
    again = psi_at(shared, 700)
    expected = psi_at(fresh, 700)
    assert (again.m, again.depth, again.bracket) == (
        expected.m,
        expected.depth,
        expected.bracket,
    )
    assert held.depth == held_depth + 5 and held.bracket != again.bracket
    again.refine(1)
    assert held.depth == held_depth + 5


def test_a_sweep_builds_one_handle_per_level_and_width(monkeypatch):
    plain = psi_module.ApproximationError

    class Counted(plain):
        built = 0

        def __init__(self, *args, **kwargs):
            type(self).built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(psi_module, "ApproximationError", Counted)
    source, fresh = parse_source("periodic:[1;|1]"), parse_source("periodic:[1;|1]")
    jump = 10946  # q_20 of phi, the only jump in the window
    widths = [Fraction(1, 10**24), Fraction(1, 2**80)]
    handles, keys = [], set()
    for width in widths:
        for t in range(jump - 200, jump + 200):
            calls = [(psi_at, 19 + (t >= jump), f"t={t}")]
            if t == jump:
                calls.append((psi_left_limit, 19, f"left of {t}"))
            for call, m, label in calls:
                err = call(source, t, width, label)
                # the same handle as one built and refined outside any memo
                expected = plain(fresh, m)
                expected.refine_to(width)
                assert (err.m, err.depth, integer_ends(err)) == (
                    m,
                    expected.depth,
                    integer_ends(expected),
                )
                assert type(err) is Counted and err.label == label
                handles.append(err)
                keys.add((m, width.as_integer_ratio()))
    assert len(keys) == 4 and len(handles) == 802
    # the cursor settles one handle per level entered, the left limit its own
    assert Counted.built == len(keys) + len(widths)
    assert len({id(err) for err in handles}) == len(handles)
    assert not any(err is source._cursor[3] for err in handles)
    # refining a returned handle moves neither the template nor later values
    width = widths[0]
    held = psi_at(source, jump, width, "held")
    template = source._cursor[3]
    before = (template.depth, template.ends, template.label)
    held.refine(3)
    assert (template.depth, template.ends, template.label) == before
    again = psi_at(source, jump, width)
    assert (again.depth, integer_ends(again)) == (before[0], integer_ends(template))
    assert again.depth == held.depth - 3


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "t, target_width",
    [
        (10, Fraction(1, 10**24)),
        (10, Fraction(1, 10**6)),
        (10**6, Fraction(1)),
        (2, Fraction(1, 2**80)),
    ],
)
def test_exhausted_explicit_source_reports_its_end(warm, t, target_width):
    # q = 1, 1, 3, 10, 43, 225, 1393, 9976, 81201; nine terms in all
    source = parse_source("explicit:[0;1,2,3,4,5,6,7,8]")
    if warm:
        for s in range(1, 200):
            psi_at(source, s, target_width=Fraction(1))
    # a search that ran out runs out again, and at the same index, without
    # reading further
    for _ in range(2):
        with pytest.raises(SourceExhausted) as info:
            psi_at(source, t, target_width=target_width)
        assert (info.value.index, info.value.available) == (9, 9)
        assert len(source._states) == 9 and len(source._terms) == 9


def forbid_reads(source):
    """Make any state read fail."""

    def state(m):
        raise AssertionError(f"state {m} read")

    source.state = state


@pytest.mark.parametrize("spec", ["periodic:[1;|1]", "explicit:[0;1,2,3,4,5,6,7,8]"])
@pytest.mark.parametrize("target_width", [Fraction(0), Fraction(-3, 7), 0])
def test_a_width_that_is_not_positive_is_refused_before_any_read(spec, target_width):
    # no depth reaches such a width, so a search would step forever on an
    # infinite source
    held, fresh = ApproximationError(parse_source(spec), 2), parse_source(spec)
    forbid_reads(held.source)
    forbid_reads(fresh)
    for call in (
        lambda: psi_at(fresh, 10, target_width),
        lambda: psi_left_limit(fresh, 10, target_width),
        lambda: held.refine_to(target_width),
    ):
        with pytest.raises(ValueError, match="target width must be positive"):
            call()


def test_a_search_with_a_bad_step_stores_no_depth(monkeypatch):
    err = ApproximationError(parse_source("seeded:5:9"), 4)
    with pytest.raises(ValueError, match="refinement step"):
        err.refine_to(Fraction(1, 10**24), step=0)
    assert err.depth == 7
    err.refine_to(Fraction(1, 10**24), step=4)
    # psi_at's own search, with its step forced below 1, raises too
    t = err.source.state(4).q
    monkeypatch.setattr(psi_module, "_STEP", 0)
    with pytest.raises(ValueError, match="refinement step"):
        psi_at(err.source, t, Fraction(1, 10**24))
    monkeypatch.undo()
    value = psi_at(err.source, t, Fraction(1, 10**24))
    assert (value.depth, integer_ends(value)) == (err.depth, integer_ends(err))


# ------------------------------------------------------ the level cursor

CURSOR_SPECS = [
    "periodic:[1;|1]",
    "periodic:[1;|2]",
    "rule:e",
    "seeded:5:9",
    "explicit:[0;1,2,3,4,5,6,7,8]",  # q_8 = 81201 is its last denominator
]
CURSOR_WIDTH = Fraction(1, 10**24)


def cursor_outcome(call, source, t, width, label):
    """(handle or None, plain values of what call returned or raised)."""
    try:
        err = call(source, t, width, label)
    except SourceExhausted as exc:
        return None, ("exhausted", exc.index, exc.available)
    except (NotAJumpPoint, ValueError) as exc:
        return None, (type(exc), str(exc))
    return err, (type(err), err.m, err.q, err.depth, integer_ends(err), err.label)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(CURSOR_SPECS),
    st.lists(
        st.tuples(
            st.sampled_from([psi_at, psi_left_limit]),
            st.integers(0, 24),  # a level m, clamped to the source's last
            st.integers(-2, 2),  # t = q_m + offset, around the jump at q_m
            st.sampled_from(["same", "equal", "other"]),
            st.booleans(),  # repeat the previous call's t instead
        ),
        min_size=1,
        max_size=40,
    ),
)
@example(
    "periodic:[1;|1]",
    [
        (psi_at, 20, -1, "same", False),  # the cursor takes level 19
        (psi_at, 20, 0, "same", False),  # t = q_20 is past it
        (psi_at, 20, 0, "equal", True),
        (psi_at, 20, -1, "same", False),
        (psi_at, 20, -1, "same", True),  # a hit
        (psi_at, 20, -1, "other", True),  # same level, another width
        (psi_left_limit, 20, 0, "same", False),
        (psi_at, 20, 1, "same", False),
    ],
)
def test_the_level_cursor_serves_what_a_fresh_source_serves(spec, calls):
    source, levels = parse_source(spec), parse_source(spec)
    last = 8 if spec.startswith("explicit") else 24
    other = Fraction(1, 10**6)
    returned, t = [], 1
    for index, (call, m, offset, which, repeat) in enumerate(calls):
        if not repeat:
            t = max(1, levels.state(min(m, last)).q + offset)
        # "equal" is a Fraction equal to the cursor's width but not it
        width = {"same": CURSOR_WIDTH, "equal": Fraction(1, 10**24), "other": other}[which]
        label = f"call {index}"
        err, got = cursor_outcome(call, source, t, width, label)
        assert got == cursor_outcome(call, parse_source(spec), t, width, label)[1]
        if err is not None:
            assert not any(err is kept for kept in returned)
            assert err is not source._cursor[3]
            returned.append(err)


def warm_cursor(spec, t=700):
    """A source whose cursor holds t's level at CURSOR_WIDTH, after a hit."""
    source = parse_source(spec)
    psi_at(source, t, CURSOR_WIDTH)
    psi_at(source, t, CURSOR_WIDTH)
    assert source._cursor[0] is CURSOR_WIDTH and source._cursor[1] <= t < source._cursor[2]
    return source


@pytest.mark.parametrize("target_width", [Fraction(0), Fraction(-3, 7), 0])
def test_a_width_that_is_not_positive_is_refused_after_a_hit(target_width):
    source = warm_cursor("seeded:5:9")
    forbid_reads(source)
    with pytest.raises(ValueError, match="target width must be positive"):
        psi_at(source, 700, target_width)


@pytest.mark.parametrize("t", [0, -1, -(10**30)])
def test_a_t_below_1_is_refused_after_a_hit(t):
    # t = 1 puts the cursor on the lowest level there is
    source = warm_cursor("periodic:[1;|2]", t=1)
    with pytest.raises(ValueError, match="t must be a positive integer"):
        psi_at(source, t, CURSOR_WIDTH)


@pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 10**6), CURSOR_WIDTH])
def test_an_explicit_source_runs_out_alike_cold_and_warm(width):
    spec = "explicit:[0;1,2,3,4,5,6,7,8]"
    ts = [1, 2, 3, 9, 10, 42, 43, 44, 1392, 1393, 9976, 81200, 81201, 10**6]
    ts += ts[::-1] + ts
    warm = parse_source(spec)
    for t in ts:
        cold = cursor_outcome(psi_at, parse_source(spec), t, width, None)[1]
        before = warm._cursor
        assert cursor_outcome(psi_at, warm, t, width, None)[1] == cold
        if cold[0] == "exhausted":
            # a call that ran out leaves the cursor where it was
            assert warm._cursor is before
    assert cold == ("exhausted", 9, 9)  # t = 10**6 is past q_8


def test_refining_a_hit_moves_neither_the_cursor_nor_later_values():
    source = warm_cursor("seeded:5:9")
    template = source._cursor[3]
    before = (template.depth, template.ends, template.label)
    held = psi_at(source, 701, CURSOR_WIDTH, "held")
    held.refine(3)
    assert source._cursor[3] is template
    assert (template.depth, template.ends, template.label) == before
    again = psi_at(source, 702, CURSOR_WIDTH)
    expected = psi_at(parse_source("seeded:5:9"), 702, CURSOR_WIDTH)
    assert (again.m, again.depth, integer_ends(again)) == (
        expected.m,
        expected.depth,
        integer_ends(expected),
    )
    assert held.depth == again.depth + 3


# ------------------------------------------- integer ends against Fractions


def fraction_bracket(source, m, depth):
    """The bracket as Fractions: min and max of the two ends at (m, depth)."""
    q = source.state(m).q
    nearest = source.state(source.seek(q + 1) - 1).p
    ends = [
        Fraction(abs(q * state.p - nearest * state.q), state.q)
        for state in (source.state(depth - 1), source.state(depth - 2))
    ]
    return RationalBracket(min(ends), max(ends))


@pytest.mark.parametrize(
    "spec",
    [
        "periodic:[1;|1]",  # a_1 = 1: at m = 0 the nearest integer is p_1
        "periodic:[0;3,1|2,7]",
        "seeded:5:9",
        "seeded:11:2",
        "explicit:[2;1,4," + ",".join(str(1 + i % 5) for i in range(50)) + "]",
        "explicit:[0;2," + ",".join(str(1 + (i * 7) % 11) for i in range(50)) + "]",
    ],
    ids=["phi", "periodic", "seeded-5-9", "seeded-11-2", "explicit-a1-1", "explicit-a1-2"],
)
def test_integer_ends_give_the_fraction_bracket(spec):
    source = parse_source(spec)
    for m in range(41):
        err = ApproximationError(source, m)
        for _ in range(4):
            assert err.bracket == fraction_bracket(source, m, err.depth)
            err.refine(1)


# small seeds and bounds so that equal and touching brackets both occur
small_specs = st.builds("seeded:{}:{}".format, st.integers(0, 9), st.integers(2, 3))


# ------------------------------------------ tail continuants and first order


def product_ends(source, m, depth):
    """Ends at (m, depth) by the product formula |q_m*p_d - p*q_d| / q_d.

    p is the integer nearest to q_m*alpha, found by looking up the level of
    t = q_m; the ends are put in order by one cross-product.  It reads the
    level, the lookup past q_m, then the states at depth - 1 and depth - 2,
    so a twin source that only it reads shows where a handle must run out.
    """
    q = source.state(m).q
    nearest = source.state(source.seek(q + 1) - 1).p
    deep, shallow = source.state(depth - 1), source.state(depth - 2)
    a = abs(q * deep.p - nearest * deep.q)
    b = abs(q * shallow.p - nearest * shallow.q)
    if a * shallow.q <= b * deep.q:
        return a, deep.q, b, shallow.q
    return b, shallow.q, a, deep.q


def product_psi_at(source, t, target_width):
    """psi_at by the product formula: the level, the width loop, the ends."""
    m = source.seek(t + 1) - 1
    depth = m + 3
    product_ends(source, m, depth)
    q = source.state(m).q
    while q > target_width * source.state(depth - 1).q * source.state(depth - 2).q:
        depth += 4
    return m, depth, product_ends(source, m, depth)


def integer_ends(err):
    e = err.ends
    return e.lo_num, e.lo_den, e.hi_num, e.hi_den


def seen(fn, source):
    """fn's value, or where it ran out, with how far the source was read."""
    try:
        value = fn()
    except SourceExhausted as exc:
        value = ("exhausted", exc.index, exc.available)
    return value, len(source._states), len(source._terms)


INTEGER_END_SPECS = [
    "periodic:[1;|1]",
    "periodic:[0;3,1|2,7]",
    "seeded:5:9",
    "seeded:11:2",
    "explicit:[2;1,4," + ",".join(str(1 + i % 5) for i in range(50)) + "]",
    "explicit:[0;2," + ",".join(str(1 + (i * 7) % 11) for i in range(50)) + "]",
]


@pytest.mark.parametrize(
    "spec",
    INTEGER_END_SPECS,
    ids=["phi", "periodic", "seeded-5-9", "seeded-11-2", "explicit-a1-1", "explicit-a1-2"],
)
def test_continuant_ends_match_the_product_formula(spec):
    # a twin source, read only by the product formula, runs out at the same
    # index after the same number of states as the one the handles read
    source, twin = parse_source(spec), parse_source(spec)
    steps = [1, 2, 1, 3] * 3
    for m in range(41):
        err = ApproximationError(source, m)
        assert seen(lambda: integer_ends(err), source) == seen(
            lambda: product_ends(twin, m, m + 3), twin
        )
        q, q_next = source.state(m).q, source.state(m + 1).q
        if q_next == q:  # m = 0 with a_1 = 1: the ends start at 0
            assert (err.floor, err.ceil) == (0, math.inf)
        else:
            assert (err.floor, err.ceil) == (q_next, q_next + q)
        for step in steps:
            depth = err.depth + step
            got = seen(lambda: err.refine(step) or integer_ends(err), source)
            assert got == seen(lambda: product_ends(twin, m, depth), twin)
            if got[0][0] == "exhausted":
                assert err.depth == depth - step  # a handle that ran out keeps its ends
                break
            lo_num, lo_den, hi_num, hi_den = got[0]
            # every end's reciprocal lies in [floor, ceil]
            assert err.floor * hi_num <= hi_den and lo_den <= err.ceil * lo_num
        # a second handle walks one depth at a time, from the entries the
        # first one left in the memo and from its own
        again = ApproximationError(source, m)
        while again.depth < err.depth:
            again.refine(1)
            assert integer_ends(again) == product_ends(twin, m, again.depth)


EXPLICIT_SPECS = [
    "explicit:[0;1,2,3,4,5,6,7,8]",
    "explicit:[0;1]",
    "explicit:[0;2]",
    "explicit:[1;1,1]",
    "explicit:[0;3,1,2]",
    "explicit:[2;1,4,1,1,5,2,9]",
]


@pytest.mark.parametrize("spec", EXPLICIT_SPECS)
def test_explicit_sources_run_out_where_the_product_formula_does(spec):
    source, twin = parse_source(spec), parse_source(spec)
    terms = len(source.terms_list)
    for m in range(terms + 1):
        got = seen(lambda: integer_ends(ApproximationError(source, m)), source)
        assert got == seen(lambda: product_ends(twin, m, m + 3), twin)
    # every denominator and its neighbours, and t past the last one; the
    # twin's states are all cached by now, so this reads nothing more
    ts = {state.q + d for state in twin._states for d in (-1, 0, 1)} | {2, 3, 10**6}

    def psi_outcome(t, target):
        err = psi_at(source, t, target)
        return err.m, err.depth, integer_ends(err)

    for target in [Fraction(1), Fraction(1, 10**6), Fraction(1, 10**24)]:
        for t in sorted(ts - {0}):
            got = seen(lambda: psi_outcome(t, target), source)
            assert got == seen(lambda: product_psi_at(twin, t, target), twin)


handle_specs = st.one_of(
    small_specs,
    st.builds("seeded:{}:{}".format, st.integers(0, 99), st.integers(1, 12)),
    st.sampled_from(["periodic:[1;|1]", "periodic:[1;|2]", "rule:e"]),
)


def sign(x):
    return (x > 0) - (x < 0)


@settings(deadline=None, max_examples=150)
@given(
    st.tuples(handle_specs, handle_specs),
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
# the level of t = 1 for both: the closed brackets touch at 1/3, where the
# first one's ceil 3 equals the second one's floor
@example(("seeded:3:3", "seeded:6:2"), (1, 1), (0, 0))
def test_first_order_verdicts_agree_with_the_cross_products(specs, levels, extras):
    a, b = (ApproximationError(parse_source(spec), m, spec) for spec, m in zip(specs, levels))
    for err, extra in zip((a, b), extras):
        if extra:
            err.refine(extra)
    for x, y in ((a, b), (b, a)):
        cross = x.ends.hi_num * y.ends.lo_den < y.ends.lo_num * x.ends.hi_den
        if x.floor > y.ceil:
            assert cross
        assert strictly_below(x, y) == cross == x.bracket.strictly_below(y.bracket)
    key_a, key_b = (a.bracket.lo, a.bracket.hi), (b.bracket.lo, b.bracket.hi)
    assert sign(_by_ends(a, b)) == (key_a > key_b) - (key_a < key_b)
    assert sign(_by_ends(b, a)) == (key_b > key_a) - (key_b < key_a)
