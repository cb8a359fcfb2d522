"""Convergent recurrences, brackets, and the source grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import _oracle as oracle
from _oracle import tail_bracket
from irrmeasure import (
    ExplicitSource,
    PeriodicSource,
    RuleSource,
    SeededSource,
    SourceExhausted,
    bracket,
    initial_state,
    parse_source,
)

PHI = "periodic:[1;|1]"
RT2 = "periodic:[1;|2]"


def advance_denominators(source, count):
    return [source.state(m).q for m in range(count)]


def test_phi_denominators_are_fibonacci():
    phi = parse_source(PHI)
    assert advance_denominators(phi, 7) == [1, 1, 2, 3, 5, 8, 13]


def test_rt2_convergents():
    rt2 = parse_source(RT2)
    got = [(rt2.state(m).p, rt2.state(m).q) for m in range(4)]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12)]


def test_rt2_determinant_at_m3():
    rt2 = parse_source(RT2)
    state = rt2.state(3)
    assert state.p * state.q_prev - state.p_prev * state.q == 17 * 5 - 7 * 12 == 1


@pytest.mark.parametrize(
    "spec",
    [PHI, RT2, "rule:e", "rule:const:3", "seeded:42:6"],
)
def test_determinant_identity_deep(spec):
    source = parse_source(spec)
    for m in range(1, 501):
        state = source.state(m)
        assert state.determinant() == (-1) ** (m - 1)
        # q strictly increases once past the possible q_0 = q_1 tie
        if m >= 2:
            assert state.q > state.q_prev


def test_advance_rejects_nonpositive_quotient():
    state = initial_state(1)
    with pytest.raises(ValueError):
        state.advance(0)


def test_bracket_phi_depth4():
    b = bracket(parse_source(PHI), 4)
    assert (b.lo, b.hi) == (Fraction(3, 2), Fraction(5, 3))


def test_bracket_rt2_depth3_width():
    b = bracket(parse_source(RT2), 3)
    assert b.width == Fraction(1, 10)
    value = oracle.rt2_value()
    assert mp.mpf(b.lo.numerator) / b.lo.denominator < value
    assert mp.mpf(b.hi.numerator) / b.hi.denominator > value


@pytest.mark.parametrize("spec", [PHI, RT2, "rule:e", "seeded:7:4"])
def test_bracket_nesting(spec):
    source = parse_source(spec)
    for depth in range(2, 12):
        outer = bracket(source, depth)
        inner = bracket(source, depth + 1)
        assert outer.encloses(inner)
        assert inner.width < outer.width


def test_bracket_contains_oracle_values():
    cases = [
        (PHI, oracle.phi_value()),
        (RT2, oracle.rt2_value()),
        ("rule:e", oracle.e_value()),
    ]
    for spec, value in cases:
        b = bracket(parse_source(spec), 20)
        assert mp.mpf(b.lo.numerator) / b.lo.denominator <= value
        assert value <= mp.mpf(b.hi.numerator) / b.hi.denominator


def test_tail_bracket_ranges():
    phi = parse_source(PHI)
    rt2 = parse_source(RT2)
    e = parse_source("rule:e")
    for m in range(1, 8):
        tb = tail_bracket(phi, m, 10)
        assert 1 < tb.lo <= tb.hi < 2
    for m in range(1, 8):
        tb = tail_bracket(rt2, m, 10)
        assert 2 < tb.lo <= tb.hi < 3
    tb = tail_bracket(e, 2, 10)
    assert 2 < tb.lo <= tb.hi < 3


def test_tail_bracket_matches_oracle_tail():
    # tail of rt2 at any m >= 1 is 1 + sqrt(2)
    tb = tail_bracket(parse_source(RT2), 3, 18)
    tail = 1 + oracle.rt2_value()
    assert mp.mpf(tb.lo.numerator) / tb.lo.denominator <= tail
    assert tail <= mp.mpf(tb.hi.numerator) / tb.hi.denominator


def test_e_rule_quotients_match_textbook_pattern():
    e = parse_source("rule:e")
    got = [e.term(m) for m in range(12)]
    expected = [oracle.e_quotient(m) for m in range(12)]
    assert got == expected == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_e_convergents_approach_mpmath_e():
    e = parse_source("rule:e")
    state = e.state(12)
    approx = mp.mpf(state.p) / state.q
    assert abs(approx - mp.e) < mp.mpf(1) / state.q**2


@pytest.mark.parametrize(
    "spec",
    [PHI, RT2, "explicit:[0;1,2,3]", "rule:e", "rule:const:5", "seeded:99:8"],
)
def test_grammar_round_trip(spec):
    source = parse_source(spec)
    again = parse_source(source.spec_string())
    assert [source.term(m) for m in range(4)] == [again.term(m) for m in range(4)]


@pytest.mark.parametrize(
    "bad",
    ["", "periodic:[1;|]", "explicit:[1]", "rule:unknown", "seeded:1", "xyz:[1;2]"],
)
def test_grammar_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_source(bad)


def test_explicit_source_exhaustion():
    source = ExplicitSource([1, 2, 3])
    assert source.term(2) == 3
    with pytest.raises(SourceExhausted) as info:
        source.term(3)
    assert info.value.index == 3


def test_explicit_rejects_bad_terms():
    with pytest.raises(ValueError):
        ExplicitSource([1, 0, 2])
    with pytest.raises(ValueError):
        ExplicitSource([1])


def test_periodic_requires_nonempty_parts():
    with pytest.raises(ValueError):
        PeriodicSource([], [2])
    with pytest.raises(ValueError):
        PeriodicSource([1], [])


def test_seeded_determinism_and_bounds():
    a = SeededSource(2024, 6)
    b = SeededSource(2024, 6)
    c = SeededSource(2025, 6)
    terms_a = [a.term(m) for m in range(200)]
    terms_b = [b.term(m) for m in range(200)]
    terms_c = [c.term(m) for m in range(200)]
    assert terms_a == terms_b
    assert terms_a != terms_c
    assert terms_a[0] == 0
    assert all(1 <= t <= 6 for t in terms_a[1:])
    assert a.PRNG_NAME == "splitmix64"


def test_periodic_denominators_satisfy_period_recurrence():
    # period (1, 2): over one period the transfer matrix has trace 4 and
    # determinant +1, so q_{m+2} = 4 q_m - q_{m-2} once the phase settles
    source = PeriodicSource([1], [1, 2])
    qs = advance_denominators(source, 24)
    assert qs[:7] == [1, 1, 3, 4, 11, 15, 41]
    for m in range(3, 22):
        assert qs[m + 2] == 4 * qs[m] - qs[m - 2]


def test_rule_const_matches_periodic():
    const = parse_source("rule:const:4")
    periodic = PeriodicSource([4], [4])
    assert [const.term(m) for m in range(10)] == [periodic.term(m) for m in range(10)]


def scan_level(source, t):
    """Smallest m with q_m >= t, by walking the denominators from m = 0."""
    m = 0
    while source.state(m).q < t:
        m += 1
    return m


def outcome(fn):
    try:
        return fn()
    except SourceExhausted as exc:
        return ("exhausted", exc.index, exc.available)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6),
)
def test_seek_matches_a_plain_scan(terms, ts):
    sought = ExplicitSource([0] + terms)
    scanned = ExplicitSource([0] + terms)
    for t in ts:
        assert outcome(lambda: sought.seek(t)) == outcome(lambda: scan_level(scanned, t))
        # the lookup reads no further into the source than the scan does
        assert len(sought._terms) == len(scanned._terms)
        # the list seek bisects stays in step with the states, also after
        # the source runs out
        assert sought._denominators == [s.q for s in sought._states]


def test_seek_resolves_the_q0_q1_tie_to_the_first_index():
    phi = parse_source(PHI)
    assert (phi.state(0).q, phi.state(1).q) == (1, 1)
    assert phi.seek(1) == 0
    assert phi.seek(2) == 2
    # psi reads the level as seek(t + 1) - 1, which lands on the later tie
    assert phi.seek(1 + 1) - 1 == 1


def test_seek_rejects_t_below_one():
    source = parse_source(RT2)
    for t in (0, -3):
        with pytest.raises(ValueError):
            source.seek(t)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=40))
def test_determinant_identity_random_quotients(terms):
    source = ExplicitSource([0] + terms)
    for m in range(1, len(terms) + 1):
        state = source.state(m)
        assert state.p * state.q_prev - state.p_prev * state.q == (-1) ** (m - 1)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=40))
def test_consecutive_denominators_coprime(terms):
    import math

    source = ExplicitSource([0] + terms)
    for m in range(1, len(terms) + 1):
        state = source.state(m)
        assert math.gcd(state.q, state.q_prev) == 1
