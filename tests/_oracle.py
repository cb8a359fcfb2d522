"""Independent oracles used to check and freeze expected test values.

The high-precision oracle is deliberately self-contained: plain integer
recurrences for denominators and mpmath constants for the real numbers,
sharing no code with the package under test.

The exact rational routes below it (brute-force minimization of ||q*alpha||,
the Perron identity on a tail bracket) use only cf_engine's convergents and
RationalBracket, never psi, so they stay independent of the production
staircase kernel they check.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf

from irrmeasure.cf_engine import (
    PartialQuotientSource,
    RationalBracket,
    bracket,
    initial_state,
)
from irrmeasure.errors import IrrMeasureError

mp.dps = 240

# quotient rules written out independently of the package sources
def phi_quotient(m: int) -> int:
    return 1


def rt2_quotient(m: int) -> int:
    return 1 if m == 0 else 2


def e_quotient(m: int) -> int:
    # [2; 1, 2, 1, 1, 4, 1, 1, 6, 1, ...]: a_{3j+2} = 2(j+1), else 1
    if m == 0:
        return 2
    return 2 * ((m - 2) // 3 + 1) if m % 3 == 2 else 1


def phi_value():
    return (1 + mp.sqrt(5)) / 2


def rt2_value():
    return mp.sqrt(2)


def e_value():
    return mp.e


def denominators(quotient, count: int):
    """q_0 .. q_{count-1} by the plain recurrence, pure integers."""
    qs = [1]
    q_prev, q = 0, 1
    for m in range(1, count):
        q_prev, q = q, quotient(m) * q + q_prev
        qs.append(q)
    return qs


def distinct_denominators(quotient, count: int):
    """Strictly increasing denominator values (the q_0 = q_1 duplicate merged)."""
    out = []
    for q in denominators(quotient, count + 2):
        if not out or q > out[-1]:
            out.append(q)
        if len(out) == count:
            break
    return out


def nearest_int_distance(x) -> mpf:
    return abs(x - mp.nint(x))


def staircase_value(alpha, quotient, t: int) -> mpf:
    """||q_m alpha|| for the largest denominator q_m <= t."""
    best_q = 1
    q_prev, q = 0, 1
    m = 1
    while True:
        q_prev, q = q, quotient(m) * q + q_prev
        if q > t:
            break
        best_q = q
        m += 1
    return nearest_int_distance(best_q * alpha)


def brute_staircase_value(alpha, t: int) -> mpf:
    """min over 1 <= q <= t of ||q alpha||; only sane for small t."""
    return min(nearest_int_distance(q * alpha) for q in range(1, t + 1))


SAFE_MARGIN = mpf(10) ** -150


def certified_less(a, b) -> bool:
    """a < b with enough numeric room that the verdict is trustworthy."""
    assert abs(a - b) > SAFE_MARGIN, f"values too close to decide: {a} vs {b}"
    return a < b


def merged_events(quotients: dict, count: int):
    """First `count` merged jump events of several labeled quotient rules.

    Returns a list of (t, sorted labels jumping at t).
    """
    streams = {
        label: distinct_denominators(quotient, count + 4)
        for label, quotient in quotients.items()
    }
    cursors = {label: 0 for label in streams}
    events = []
    while len(events) < count:
        t = min(streams[label][cursors[label]] for label in streams)
        jumping = sorted(
            label for label in streams if streams[label][cursors[label]] == t
        )
        for label in jumping:
            cursors[label] += 1
        events.append((t, jumping))
    return events


def change_moments(members: list, t0: int, event_count: int):
    """Order-vector change moments over the first event_count merged events.

    members: list of (label, alpha mpf, quotient rule).  The order vector at
    time t sorts labels by staircase value, descending, every adjacent
    comparison checked against the safety margin.
    """
    values = {label: alpha for label, alpha, _ in members}
    rules = {label: rule for label, _, rule in members}
    events = merged_events(rules, event_count)

    def vector_at(t):
        pairs = sorted(
            ((staircase_value(values[label], rules[label], t), label) for label in values),
            reverse=True,
        )
        for (va, _), (vb, _) in zip(pairs, pairs[1:]):
            assert certified_less(vb, va)
        return tuple(label for _, label in pairs)

    v0 = vector_at(t0)
    current = v0
    moments = []
    for t, jumping in events:
        if t <= t0:
            continue
        vector = vector_at(t)
        if vector != current:
            moments.append((t, vector, tuple(jumping)))
            current = vector
    return v0, moments, events[-1][0]


# ------------------------------------------- exact rational routes for psi

DEFAULT_ORACLE_CAP = 100_000


class CapExceeded(IrrMeasureError):
    """A brute-force request went past the configured work cap."""


def fractional_distance(x: Fraction) -> Fraction:
    """||x||: distance from an exact rational to the nearest integer."""
    fr = x - math.floor(x)
    return min(fr, 1 - fr)


def nearest_integer_distance(interval: RationalBracket) -> RationalBracket:
    """Enclosure of ||x|| over all x in the interval.

    Exact case analysis: the minimum drops to 0 when the interval contains
    an integer, the maximum caps at 1/2 when it contains a half-integer.
    """
    lo, hi = interval.lo, interval.hi
    half = Fraction(1, 2)
    if hi - lo >= 1:
        return RationalBracket(Fraction(0), half)
    d_lo, d_hi = fractional_distance(lo), fractional_distance(hi)
    contains_integer = math.floor(hi) >= math.ceil(lo)
    contains_half = math.floor(hi - half) >= math.ceil(lo - half)
    out_lo = Fraction(0) if contains_integer else min(d_lo, d_hi)
    out_hi = half if contains_half else max(d_lo, d_hi)
    return RationalBracket(out_lo, out_hi)


def tail_bracket(source: PartialQuotientSource, m: int, depth: int) -> RationalBracket:
    """Bracket of the tail alpha_m = [a_m; a_{m+1}, ...].

    depth counts how many quotients of the tail are consumed.  depth 1
    falls back to the trivial enclosure [a_m, a_m + 1].
    """
    if m < 0:
        raise ValueError("tail index must be >= 0")
    if depth < 1:
        raise ValueError("tail bracket needs depth >= 1")
    a_m = source.term(m)
    if depth == 1:
        return RationalBracket(Fraction(a_m), Fraction(a_m + 1))
    state = initial_state(a_m)
    for i in range(1, depth):
        state = state.advance(source.term(m + i))
    lo_value = state.value
    hi_value = Fraction(state.p_prev, state.q_prev)
    if lo_value > hi_value:
        lo_value, hi_value = hi_value, lo_value
    return RationalBracket(lo_value, hi_value)


def perron_bracket(
    source: PartialQuotientSource, m: int, depth: int = 12
) -> RationalBracket:
    """||q_m*alpha|| via the classical identity 1/(q_m*alpha_{m+1} + q_{m-1}).

    Independent route from ApproximationError: uses a bracket of the tail
    alpha_{m+1} rather than a bracket of alpha itself.  m >= 1.
    """
    if m < 1:
        raise ValueError("the identity needs m >= 1")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    state = source.state(m)
    tail = tail_bracket(source, m + 1, depth)
    denom_lo = state.q * tail.lo + state.q_prev
    denom_hi = state.q * tail.hi + state.q_prev
    return RationalBracket(1 / denom_hi, 1 / denom_lo)


def iter_brute_force_psi(
    source: PartialQuotientSource,
    t_max: int,
    precision: Fraction = Fraction(1, 10**13),
    cap: int = DEFAULT_ORACLE_CAP,
):
    """Yield (t, bracket) for t = 1..t_max by direct minimization.

    Deliberately ignores the staircase structure: the running minimum of
    ||q*alpha|| over q <= t is taken from a single deep bracket of alpha.
    Serves as the independent oracle for psi_at.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if t_max > cap:
        raise CapExceeded(f"brute force request t_max={t_max} exceeds cap={cap}")
    depth = 8
    alpha = bracket(source, depth)
    while alpha.width * t_max > precision:
        depth += 4
        alpha = bracket(source, depth)
    best_lo = None
    best_hi = None
    for q in range(1, t_max + 1):
        d = nearest_integer_distance(alpha.scale(q))
        if best_lo is None or d.lo < best_lo:
            best_lo = d.lo
        if best_hi is None or d.hi < best_hi:
            best_hi = d.hi
        yield q, RationalBracket(best_lo, best_hi)


def brute_force_psi(
    source: PartialQuotientSource,
    t: int,
    precision: Fraction = Fraction(1, 10**13),
    cap: int = DEFAULT_ORACLE_CAP,
) -> RationalBracket:
    """min over 1 <= q <= t of ||q*alpha||, computed the slow honest way."""
    result = None
    for _, br in iter_brute_force_psi(source, t, precision, cap):
        result = br
    return result
