"""Independent oracles used to check and freeze expected test values.

The high-precision oracle is deliberately self-contained: plain integer
recurrences for denominators and mpmath constants for the real numbers,
sharing no code with the package under test.

The exact rational routes below it (brute-force minimization of ||q*alpha||,
the Perron identity on a tail bracket) use only the plain recurrence, a
source's quotients and cf_engine's bracket and RationalBracket, never psi,
so they stay independent of the production staircase kernel they check.

The helpers at the end are the package's former test-only members: bracket
set relations and scaling, the convergent determinant, inverse pair
indexing, pi's canonical predecessor, the jump count tau and a member's
event positions in a synthesis.  They too never touch psi.

sorted_certify is the certification loop as it ran on fewer than three
handles before pairs were decided directly: it compares psi handles, so it
checks the pair loop's control flow, not the comparisons it shares.
merged_trace is, in the same way, the moment loop as it ran on the merged
event stream: it checks where change_trace finds its events and which
handles it renews, and shares _certify with it.

resorting_certify is _certify as it ran on three or more handles before a
round that refined one pair re-tested only that pair: every round calls
_sort_and_test on the whole list.

trace_from_document is ChangeTrace.from_document as it read events one by
one, with its own copies of the label and integer checks, so it checks
the column reader's verdict and message on every document.
"""

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import takewhile

from mpmath import mp, mpf

from irrmeasure.cf_engine import PartialQuotientSource, RationalBracket, bracket
from irrmeasure.errors import ComparisonUndecided, IndexOutOfRange, IrrMeasureError
from irrmeasure.order_dynamics import (
    ChangeMoment,
    ChangeTrace,
    _by_ends,
    _certify,
    _sort_and_test,
    clamp_start,
    iter_events,
)
from irrmeasure.psi import ApproximationError, level_handle, strictly_below as handle_below
from irrmeasure.triangle_perm import canonical_pairs, triangle_size

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


def convergents(quotient):
    """(p_m, q_m, p_{m-1}, q_{m-1}) for m = 0, 1, ... by the plain recurrence,
    from (p_{-1}, q_{-1}) = (1, 0) and (p_{-2}, q_{-2}) = (0, 1)."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for k in itertools.count():
        a = quotient(k)
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        yield p, q, p_prev, q_prev


def convergent(quotient, m: int):
    """Entry m of convergents(quotient), reading a_0 .. a_m."""
    return next(itertools.islice(convergents(quotient), m, None))


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
    p, q, p_prev, q_prev = convergent(lambda i: source.term(m + i), depth - 1)
    lo_value = Fraction(p, q)
    hi_value = Fraction(p_prev, q_prev)
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
        d = nearest_integer_distance(scale(alpha, q))
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


# ------------------------------------------------------ test-only helpers


def encloses(outer: RationalBracket, inner: RationalBracket) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def intersects(a: RationalBracket, b: RationalBracket) -> bool:
    return not (a.hi < b.lo or b.hi < a.lo)


def strictly_below(a: RationalBracket, b: RationalBracket) -> bool:
    """Certified: every value in a is less than every value in b."""
    return a.hi < b.lo


def scale(interval: RationalBracket, c: int) -> RationalBracket:
    if c < 0:
        raise ValueError("only nonnegative scaling is used")
    return RationalBracket(interval.lo * c, interval.hi * c)


def determinant(state) -> int:
    # p_m * q_{m-1} - p_{m-1} * q_m, always (-1)^(m-1)
    return state.p * state.q_prev - state.p_prev * state.q


def inverse_index(k: int, position: int):
    """Pair (j, l) sitting at the given 1-based position."""
    n = triangle_size(k)
    if not (1 <= position <= n):
        raise IndexOutOfRange(f"position {position} outside 1..{n}")
    j = 1
    start = 1
    while start + (k - j) < position:
        start += k - j + 1
        j += 1
    offset = position - start
    if offset == 0:
        return (j, j)
    return (j, k - offset + 1)


def canonical_predecessor(k: int) -> list:
    """The pair vector w with apply_pi(k, w) equal to canonical_pairs(k).

    Its displayed shape: the (., k) column read from (k, k) up to (1, k),
    followed by the canonical linearization of the size k-1 subtriangle.
    """
    if k < 2:
        raise IndexOutOfRange("predecessor needs k >= 2")
    column = [(j, k) for j in range(k, 0, -1)]
    rest = canonical_pairs(k - 1)
    return column + rest


def tau_at(ftuple, t: int) -> int:
    """Number of members for which t is a convergent denominator."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return sum(
        1 for _, source in ftuple.members if source.state(source.seek(t)).q == t
    )


def member_events(result, label: str) -> list:
    """(event_position, cf_index) for each event where label jumps."""
    out = []
    for position, certs in enumerate(result.certificates):
        for cert in certs:
            if cert.label == label:
                out.append((position, cert.cf_index))
    return out


def sorted_certify(handles: list, t: int, depth_limit: int) -> tuple:
    """Certify by a stable descending sort on _by_ends and a strictly_below
    test of each adjacent pair, refining each handle of an overlapping pair
    once per round; the first overlapping pair is reported at depth_limit."""
    rounds = 0
    while True:
        handles.sort(key=cmp_to_key(_by_ends), reverse=True)
        overlapping = [
            i for i in range(len(handles) - 1) if not handle_below(handles[i + 1], handles[i])
        ]
        if not overlapping:
            return tuple(e.label for e in handles)
        if rounds >= depth_limit:
            i = overlapping[0]
            raise ComparisonUndecided(t, (handles[i].label, handles[i + 1].label), rounds)
        for j in {j for i in overlapping for j in (i, i + 1)}:
            handles[j].refine(1)
        rounds += 1


def resorting_certify(handles: list, t: int, depth_limit: int) -> tuple:
    """_certify with a full sort and scan after every round; two handles
    go to _certify itself."""
    if len(handles) == 2:
        return _certify(handles, t, depth_limit)
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    rounds = 0
    while True:
        overlapping = _sort_and_test(handles)
        if not overlapping:
            return tuple(e.label for e in handles)
        if rounds >= depth_limit:
            i = overlapping[0]
            raise ComparisonUndecided(t, (handles[i].label, handles[i + 1].label), rounds)
        for j in {j for i in overlapping for j in (i, i + 1)}:
            handles[j].refine(1)
        rounds += 1


def merged_trace(ftuple, t0: int, count: int, depth_limit: int, horizon: int, held: dict):
    """change_trace as it ran on iter_events: each event's jumpers, in the
    order the heap gives them, get handles at their next level, and
    _certify orders the kept list with them in place.  held receives each
    member's current handle by label, also when the trace raises."""
    start = clamp_start(ftuple, t0)
    handles = [level_handle(source, start, label) for label, source in ftuple.members]
    held.update((e.label, e) for e in handles)
    v0 = current = _certify(handles, start, depth_limit)
    events = takewhile(lambda event: event.t <= horizon, iter_events(ftuple, start))
    moments = []
    while len(moments) != count and (event := next(events, None)) is not None:
        for label in event.jumping:
            e = held[label]
            held[label] = ApproximationError(e.source, e.m + 1, label)
        handles = [held[e.label] for e in handles]
        vector = _certify(handles, event.t, depth_limit)
        if vector != current:
            moments.append(ChangeMoment(event.t, vector, event.jumping))
            current = vector
    return ChangeTrace(start, v0, tuple(moments))


def trace_from_document(doc) -> ChangeTrace:
    """ChangeTrace.from_document as it read a document event by event."""
    if not isinstance(doc, dict):
        raise ValueError(f"trace must be an object, not {type(doc).__name__}")
    header, events = _document_key(doc, "header", "trace"), _document_key(doc, "events", "trace")
    if not isinstance(header, dict):
        raise ValueError(f"trace header must be an object, not {type(header).__name__}")
    if not isinstance(events, list):
        raise ValueError(f"trace events must be a list, not {type(events).__name__}")
    header = dict(header)
    t = t0 = _document_integer(_document_key(header, "t0", "trace header"), "trace t0")
    v0 = _document_labels(_document_key(header, "v0", "trace header"), "trace v0")
    del header["t0"], header["v0"]
    members = set(v0)
    moments = []
    for e in events:
        if not isinstance(e, dict):
            raise ValueError(f"trace event must be an object, not {type(e).__name__}")
        moment = ChangeMoment(
            _document_integer(_document_key(e, "t", "trace event"), "trace event t"),
            _document_labels(_document_key(e, "v", "trace event"), "trace event v", members),
            _document_labels(_document_key(e, "jumping", "trace event"), "trace event jumping"),
        )
        if moment.t <= t:
            raise ValueError(f"trace event t must increase: {moment.t} follows {t}")
        t = moment.t
        moments.append(moment)
    return ChangeTrace(t0, v0, tuple(moments), header)


def _document_key(doc: dict, key: str, what: str):
    if key not in doc:
        raise ValueError(f"{what} has no key {key!r}")
    return doc[key]


def _document_integer(value, what: str) -> int:
    if type(value) not in (str, int):
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return int(value)


def _document_labels(value, what: str, members: set | None = None) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    for label in value:
        if not isinstance(label, str):
            raise ValueError(f"trace label {label!r} is not a string")
    for i, label in enumerate(value):
        if label in value[:i]:
            raise ValueError(f"{what} repeats label {label!r}")
    if members is not None and set(value) != members:
        raise ValueError(f"{what} {value} is not a permutation of v0")
    return tuple(value)
