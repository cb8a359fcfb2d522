"""Schedule synthesis: congruence merging, realization, replay."""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracle import member_events
from irrmeasure import synth
from irrmeasure.cf_engine import ExplicitSource
from irrmeasure.errors import InfeasibleSchedule
from irrmeasure.synth import (
    EventCertificate,
    JumpSchedule,
    default_prefixes,
    extremal_schedule,
    load_schedule,
    merge_congruences,
    replay_check,
    synthesize,
)
from irrmeasure.cli_io import canonical_json

AB = frozenset({"A", "B"})
AC = frozenset({"A", "C"})
BC = frozenset({"B", "C"})


def denominators(terms):
    qs = [1]
    q_prev, q = 0, 1
    for a in terms[1:]:
        q, q_prev = a * q + q_prev, q
        qs.append(q)
    return qs


# --------------------------------------------------------------- congruences


def test_merge_congruences_coprime():
    assert merge_congruences([(2, 3), (3, 5)]) == (8, 15)


def test_merge_congruences_overlapping_moduli():
    r, m = merge_congruences([(2, 6), (8, 10)])
    assert (r, m) == (8, 30)


def test_merge_congruences_conflict():
    with pytest.raises(InfeasibleSchedule):
        merge_congruences([(0, 7), (1, 7)])
    with pytest.raises(InfeasibleSchedule):
        merge_congruences([(0, 4), (1, 2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: merge_congruences([(0, 0)]), "modulus must be >= 1"),
        (
            lambda: synthesize(JumpSchedule([AB]), prefixes={"A": [0], "B": [0, 1]}),
            "each prefix needs at least a_0 and a_1",
        ),
    ],
    ids=["modulus-0", "one-term-prefix"],
)
def test_synth_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_merge_congruences_single():
    assert merge_congruences([(5, 7)]) == (5, 7)


def brute_force_crt(pairs):
    """Every x in [0, lcm) meeting all congruences, by plain search."""
    lcm = math.lcm(*(modulus for _, modulus in pairs))
    hits = [x for x in range(lcm) if all((x - a) % n == 0 for a, n in pairs)]
    return hits, lcm


@given(
    st.lists(
        st.tuples(st.integers(-30, 60), st.integers(1, 10)), min_size=0, max_size=3
    )
)
@example([(2, 3), (3, 5)])  # coprime
@example([(2, 6), (8, 10)])  # non-coprime, consistent
@example([(0, 4), (1, 2)])  # non-coprime, conflicting
def test_merge_congruences_matches_brute_force(pairs):
    hits, lcm = brute_force_crt(pairs)
    if not hits:
        with pytest.raises(InfeasibleSchedule):
            merge_congruences(pairs)
    else:
        assert len(hits) == 1
        assert merge_congruences(pairs) == (hits[0], lcm)


# ------------------------------------------------------------- reductions

CROSSOVER = synth._BARRETT_BITS


@st.composite
def divisors(draw):
    """Divisors on both sides of the crossover, some of the forms 2^k, 2^k +- 1."""
    bits = draw(
        st.sampled_from([1, 2, 64, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 2 * CROSSOVER])
        | st.integers(1, 5 * CROSSOVER)
    )
    form = draw(st.sampled_from(["random", "2^k", "2^k-1", "2^k+1"]))
    if form == "random":
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return {"2^k": 1 << bits, "2^k-1": max(1, (1 << bits) - 1), "2^k+1": (1 << bits) + 1}[form]


@st.composite
def dividends(draw, d):
    kind = draw(st.sampled_from(["below", "multiple", "blocks"]))
    if kind == "below":
        x = draw(st.integers(0, d - 1))
    elif kind == "multiple":
        x = d * draw(st.integers(0, d * d))
    else:
        x = draw(st.integers(d * d, d**5))
    return -x if draw(st.booleans()) else x


def check_division(x, d):
    divisors_helper = synth._Divisors()
    assert divisors_helper.divmod(x, d) == divmod(x, d)
    assert divisors_helper.mod(x, d) == x % d
    # a second dividend through the kept reciprocal
    assert divisors_helper.divmod(x + 1, d) == divmod(x + 1, d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_divisors_match_builtin_divmod(data):
    d = data.draw(divisors())
    check_division(data.draw(dividends(d)), d)


EDGE_DIVISORS = {
    "1": 1,
    "2^(c-1)-1": (1 << CROSSOVER - 1) - 1,
    "2^(c-1)": 1 << CROSSOVER - 1,
    "2^c-1": (1 << CROSSOVER) - 1,
    "2^c": 1 << CROSSOVER,
    "2^c+1": (1 << CROSSOVER) + 1,
    "2^3c-1": (1 << 3 * CROSSOVER) - 1,
    "2^3c+1": (1 << 3 * CROSSOVER) + 1,
    "3^(2c)": 3 ** (2 * CROSSOVER),
}


@pytest.mark.parametrize("name", EDGE_DIVISORS)
def test_divisors_at_the_edges(name):
    d = EDGE_DIVISORS[name]
    # the CRT passes residue - r, negative and up to many blocks long
    for x in (0, 1, -1, d - 1, d, -d, d + 1, d * d - 1, d * d, -(d * d) - 1, d**4 + d - 1, -(d**4)):
        check_division(x, d)


@settings(max_examples=100, deadline=None)
@given(divisors())
@example(1 << 5 * CROSSOVER)
@example((1 << 5 * CROSSOVER) - 1)
def test_reciprocal_is_a_few_units_below_the_quotient(d):
    n = d.bit_length()
    exact = (1 << 2 * n) // d
    assert exact - 4 <= synth._reciprocal(d) <= exact


def test_reciprocals_are_built_once_per_divisor_above_the_crossover():
    helper = synth._Divisors()
    small, large = (1 << CROSSOVER - 2) + 1, 1 << CROSSOVER - 1
    # dividends no longer than the divisor need no reciprocal
    assert helper.divmod(large - 1, large) == (0, large - 1)
    assert helper.divmod(2 * large - 1, large) == (1, large - 1)
    assert helper.divmod(-1, large) == (-1, large - 1)
    assert helper._reciprocals == {}
    for x in (10**5000, 7**9000):
        helper.mod(x, small)
        helper.mod(x, large)
    assert list(helper._reciprocals) == [large]


# ------------------------------------------------------------------ schedule


def test_schedule_validation():
    with pytest.raises(ValueError):
        JumpSchedule(())
    with pytest.raises(ValueError):
        JumpSchedule(((),))
    with pytest.raises(ValueError):
        JumpSchedule((("A", "A"),))


def test_schedule_labels_deterministic():
    schedule = JumpSchedule([frozenset({"B", "A"}), frozenset({"C", "A"})])
    assert schedule.labels == ("A", "B", "C")


def test_schedule_document_round_trip():
    schedule = JumpSchedule([AB, AC], k=2)
    doc = schedule.to_document()
    again = JumpSchedule.from_document(doc)
    assert again.k == 2
    assert [set(e) for e in again.events] == [set(e) for e in schedule.events]


def test_default_prefixes_distinct():
    assert default_prefixes(("A", "B", "C")) == {
        "A": [0, 1],
        "B": [0, 2],
        "C": [0, 3],
    }


# --------------------------------------------------------------- realization


def test_joint_start_with_shared_prefixes():
    result = synthesize(
        JumpSchedule([AB]), prefixes={"A": [0, 1], "B": [0, 1]}
    )
    assert result.event_values == (2,)
    assert result.quotients == {"A": (0, 1, 1), "B": (0, 1, 1)}


def test_joint_start_default_prefixes():
    result = synthesize(JumpSchedule([AB]))
    assert result.event_values == (3,)
    assert result.quotients == {"A": (0, 1, 2), "B": (0, 2, 1)}
    assert replay_check(result)


def test_replay_check_rejects_a_corrupted_result():
    result = synthesize(extremal_schedule(2, 4))
    assert replay_check(result)
    # a_m one larger moves q_m, so 1.1's last event value is none of its q
    terms = result.quotients["1.1"]
    quotients = {**result.quotients, "1.1": terms[:-1] + (terms[-1] + 1,)}
    assert not replay_check(dataclasses.replace(result, quotients=quotients))
    # and so without certificates, which the schedule check alone rejects
    bare = dataclasses.replace(result, certificates=((),) * len(result.certificates))
    assert replay_check(bare)
    assert not replay_check(dataclasses.replace(bare, quotients=quotients))
    # every member keeps its denominators, but one certificate's index is off
    (cert, *others), *events = result.certificates
    wrong = dataclasses.replace(cert, cf_index=cert.cf_index + 1)
    certificates = ((wrong, *others), *events)
    assert not replay_check(dataclasses.replace(result, certificates=certificates))


def test_six_event_pattern():
    result = synthesize(JumpSchedule([AB, AC, BC, AB, AC, BC]))
    values = result.event_values
    assert values == (5, 31, 127, 7879, 4002563, 63072387881)
    assert replay_check(result)
    assert all(
        math.gcd(a, b) == 1
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    )
    q = denominators(result.quotients["A"])
    h = denominators(result.quotients["B"])
    r = denominators(result.quotients["C"])
    # the six-fold coincidence pattern as integer equalities
    assert q[2] == h[2] == values[0]
    assert q[3] == r[2] == values[1]
    assert r[3] == h[3] == values[2]
    assert q[4] == h[4] == values[3]
    assert q[5] == r[4] == values[4]
    assert r[5] == h[5] == values[5]


def test_certificates_witness_the_congruences():
    result = synthesize(JumpSchedule([AB, AC, BC]))
    for event_index, certs in enumerate(result.certificates):
        value = result.event_values[event_index]
        assert {c.label for c in certs} == set(
            result.schedule.events[event_index]
        )
        for cert in certs:
            assert value % cert.modulus == cert.residue
            assert cert.quotient >= 1
            assert denominators(result.quotients[cert.label])[cert.cf_index] == value


def test_member_events_positions():
    result = synthesize(JumpSchedule([AB, AC, BC, AB, AC, BC]))
    assert member_events(result, "A") == [(0, 2), (1, 3), (3, 4), (4, 5)]
    assert member_events(result, "C") == [(1, 2), (2, 3), (4, 4), (5, 5)]


def brute_force_synthesis(events, prefixes):
    """Event values and quotients found by a plain scan, without any CRT.

    Each event value is the least Q >= the lower bound (above the previous
    event, and at least q + q_prev for every member so that its quotient is
    >= 1) with Q = q_prev (mod q) for every member and gcd(Q, d) = 1 for every
    denominator d already owned.  The scan takes the members one at a time.
    The common solutions found so far form one residue class modulo their
    period; it walks whichever of that class and the next member's has the
    larger modulus upward from the lower bound, testing the other, and gives
    up after a whole period of the two.  It then steps by the full period
    past solutions that share a factor with an owned denominator.  An event
    whose congruences have no common solution raises InfeasibleSchedule.
    """
    states = {}
    owned = []
    quotients = {}
    for label, terms in prefixes.items():
        qs = denominators(terms)
        states[label] = (qs[-1], qs[-2])
        owned += qs
        quotients[label] = list(terms)
    values = []
    last = 0
    for event in events:
        members = [states[label] for label in event]
        lower = max([last + 1] + [q + q_prev for q, q_prev in members])
        value, period = lower, 1
        for member in members:
            (walk, a), (test, b) = sorted([(period, value), member], reverse=True)
            start = lower + (a - lower) % walk
            period = math.lcm(walk, test)
            value = next(
                (x for x in range(start, start + period, walk) if (x - b) % test == 0),
                None,
            )
            if value is None:
                raise InfeasibleSchedule("no common solution")
        while not all(math.gcd(value, d) == 1 for d in owned):
            value += period
        for label in event:
            q, q_prev = states[label]
            quotients[label].append((value - q_prev) // q)
            states[label] = (value, q)
        owned.append(value)
        values.append(value)
        last = value
    return tuple(values), {label: tuple(terms) for label, terms in quotients.items()}


@given(
    st.lists(
        st.sets(st.sampled_from("ABC"), min_size=1).map(lambda s: tuple(sorted(s))),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2), min_size=3, max_size=3),
)
@example([("A", "B"), ("B", "C"), ("B",), ("A", "B", "C")], [[1], [3, 4], [4]])
@example([("A", "B", "C"), ("A",), ("B",), ("A", "B", "C")], [[4, 3], [1], [1, 4]])
def test_tiny_schedules_match_brute_force(events, tails):
    schedule = JumpSchedule(tuple(events))
    prefixes = {label: [0, *tail] for label, tail in zip("ABC", tails)}
    prefixes = {label: prefixes[label] for label in schedule.labels}
    try:
        expected = brute_force_synthesis(events, prefixes)
    except InfeasibleSchedule:
        with pytest.raises(InfeasibleSchedule):
            synthesize(schedule, prefixes=prefixes)
        return
    result = synthesize(schedule, prefixes=prefixes)
    assert (result.event_values, result.quotients) == expected


def test_large_prime_in_the_pool_blocks_a_candidate():
    # 2003 is a prime above the small-prime sieve: only the full gcd against
    # the pool sees that A's first candidate Q = 2003 is C's denominator
    events = [("A",), ("C",)]
    prefixes = {"A": [0, 2002], "C": [0, 2003]}
    result = synthesize(JumpSchedule(tuple(events)), prefixes=prefixes)
    assert result.event_values[0] == 4005
    assert (result.event_values, result.quotients) == brute_force_synthesis(
        events, prefixes
    )


def pool_product_synthesis(schedule, prefixes, search_bound):
    """Event values, quotients and certificates by the pool-product search.

    The reference for synthesize's per-denominator coprimality test: every
    candidate gets one gcd against pool, the product of every denominator
    already owned.
    """
    quotients = {}
    states = {}
    pool = 1
    for label in schedule.labels:
        qs = denominators(prefixes[label])
        quotients[label] = list(prefixes[label])
        states[label] = (qs[-1], qs[-2], len(qs) - 1)
        pool *= math.prod(qs)
    values = []
    certificates = []
    last = 0
    for event in schedule.events:
        members = sorted(event)
        r, m = merge_congruences(
            [(states[label][1] % states[label][0], states[label][0]) for label in members]
        )
        lower = max([last + 1] + [states[label][0] + states[label][1] for label in members])
        if r < lower:
            r += ((lower - r + m - 1) // m) * m
        for _ in range(search_bound):
            if math.gcd(r, pool) == 1:
                break
            r += m
        else:
            raise InfeasibleSchedule(
                f"no value coprime to the existing pool within {search_bound} steps"
            )
        certs = []
        for label in members:
            q, q_prev, index = states[label]
            quotient = (r - q_prev) // q
            quotients[label].append(quotient)
            states[label] = (r, q, index + 1)
            certs.append(EventCertificate(label, q, q_prev % q, quotient, index + 1))
        values.append(r)
        certificates.append(tuple(certs))
        pool *= r
        last = r
    return (
        tuple(values),
        {label: tuple(terms) for label, terms in quotients.items()},
        tuple(certificates),
    )


# 2003, 2011 and 2017 are primes above the small-prime sieve.  A member whose
# first quotient is p - 1 has p as its first candidate, and p or a small
# multiple of it among the owned denominators leaves a candidate divisible by
# p for the per-denominator test alone to reject
LARGE_PRIME_TERMS = (1, 2, 3, 2002, 2003, 2010, 2011, 2016, 2017, 4006, 6033, 10085)


@st.composite
def schedules_with_prefixes(draw):
    if draw(st.booleans()):
        schedule = extremal_schedule(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    else:
        events = draw(
            st.lists(
                st.sets(st.sampled_from("ABCD"), min_size=1).map(
                    lambda s: tuple(sorted(s))
                ),
                min_size=1,
                max_size=5,
            )
        )
        schedule = JumpSchedule(tuple(events))
    prefixes = {
        label: [
            0,
            draw(st.sampled_from(LARGE_PRIME_TERMS)),
            *draw(st.lists(st.integers(1, 3), max_size=1)),
        ]
        for label in schedule.labels
    }
    return schedule, prefixes


@settings(deadline=None, max_examples=60)
@given(schedules_with_prefixes(), st.sampled_from((1, 2, 10**6)))
# 2003 is C's denominator and A's first candidate: only the factor test sees it
@example((JumpSchedule((("A",), ("C",))), {"A": [0, 2002], "C": [0, 2003]}), 10**6)
# Y's jump to 4014017 lifts X's first quotient to 2003, so X's first candidate
# 2003 * 2005 shares 2003 with X's q_prev: a member's current denominator may
# go untested, its earlier ones may not
@example(
    (JumpSchedule((("Y",), ("X",))), {"X": [0, 2003, 1], "Y": [0, 4014016]}), 10**6
)
def test_synthesis_matches_the_pool_product_search(drawn, search_bound):
    schedule, prefixes = drawn
    try:
        expected = pool_product_synthesis(schedule, prefixes, search_bound)
    except InfeasibleSchedule as exc:
        with pytest.raises(InfeasibleSchedule) as raised:
            synthesize(schedule, search_bound, prefixes)
        assert str(raised.value) == str(exc)
        return
    result = synthesize(schedule, search_bound, prefixes)
    assert (result.event_values, result.quotients, result.certificates) == expected


def plain_division_quotients(schedule, prefixes, event_values):
    """Each event's member quotients as (value - q_prev) // q, in label order."""
    states = {label: denominators(terms)[-2:] for label, terms in prefixes.items()}
    out = []
    for event, value in zip(schedule.events, event_values):
        row = []
        for label in sorted(event):
            q_prev, q = states[label]
            row.append((value - q_prev) // q)
            states[label] = [q, value]
        out.append(row)
    return out


DIGIT_CASES = {
    # moduli 2 and 4 share the factor 2 and their residues agree: g > 1
    "shared-factor": (JumpSchedule((("A", "B"),)), {"A": [0, 2], "B": [0, 4]}),
    # a_1 = 1 gives q_0 = q_1 = 1, so q_prev >= q, and a modulus of 1
    "a1-is-1": (
        JumpSchedule((("A", "B"), ("A",), ("A", "B"))),
        {"A": [0, 1], "B": [0, 3]},
    ),
    # the least solution above the bound, 6007, is C's denominator, so the
    # search steps on to 12013: U_k = 2 feeds both members' digits
    "search-steps": (
        JumpSchedule((("A", "B"), ("C",))),
        {"A": [0, 2002], "B": [0, 3], "C": [0, 6007]},
    ),
    # four and five members: three and four merge steps per event
    "extremal-k4": (extremal_schedule(4, 3), None),
    "extremal-k5": (extremal_schedule(5, 2), None),
}


@pytest.mark.parametrize("case", DIGIT_CASES)
def test_digit_quotients_match_plain_division(case):
    schedule, prefixes = DIGIT_CASES[case]
    prefixes = prefixes or default_prefixes(schedule.labels)
    result = synthesize(schedule, prefixes=prefixes)
    assert [[c.quotient for c in certs] for certs in result.certificates] == (
        plain_division_quotients(schedule, prefixes, result.event_values)
    )
    expected = pool_product_synthesis(schedule, prefixes, 10**6)
    assert (result.event_values, result.quotients, result.certificates) == expected


def test_search_steps_case_steps_past_the_least_solution():
    schedule, prefixes = DIGIT_CASES["search-steps"]
    r, m = merge_congruences([(1, 2002), (1, 3)])
    assert (r, m) == (1, 6006)
    assert synthesize(schedule, prefixes=prefixes).event_values[0] == 1 + 2 * m


def test_merge_congruences_conflict_messages():
    with pytest.raises(InfeasibleSchedule) as raised:
        merge_congruences([(0, 4), (1, 2)])
    assert str(raised.value) == "congruences x = 0 (mod 4) and x = 1 (mod 2) conflict"
    with pytest.raises(InfeasibleSchedule) as raised:
        merge_congruences([(0, 7), (1, 7)])
    assert str(raised.value) == "congruences x = 0 (mod 7) and x = 1 (mod 7) conflict"


def document_sha256(result):
    return hashlib.sha256(canonical_json(result.to_document()).encode()).hexdigest()


def test_extremal_document_is_frozen():
    result = synthesize(extremal_schedule(3, 4))
    assert document_sha256(result) == (
        "7529befa99f1c5ba329cfad5d44145789549a0e4d7147af654aad26720e8c381"
    )


def test_seeded_prefix_document_is_frozen():
    schedule = extremal_schedule(4, 2)
    # random.Random(7).sample(range(1, 11), 10)
    firsts = [6, 3, 7, 10, 1, 8, 5, 2, 4, 9]
    prefixes = {label: [0, a] for label, a in zip(schedule.labels, firsts)}
    result = synthesize(schedule, prefixes=prefixes)
    assert document_sha256(result) == (
        "be92a5a09ac43116515c2162971a1771aa03498d4b1273c8c69a32973e36d21b"
    )


def result_sha256(result):
    """sha256 over the event values, quotients and certificates, in hex."""
    lines = [",".join(f"{v:x}" for v in result.event_values)]
    for label in sorted(result.quotients):
        lines.append(label + ":" + ",".join(f"{a:x}" for a in result.quotients[label]))
    for certs in result.certificates:
        lines.append(";".join(
            f"{c.label},{c.modulus:x},{c.residue:x},{c.quotient:x},{c.cf_index}"
            for c in certs
        ))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# computed before reductions went through reciprocals; every case has event
# values past 2 * CROSSOVER bits, so it divides through Barrett blocks and
# reciprocals built by at least one Newton step
ABOVE_CROSSOVER = {
    "extremal-2-12": (
        (2, 12), None, "da518918a8382042f0ad9d35febd35301754dcffdb8fd81055d16caf107055d4"
    ),
    "extremal-3-6": (
        (3, 6), None, "fd85b06240eb82eee2950d01c6c6f986508f77fba8ded4e7cdeef89ff1396ce0"
    ),
    "extremal-5-3": (
        (5, 3), None, "7837183e6875ea19c064dbb6aa3d643fd40fe9b3500bddd26815fec0aae43251"
    ),
    # random.Random(23).sample(range(1, 7), 6)
    "seeded-3-5": (
        (3, 5), [3, 1, 5, 6, 2, 4],
        "3d8eb4f4f425f56dd355f44dc0b37154b26662ada791bec9bd32edd7c5f7b732",
    ),
}


@pytest.mark.parametrize("case", ABOVE_CROSSOVER)
def test_synthesis_above_the_crossover_is_frozen(case):
    (k, cycles), firsts, digest = ABOVE_CROSSOVER[case]
    schedule = extremal_schedule(k, cycles)
    prefixes = None
    if firsts is not None:
        prefixes = {label: [0, a] for label, a in zip(schedule.labels, firsts)}
    result = synthesize(schedule, prefixes=prefixes)
    assert result.event_values[-1].bit_length() > 2 * CROSSOVER
    assert result_sha256(result) == digest


def test_certified_horizon_is_the_value_2k_events_before_the_end():
    for k, cycles in ((2, 3), (3, 3), (4, 3)):
        result = synthesize(extremal_schedule(k, cycles))
        assert result.certified_horizon == result.event_values[-(2 * k + 1)]
        assert "certified_horizon" not in result.to_document()
    message = "a certified horizon needs an extremal schedule of more than 2k events"
    for result in (synthesize(JumpSchedule([AB, AC, BC])), synthesize(extremal_schedule(2, 2))):
        with pytest.raises(ValueError, match=message):
            result.certified_horizon


def test_event_values_strictly_increase():
    result = synthesize(extremal_schedule(3, 3))
    values = result.event_values
    assert all(a < b for a, b in zip(values, values[1:]))


def test_same_modulus_conflict_is_infeasible():
    # A and B co-jump twice with no other jump between: both carry the same
    # modulus with different residues the second time
    with pytest.raises(InfeasibleSchedule):
        synthesize(JumpSchedule([frozenset({"A"}), AB, AB]))


def test_result_document_and_sources():
    result = synthesize(JumpSchedule([AB]))
    doc = result.to_document()
    assert doc["event_values"] == ["3"]
    assert doc["quotients"]["A"] == [0, 1, 2]
    assert doc["certificates"][0][0]["label"] == "A"
    sources = result.sources()
    assert isinstance(sources["A"], ExplicitSource)
    assert sources["A"].state(2).q == 3
    padded = result.padded_sources(extra=5)
    assert padded["B"].state(7).q > sources["B"].state(2).q


# ----------------------------------------------------------------- extremal


def test_extremal_k2_alternates():
    schedule = extremal_schedule(2, 3)
    assert [tuple(sorted(e)) for e in schedule.events] == [
        ("1.1", "1.2"),
        ("1.2", "2.2"),
    ] * 3
    result = synthesize(schedule)
    assert replay_check(result)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_extremal_event_sizes_and_coverage(k):
    schedule = extremal_schedule(k, 2)
    assert schedule.k == k
    assert len(schedule.events) == 2 * k
    assert all(len(e) == k for e in schedule.events)
    assert len(schedule.labels) == k * (k + 1) // 2


def test_extremal_offdiagonal_twice_per_cycle():
    k = 4
    schedule = extremal_schedule(k, 3)
    events = [set(e) for e in schedule.events]
    for start in range(len(events) - k + 1):
        window = events[start : start + k]
        for label in schedule.labels:
            i, j = label.split(".")
            expected = 1 if i == j else 2
            assert sum(label in e for e in window) == expected


def test_extremal_synthesis_replays():
    for k, cycles in ((2, 4), (3, 4), (4, 2)):
        result = synthesize(extremal_schedule(k, cycles))
        assert replay_check(result)


def test_extremal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        extremal_schedule(1, 2)
    with pytest.raises(ValueError):
        extremal_schedule(3, 0)


# ------------------------------------------------------------------- loading


def test_load_schedule_preset():
    schedule = load_schedule("extremal:k=3:cycles=2")
    assert schedule.k == 3
    assert len(schedule.events) == 6


def test_load_schedule_json():
    text = json.dumps({"k": None, "events": [["A", "B"], ["A"]]})
    schedule = load_schedule(text)
    assert schedule.labels == ("A", "B")
    assert [set(e) for e in schedule.events] == [{"A", "B"}, {"A"}]


def test_load_schedule_rejects_garbage():
    with pytest.raises(ValueError):
        load_schedule("not a schedule")
