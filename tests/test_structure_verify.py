"""Projections, the finite-horizon verifier, and the scan checks."""

import itertools
import random
import warnings

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from irrmeasure import order_dynamics
from irrmeasure.cf_engine import ExplicitSource, parse_source
from irrmeasure.errors import HypothesisNotMet, PatternMismatch, UnknownLabel
from irrmeasure.order_dynamics import ChangeMoment, ChangeTrace, FunctionTuple, iter_events
from irrmeasure.structure_verify import (
    ItemStatus,
    VerificationReport,
    bound_check,
    check_prejump_reversal,
    check_triple_coincidence,
    preimage,
    project,
    sign_changes,
    verify_structure,
)
from irrmeasure.synth import JumpSchedule, synthesize
from irrmeasure.triangle_perm import apply_pi, canonical_pairs, triangle_size

PHI = "periodic:[1;|1]"
RT2 = "periodic:[1;|2]"


def pair():
    return FunctionTuple.build([("phi", parse_source(PHI)), ("rt2", parse_source(RT2))])


# ---------------------------------------------------------------- projection


def test_project_examples():
    assert project((1, 2, 3, 4), (3, 4)) == (3, 4)
    assert project((4, 1, 2, 3), (3, 4)) == (4, 3)


def test_preimage_examples():
    vectors = {(1, 2, 3, 4), (3, 2, 4, 1), (4, 1, 2, 3)}
    assert preimage((3, 4), vectors, (3, 4)) == {(1, 2, 3, 4), (3, 2, 4, 1)}
    assert preimage((4, 3), vectors, (3, 4)) == {(4, 1, 2, 3)}
    assert preimage((4, 3), {(1, 2, 3, 4)}, (3, 4)) == set()


def test_project_rejects_bad_labels():
    with pytest.raises(UnknownLabel):
        project((1, 2, 3), (2, 5))
    with pytest.raises(ValueError):
        project((1, 2, 3), (2, 2))


def test_preimages_partition_randomized():
    rng = random.Random(20240601)
    for _ in range(200):
        n = rng.randint(2, 6)
        base = list(range(1, n + 1))
        vectors = set()
        for _ in range(rng.randint(1, 12)):
            v = base[:]
            rng.shuffle(v)
            vectors.add(tuple(v))
        size = rng.randint(1, n)
        sublabels = tuple(rng.sample(base, size))
        projections = {project(v, sublabels) for v in vectors}
        seen = set()
        for u in projections:
            pre = preimage(u, vectors, sublabels)
            assert pre, "every realized projection has a nonempty preimage"
            assert not (pre & seen), "preimages of distinct projections overlap"
            assert all(project(v, sublabels) == u for v in pre)
            seen |= pre
        assert seen == vectors


# ------------------------------------------------------------- the verifier


def good_trace(count=6):
    """Hand-built k=2 trace of three components following all six laws.

    Slots: A at (1,1), B at (1,2), C at (2,2); vectors alternate between
    (A,B,C) and its reversal, jumpers alternate {A,B} / {B,C}.
    """
    v = ("A", "B", "C")
    moments = []
    for index in range(1, count + 1):
        v = apply_pi(2, v)
        jumping = ("A", "B") if index % 2 == 1 else ("B", "C")
        moments.append(ChangeMoment(2 * index, v, jumping))
    return ChangeTrace(1, ("A", "B", "C"), tuple(moments))


def corrupt_moment(trace, index, vector=None, jumping=None):
    moments = list(trace.moments)
    old = moments[index]
    moments[index] = ChangeMoment(
        old.t, vector or old.vector, jumping or old.jumping
    )
    return ChangeTrace(trace.t0, trace.v0, tuple(moments), dict(trace.header))


def test_hand_built_trace_passes_all_items():
    report = verify_structure(good_trace(), 2)
    assert report.k == 2 and report.n == 3
    assert report.all_passed
    assert set(report.items) == {"i", "ii", "iii", "iv", "v", "vi"}
    assert report.enumeration == {"A": (1, 1), "B": (1, 2), "C": (2, 2)}


def test_vector_corruption_fails_cycle_step():
    trace = corrupt_moment(good_trace(), 3, vector=("B", "A", "C"))
    report = verify_structure(trace, 2)
    bad_t = trace.moments[3].t
    assert not report.items["vi"].passed
    assert report.items["vi"].witness[0] == bad_t
    assert not report.items["ii"].passed
    assert report.items["i"].passed


def test_jumping_corruption_fails_schedule_items():
    trace = corrupt_moment(good_trace(), 2, jumping=("A", "C"))
    report = verify_structure(trace, 2)
    bad_t = trace.moments[2].t
    # expected jumper B missing (off-diagonal), unexpected jumper C (diagonal)
    assert not report.items["iv"].passed
    assert report.items["iv"].witness[0] == bad_t
    assert "B" in report.items["iv"].witness[1]
    assert not report.items["iii"].passed
    assert report.items["iii"].witness[0] == bad_t
    assert not report.items["v"].passed
    assert report.items["ii"].passed and report.items["vi"].passed


def test_wrong_jump_count_fails_first_item():
    trace = corrupt_moment(good_trace(), 1, jumping=("A", "B", "C"))
    report = verify_structure(trace, 2)
    assert not report.items["i"].passed
    assert report.items["i"].witness == (trace.moments[1].t, "tau=3")


def test_periodic_but_not_cycle_step():
    # alternating vectors give exact period 2 without being pi-steps
    v0 = ("A", "B", "C")
    other = ("B", "A", "C")
    moments = []
    for index in range(1, 7):
        vector = other if index % 2 == 1 else v0
        jumping = ("A", "B") if index % 2 == 1 else ("B", "C")
        moments.append(ChangeMoment(2 * index, vector, jumping))
    report = verify_structure(ChangeTrace(1, v0, tuple(moments)), 2)
    assert report.items["ii"].passed
    assert not report.items["vi"].passed
    assert report.items["vi"].witness[0] == 2


def test_short_trace_rejected():
    trace = good_trace(count=4)
    with pytest.raises(ValueError):
        verify_structure(trace, 2)


def test_wrong_size_tuple_is_inconclusive():
    trace = pair_trace = None
    from irrmeasure.order_dynamics import change_trace

    pair_trace = change_trace(pair(), 2, 8)
    with pytest.warns(UserWarning):
        report = verify_structure(pair_trace, 2)
    assert not report.items["i"].passed  # single jumper at the first moment
    assert report.items["ii"].passed  # two vectors alternating
    for key in ("iii", "iv", "v", "vi"):
        assert report.items[key].status == "inconclusive"
        assert "triangular size" in report.items[key].reason


def test_report_document_shape():
    doc = verify_structure(good_trace(), 2).to_document()
    assert doc["k"] == 2 and doc["n"] == 3
    assert doc["items"]["vi"]["name"] == "cycle_step"
    assert all(entry["status"] == "pass" for entry in doc["items"].values())


def per_call_calendar_items(trace, k):
    """Calendar offset and items iii/iv with one residue per (offset, moment,
    label), the loop the verifier ran before it tabulated the calendar."""
    pairs = canonical_pairs(k)
    pair_of = {label: pairs[p] for p, label in enumerate(trace.v0)}
    jumping_sets = [set(moment.jumping) for moment in trace.moments]

    def expected_jump(pair, index, offset):
        return ((index - 1 + offset) % k) + 1 in pair

    best = (None, None)
    for offset in range(k):
        mismatches = 0
        for index, jumping in enumerate(jumping_sets, start=1):
            for label, pair in pair_of.items():
                if expected_jump(pair, index, offset) != (label in jumping):
                    mismatches += 1
        if best[0] is None or mismatches < best[0]:
            best = (mismatches, offset)
    offset = best[1]

    witnesses = {"iii": None, "iv": None}
    for index, (moment, jumping) in enumerate(zip(trace.moments, jumping_sets), start=1):
        for label, pair in pair_of.items():
            expected = expected_jump(pair, index, offset)
            if expected == (label in jumping):
                continue
            word = "expected" if expected else "unexpected"
            key = "iii" if pair[0] == pair[1] else "iv"
            if witnesses[key] is None:
                witnesses[key] = [str(moment.t), f"{word} jump of {label} (slot {pair})"]
    statuses = {key: "pass" if w is None else "fail" for key, w in witnesses.items()}
    return offset, statuses, witnesses


@st.composite
def calendar_traces(draw):
    """Traces of k(k+1)/2 labels whose jumping sets follow the residue
    calendar at a drawn offset, each flipped by a drawn set of labels that
    may drop members or add labels outside the enumeration."""
    k = draw(st.integers(1, 4))
    labels = [f"L{i}" for i in range(k * (k + 1) // 2)]
    v0 = tuple(draw(st.permutations(labels)))
    pairs = canonical_pairs(k)
    pair_of = {label: pairs[p] for p, label in enumerate(v0)}
    true_offset = draw(st.integers(0, k - 1))
    flips = st.sets(st.sampled_from(labels + ["X", "Y"]), max_size=len(labels))
    moments = []
    for index, flipped in enumerate(
        draw(st.lists(flips, min_size=2 * k + 1, max_size=3 * k + 8)), start=1
    ):
        residue = (index - 1 + true_offset) % k + 1
        scheduled = {label for label, pair in pair_of.items() if residue in pair}
        jumping = tuple(sorted(scheduled ^ flipped))
        moments.append(ChangeMoment(2 * index, v0, jumping))
    return ChangeTrace(1, v0, tuple(moments)), k


@given(calendar_traces())
def test_calendar_items_match_the_per_call_loop(case):
    trace, k = case
    doc = verify_structure(trace, k).to_document()
    offset, statuses, witnesses = per_call_calendar_items(trace, k)
    assert doc["offset"] == offset
    for key in ("iii", "iv"):
        assert doc["items"][key]["status"] == statuses[key]
        assert doc["items"][key]["witness"] == witnesses[key]


def looped_report(trace, k):
    """verify_structure's document as one scan per item, each with a status
    variable and a break, the loops the verifier ran before each item became
    a witness generator; the offset comes from per_call_calendar_items."""
    moments = list(trace.moments)
    vectors = trace.vectors()
    n = len(trace.v0)
    horizon = moments[-1].t
    jumping_sets = [set(moment.jumping) for moment in moments]
    items = {}

    status = ItemStatus("pass")
    for moment, jumping in zip(moments, jumping_sets):
        if len(jumping) != k:
            status = ItemStatus("fail", witness=(moment.t, f"tau={len(jumping)}"))
            break
    items["i"] = status

    status = ItemStatus("pass")
    for index in range(len(vectors) - k):
        if vectors[index + k] != vectors[index]:
            status = ItemStatus("fail", witness=(moments[index + k - 1].t, "period broken"))
            break
    if status.passed and len(set(vectors[: min(k, len(vectors))])) != min(k, len(vectors)):
        status = ItemStatus("fail", witness=(moments[0].t, "period smaller than k"))
    items["ii"] = status

    size = triangle_size(k)
    if n != size:
        message = f"vector length {n} is not the triangular size {size} for k={k}"
        reason = f"enumeration inference failed: {message}"
        for key in ("iii", "iv", "v", "vi"):
            items[key] = ItemStatus("inconclusive", reason=reason)
        return VerificationReport(k, n, horizon, items).to_document()

    pairs = canonical_pairs(k)
    pair_of = {label: pairs[p] for p, label in enumerate(trace.v0)}
    label_of = {pair: label for label, pair in pair_of.items()}
    calendar = {
        c: {label for label, pair in pair_of.items() if c in pair} for c in range(1, k + 1)
    }
    offset = per_call_calendar_items(trace, k)[0]

    diag_status = ItemStatus("pass")
    off_status = ItemStatus("pass")
    for index, (moment, jumping) in enumerate(zip(moments, jumping_sets), start=1):
        expected_set = calendar[(index - 1 + offset) % k + 1]
        mismatched = expected_set ^ jumping
        for label, pair in pair_of.items():
            if label not in mismatched:
                continue
            word = "expected" if label in expected_set else "unexpected"
            witness = (moment.t, f"{word} jump of {label} (slot {pair})")
            if pair[0] == pair[1]:
                if diag_status.passed:
                    diag_status = ItemStatus("fail", witness=witness)
            elif off_status.passed:
                off_status = ItemStatus("fail", witness=witness)
    items["iii"] = diag_status
    items["iv"] = off_status

    status = ItemStatus("pass")
    for index, (moment, jumping) in enumerate(zip(moments, jumping_sets), start=1):
        previous = vectors[index - 1]
        residue = ((index - 1 + offset) % k) + 1
        if jumping != set(previous[:k]):
            status = ItemStatus("fail", witness=(moment.t, "jumping set is not the leading block"))
            break
        if previous[0] != label_of.get((residue, residue)):
            witness = (moment.t, f"leader {previous[0]} is not slot ({residue},{residue})")
            status = ItemStatus("fail", witness=witness)
            break
    items["v"] = status

    status = ItemStatus("pass")
    for index in range(1, len(vectors)):
        if tuple(vectors[index]) != apply_pi(k, vectors[index - 1]):
            status = ItemStatus("fail", witness=(moments[index - 1].t, "vector is not pi(previous)"))
            break
    items["vi"] = status

    return VerificationReport(k, n, horizon, items, pair_of, offset).to_document()


@st.composite
def law_traces(draw):
    """Traces of k = 1..4 built on a calendar_traces draw, with drawn defects.

    The vectors follow pi from v0, or stay at v0 (a period smaller than k).
    The jump sets are the calendar_traces ones or each previous vector's top
    k block, so some traces follow pi exactly.  Defects: an orbit restarted
    from a shuffled vector (not pi(previous)), two entries of one vector
    swapped (a broken period), the first two entries of one vector swapped
    (the wrong leader), one block member swapped for a label outside it
    (the wrong leading block), a jumper added or dropped (the wrong jumper
    count), and one more label in every vector (a length that is not
    triangular).
    """
    calendar_trace, k = draw(calendar_traces())
    v0 = calendar_trace.v0
    n = len(v0)
    count = len(calendar_trace.moments)
    defects = draw(
        st.sets(st.sampled_from(["restart", "swap", "leader", "block", "count", "triangle"]))
    )
    follow_pi = draw(st.booleans())

    def orbit(start, length):
        vectors = [start]
        while len(vectors) < length:
            vectors.append(apply_pi(k, vectors[-1]) if follow_pi else start)
        return vectors

    vectors = orbit(v0, count + 1)
    if "restart" in defects:
        at = draw(st.integers(1, count))
        vectors[at:] = orbit(tuple(draw(st.permutations(v0))), count + 1 - at)
    if "swap" in defects and n > 1:
        at = draw(st.integers(1, count))
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        v = list(vectors[at])
        v[i], v[j] = v[j], v[i]
        vectors[at] = tuple(v)
    if "leader" in defects and k > 1:
        at = draw(st.integers(1, count))
        v = vectors[at]
        vectors[at] = (v[1], v[0]) + v[2:]

    if draw(st.booleans()):
        jumps = [set(moment.jumping) for moment in calendar_trace.moments]
    else:
        jumps = [set(previous[:k]) for previous in vectors[:-1]]
    if "block" in defects:
        at = draw(st.integers(0, count - 1))
        outside = set(v0) - jumps[at]
        if jumps[at] and outside:
            swapped = {draw(st.sampled_from(sorted(jumps[at])))}
            jumps[at] = jumps[at] - swapped | {draw(st.sampled_from(sorted(outside)))}
    if "count" in defects:
        at = draw(st.integers(0, count - 1))
        if jumps[at] and draw(st.booleans()):
            jumps[at] = jumps[at] - {draw(st.sampled_from(sorted(jumps[at])))}
        else:
            jumps[at] = jumps[at] | {"X"}
    if "triangle" in defects:
        vectors = [v + ("Z",) for v in vectors]

    moments = tuple(
        ChangeMoment(2 * index, vector, tuple(sorted(jumping)))
        for index, (vector, jumping) in enumerate(zip(vectors[1:], jumps), start=1)
    )
    return ChangeTrace(1, vectors[0], moments), k


def quiet_verify(trace, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return verify_structure(trace, k).to_document()


@settings(deadline=None)
@given(law_traces())
def test_report_matches_the_looped_verifier(case):
    trace, k = case
    assert quiet_verify(trace, k) == looped_report(trace, k)


@pytest.mark.parametrize(
    "key, status",
    [(key, status) for key in ("i", "ii", "iii", "iv", "v", "vi") for status in ("pass", "fail")]
    + [(key, "inconclusive") for key in ("iii", "iv", "v", "vi")],
)
def test_law_traces_reach_every_verdict(key, status):
    # law_traces reaches every verdict of every item, so the oracle test
    # above compares each of them
    trace, k = find(
        law_traces(),
        lambda case: quiet_verify(*case)["items"][key]["status"] == status,
        settings=settings(database=None, phases=[Phase.generate]),
    )
    assert quiet_verify(trace, k) == looped_report(trace, k)


# ------------------------------------------------------------- scan checks


def test_prejump_reversal_on_the_classic_pair():
    report = check_prejump_reversal(parse_source(PHI), parse_source(RT2), events=100)
    assert report.status == "pass"
    assert report.applied_count == 1
    applied = [inst for inst in report.instances if inst.applied]
    assert applied[0].t_joint == 5
    assert applied[0].m == 3 and applied[0].s == 2
    assert applied[0].reversed_ok is True


def test_prejump_reversal_fails_when_the_order_is_not_reversed(monkeypatch):
    # the staircases are ordered ("b", "a") before the shared jump and
    # again before alpha's previous one: the pattern holds, the law fails
    asked = []

    def order_vector_at(pair, t, depth_limit):
        asked.append(t)
        return ("b", "a")

    monkeypatch.setattr(order_dynamics, "order_vector_at", order_vector_at)
    report = check_prejump_reversal(parse_source(PHI), parse_source(RT2), events=200)
    assert report.status == "fail"
    assert [(inst.t_joint, inst.applied, inst.reversed_ok) for inst in report.instances] == [
        (5, True, False)
    ]
    assert asked == [4, 2]


def test_prejump_reversal_requires_an_instance():
    with pytest.raises(HypothesisNotMet):
        check_prejump_reversal(parse_source(PHI), parse_source(RT2), events=3)


@pytest.mark.parametrize("events", [0, -1, -100])
def test_prejump_reversal_refuses_an_empty_window_before_any_read(events):
    # finite sources: a scan that ignored the count would run out of
    # quotients and raise SourceExhausted instead of hanging
    alpha = ExplicitSource([1, 1, 1, 1, 1, 1])
    beta = ExplicitSource([1, 2, 2, 2, 2, 2])
    with pytest.raises(ValueError, match="events must be >= 1"):
        check_prejump_reversal(alpha, beta, events=events)
    assert alpha._terms == [] and beta._terms == []


@pytest.mark.parametrize(
    "terms, events", [([0, 2], 1), ([0, 2, 3], 1), ([0, 2, 3], 2), ([1, 1, 1], 1)]
)
def test_prejump_reversal_reads_nothing_past_its_window(terms, events):
    # the window ends before alpha's q_3, so it holds no pattern, and the
    # scan reads only the quotients the window's events read
    alpha, beta = ExplicitSource(terms), parse_source(PHI)
    with pytest.raises(HypothesisNotMet):
        check_prejump_reversal(alpha, beta, events=events)
    twin = FunctionTuple.build([("a", ExplicitSource(terms)), ("b", parse_source(PHI))])
    list(itertools.islice(iter_events(twin, 0), events))
    assert len(alpha._terms) == len(twin.members[0][1]._terms)


def test_prejump_reversal_on_synthesized_pair():
    schedule = JumpSchedule([frozenset({"A"}), frozenset({"A", "B"})])
    result = synthesize(schedule)
    sources = result.padded_sources(extra=10)
    report = check_prejump_reversal(sources["A"], sources["B"], events=8)
    assert report.applied_count >= 1
    assert report.status == "pass"


def triple_pattern_schedule(warmup=()):
    pattern = [
        frozenset({"A", "B"}),
        frozenset({"A", "C"}),
        frozenset({"B", "C"}),
        frozenset({"A", "B"}),
        frozenset({"A", "C"}),
        frozenset({"B", "C"}),
    ]
    return JumpSchedule(list(warmup) + pattern)


def cf_index(result, event, label):
    (cert,) = [c for c in result.certificates[event] if c.label == label]
    return cert.cf_index


def pattern_indices(result, warmup_count):
    m = cf_index(result, warmup_count, "A")
    s = cf_index(result, warmup_count, "B")
    l = cf_index(result, warmup_count + 1, "C")
    return m, s, l


def test_triple_coincidence_pass():
    result = synthesize(triple_pattern_schedule())
    sources = result.padded_sources(extra=8)
    m, s, l = pattern_indices(result, 0)
    report = check_triple_coincidence(
        sources["A"], sources["B"], sources["C"], m, s, l
    )
    assert report.status == "pass"
    assert (report.m, report.s, report.l) == (m, s, l)
    assert report.window == (result.event_values[2], result.event_values[3])


def test_triple_coincidence_rejects_wrong_indices():
    result = synthesize(triple_pattern_schedule())
    sources = result.padded_sources(extra=8)
    m, s, l = pattern_indices(result, 0)
    with pytest.raises(PatternMismatch):
        check_triple_coincidence(
            sources["A"], sources["B"], sources["C"], m + 1, s, l
        )


def test_triple_coincidence_refuses_negative_indices():
    with pytest.raises(ValueError, match="state index must be >= 0"):
        check_triple_coincidence(
            parse_source(PHI), parse_source(RT2), parse_source("rule:e"), -1, -1, -1
        )


def test_triple_coincidence_rejects_unrelated_sources():
    with pytest.raises(PatternMismatch):
        check_triple_coincidence(
            parse_source(PHI), parse_source(RT2), parse_source("rule:e"), 3, 3, 3
        )


# ------------------------------------------------------- counting functions


def test_sign_changes_pinned():
    import pinned

    assert sign_changes(pair(), 10**4) == pinned.PAIR_SIGN_CHANGES_10_4


def test_sign_changes_small_windows():
    ft = pair()
    assert sign_changes(ft, 4) == 0
    assert sign_changes(ft, 8) == 1


@pytest.mark.parametrize("horizon", [1, 4, 10**4])
def test_sign_changes_refuses_a_negative_depth_limit_before_any_read(horizon):
    # horizons below and past the pair's clamped start, q_2 = 5
    ft = pair()
    with pytest.raises(ValueError, match=r"^depth_limit must be >= 0, got -1$"):
        sign_changes(ft, horizon, depth_limit=-1)
    assert all(source._terms == [] for _, source in ft.members)


@pytest.mark.parametrize("events", [3, 100])
def test_prejump_reversal_refuses_a_negative_depth_limit_before_any_read(events):
    # 3 events hold no instance of the pattern, 100 events hold one
    alpha, beta = parse_source(PHI), parse_source(RT2)
    with pytest.raises(ValueError, match=r"^depth_limit must be >= 0, got -1$"):
        check_prejump_reversal(alpha, beta, events=events, depth_limit=-1)
    assert alpha._terms == [] and beta._terms == []


def test_sign_changes_needs_pair():
    ft = FunctionTuple.build([("phi", parse_source(PHI))])
    with pytest.raises(ValueError):
        sign_changes(ft, 100)


def test_bound_check():
    assert bound_check(6, 3).consistent
    assert bound_check(3, 2).consistent
    violation = bound_check(7, 3)
    assert not violation.consistent
    assert violation.capacity == 6
    assert "cannot be final" in violation.message
    with pytest.raises(ValueError):
        bound_check(0, 3)
