"""Merged jump events, order vectors, and change traces."""

import dataclasses
import hashlib
import json
from itertools import islice, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

import pinned
import _oracle as oracle
from _documents import FAULTS, trace_documents
from _oracle import tau_at
from irrmeasure import order_dynamics
from irrmeasure.cf_engine import ExplicitSource, parse_source
from irrmeasure.cli_io import canonical_json
from irrmeasure.errors import ComparisonUndecided, HypothesisNotMet, SourceExhausted
from irrmeasure.order_dynamics import (
    ChangeMoment,
    ChangeTrace,
    FunctionTuple,
    build_events,
    change_trace,
    clamp_start,
    iter_events,
    order_vector_at,
)
from irrmeasure.psi import ApproximationError, level_handle
from irrmeasure.structure_verify import check_prejump_reversal, sign_changes
from irrmeasure.synth import JumpSchedule, extremal_schedule, synthesize


def pair():
    return FunctionTuple.build(
        [("phi", parse_source("periodic:[1;|1]")), ("rt2", parse_source("periodic:[1;|2]"))]
    )


def test_merged_events_horizon_13():
    events = build_events(pair(), 13)
    got = [(e.t, tuple(sorted(e.jumping))) for e in events]
    assert got == [
        (1, ("phi", "rt2")),
        (2, ("phi", "rt2")),
        (3, ("phi",)),
        (5, ("phi", "rt2")),
        (8, ("phi",)),
        (12, ("rt2",)),
        (13, ("phi",)),
    ]


def test_single_function_events_are_denominators():
    ft = FunctionTuple.build([("phi", parse_source("periodic:[1;|1]"))])
    events = build_events(ft, 13)
    assert [e.t for e in events] == [1, 2, 3, 5, 8, 13]
    assert all(e.jumping == ("phi",) for e in events)


def test_synthesized_pair_shares_an_event():
    result = synthesize(JumpSchedule([frozenset({"A", "B"})]))
    ft = FunctionTuple.build(
        [(label, source) for label, source in result.padded_sources(extra=6).items()]
    )
    t_joint = result.event_values[0]
    events = build_events(ft, t_joint)
    joint = [e for e in events if e.t == t_joint]
    assert len(joint) == 1 and set(joint[0].jumping) == {"A", "B"}


def test_order_vector_examples():
    ft = pair()
    assert order_vector_at(ft, 4) == ("rt2", "phi")
    assert order_vector_at(ft, 2) == ("phi", "rt2")


def test_order_vector_single_member():
    ft = FunctionTuple.build([("phi", parse_source("periodic:[1;|1]"))])
    assert order_vector_at(ft, 10) == ("phi",)


def test_order_vector_undecided_for_identical_pair():
    ft = FunctionTuple.build(
        [("a", parse_source("periodic:[1;|1]")), ("b", parse_source("periodic:[1;|1]"))]
    )
    with pytest.raises(ComparisonUndecided) as info:
        order_vector_at(ft, 10, depth_limit=12)
    assert info.value.t == 10
    assert set(info.value.labels) == {"a", "b"}


def test_clamp_start_uses_largest_q2():
    assert clamp_start(pair(), 2) == 5
    assert clamp_start(pair(), 100) == 100


def test_change_trace_against_pins():
    trace = change_trace(pair(), 2, len(pinned.PAIR_CHANGE_MOMENTS))
    assert trace.t0 == pinned.PAIR_T0
    assert trace.v0 == pinned.PAIR_V0
    got = [(m.t, m.vector, tuple(sorted(m.jumping))) for m in trace.moments]
    assert got == pinned.PAIR_CHANGE_MOMENTS


def test_change_trace_definitional_properties():
    trace = change_trace(pair(), 2, 12)
    events = {e.t for e in build_events(pair(), trace.moments[-1].t)}
    previous = trace.v0
    last_t = trace.t0
    for moment in trace.moments:
        assert moment.t > last_t
        assert moment.vector != previous
        assert moment.t in events
        previous = moment.vector
        last_t = moment.t


def test_pair_alternates_between_two_reversed_vectors():
    trace = change_trace(pair(), 2, 20)
    assert set(trace.vectors()) == {("phi", "rt2"), ("rt2", "phi")}


def test_vector_constant_between_events():
    ft = pair()
    events = [e.t for e in build_events(ft, 300)]
    for t_a, t_b in zip(events, events[1:]):
        if t_b - t_a < 2 or t_a < 5:
            continue
        v_at = order_vector_at(ft, t_a)
        for t in range(t_a + 1, t_b):
            assert order_vector_at(ft, t) == v_at


def test_tau_values():
    ft = pair()
    assert tau_at(ft, 5) == 2
    assert tau_at(ft, 4) == 0
    assert tau_at(ft, 1) == 2


def test_trace_round_trip():
    trace = change_trace(pair(), 2, 8)
    doc = trace.to_document()
    again = ChangeTrace.from_document(doc)
    assert again.t0 == trace.t0
    assert again.v0 == trace.v0
    assert again.moments == trace.moments
    assert again.to_document() == doc


@pytest.mark.parametrize(
    "members, t0, count",
    [
        ((("phi", "periodic:[1;|1]"), ("rt2", "periodic:[1;|2]")), 2, 60),
        (tuple((f"m{i:02d}", f"seeded:{700 + i}:{2 + i % 5}") for i in range(15)), 2, 40),
    ],
    ids=["phi-rt2", "fifteen"],
)
def test_moments_round_trip_through_canonical_json(members, t0, count):
    ftuple = FunctionTuple.build((label, parse_source(spec)) for label, spec in members)
    trace = change_trace(ftuple, t0, count)
    text = canonical_json(trace.to_document())
    again = ChangeTrace.from_document(json.loads(text))
    assert (again.t0, again.v0, again.moments) == (trace.t0, trace.v0, trace.moments)
    assert len(again.moments) == count
    for moment, original in zip(again.moments, trace.moments):
        assert type(moment) is ChangeMoment
        assert type(moment.vector) is tuple and type(moment.jumping) is tuple
        # a moment is the plain tuple of its fields, and shows its names
        assert moment == (original.t, original.vector, original.jumping)
        assert repr(moment) == (
            f"ChangeMoment(t={original.t!r}, vector={original.vector!r}, "
            f"jumping={original.jumping!r})"
        )
    assert canonical_json(again.to_document()) == text


def test_a_moment_keeps_the_dataclass_api():
    # perfbench/selftest.py corrupts moments with dataclasses.replace
    moment = ChangeMoment(5, ("a", "b"), ("a",))
    swapped = dataclasses.replace(moment, vector=("b", "a"))
    assert type(swapped) is ChangeMoment and swapped == (5, ("b", "a"), ("a",))
    assert [f.name for f in dataclasses.fields(moment)] == ["t", "vector", "jumping"]
    assert dataclasses.asdict(moment) == {"t": 5, "vector": ("a", "b"), "jumping": ("a",)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        moment.t = 6


def read_outcome(reader, doc):
    """A reader's trace as its fields, or its error's type and message."""
    try:
        trace = reader(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return trace.t0, trace.v0, trace.moments, trace.header, type(trace.moments)


# each fault gets its own examples, since hypothesis may draw one fault
# only rarely in a run
@pytest.mark.parametrize(
    "fault", [None, *FAULTS], ids=lambda fault: fault.__name__.strip("_") if fault else "none"
)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_column_reader_matches_the_event_reader(fault, data):
    doc = data.draw(trace_documents(fault))
    assert read_outcome(ChangeTrace.from_document, doc) == read_outcome(
        oracle.trace_from_document, doc
    )


def test_column_reader_reads_subclasses_as_the_event_reader_does():
    # isinstance, not type, decides dict, list and str, as event by event
    class Row(dict):
        pass

    class Labels(list):
        pass

    class Label(str):
        pass

    doc = {
        "header": {"t0": "1", "v0": ["a", "b"]},
        "events": [Row(t=2, v=Labels([Label("b"), "a"]), jumping=Labels([Label("b")]))],
    }
    assert read_outcome(ChangeTrace.from_document, doc) == read_outcome(
        oracle.trace_from_document, doc
    )
    assert ChangeTrace.from_document(doc).moments == ((2, ("b", "a"), ("b",)),)


def test_seeded_triple_distinct_vector_bound():
    ft = FunctionTuple.build(
        [
            ("s1", parse_source("seeded:11:5")),
            ("s2", parse_source("seeded:12:5")),
            ("s3", parse_source("seeded:13:5")),
        ]
    )
    trace = change_trace(ft, 1, 200)
    within = [m for m in trace.moments if m.t <= 10**4]
    seen = {trace.v0} | {m.vector for m in within}
    assert 2 <= len(seen) <= 6


def test_sign_changes_pinned_and_monotone():
    ft = pair()
    assert sign_changes(ft, 10**4) == pinned.PAIR_SIGN_CHANGES_10_4
    assert sign_changes(ft, 7) == 0
    counts = [sign_changes(ft, h) for h in (10, 100, 1000, 10**4)]
    assert counts == sorted(counts)
    assert counts[-1] >= 1


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FunctionTuple.build(
            [("x", parse_source("periodic:[1;|1]")), ("x", parse_source("periodic:[1;|2]"))]
        )


def seeded_tuple(specs):
    return FunctionTuple.build(
        (f"s{i}", parse_source(f"seeded:{seed}:{bound}"))
        for i, (seed, bound) in enumerate(specs)
    )


def fresh_vector_moments(ftuple, start):
    """Reference moment loop: a fresh order_vector_at at every event."""
    current = order_vector_at(ftuple, start)
    for event in iter_events(ftuple, start):
        vector = order_vector_at(ftuple, event.t)
        if vector != current:
            yield ChangeMoment(event.t, vector, event.jumping)
            current = vector


# consecutive seeds from a random base, one quotient bound per member
seeded_specs = st.builds(
    lambda base, bounds: [(base + i, bound) for i, bound in enumerate(bounds)],
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=15),
)


@settings(deadline=None, max_examples=40)
@given(
    seeded_specs,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=40),
)
def test_kept_handles_trace_matches_fresh_vectors(specs, t0, count):
    ftuple = seeded_tuple(specs)
    trace = change_trace(ftuple, t0, count)
    start = clamp_start(ftuple, t0)
    assert trace.t0 == start
    assert trace.v0 == order_vector_at(ftuple, start)
    assert trace.moments == tuple(islice(fresh_vector_moments(ftuple, start), count))


@settings(deadline=None, max_examples=40)
@given(seeded_specs.map(lambda specs: specs[:2]), st.integers(min_value=1, max_value=10**12))
def test_kept_handles_sign_changes_match_fresh_vectors(specs, horizon):
    ftuple = seeded_tuple(specs)
    start = clamp_start(ftuple, 1)
    expected = 0
    if horizon >= start:
        moments = fresh_vector_moments(ftuple, start)
        expected = sum(1 for _ in takewhile(lambda m: m.t <= horizon, moments))
    assert sign_changes(ftuple, horizon) == expected


@settings(deadline=None, max_examples=40)
@given(
    seeded_specs.map(lambda specs: specs[:6]),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**8),
)
def test_horizon_cuts_a_count_bounded_trace(specs, t0, horizon):
    ftuple = seeded_tuple(specs)
    count = 8
    while (longer := change_trace(ftuple, t0, count)).moments[-1].t <= horizon:
        count *= 2
    trace = change_trace(ftuple, t0, horizon=horizon)
    assert (trace.t0, trace.v0) == (longer.t0, longer.v0)
    assert trace.moments == tuple(m for m in longer.moments if m.t <= horizon)


class Unreadable:
    """A source that fails on any read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name}")


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({}, "change_trace needs a count or a horizon"),
        ({"count": -1}, "count must be >= 0"),
        ({"horizon": 0}, "horizon must be >= 1"),
    ],
)
def test_change_trace_refuses_bad_bounds_before_any_read(bounds, message):
    ftuple = FunctionTuple.build([("a", Unreadable()), ("b", Unreadable())])
    with pytest.raises(ValueError, match=message):
        change_trace(ftuple, 1, **bounds)


def test_each_handle_is_refined_at_most_once_per_round(monkeypatch):
    # a round's refines run back to back between two overlap scans, and a
    # scan compares handles with psi.strictly_below, which refine never calls
    log = []
    built = []
    init, refine = ApproximationError.__init__, ApproximationError.refine
    strictly_below = order_dynamics.strictly_below

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def logged_refine(self, extra=1):
        log.append(self)
        refine(self, extra)

    def logged_strictly_below(a, b):
        log.append(None)
        return strictly_below(a, b)

    monkeypatch.setattr(ApproximationError, "__init__", counting_init)
    monkeypatch.setattr(ApproximationError, "refine", logged_refine)
    monkeypatch.setattr(order_dynamics, "strictly_below", logged_strictly_below)
    ftuple = seeded_tuple((1000 + i, 2 + i % 5) for i in range(15))
    trace = change_trace(ftuple, 2, 250)

    rounds, current = [], []
    for entry in log + [None]:
        if entry is not None:
            current.append(entry)
        elif current:
            rounds.append(current)
            current = []
    assert rounds, "the trace made no refinement round"
    assert all(len({id(h) for h in handles}) == len(handles) for handles in rounds)

    last = trace.moments[-1].t
    scanned = takewhile(lambda event: event.t <= last, iter_events(ftuple, trace.t0))
    assert len(built) == ftuple.n + sum(len(event.jumping) for event in scanned)


def test_change_trace_undecided_for_identical_pair():
    ft = FunctionTuple.build(
        [("a", parse_source("periodic:[1;|1]")), ("b", parse_source("periodic:[1;|1]"))]
    )
    with pytest.raises(ComparisonUndecided) as info:
        change_trace(ft, 1, 5)
    assert info.value.t == 2
    assert set(info.value.labels) == {"a", "b"}
    assert info.value.rounds == 64


# --------------------------------------- integer scan against Fraction keys


def certify_by_fractions(handles, t, depth_limit):
    """The moment loop's scan on Fraction (lo, hi) keys, kept as the oracle."""
    rounds = 0
    while True:
        handles.sort(key=lambda e: (e.bracket.lo, e.bracket.hi), reverse=True)
        overlapping = [
            i
            for i in range(len(handles) - 1)
            if not oracle.strictly_below(handles[i + 1].bracket, handles[i].bracket)
        ]
        if not overlapping:
            return tuple(e.label for e in handles)
        if rounds >= depth_limit:
            i = overlapping[0]
            raise ComparisonUndecided(t, (handles[i].label, handles[i + 1].label), rounds)
        for j in {j for i in overlapping for j in (i, i + 1)}:
            handles[j].refine(1)
        rounds += 1


def outcome(call):
    try:
        return call()
    except ComparisonUndecided as exc:
        return exc.t, exc.labels, exc.rounds
    except SourceExhausted as exc:
        return exc.index, exc.available
    except HypothesisNotMet as exc:
        return str(exc)


def dynamics(specs, t, count, horizon, depth_limit):
    ftuple = seeded_tuple(specs)
    pair = FunctionTuple(seeded_tuple(specs).members[:2])
    alpha, beta = (source for _, source in pair.members)
    return (
        outcome(lambda: order_vector_at(ftuple, t, depth_limit)),
        outcome(lambda: change_trace(ftuple, t, count, depth_limit)),
        outcome(lambda: sign_changes(pair, horizon, depth_limit)),
        outcome(lambda: check_prejump_reversal(alpha, beta, 40, depth_limit)),
    )


# seeds from a pool of five repeat often, so equal brackets tie in the sort;
# small t and bounds make brackets touch, and small depth limits leave
# pairs undecided
certify_specs = st.lists(
    st.tuples(
        st.integers(0, 4) | st.integers(5, 10**6),
        st.integers(min_value=2, max_value=4),
    ),
    min_size=2,
    max_size=15,
)


@settings(deadline=None, max_examples=30)
@given(
    certify_specs,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=10**8),
    st.integers(min_value=0, max_value=6) | st.just(16),
)
@example([(1, 3), (0, 2)], 1, 0, 1, 0)  # at t = 1 the second's lo is the first's hi
@example([(3, 2), (7, 4), (3, 2)], 40, 5, 10**6, 64)  # s0 and s2 are one number
@example([(1, 3), (2, 2), (2, 3)], 11, 2, 276627, 1)  # sorting on hi first differs
def test_integer_scan_matches_fraction_keys(specs, t, count, horizon, depth_limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dynamics, "_certify", certify_by_fractions)
        expected = dynamics(specs, t, count, horizon, depth_limit)
    assert dynamics(specs, t, count, horizon, depth_limit) == expected


def explicit_tuple(prefix, tails):
    return FunctionTuple.build(
        (f"x{i}", ExplicitSource(prefix + tail)) for i, tail in enumerate(tails)
    )


def keyed_outcomes(prefix, tails, t, count, depth_limit):
    """order_vector_at and change_trace on fresh copies of one explicit tuple."""
    return (
        outcome(lambda: order_vector_at(explicit_tuple(prefix, tails), t, depth_limit)),
        outcome(lambda: change_trace(explicit_tuple(prefix, tails), 2, count, depth_limit)),
    )


# four numbers sharing the quotients 0; 2 x 40: at small t their values
# agree to about 2**-100 relatively, so their float keys tie while the
# exact brackets separate
SHARED_PREFIX = [0] + [2] * 40
SHARED_TAILS = [[1 + (i * j + i) % 5 for j in range(40)] for i in range(4)]
# a_3 = 2**1100 puts every value from t = 3 on below 2**-1100, so every
# float key underflows to 0.0
UNDERFLOW_PREFIX = [0, 1, 2, 2**1100]
UNDERFLOW_TAILS = [[1 + (i * j + 2 * i) % 7 for j in range(60)] for i in range(4)]


@pytest.mark.parametrize(
    "prefix, tails, t, keys_tie",
    [
        (SHARED_PREFIX, SHARED_TAILS, 5, lambda a, b: a.lo_key == b.lo_key),
        (SHARED_PREFIX, SHARED_TAILS, 29, lambda a, b: a.lo_key == b.lo_key),
        (UNDERFLOW_PREFIX, UNDERFLOW_TAILS, 3, lambda a, b: a.lo_key == b.hi_key == 0.0),
        (UNDERFLOW_PREFIX, UNDERFLOW_TAILS, 2**1120, lambda a, b: a.lo_key == b.hi_key == 0.0),
    ],
    ids=["shared-prefix-5", "shared-prefix-29", "underflow-3", "underflow-2^1120"],
)
@pytest.mark.parametrize("depth_limit", [0, 3, 64])
def test_tied_float_keys_match_fraction_keys(prefix, tails, t, keys_tie, depth_limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dynamics, "_certify", certify_by_fractions)
        expected = keyed_outcomes(prefix, tails, t, 10, depth_limit)
    assert keyed_outcomes(prefix, tails, t, 10, depth_limit) == expected
    if depth_limit == 64:
        # the certified order has distinct values whose keys tie
        members = explicit_tuple(prefix, tails).members
        handles = [level_handle(source, t, label) for label, source in members]
        order_dynamics._certify(handles, t, depth_limit)
        ends = [handle.ends for handle in handles]
        assert all(keys_tie(a, b) for a, b in zip(ends, ends[1:]))


def test_extremal_window_moments_are_pinned():
    # k = 3, cycles = 6 with filler tails, events up to the sixth-last event
    # value: 10 moments, pinned as sha256 over t in hex, the vector and the
    # jumping labels.
    result = synthesize(extremal_schedule(3, 6))
    ftuple = FunctionTuple.build(result.padded_sources(extra=60).items())
    trace = change_trace(ftuple, 1, horizon=result.event_values[-6])
    v0, moments = trace.v0, trace.moments
    assert len(moments) == 10
    lines = [" ".join(v0)] + [
        f"{m.t:x} {' '.join(m.vector)} | {' '.join(m.jumping)}" for m in moments
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "aecca3c514967047b851fb38882daffb1af1b796335d88adc2745ad629118f7d"


# ------------------------------------ pair loop against the sorted loop


def explicit_spec(terms):
    return f"explicit:[0;{','.join(map(str, terms))}]"


def periodic_spec(a0, pre, period):
    return f"periodic:[{a0};{','.join(map(str, pre))}|{','.join(map(str, period))}]"


quotients = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
# seeds from a pool of four repeat often; explicit lists of up to 12
# quotients run out within a few refinements
pair_members = (
    st.builds("seeded:{}:{}".format, st.integers(0, 3) | st.integers(4, 10**6), st.integers(2, 6))
    | st.builds(periodic_spec, st.integers(0, 2), quotients | st.just([]), quotients)
    | st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12).map(explicit_spec)
)
# two numbers sharing up to 30 quotients agree to about 2**-40 or closer,
# and their short tails run out while they are being told apart
near_ties = st.builds(
    lambda prefix, tails: [explicit_spec(prefix + tail) for tail in tails],
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30),
    st.lists(st.lists(st.integers(min_value=1, max_value=5), max_size=6), min_size=2, max_size=2),
)
spec_pairs = (
    st.lists(pair_members, min_size=2, max_size=2)
    | pair_members.map(lambda spec: [spec, spec])
    | near_ties
)


def snapshot(handle):
    ends = handle.ends
    return handle.m, handle.depth, ends.lo_num, ends.lo_den, ends.hi_num, ends.hi_den


def certified_pair(certify, specs, t, depth_limit):
    """certify's result on fresh handles a, b; the handle list's order when
    it returns; each handle's final level, depth and ends by label."""
    handles, order = [], None
    try:
        for label, spec in zip("ab", specs):
            handles.append(level_handle(parse_source(spec), t, label))
        result = certify(handles, t, depth_limit)
        order = tuple(e.label for e in handles)
    except ComparisonUndecided as exc:
        result = "undecided", exc.t, exc.labels, exc.rounds
    except SourceExhausted as exc:
        result = "exhausted", exc.index, exc.available
    return result, order, sorted((e.label,) + snapshot(e) for e in handles)


# one of each outcome: kept, swapped, undecided after a swap, undecided for
# one number, run out in a near-tie, run out with a_1 = 1
PAIR_EXAMPLES = [
    (["seeded:1:6", "seeded:2:6"], 5, 0, ("a", "b")),
    (["seeded:1:6", "seeded:2:6"], 13, 0, ("b", "a")),
    (["periodic:[1;|1]", "periodic:[1;|2]"], 10**6, 0, ("undecided", 10**6, ("b", "a"), 0)),
    (["periodic:[1;|1]", "periodic:[1;|1]"], 2, 64, ("undecided", 2, ("a", "b"), 64)),
    (
        [explicit_spec([2] * 20 + [1]), explicit_spec([2] * 20 + [3])],
        5,
        64,
        ("exhausted", 22, 22),
    ),
    ([explicit_spec([1, 2, 3]), explicit_spec([1, 2, 3, 4])], 1, 64, ("exhausted", 4, 4)),
]


@pytest.mark.parametrize("specs, t, depth_limit, result", PAIR_EXAMPLES)
def test_pair_examples_reach_each_outcome(specs, t, depth_limit, result):
    assert certified_pair(order_dynamics._certify, specs, t, depth_limit)[0] == result


def with_pair_examples(test):
    for specs, t, depth_limit, _ in PAIR_EXAMPLES:
        test = example(specs, t, depth_limit)(test)
    return test


@settings(deadline=None, max_examples=300)
@given(
    spec_pairs,
    st.integers(min_value=1, max_value=60) | st.integers(min_value=61, max_value=10**9),
    st.integers(min_value=0, max_value=8) | st.just(64),
)
@with_pair_examples
def test_pair_loop_matches_the_sorted_loop(specs, t, depth_limit):
    expected = certified_pair(oracle.sorted_certify, specs, t, depth_limit)
    assert certified_pair(order_dynamics._certify, specs, t, depth_limit) == expected


# ------------------------------- fresh handles open at their next level


def recorded_trace(ftuple, t0, count):
    """change_trace's certify calls, each as (t, snapshot by label) taken
    before it refines anything, and the labels of the fresh handles in the
    order they were built; the error the trace raised, or None."""
    calls, built = [], []
    certify = order_dynamics._certify

    def recording_certify(handles, t, depth_limit):
        calls.append((t, {e.label: snapshot(e) for e in handles}))
        return certify(handles, t, depth_limit)

    def recording_handle(source, m, label):
        built.append(label)
        return ApproximationError(source, m, label)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dynamics, "_certify", recording_certify)
        patch.setattr(order_dynamics, "ApproximationError", recording_handle)
        try:
            change_trace(ftuple, t0, count)
            error = None
        except (ComparisonUndecided, SourceExhausted) as exc:
            error = exc
    return calls, built, error


def check_fresh_handles(members, t0, count):
    """Check that each jumper's fresh handle is level_handle's at the event,
    on fresh sources.  Returns the labels of the handles built, those of
    the certified events' jumpers, and the trace's error or None."""
    calls, built, error = recorded_trace(FunctionTuple.build(members()), t0, count)
    reference = FunctionTuple.build(members())
    sources = dict(reference.members)
    events = iter_events(reference, clamp_start(reference, t0))
    jumped = []
    for (t, handles), event in zip(calls[1:], events):
        assert t == event.t
        jumped += event.jumping
        for label in event.jumping:
            assert handles[label] == snapshot(level_handle(sources[label], t, label))
    return built, jumped, error


# members with a_1 = 1 (q_0 = q_1 = 1) among seeded ones
trace_members = st.lists(
    st.builds("seeded:{}:{}".format, st.integers(0, 10**6), st.integers(2, 6))
    | st.builds(periodic_spec, st.integers(0, 2), quotients.map(lambda pre: [1] + pre), quotients)
    | st.builds(periodic_spec, st.integers(0, 2), st.just([]), quotients.map(lambda p: [1] + p)),
    min_size=2,
    max_size=8,
)


@settings(deadline=None, max_examples=60)
@given(
    trace_members,
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=40),
)
def test_fresh_handles_open_at_the_level_of_their_event(specs, t0, count):
    def members():
        return ((f"s{i}", parse_source(spec)) for i, spec in enumerate(specs))

    built, jumped, error = check_fresh_handles(members, t0, count)
    # each certified event's jumpers get their handles in jumping order
    assert built == jumped
    assert not isinstance(error, SourceExhausted)


# m1 runs out when its handle opens at t = 43, where m0 jumps too; m0's
# handle at that event opens first when m0 is listed first
SHARED_EXHAUSTION = {"m0": [0, 3, 3, 4, 1, 3, 1], "m1": [0, 1, 2, 3, 3, 1, 6]}


@pytest.mark.parametrize("labels", [("m0", "m1"), ("m1", "m0")])
def test_a_jumper_that_runs_out_raises_what_level_handle_raises(labels):
    def members():
        return ((label, ExplicitSource(SHARED_EXHAUSTION[label])) for label in labels)

    built, jumped, error = check_fresh_handles(members, 1, 50)
    ftuple = FunctionTuple.build(members())
    event = next(e for e in iter_events(ftuple, clamp_start(ftuple, 1)) if e.t == 43)
    assert event.jumping == labels
    with pytest.raises(SourceExhausted) as expected:
        level_handle(ExplicitSource(SHARED_EXHAUSTION["m1"]), 43, "m1")
    assert (error.index, error.available) == (expected.value.index, expected.value.available)
    # t = 43 is never certified; its jumpers up to m1 get handles in order
    assert built == jumped + list(labels[: labels.index("m1") + 1])


# ------------------- events off the held handles against the merged stream


def drawn_member(spec):
    """A source from a drawn member: a source spec, or a tail after
    SHARED_PREFIX or UNDERFLOW_PREFIX."""
    kind, value = spec
    if kind == "spec":
        return parse_source(value)
    return ExplicitSource((SHARED_PREFIX if kind == "shared" else UNDERFLOW_PREFIX) + value)


def drawn_tuple(specs):
    return FunctionTuple.build((f"p{i}", drawn_member(spec)) for i, spec in enumerate(specs))


def held_trace(specs, t0, count, depth_limit, horizon):
    """change_trace's trace or error, and each member's handle at the end
    as a snapshot by label.  change_trace keeps one handle list, which it
    hands to every _certify call and in which it puts each fresh handle."""
    lists = []
    certify = order_dynamics._certify

    def recording_certify(handles, t, depth_limit):
        lists.append(handles)
        return certify(handles, t, depth_limit)

    ftuple = drawn_tuple(specs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dynamics, "_certify", recording_certify)
        result = outcome(lambda: change_trace(ftuple, t0, count, depth_limit, horizon))
    return result, {e.label: snapshot(e) for e in lists[-1]} if lists else None


def merged_trace(specs, t0, count, depth_limit, horizon):
    """The same from oracle.merged_trace."""
    held = {}
    ftuple = drawn_tuple(specs)
    result = outcome(lambda: oracle.merged_trace(ftuple, t0, count, depth_limit, horizon, held))
    return result, {label: snapshot(e) for label, e in held.items()} if held else None


drawn_seeded = st.tuples(
    st.just("spec"),
    st.builds("seeded:{}:{}".format, st.integers(0, 10**6), st.integers(2, 6)),
)
drawn_periodic = st.tuples(
    st.just("spec"),
    st.builds(periodic_spec, st.integers(0, 2), quotients | st.just([]), quotients),
)
# members sharing 40 quotients, or with values below 2**-1100 whose float
# keys are all 0.0; their tails run out if they must be told apart deeper
drawn_near_tie = st.tuples(
    st.sampled_from(["shared", "underflow"]),
    st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=16),
)
# a near-tie is one member in four
drawn_member_specs = drawn_seeded | drawn_periodic | drawn_seeded | drawn_near_tie
# at most one explicit list that runs out, at a drawn place
drawn_specs = st.builds(
    lambda members, runs_out, at: (members[:at] + runs_out + members[at:])[:15],
    st.lists(drawn_member_specs, min_size=3, max_size=15),
    st.lists(
        st.tuples(
            st.just("spec"),
            st.lists(st.integers(min_value=1, max_value=4), min_size=8, max_size=24).map(
                explicit_spec
            ),
        ),
        max_size=1,
    ),
    st.integers(min_value=0, max_value=15),
)


@settings(deadline=None, max_examples=150)
@given(
    drawn_specs,
    st.integers(min_value=1, max_value=60) | st.integers(min_value=61, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=8) | st.just(64),
    st.integers(min_value=1, max_value=10**12) | st.just(2**1200),
)
# keys tied at 0.0 until the underflowing pair jumps, past 10**331
@example(
    [("underflow", [1, 2, 3, 1, 2, 2, 1, 3]), ("underflow", [3, 1, 1, 2, 2, 3, 1, 1]),
     ("spec", "seeded:1:3")],
    1, 10, 64, 2**1200,
)
# keys tied among the members that share 40 quotients; a moment at the horizon
@example(
    [("shared", [1, 4, 2, 3] * 3), ("shared", [2, 3, 1, 1] * 3), ("spec", "seeded:1:3"),
     ("spec", "seeded:2:5")],
    5, 20, 64, 70,
)
@example([("spec", "periodic:[1;|1]")] * 3, 1, 5, 3, 10**12)  # one number, undecided
def test_events_off_held_handles_match_the_merged_stream(specs, t0, count, depth_limit, horizon):
    expected = merged_trace(specs, t0, count, depth_limit, horizon)
    assert held_trace(specs, t0, count, depth_limit, horizon) == expected


# ------------------ the refined pair re-tested alone against the full sort


def certified_with(certify, specs, t0, count, depth_limit, horizon):
    """held_trace with certify in place of _certify."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dynamics, "_certify", certify)
        return held_trace(specs, t0, count, depth_limit, horizon)


@settings(deadline=None, max_examples=100)
@given(
    drawn_specs,
    st.integers(min_value=1, max_value=60) | st.integers(min_value=61, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=8) | st.just(64),
    st.integers(min_value=1, max_value=10**12) | st.just(2**1200),
)
@example(
    [("underflow", [1, 2, 3, 1, 2, 2, 1, 3]), ("underflow", [3, 1, 1, 2, 2, 3, 1, 1]),
     ("spec", "seeded:1:3")],
    1, 10, 64, 2**1200,
)
@example(
    [("shared", [1, 4, 2, 3] * 3), ("shared", [2, 3, 1, 1] * 3), ("spec", "seeded:1:3"),
     ("spec", "seeded:2:5")],
    5, 20, 64, 70,
)
@example([("spec", "periodic:[1;|1]")] * 3, 1, 5, 3, 10**12)
def test_local_retest_matches_the_full_sort(specs, t0, count, depth_limit, horizon):
    expected = certified_with(oracle.resorting_certify, specs, t0, count, depth_limit, horizon)
    actual = certified_with(order_dynamics._certify, specs, t0, count, depth_limit, horizon)
    assert actual == expected


def test_the_local_retest_saves_full_sorts():
    def sorts(certify):
        calls = []
        sort = order_dynamics._sort_and_test

        def counting_sort(handles):
            calls.append(len(handles))
            return sort(handles)

        ftuple = seeded_tuple((1000 + i, 2 + i % 5) for i in range(15))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(order_dynamics, "_sort_and_test", counting_sort)
            patch.setattr(oracle, "_sort_and_test", counting_sort)
            patch.setattr(order_dynamics, "_certify", certify)
            trace = change_trace(ftuple, 2, 250)
        return trace, len(calls)

    trace, local = sorts(order_dynamics._certify)
    expected, full = sorts(oracle.resorting_certify)
    assert trace == expected
    assert local < full


# ------------------------------- level handles from the cached lists


def built_the_old_way(source, m):
    """The reads and the error of ApproximationError(source, m) as it read
    q_{m+1}, then q_{m+2} through _ends_at."""
    q_next = source.denominator(m + 1)
    if q_next == source.denominator(m):
        raise ValueError("level 0 is no staircase level when q_0 = q_1")
    source.denominator(m + 2)


@pytest.mark.parametrize(
    "spec",
    ["explicit:[0;3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4,3,3,8,3,2,7,9,5,"
     "2,8,8,4,1,9,7,1,6,9,3]", "periodic:[1;|2]", "periodic:[2;1,1|1,4]", "seeded:5:6",
     "seeded:9:2", "periodic:[0;|1]"],
)
def test_a_level_handle_matches_its_ends_at(spec):
    for m in range(0, 41):
        source = parse_source(spec)
        try:
            handle = ApproximationError(source, m, "x")
        except ValueError as exc:
            assert m == 0 and source.term(1) == 1
            assert str(exc) == "level 0 is no staircase level when q_0 = q_1"
            continue
        except SourceExhausted as exc:
            with pytest.raises(SourceExhausted) as expected:
                built_the_old_way(parse_source(spec), m)
            assert (exc.index, exc.available) == (expected.value.index, expected.value.available)
            continue
        assert m > 0 or source.term(1) >= 2
        qs = [source.denominator(d) for d in range(m + 3)]
        assert (handle.m, handle.label, handle.depth) == (m, "x", m + 3)
        assert (handle.q, handle.floor, handle.ceil) == (qs[m], qs[m + 1], qs[m + 1] + qs[m])
        ends = handle._ends_at(m + 3, m + 1, 0, 1)
        assert snapshot(handle) == (m, m + 3, ends.lo_num, ends.lo_den, ends.hi_num, ends.hi_den)
