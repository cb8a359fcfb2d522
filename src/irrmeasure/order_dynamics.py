"""Order vectors of a tuple of staircases and their change moments.

Given labeled sources, the order vector at t lists the labels in strictly
decreasing staircase value.  The vector can only change where some member
jumps, so the dynamics are driven by the merged stream of convergent
denominators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cmp_to_key, partial
from itertools import chain, groupby, repeat, takewhile
from operator import itemgetter, lt
from typing import NamedTuple

from .cf_engine import PartialQuotientSource
from .errors import ComparisonUndecided, required
from .psi import ApproximationError, level_handle, strictly_below

DEFAULT_DEPTH_LIMIT = 64
OrderVector = tuple  # tuple of labels, largest value first


@dataclass(frozen=True)
class FunctionTuple:
    """Finite ordered collection of labeled sources."""

    members: tuple

    def __post_init__(self):
        labels = [label for label, _ in self.members]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if not labels:
            raise ValueError("tuple must not be empty")

    @classmethod
    def build(cls, pairs) -> "FunctionTuple":
        return cls(tuple((label, source) for label, source in pairs))

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.members)


@dataclass(frozen=True)
class JumpEvent:
    """One merged event: the integer t and the labels that jump there."""

    t: int
    jumping: tuple


@dataclass(frozen=True, init=False, repr=False, eq=False)
class ChangeMoment(NamedTuple):
    """One change of the order vector: the event t, the vector from t on,
    and the labels that jump at t.

    A named tuple, so a moment equals the plain tuple (t, vector, jumping)
    and unpacks as one, and building it runs no per-field Python code.  The
    dataclass decorator leaves construction, repr and equality to the tuple;
    it keeps dataclasses.replace, fields and asdict working on a moment, and
    assigning to a field raises FrozenInstanceError, as when moments were
    frozen dataclasses.
    """

    t: int
    vector: OrderVector
    jumping: tuple


@dataclass(frozen=True)
class ChangeTrace:
    """Order vector at t0 plus every moment where it changed afterwards."""

    t0: int
    v0: OrderVector
    moments: tuple
    header: dict = field(default_factory=dict)

    def vectors(self):
        return [self.v0] + [m.vector for m in self.moments]

    def to_document(self) -> dict:
        header = dict(self.header)
        header["t0"] = str(self.t0)
        header["v0"] = list(self.v0)
        return {
            "header": header,
            "events": [
                {"t": str(t), "v": list(vector), "jumping": list(jumping)}
                for t, vector, jumping in self.moments
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ChangeTrace":
        """The trace a document holds, refused with ValueError unless it has
        the shape to_document writes; a missing key is named in the message.

        Each event must be an object with an integer t (a JSON string or
        number), a list v of exactly v0's labels and a list jumping of
        distinct string labels, and t must increase from t0 on.  The events
        are read column by column: every t, v and jumping is pulled out at
        once and each check runs over a whole column with C-level maps, so
        no Python code runs per event.  Only when some check fails are the
        events read one by one, in order, to raise the error of the first
        bad event.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"trace must be an object, not {type(doc).__name__}")
        header, events = required(doc, "header", "trace"), required(doc, "events", "trace")
        if not isinstance(header, dict):
            raise ValueError(f"trace header must be an object, not {type(header).__name__}")
        if not isinstance(events, list):
            raise ValueError(f"trace events must be a list, not {type(events).__name__}")
        header = dict(header)
        t0 = _integer(required(header, "t0", "trace header"), "trace t0")
        v0 = _labels(required(header, "v0", "trace header"), "trace v0")
        del header["t0"], header["v0"]
        members = set(v0)
        moments = _read_events(events, t0, members)
        if moments is None:
            _refuse_first_bad_event(events, t0, members)
        return cls(t0, v0, moments, header)


_event_fields = itemgetter("t", "v", "jumping")
# a moment from a (t, vector, jumping) tuple: ChangeMoment._make without its
# length check, and with no Python frame
_moment_of = partial(tuple.__new__, ChangeMoment)


def _read_events(events: list, t0: int, members: set) -> tuple | None:
    """The moments of a trace's events, or None if any event is bad.

    Each check covers a whole column and accepts exactly what _moment and
    the increase test of _refuse_first_bad_event accept: v has the length
    of v0 and the same set of labels, so it is v0 permuted.
    """
    if not all(map(isinstance, events, repeat(dict))):
        return None
    try:
        rows = list(map(_event_fields, events))
    except KeyError:
        return None
    if not rows:
        return ()
    ts, vs, js = zip(*rows)
    if not set(map(type, ts)) <= {str, int}:
        return None
    try:
        ts = list(map(int, ts))
    except ValueError:
        return None
    if not (
        all(map(isinstance, chain(vs, js), repeat(list)))
        and all(map(isinstance, chain.from_iterable(chain(vs, js)), repeat(str)))
        and set(map(len, vs)) == {len(members)}
        and all(map(members.__eq__, map(set, vs)))
        and list(map(len, map(set, js))) == list(map(len, js))
        and all(map(lt, [t0, *ts], ts))
    ):
        return None
    return tuple(map(_moment_of, zip(ts, map(tuple, vs), map(tuple, js))))


def _refuse_first_bad_event(events: list, t: int, members: set) -> None:
    """Read the events one by one and raise the error of the first bad one."""
    for e in events:
        moment = _moment(e, members)
        if moment.t <= t:
            raise ValueError(f"trace event t must increase: {moment.t} follows {t}")
        t = moment.t
    raise AssertionError("the column checks refused events that read one by one")


def _moment(e, members: set) -> ChangeMoment:
    """One trace event whose vector orders exactly the labels of members."""
    if not isinstance(e, dict):
        raise ValueError(f"trace event must be an object, not {type(e).__name__}")
    return ChangeMoment(
        _integer(required(e, "t", "trace event"), "trace event t"),
        _labels(required(e, "v", "trace event"), "trace event v", members),
        _labels(required(e, "jumping", "trace event"), "trace event jumping"),
    )


def _integer(value, what: str) -> int:
    """An integer written as a JSON string or number, refused otherwise."""
    if type(value) not in (str, int):
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return int(value)


def _labels(value, what: str, members: set | None = None) -> tuple:
    """A JSON list of distinct string labels, as a tuple; given members, a
    list of exactly those labels."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    if not all(map(isinstance, value, repeat(str))):
        label = next(label for label in value if not isinstance(label, str))
        raise ValueError(f"trace label {label!r} is not a string")
    labels = set(value)
    if len(labels) < len(value):
        label = next(label for i, label in enumerate(value) if label in value[:i])
        raise ValueError(f"{what} repeats label {label!r}")
    if members is not None and labels != members:
        raise ValueError(f"{what} {value} is not a permutation of v0")
    return tuple(value)


def _distinct_denominators(source: PartialQuotientSource, start_exclusive: int = 0):
    """Strictly increasing q_m stream, merging the duplicate at q_0 = q_1."""
    last = None
    m = source.seek(max(start_exclusive, 0) + 1)
    qs = source._denominators
    while True:
        q = qs[m] if m < len(qs) else source.denominator(m)
        if q != last:
            yield q
            last = q
        m += 1


def iter_events(ftuple: FunctionTuple, start_exclusive: int = 0):
    """Merged jump events strictly after start_exclusive, in increasing t."""
    streams = []
    for index, (label, source) in enumerate(ftuple.members):
        it = _distinct_denominators(source, start_exclusive)
        q = next(it)
        heapq.heappush(streams, (q, index, label, it))
    while streams:
        t = streams[0][0]
        jumping = []
        # the heap orders by (q, index), so members tied at t pop in tuple order
        while streams and streams[0][0] == t:
            _, index, label, it = heapq.heappop(streams)
            jumping.append(label)
            q = next(it)
            heapq.heappush(streams, (q, index, label, it))
        yield JumpEvent(t, tuple(jumping))


def build_events(ftuple: FunctionTuple, horizon: int) -> list:
    """All merged events with t <= horizon.

    Every member must be expandable past the horizon; an explicit source
    that runs out first raises SourceExhausted since the event list would
    otherwise be silently incomplete.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return list(takewhile(lambda event: event.t <= horizon, iter_events(ftuple, 0)))


def _by_ends(x, y) -> int:
    """Compare handles as (lo, hi): by first-order bounds, else cross-products."""
    if x.floor > y.ceil or y.floor > x.ceil:
        return y.floor - x.floor
    a, b = x.ends, y.ends
    return a.lo_num * b.lo_den - b.lo_num * a.lo_den or (
        a.hi_num * b.hi_den - b.hi_num * a.hi_den
    )


def _key(handle) -> float:
    """The handle's lo as a float, computed with hi's once per ends."""
    ends = handle.ends
    if ends.lo_key is None:
        ends.lo_key = ends.lo_num / ends.lo_den
        ends.hi_key = ends.hi_num / ends.hi_den
    return ends.lo_key


def _sort_and_test(handles: list) -> list:
    """Sort stably into descending (lo, hi) and return the indices i whose
    adjacent pair (i, i + 1) is not certified apart (see _certify)."""
    handles.sort(key=_key, reverse=True)
    ends = [e.ends for e in handles]
    if len({x.lo_key for x in ends}) < len(ends):
        handles[:] = [
            e
            for _, run in groupby(handles, _key)
            for e in sorted(run, key=cmp_to_key(_by_ends), reverse=True)
        ]
        ends = [e.ends for e in handles]
    return [
        i
        for i in range(len(ends) - 1)
        if not (
            ends[i + 1].hi_key < ends[i].lo_key or strictly_below(handles[i + 1], handles[i])
        )
    ]


def _retest_pair(handles: list, i: int) -> list | None:
    """After the one overlapping pair (i, i + 1) was refined, order the two
    by key and return the indices of the pairs i - 1, i, i + 1 that are
    not certified apart; None, with nothing moved, unless their new keys
    differ and lie strictly between the keys of handles i - 1 and i + 2."""
    a, b = handles[i], handles[i + 1]
    ka, kb = _key(a), _key(b)
    if ka < kb:
        a, b, ka, kb = b, a, kb, ka
    n = len(handles)
    if not (
        kb < ka
        and (i == 0 or ka < handles[i - 1].ends.lo_key)
        and (i + 2 == n or handles[i + 2].ends.lo_key < kb)
    ):
        return None
    handles[i], handles[i + 1] = a, b
    return [
        j
        for j in range(max(i - 1, 0), min(i + 2, n - 1))
        if not (
            handles[j + 1].ends.hi_key < handles[j].ends.lo_key
            or strictly_below(handles[j + 1], handles[j])
        )
    ]


def _check_depth_limit(depth_limit: int) -> None:
    """Refuse a negative refinement budget with ValueError."""
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")


def _certify(handles: list, t: int, depth_limit: int) -> OrderVector:
    """Sort the handles into strictly decreasing value and return the labels.

    Every adjacent pair ends certified by disjoint brackets.  Each round
    refines every handle that sits in an overlapping adjacent pair once,
    however many such pairs it sits in, and re-sorts.  The sort is stable
    and descending on (lo, hi), so equal brackets keep their order.
    depth_limit bounds the rounds counted from the depths the handles come
    in with; when it is reached, the first overlapping pair is reported
    undecided.  Every certification runs here, so this is where a negative
    depth_limit is refused.

    Two handles a, b need no sort: strictly_below(b, a) or, swapped,
    strictly_below(a, b) certifies them; else one _by_ends call puts them in
    the sort's order before they are reported or refined, with no float key.

    Any other number of handles is sorted on float keys: lo and hi rounded
    to the nearest float, computed once per bracket ends.  CPython divides
    int by int with correct rounding, so a key never decreases as the exact
    value grows.  Distinct keys therefore order the handles as their exact
    lo do, and only a run of equal keys is re-sorted with _by_ends, which
    gives the same stable order as sorting all of them with it.  For the
    same reason hi_key(lower) < lo_key(upper) certifies a pair without a
    cross-product; any other pair goes to strictly_below.  Values below
    2**-1074, as in extremal windows, all round to 0.0 and take the exact
    path as one tie run.

    A round that found exactly one overlapping pair (i, i + 1) refines
    those two handles only, so only their keys move.  If their new keys
    differ and lie strictly between the keys of handles i - 1 and i + 2,
    the stable sort would put the two in key order and leave every other
    handle where it is, and every other adjacent pair was certified and
    is unchanged; _retest_pair therefore re-tests only the pairs i - 1, i
    and i + 1, with the same result as _sort_and_test.  Any other round
    calls _sort_and_test.
    """
    _check_depth_limit(depth_limit)
    rounds = 0
    if len(handles) == 2:
        a, b = handles
        while not strictly_below(b, a):
            if strictly_below(a, b):
                a, b = b, a
                break
            if _by_ends(a, b) < 0:
                a, b = b, a
            if rounds >= depth_limit:
                raise ComparisonUndecided(t, (a.label, b.label), rounds)
            a.refine(1)
            b.refine(1)
            rounds += 1
        handles[:] = a, b
        return a.label, b.label
    overlapping = _sort_and_test(handles)
    while overlapping:
        if rounds >= depth_limit:
            i = overlapping[0]
            raise ComparisonUndecided(t, (handles[i].label, handles[i + 1].label), rounds)
        for j in {j for i in overlapping for j in (i, i + 1)}:
            handles[j].refine(1)
        rounds += 1
        local = _retest_pair(handles, overlapping[0]) if len(overlapping) == 1 else None
        overlapping = _sort_and_test(handles) if local is None else local
    return tuple(e.label for e in handles)


def order_vector_at(
    ftuple: FunctionTuple, t: int, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> OrderVector:
    """Labels sorted by strictly decreasing staircase value at t.

    All adjacent comparisons are certified by disjoint brackets; if a pair
    cannot be separated within depth_limit refinement rounds past the
    starting depths, the whole ordering is undecided.
    """
    handles = [level_handle(source, t, label) for label, source in ftuple.members]
    return _certify(handles, t, depth_limit)


def clamp_start(ftuple: FunctionTuple, t0: int) -> int:
    """Traces start no earlier than every member's q_2."""
    floor_t = max(source.denominator(2) for _, source in ftuple.members)
    return max(t0, floor_t)


def change_trace(
    ftuple: FunctionTuple,
    t0: int,
    count: int | None = None,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    horizon: int | None = None,
) -> ChangeTrace:
    """The order vector at the start and the first `count` moments after it
    at which the vector changes, none past `horizon`.

    At least one bound is required.  t0 is clamped up to the largest q_2
    among members so that every staircase is past its initial irregular
    levels.  Events past the horizon are cut before they are certified.

    The events are read off the held handles, one per member in tuple
    order: a handle at level m has floor q_{m+1}, its member's next jump,
    so the next event is the least floor and its jumpers are the members
    at that floor, in tuple order as iter_events lists them.  No term is
    read for this: the handle has read q_{m+2} already.  Only the jumpers
    get fresh handles, and every other member keeps its handle and depth.
    Their values have not moved, and their brackets were pairwise disjoint
    at the previous event, so only pairs with a fresh handle can overlap;
    _certify gets the list in its last certified order with the fresh
    handles in place.  A jumper's fresh handle is at its next level, with
    no level search: from start >= q_2 on, each member's denominators
    strictly increase, so its events are its next levels in turn.  They are
    built in tuple order: the first member to run out raises.  depth_limit
    bounds the refinement rounds at each event counted from the depths the
    handles already have, not from fresh handles.  The header is left
    empty, since a synthesized member's spec can pass the 4300-digit guard
    of int to str; the trace command writes it.
    """
    if ftuple.n < 2:
        raise ValueError("dynamics need at least two members")
    if count is None and horizon is None:
        raise ValueError("change_trace needs a count or a horizon")
    if count is not None and count < 0:
        raise ValueError("count must be >= 0")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    start = clamp_start(ftuple, t0)
    held = [level_handle(source, start, label) for label, source in ftuple.members]
    handles = held[:]
    v0 = current = _certify(handles, start, depth_limit)
    floors = [e.floor for e in held]
    moments = []
    while len(moments) != count:
        t = min(floors)
        if horizon is not None and t > horizon:
            break
        jumping = []
        for i, q in enumerate(floors):
            if q == t:
                e = held[i]
                held[i] = new = ApproximationError(e.source, e.m + 1, e.label)
                floors[i] = new.floor
                handles[handles.index(e)] = new
                jumping.append(e.label)
        vector = _certify(handles, t, depth_limit)
        if vector != current:
            moments.append(ChangeMoment(t, vector, tuple(jumping)))
            current = vector
    return ChangeTrace(start, v0, tuple(moments))
