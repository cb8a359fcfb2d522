"""Finite-horizon verification of the structural laws of change traces.

A trace of a tuple of n = k(k+1)/2 staircases is expected to satisfy, at
every recorded change moment:

  i    exactly k members jump,
  ii   the vector sequence is periodic with (exact) period k,
  iii  each diagonal component (i, i) jumps at every k-th moment only,
  iv   each off-diagonal component (i, j) jumps at the moments of both its
       indices and nowhere else among the moments,
  v    the jumping set is the top k block of the previous vector, led by
       the current diagonal component,
  vi   consecutive vectors are one application of the cyclic permutation
       apart.

Passing here means "consistent with the law up to this horizon", never a
proof about the infinite tail.  The module also provides the projection
to sub-tuples, two scan checks relating jump interleavings of two and
three staircases, and the counting bound for distinct vectors.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import ne

from . import order_dynamics, triangle_perm
from .cf_engine import PartialQuotientSource
from .errors import (
    ComparisonUndecided,
    HypothesisNotMet,
    PatternMismatch,
    UnknownLabel,
)
from .order_dynamics import (
    DEFAULT_DEPTH_LIMIT,
    ChangeTrace,
    FunctionTuple,
    change_trace,
    clamp_start,
    iter_events,
)
from .psi import ApproximationError

ITEM_NAMES = {
    "i": "jump_count",
    "ii": "periodicity",
    "iii": "diagonal_schedule",
    "iv": "offdiagonal_schedule",
    "v": "leading_block",
    "vi": "cycle_step",
}


def project(vector, sublabels):
    """Restriction of an order vector to a set of labels, order preserved."""
    wanted = set(sublabels)
    if len(wanted) != len(tuple(sublabels)):
        raise ValueError("projection labels must be distinct")
    missing = wanted - set(vector)
    if missing:
        raise UnknownLabel(f"labels {sorted(missing)} not in vector {vector}")
    return tuple(x for x in vector if x in wanted)


def preimage(u, vectors, sublabels):
    """All vectors in the collection that project onto u."""
    u = tuple(u)
    return {v for v in vectors if project(v, sublabels) == u}


@dataclass(frozen=True)
class ItemStatus:
    status: str  # "pass" | "fail" | "inconclusive"
    witness: tuple | None = None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    k: int
    n: int
    horizon: int
    items: dict
    enumeration: dict | None = None
    offset: int | None = None

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items.values())

    def to_document(self) -> dict:
        enumeration = None
        if self.enumeration is not None:
            enumeration = {label: list(pair) for label, pair in self.enumeration.items()}
        return {
            "k": self.k,
            "n": self.n,
            "horizon": str(self.horizon),
            "offset": self.offset,
            "enumeration": enumeration,
            "items": {
                key: {
                    "name": ITEM_NAMES[key],
                    "status": item.status,
                    "witness": _witness_doc(item.witness),
                    "reason": item.reason,
                }
                for key, item in self.items.items()
            },
        }


def _witness_doc(witness):
    if witness is None:
        return None
    return [str(w) if isinstance(w, int) else w for w in witness]


def _best_offset(jumping_sets, calendar):
    """Cyclic offset of the jump calendar that best fits the observations.

    Ties go to the smallest offset.  A jumping label outside the
    enumeration is a mismatch at every offset, so it changes no choice.
    Moments are counted by (index mod k, jumping set), so each offset
    costs one set difference per distinct pair, not per moment.
    """
    k = len(calendar)
    counts = Counter(
        (index % k, frozenset(jumping)) for index, jumping in enumerate(jumping_sets)
    )

    def mismatches(offset):
        return sum(
            count * len(calendar[(residue + offset) % k + 1] ^ jumping)
            for (residue, jumping), count in counts.items()
        )

    return min(range(k), key=mismatches)


def _first_failure(witnesses) -> ItemStatus:
    """Fail with the first witness the iterator yields, pass if it yields none."""
    witness = next(iter(witnesses), None)
    return ItemStatus("pass") if witness is None else ItemStatus("fail", witness=witness)


def verify_structure(trace: ChangeTrace, k: int) -> VerificationReport:
    """Check items i..vi on a recorded trace at its finite horizon; each
    item reports its first witness in moment order.  k < 1 is refused with
    ValueError before the moments are read."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    moments = trace.moments
    if len(moments) < 2 * k + 1:
        raise ValueError(f"trace too short: need at least {2 * k + 1} moments")
    vectors = trace.vectors()
    n = len(trace.v0)
    horizon = moments[-1].t
    jumping_sets = [set(moment.jumping) for moment in moments]
    items = {}

    # i: every moment has exactly k jumping members
    items["i"] = _first_failure(
        (moment.t, f"tau={len(jumping)}")
        for moment, jumping in zip(moments, jumping_sets)
        if len(jumping) != k
    )

    # ii: exact period k, i.e. repetition after k steps and k distinct vectors
    def period_breaks():
        for moment, earlier, later in zip(moments[k - 1 :], vectors, vectors[k:]):
            if later != earlier:
                yield moment.t, "period broken"
        if len(set(vectors[:k])) != k:
            yield moments[0].t, "period smaller than k"

    items["ii"] = _first_failure(period_breaks())

    # iii..vi read each label's slot (j, l), so v0 must fill the triangle
    size = triangle_perm.triangle_size(k)
    if n != size:
        message = f"vector length {n} is not the triangular size {size} for k={k}"
        warnings.warn(message)
        reason = f"enumeration inference failed: {message}"
        for key in ("iii", "iv", "v", "vi"):
            items[key] = ItemStatus("inconclusive", reason=reason)
        return VerificationReport(k, n, horizon, items)

    pairs = triangle_perm.canonical_pairs(k)
    pair_of = {label: pairs[p] for p, label in enumerate(trace.v0)}
    label_of = {pair: label for label, pair in pair_of.items()}
    # the labels expected to jump at residue c, for c = 1..k
    calendar = {
        c: {label for label, pair in pair_of.items() if c in pair}
        for c in range(1, k + 1)
    }
    offset = _best_offset(jumping_sets, calendar)
    residues = [(index + offset) % k + 1 for index in range(len(moments))]

    # iii / iv: observed jumps among the moments match the residue calendar
    def schedule_misses(diagonal):
        for moment, jumping, residue in zip(moments, jumping_sets, residues):
            mismatched = calendar[residue] ^ jumping
            if mismatched:
                for label, pair in pair_of.items():
                    if label in mismatched and (pair[0] == pair[1]) is diagonal:
                        word = "unexpected" if label in jumping else "expected"
                        yield moment.t, f"{word} jump of {label} (slot {pair})"

    items["iii"] = _first_failure(schedule_misses(diagonal=True))
    items["iv"] = _first_failure(schedule_misses(diagonal=False))

    # v: jumpers are the k largest just before, led by the diagonal component
    def block_misses():
        for moment, previous, jumping, residue in zip(moments, vectors, jumping_sets, residues):
            if jumping != set(previous[:k]):
                yield moment.t, "jumping set is not the leading block"
            elif previous[0] != label_of.get((residue, residue)):
                yield moment.t, f"leader {previous[0]} is not slot ({residue},{residue})"

    items["v"] = _first_failure(block_misses())

    # vi: each step is one application of the cyclic permutation
    stepped = map(triangle_perm.apply_pi, repeat(k), vectors)
    breaks = compress(moments, map(ne, map(tuple, vectors[1:]), stepped))
    items["vi"] = _first_failure((moment.t, "vector is not pi(previous)") for moment in breaks)

    # one permutation step per moment forces period k; a contradiction
    # here is a bug in this module, not in the trace
    assert not items["vi"].passed or items["ii"].passed, "cycle_step passed but periodicity failed"

    return VerificationReport(k, n, horizon, items, pair_of, offset)


@dataclass(frozen=True)
class ScanInstance:
    """One occurrence of the two-staircase interleaving pattern."""

    m: int
    s: int
    t_joint: int
    t_prev: int
    applied: bool
    reversed_ok: bool | None


@dataclass(frozen=True)
class PrejumpScanReport:
    status: str  # "pass" | "fail" | "inconclusive"
    instances: tuple
    undecided: tuple = ()

    @property
    def applied_count(self) -> int:
        return sum(1 for inst in self.instances if inst.applied)


def check_prejump_reversal(
    alpha: PartialQuotientSource,
    beta: PartialQuotientSource,
    events: int = 100,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> PrejumpScanReport:
    """Scan a window for shared jumps and check the pre-jump order reversal.

    The window is the first `events` events of the pair's merged stream; a
    shared jump is one at which both members jump.  Pattern: a shared jump
    at alpha's q_{m+1} (m >= 2), with beta's neighbors h_{s-1} <= q_m < h_s
    and s >= 2.  Whenever the first staircase is certified below the second
    just before the shared jump, it must be certified above just before
    its own previous jump.  Raises HypothesisNotMet if the window has no
    instance of the pattern, and ValueError, before any read, if events
    is below 1 or depth_limit below 0.
    """
    if events < 1:
        raise ValueError(f"events must be >= 1, got {events}")
    order_dynamics._check_depth_limit(depth_limit)
    pair = FunctionTuple.build([("a", alpha), ("b", beta)])
    shared = [e.t for e in islice(iter_events(pair, 0), events) if len(e.jumping) == 2]
    instances = []
    undecided = []
    violations = []
    for q_next in shared:
        m = alpha.seek(q_next) - 1
        if m < 2:
            continue
        q_m = alpha.denominator(m)
        # s is beta's first denominator index strictly above q_m
        s = beta.seek(q_m + 1)
        if s < 2:
            continue
        try:
            # the vector lists the larger value first: ("b", "a") is
            # psi_alpha < psi_beta
            vector = order_dynamics.order_vector_at(pair, q_next - 1, depth_limit)
            applied, ok = vector == ("b", "a"), None
            if applied:
                vector = order_dynamics.order_vector_at(pair, q_m - 1, depth_limit)
                ok = vector == ("a", "b")
                if not ok:
                    violations.append((q_next, m, s))
            instances.append(ScanInstance(m, s, q_next, q_m, applied, ok))
        except ComparisonUndecided as exc:
            undecided.append((q_next, str(exc)))
    if not instances and not undecided:
        raise HypothesisNotMet(
            f"no shared-jump pattern among the first {events} events"
        )
    if violations:
        status = "fail"
    elif undecided:
        status = "inconclusive"
    else:
        status = "pass"
    return PrejumpScanReport(status, tuple(instances), tuple(undecided))


@dataclass(frozen=True)
class TripleCoincidenceReport:
    status: str
    m: int
    s: int
    l: int
    window: tuple  # [h_{s+1}, h_{s+2}) where the middle staircase stays on top
    depth: int


def check_triple_coincidence(
    alpha: PartialQuotientSource,
    beta: PartialQuotientSource,
    gamma: PartialQuotientSource,
    m: int,
    s: int,
    l: int,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> TripleCoincidenceReport:
    """Verify the six-fold denominator coincidence and its consequence.

    Required exact equalities on denominators (q of alpha, h of beta,
    r of gamma):

        q_m = h_s        q_{m+1} = r_l      r_{l+1} = h_{s+1}
        q_{m+2} = h_{s+2}  q_{m+3} = r_{l+2}  r_{l+3} = h_{s+3}

    Any failure raises PatternMismatch.  The consequence checked: on the
    whole interval [h_{s+1}, h_{s+2}) the second staircase stays strictly
    above the first, certified by comparing the levels s+1 and m+1.
    """
    q = [alpha.denominator(m + i) for i in range(4)]
    h = [beta.denominator(s + i) for i in range(4)]
    r = [gamma.denominator(l + i) for i in range(4)]
    required = [
        ("q_m = h_s", q[0], h[0]),
        ("q_{m+1} = r_l", q[1], r[0]),
        ("r_{l+1} = h_{s+1}", r[1], h[1]),
        ("q_{m+2} = h_{s+2}", q[2], h[2]),
        ("q_{m+3} = r_{l+2}", q[3], r[2]),
        ("r_{l+3} = h_{s+3}", r[3], h[3]),
    ]
    for name, left, right in required:
        if left != right:
            raise PatternMismatch(f"{name} fails: {left} != {right}")
    eta = ApproximationError(beta, s + 1, label="beta")
    xi = ApproximationError(alpha, m + 1, label="alpha")
    vector = order_dynamics._certify([xi, eta], h[1], depth_limit)
    status = "pass" if vector == ("beta", "alpha") else "fail"
    depth = max(xi.depth, eta.depth)
    return TripleCoincidenceReport(status, m, s, l, (h[1], h[2]), depth)


def sign_changes(
    ftuple: FunctionTuple, horizon: int, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> int:
    """Certified sign reversals of the difference of a pair up to horizon.

    For two staircases every change of the order vector is a reversal, so
    this counts the change moments of change_trace up to horizon.  A member
    keeps its bracket between events, and depth_limit bounds the
    refinement rounds at each event counted from the depths it already has.
    A negative depth_limit raises ValueError, whatever the horizon.
    """
    if ftuple.n != 2:
        raise ValueError("sign changes are defined for a pair")
    order_dynamics._check_depth_limit(depth_limit)
    if horizon < clamp_start(ftuple, 1):
        return 0
    return len(change_trace(ftuple, 1, depth_limit=depth_limit, horizon=horizon).moments)


@dataclass(frozen=True)
class BoundCheck:
    n: int
    k_lower: int
    capacity: int
    consistent: bool
    message: str


def bound_check(n: int, k_lower: int) -> BoundCheck:
    """Is observing n distinct vectors consistent with k members recurring?

    The count of vectors occurring infinitely often is at most
    k(k+1)/2 when exactly k staircases keep jumping; n above the capacity
    would contradict k_lower being final.
    """
    if n < 1 or k_lower < 1:
        raise ValueError("counts must be >= 1")
    capacity = k_lower * (k_lower + 1) // 2
    consistent = n <= capacity
    if consistent:
        message = f"{n} vectors fit the capacity {capacity} for k={k_lower}"
    else:
        message = (
            f"{n} vectors exceed the capacity {capacity}; "
            f"k={k_lower} cannot be final"
        )
    return BoundCheck(n, k_lower, capacity, consistent, message)
