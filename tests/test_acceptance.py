"""Acceptance gate: the twelve release criteria, one reported line each.

Every test prints "ACCEPTANCE <n> <name>: PASS" (or FAIL) so the release
record carries one line per criterion.  Criteria with a runtime budget
assert it.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from _oracle import canonical_predecessor, iter_brute_force_psi
import pinned
from irrmeasure.cf_engine import parse_source
from irrmeasure.cli_io import main as cli_main
from irrmeasure.errors import HypothesisNotMet
from irrmeasure.order_dynamics import (
    ChangeMoment,
    ChangeTrace,
    FunctionTuple,
    change_trace,
)
from irrmeasure.psi import psi_at
from irrmeasure.structure_verify import (
    check_prejump_reversal,
    check_triple_coincidence,
    preimage,
    project,
    sign_changes,
    verify_structure,
)
from irrmeasure.synth import JumpSchedule, extremal_schedule, replay_check, synthesize
from irrmeasure.triangle_perm import (
    apply_pi,
    canonical_pairs,
    cycle_decomposition,
    pi_order,
    triangle_size,
)

PHI = "periodic:[1;|1]"
RT2 = "periodic:[1;|2]"
E_RULE = "rule:e"


def reported(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return decorate


def classic_pair():
    return FunctionTuple.build(
        [("phi", parse_source(PHI)), ("rt2", parse_source(RT2))]
    )


@reported(1, "permutation correctness")
def test_acceptance_01_permutation():
    start = time.perf_counter()
    for k in range(2, 17):
        assert pi_order(k) == k
        identity = tuple(range(triangle_size(k)))
        current = identity
        for _ in range(k - 1):
            current = apply_pi(k, current)
            assert current != identity
        assert apply_pi(k, current) == identity
        expected = (k + 1) // 2 if k % 2 else (k + 2) // 2
        assert len(cycle_decomposition(k)) == expected
    assert time.perf_counter() - start < 1.0


@reported(2, "example fidelity")
def test_acceptance_02_examples():
    u = {(j, l): f"u{j}{l}" for (j, l) in canonical_pairs(5)}
    vector = tuple(u[pair] for pair in canonical_pairs(5))
    assert apply_pi(5, vector) == (
        u[2, 2], u[1, 2], u[2, 5], u[2, 4], u[2, 3],
        u[3, 3], u[1, 3], u[3, 5], u[3, 4],
        u[4, 4], u[1, 4], u[4, 5],
        u[5, 5], u[1, 5],
        u[1, 1],
    )
    for k in range(3, 13):
        w = canonical_predecessor(k)
        assert w == [(j, k) for j in range(k, 0, -1)] + canonical_pairs(k - 1)
        assert apply_pi(k, tuple(w)) == tuple(canonical_pairs(k))
        assert tuple(w) != tuple(canonical_pairs(k))


@reported(3, "oracle equivalence")
def test_acceptance_03_oracle():
    width = Fraction(1, 10**12)
    start = time.perf_counter()
    for spec in (PHI, RT2, E_RULE):
        source = parse_source(spec)
        q2 = source.state(2).q
        for t, brute in iter_brute_force_psi(source, 10**4):
            if t < q2:
                continue
            direct = psi_at(source, t, target_width=width)
            assert direct.bracket.width <= width
            assert brute.width <= width
            assert direct.bracket.lo <= brute.hi and brute.lo <= direct.bracket.hi
    assert time.perf_counter() - start < 30.0


@reported(4, "staircase invariants")
def test_acceptance_04_staircase():
    width = Fraction(1, 10**15)
    for spec in (PHI, RT2, E_RULE):
        source = parse_source(spec)
        drops = set()
        m = 0
        while source.state(m).q <= 2000:
            if source.state(m).q >= 2:
                drops.add(source.state(m).q)
            m += 1
        previous = psi_at(source, 1, target_width=width)
        for t in range(2, 2001):
            current = psi_at(source, t, target_width=width)
            if t in drops:
                # strict decrease, certified by disjoint brackets
                assert current.q == t
                assert current.bracket.hi < previous.bracket.lo
            else:
                # same approximation level, hence exactly the same value
                assert (current.m, current.q) == (previous.m, previous.q)
            previous = current
        for m in range(1, 501):
            state = source.state(m)
            sign = 1 if (m - 1) % 2 == 0 else -1
            assert state.p * state.q_prev - state.p_prev * state.q == sign


@reported(5, "pair dynamics")
def test_acceptance_05_pair_dynamics():
    ft = classic_pair()
    count = len(pinned.PAIR_CHANGE_MOMENTS)
    trace = change_trace(ft, 2, count + 1)
    assert trace.t0 == pinned.PAIR_T0 and trace.v0 == pinned.PAIR_V0
    got = [(m.t, m.vector, tuple(sorted(m.jumping))) for m in trace.moments[:count]]
    assert got == pinned.PAIR_CHANGE_MOMENTS
    # the pins are exactly the changes within the first 200 merged events
    assert trace.moments[count - 1].t <= pinned.PAIR_EVENT_200_T
    assert trace.moments[count].t > pinned.PAIR_EVENT_200_T
    vectors = trace.vectors()
    assert set(vectors) == {("phi", "rt2"), ("rt2", "phi")}
    assert all(a == tuple(reversed(b)) for a, b in zip(vectors, vectors[1:]))
    assert sign_changes(ft, 10**4) == pinned.PAIR_SIGN_CHANGES_10_4 >= 1


@reported(6, "pre-jump reversal scan")
def test_acceptance_06_prejump_scan():
    report = check_prejump_reversal(parse_source(PHI), parse_source(RT2), events=100)
    assert report.status == "pass" and report.applied_count == 1
    for seed in range(1, 41, 2):
        alpha = parse_source(f"seeded:{seed}:6")
        beta = parse_source(f"seeded:{seed + 1}:6")
        try:
            seeded = check_prejump_reversal(alpha, beta, events=100)
        except HypothesisNotMet:
            continue  # nothing to check on this pair, vacuously consistent
        assert seeded.status != "fail"
    schedule = JumpSchedule([frozenset({"A"}), frozenset({"A", "B"})])
    sources = synthesize(schedule).padded_sources(extra=10)
    built = check_prejump_reversal(sources["A"], sources["B"], events=8)
    assert built.applied_count >= 1
    assert built.status == "pass"


@reported(7, "triple coincidence instances")
def test_acceptance_07_triples():
    start = time.perf_counter()
    ab, ac, bc = (
        frozenset({"A", "B"}),
        frozenset({"A", "C"}),
        frozenset({"B", "C"}),
    )
    pattern = [ab, ac, bc, ab, ac, bc]
    variants = [
        ([], None),
        ([frozenset({"A"})], None),
        ([frozenset({"B"})], None),
        ([frozenset({"C"})], None),
        ([], {"A": [0, 4], "B": [0, 5], "C": [0, 6]}),
    ]
    realized = set()
    for warmup, prefixes in variants:
        result = synthesize(JumpSchedule(warmup + pattern), prefixes=prefixes)
        assert replay_check(result)
        w = len(warmup)

        def cf_index(event, label):
            (cert,) = [c for c in result.certificates[event] if c.label == label]
            return cert.cf_index

        m = cf_index(w, "A")
        s = cf_index(w, "B")
        l = cf_index(w + 1, "C")
        sources = result.padded_sources(extra=8)
        report = check_triple_coincidence(
            sources["A"], sources["B"], sources["C"], m, s, l
        )
        assert report.status == "pass"
        assert report.window == (result.event_values[w + 2], result.event_values[w + 3])
        realized.add(tuple(sorted(result.quotients.items())))
    assert len(realized) >= 5
    assert time.perf_counter() - start < 10.0


@reported(8, "projection fidelity")
def test_acceptance_08_projection():
    assert project((1, 2, 3, 4), (3, 4)) == (3, 4)
    assert project((4, 1, 2, 3), (3, 4)) == (4, 3)
    vectors = {(1, 2, 3, 4), (3, 2, 4, 1), (4, 1, 2, 3)}
    assert preimage((3, 4), vectors, (3, 4)) == {(1, 2, 3, 4), (3, 2, 4, 1)}
    assert preimage((4, 3), vectors, (3, 4)) == {(4, 1, 2, 3)}
    rng = random.Random(884422)
    for _ in range(1000):
        n = rng.randint(2, 6)
        base = list(range(1, n + 1))
        collection = set()
        for _ in range(rng.randint(1, 14)):
            v = base[:]
            rng.shuffle(v)
            collection.add(tuple(v))
        sublabels = tuple(rng.sample(base, rng.randint(1, n)))
        covered = set()
        for u in {project(v, sublabels) for v in collection}:
            pre = preimage(u, collection, sublabels)
            assert pre and not (pre & covered)
            assert all(project(v, sublabels) == u for v in pre)
            covered |= pre
        assert covered == collection


def _mock_trace(count=6):
    vector = ("A", "B", "C")
    moments = []
    for index in range(1, count + 1):
        vector = apply_pi(2, vector)
        jumping = ("A", "B") if index % 2 == 1 else ("B", "C")
        moments.append(ChangeMoment(2 * index, vector, jumping))
    return ChangeTrace(1, ("A", "B", "C"), tuple(moments))


@reported(9, "verifier soundness")
def test_acceptance_09_verifier():
    trace = _mock_trace()
    assert verify_structure(trace, 2).all_passed

    moments = list(trace.moments)
    bad = moments[3]
    moments[3] = ChangeMoment(bad.t, ("B", "A", "C"), bad.jumping)
    report = verify_structure(ChangeTrace(trace.t0, trace.v0, tuple(moments)), 2)
    assert report.items["vi"].status == "fail"
    assert report.items["vi"].witness[0] == bad.t

    moments = list(trace.moments)
    bad = moments[2]
    moments[2] = ChangeMoment(bad.t, bad.vector, ("A", "C"))
    report = verify_structure(ChangeTrace(trace.t0, trace.v0, tuple(moments)), 2)
    assert report.items["iv"].status == "fail"
    assert report.items["iv"].witness[0] == bad.t
    assert "B" in report.items["iv"].witness[1]


@reported(10, "synthesizer exactness")
def test_acceptance_10_synthesizer():
    schedule = extremal_schedule(3, 4)
    assert all(len(event) == 3 for event in schedule.events)
    result = synthesize(schedule)
    assert len(result.quotients) == 6
    assert replay_check(result)
    # re-derive every denominator and confirm each coincidence as integers
    derived = {}
    for label, terms in result.quotients.items():
        q_prev, q = 0, 1
        qs = [1]
        for a in terms[1:]:
            q, q_prev = a * q + q_prev, q
            qs.append(q)
        derived[label] = qs
    for event, value, certs in zip(
        schedule.events, result.event_values, result.certificates
    ):
        assert {c.label for c in certs} == set(event)
        for cert in certs:
            assert derived[cert.label][cert.cf_index] == value
    values = result.event_values
    assert all(
        math.gcd(a, b) == 1 for i, a in enumerate(values) for b in values[i + 1 :]
    )


@reported(11, "reproducibility")
def test_acceptance_11_reproducibility(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "sources = phi=periodic:[1;|1] rt2=periodic:[1;|2]\nt0 = 2\ncount = 25\n"
    )
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["trace", "--config", str(config), "--out", str(first)]) == 0
    assert cli_main(["trace", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["header"]["config"]["count"] == 25


@reported(12, "extremal pipeline")
def test_acceptance_12_extremal_pipeline():
    # synthesize, trace the padded members up to the certified horizon, then
    # check laws i-vi.
    for k, cycles, count in ((2, 10, 14), (3, 6, 9)):
        result = synthesize(extremal_schedule(k, cycles))
        ftuple = FunctionTuple.build(result.padded_sources(extra=60).items())
        horizon = result.certified_horizon
        trace = change_trace(ftuple, 1, horizon=horizon)
        assert len(trace.moments) == count and trace.moments[-1].t <= horizon
        report = verify_structure(trace, k)
        assert sorted(report.items) == ["i", "ii", "iii", "iv", "v", "vi"]
        assert report.all_passed, {key: item.status for key, item in report.items.items()}
