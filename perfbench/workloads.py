"""The three workloads: inputs from a seed, one round of program calls, checks.

A round is a fixed list of operations, the same in every round of a run, so
the share of failed operations never depends on how long the run lasts.
Every call into the program goes through a module attribute looked up at
call time (``prog.psi.psi_at``), which is where the traced run installs
its wrappers.  Sources are parsed afresh in every round, as each ``psi`` or
``trace`` command does, so no round inherits another round's caches.
Operations are timed with the workload's ``clock``; an untraced run sets
it to a calibration clock that leaves out the calibration's own time.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

import calibrate
import reference as ref

PSI_DIGITS = 24  # default --digits of the psi command
PSI_PLACES = 30  # the psi command prints 30 places for values >= 10^-30
JSON_DIGIT_LIMIT = 4300  # CPython's default int_max_str_digits


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Op:
    """One timed operation: its latency and whether it failed."""

    __slots__ = ("seconds", "failed")

    def __init__(self, seconds, failed=False):
        self.seconds = seconds
        self.failed = failed


class Round:
    """What one round did: its operations, its program time and its work."""

    def __init__(self):
        self.ops = []  # operations timed for the latency metric
        self.other_ops = []  # attempted, counted, not in any latency metric
        self.program_s = 0.0  # time inside program calls that count as work
        self.work = 0  # the workload's units of work done in the round
        self.outputs = None  # program outputs, checked after the round
        self.op_p50_s = None  # median latency of self.ops, kept after they go

    @property
    def attempted(self):
        return len(self.ops) + len(self.other_ops)

    @property
    def failed(self):
        return sum(op.failed for op in self.ops + self.other_ops)


# ---------------------------------------------------------------- psi_sweep


def check_psi_value(number, t, m, q, lo, hi, lo_text, hi_text, width):
    """One psi_at result against the reference level and value at t."""
    level = number.level(t)
    _require(m == level, f"t={t}: level {m}, reference {level}")
    _require(q == number.denominator(level), f"t={t}: q={q} is not q_{level}")
    check_bracket(number, m, lo, hi, width, f"t={t}")
    check_formatted(lo, hi, lo_text, hi_text, f"t={t}")


def check_left_limit(number, t, m, q, lo, hi, lo_text, hi_text, width):
    """A psi_left_limit result: the level below the jump at t."""
    level = number.level(t)
    _require(number.denominator(level) == t and level >= 2, f"t={t} is no jump")
    _require(m == level - 1, f"left limit at t={t}: level {m}, reference {level - 1}")
    _require(q == number.denominator(m), f"left limit at t={t}: q={q}")
    check_bracket(number, m, lo, hi, width, f"left limit at t={t}")
    check_formatted(lo, hi, lo_text, hi_text, f"left limit at t={t}")


def check_bracket(number, m, lo, hi, width, where):
    _require(lo <= hi, f"{where}: bracket ends out of order")
    _require(hi - lo <= width, f"{where}: bracket wider than {width}")
    _require(
        ref.intersects(number.distance(m), lo, hi),
        f"{where}: bracket misses the reference ||q_{m} alpha||",
    )


def check_formatted(lo, hi, lo_text, hi_text, where):
    """Decimal text rounded outward by less than one unit in the last place."""
    unit = Fraction(1, 10**PSI_PLACES)
    for text in (lo_text, hi_text):
        _require(len(text.partition(".")[2]) == PSI_PLACES, f"{where}: {text!r}")
    shown_lo, shown_hi = Fraction(lo_text), Fraction(hi_text)
    _require(shown_lo <= lo < shown_lo + unit, f"{where}: lower end {lo_text}")
    _require(shown_hi - unit < hi <= shown_hi, f"{where}: upper end {hi_text}")


def check_staircase(number, window, lefts):
    """Non-increasing, constant on a level, certified lower at each jump.

    window holds (t, m, lo, hi) for consecutive t; lefts maps a jump t to
    the (lo, hi) of its left limit.
    """
    for (t0, m0, lo0, hi0), (t1, m1, lo1, hi1) in zip(window, window[1:]):
        _require(t1 == t0 + 1, "window is not consecutive")
        _require(lo1 <= hi0, f"t={t1}: staircase rises")
        if number.is_denominator(t1):
            _require(hi1 < lo0, f"t={t1}: drop at the jump not certified")
            left_lo, left_hi = lefts[t1]
            _require(hi1 < left_lo, f"t={t1}: not below its left limit")
            _require(left_lo <= hi0 and lo0 <= left_hi, f"t={t1}: left limit is not psi(t-1)")
        else:
            _require(m1 == m0, f"t={t1}: level changed between jumps")
            _require(lo1 <= hi0 and lo0 <= hi1, f"t={t1}: value changed between jumps")


class PsiSweep:
    """psi_at over windows of consecutive t, each centred on a jump.

    Sources: golden ratio, sqrt 2, e and three seeded sources.  Each window
    is 400 consecutive t around a denominator q_m in [10^4, 10^6) picked by
    the seed, plus psi_left_limit at every jump inside the window.
    """

    name = "psi_sweep"
    UNIT = staticmethod(calibrate.fraction_unit)
    clock = staticmethod(time.perf_counter)
    WINDOW = 400
    SEEDED_BOUNDS = (4, 6, 9)

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = ["periodic:[1;|1]", "periodic:[1;|2]", "rule:e"]
        specs += [f"seeded:{rng.randrange(2**32)}:{b}" for b in self.SEEDED_BOUNDS]
        self.windows = []
        for spec in specs:
            number = ref.RefNumber(spec)
            levels = [m for m in range(2, 80) if 10**4 <= number.denominator(m) < 10**6]
            centre = number.denominator(rng.choice(levels))
            first = centre - self.WINDOW // 2
            ts = range(first, first + self.WINDOW)
            jumps = [t for t in number.denominators_in(first, ts[-1]) if t >= number.denominator(2)]
            self.windows.append((spec, number, ts, jumps))
        self.width = Fraction(1, 10**PSI_DIGITS)
        self._documents = None

    def prepare(self, prog):
        """Build the program-side inputs once; set-up time measures this."""
        self.prog = prog
        for spec, _, _, _ in self.windows:
            prog.cf_engine.parse_source(spec)

    def run_round(self):
        prog = self.prog
        psi, cli_io = prog.psi, prog.cli_io
        clock = self.clock
        rnd = Round()
        outputs = []
        for spec, number, ts, jumps in self.windows:
            source = prog.cf_engine.parse_source(spec)
            values = []
            rows = []
            for t in ts:
                start = clock()
                err = psi.psi_at(source, t, target_width=self.width)
                lo_text = cli_io.format_decimal(err.bracket.lo, PSI_PLACES, "down")
                hi_text = cli_io.format_decimal(err.bracket.hi, PSI_PLACES, "up")
                rnd.ops.append(Op(clock() - start))
                values.append((t, err.m, err.q, err.bracket.lo, err.bracket.hi, lo_text, hi_text))
                rows.append({"t": str(t), "m": err.m, "q": str(err.q), "lo": lo_text, "hi": hi_text})
            lefts = {}
            for t in jumps:
                start = clock()
                err = psi.psi_left_limit(source, t, target_width=self.width)
                lo_text = cli_io.format_decimal(err.bracket.lo, PSI_PLACES, "down")
                hi_text = cli_io.format_decimal(err.bracket.hi, PSI_PLACES, "up")
                rnd.ops.append(Op(clock() - start))
                lefts[t] = (err.m, err.q, err.bracket.lo, err.bracket.hi, lo_text, hi_text)
            start = clock()
            document = cli_io.canonical_json({"source": source.spec_string(), "values": rows})
            rnd.program_s += clock() - start
            outputs.append((number, values, lefts, document))
        rnd.program_s += sum(op.seconds for op in rnd.ops)
        rnd.work = len(rnd.ops)
        rnd.outputs = outputs
        return rnd

    def check_round(self, rnd):
        documents = []
        for number, values, lefts, document in rnd.outputs:
            for t, m, q, lo, hi, lo_text, hi_text in values:
                check_psi_value(number, t, m, q, lo, hi, lo_text, hi_text, self.width)
            for t, (m, q, lo, hi, lo_text, hi_text) in lefts.items():
                check_left_limit(number, t, m, q, lo, hi, lo_text, hi_text, self.width)
            window = [(t, m, lo, hi) for t, m, _, lo, hi, _, _ in values]
            check_staircase(number, window, {t: v[2:4] for t, v in lefts.items()})
            documents.append(document)
        if self._documents is None:
            self._documents = documents
        _require(documents == self._documents, "psi document differs between rounds")


# ---------------------------------------------------------------- trace_tuple


def check_trace(members, t0, count, trace, expected):
    """A change trace against the reference moments (v0, moments, examined)."""
    v0, moments, _ = expected
    start = ref.trace_start(members, t0)
    _require(trace.t0 == start, f"trace starts at {trace.t0}, reference {start}")
    _require(tuple(trace.v0) == v0, f"v0 {trace.v0} differs from the reference")
    _require(len(trace.moments) == count, f"{len(trace.moments)} moments, wanted {count}")
    for got, (t, vector, jumping) in zip(trace.moments, moments):
        _require(got.t == t, f"moment at t={got.t}, reference t={t}")
        _require(tuple(got.vector) == vector, f"t={t}: vector differs from the reference order")
        _require(set(got.jumping) == set(jumping), f"t={t}: jumping set differs")


def check_verdicts(report, verdicts):
    """verify_structure's laws i and vi against the reference verdicts."""
    for law in ("i", "vi"):
        status, t = verdicts[law]
        item = report.items[law]
        _require(item.status == status, f"law {law}: {item.status}, reference {status}")
        if status == "fail":
            _require(item.witness[0] == t, f"law {law}: witness {item.witness}, reference t={t}")


def check_trace_roundtrip(trace, restored):
    _require(restored.t0 == trace.t0, "round trip changed t0")
    _require(restored.v0 == tuple(trace.v0), "round trip changed v0")
    _require(restored.moments == trace.moments, "round trip changed the moments")


class TraceTuple:
    """Four trace jobs and one verify job per round.

    1. change_trace of 15 seeded members (n = 15 = k(k+1)/2, k = 5), its
       canonical JSON round trip and verify_structure(k=5);
    2. the same for the golden-ratio/sqrt-2 pair to deep levels (k = 1);
    3. the same for the three members synthesize realises for
       extremal_schedule(2, 5), padded as ``padded_sources`` pads them
       (k = 2): a real tuple on which laws i and vi hold at every moment;
    4. sign_changes of the pair up to a horizon near 10^100;
    5. the verify command on a saved k = 5 trace: JSON parsed,
       ChangeTrace.from_document and verify_structure.  Its moments follow
       the reference permutation except at one seeded moment, where two
       labels are swapped; another seeded moment jumps k - 1 members.  So
       law vi runs over hundreds of moments before its witness.
    """

    name = "trace_tuple"
    UNIT = staticmethod(calibrate.fraction_unit)
    clock = staticmethod(time.perf_counter)
    TUPLE_BOUNDS = (2, 3, 4, 5, 6)
    TUPLE_COUNT = 250
    PAIR_COUNT = 200
    PAIR = (("phi", "periodic:[1;|1]"), ("rt2", "periodic:[1;|2]"))
    EXTREMAL = (2, 5)  # (k, cycles); its laws hold over the first 5 moments
    EXTREMAL_COUNT = 5
    SAVED_K = 5
    SAVED_MOMENTS = 400

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        tuple_members = tuple(
            (f"m{i + 1:02d}", f"seeded:{rng.randrange(2**32)}:{self.TUPLE_BOUNDS[i % 5]}")
            for i in range(15)
        )
        # (members, t0, count, k) per trace job; the extremal job joins in prepare
        self.traces = [
            (tuple_members, 2, self.TUPLE_COUNT, 5),
            (self.PAIR, rng.randrange(2, 500), self.PAIR_COUNT, 1),
        ]
        self.horizon = 10**100 + rng.randrange(10**100)
        self.saved = saved_trace(rng, [label for label, _ in tuple_members], self.SAVED_K,
                                 self.SAVED_MOMENTS)
        self._expected = None
        self._documents = None

    def prepare(self, prog):
        self.prog = prog
        k, cycles = self.EXTREMAL
        result = prog.synth.synthesize(prog.synth.extremal_schedule(k, cycles))
        members = tuple(
            (label, source.spec_string()) for label, source in result.padded_sources().items()
        )
        self.traces.append((members, 2, self.EXTREMAL_COUNT, k))
        for members, _, _, _ in self.traces:
            self._tuple(members)

    def _tuple(self, members):
        prog = self.prog
        return prog.order_dynamics.FunctionTuple.build(
            (label, prog.cf_engine.parse_source(spec)) for label, spec in members
        )

    def expected(self):
        """Reference moments, verdicts and event counts, computed once."""
        if self._expected is None:
            jobs = []
            for members, t0, count, k in self.traces:
                numbers = [(label, ref.RefNumber(spec)) for label, spec in members]
                start = ref.trace_start(numbers, t0)
                moments = ref.expected_moments(numbers, start, count, 4 * start)
                verdicts = ref.law_verdicts(moments[0], moments[1], k)
                jobs.append((numbers, moments, verdicts))
            pair = [(label, ref.RefNumber(spec)) for label, spec in self.PAIR]
            signs = ref.count_sign_changes(pair, ref.trace_start(pair, 1), self.horizon)
            text, v0, moments, witnesses = self.saved
            verdicts = ref.law_verdicts(v0, moments, self.SAVED_K)
            _require(verdicts == witnesses, f"reference verdicts {verdicts}, built {witnesses}")
            self._expected = (jobs, signs, verdicts)
        return self._expected

    def run_round(self):
        prog = self.prog
        od, sv, cli_io = prog.order_dynamics, prog.structure_verify, prog.cli_io
        clock = self.clock
        rnd = Round()
        outputs = []
        jobs, (_, sign_events), _ = self.expected()
        for (members, t0, count, k), (_, moments, _) in zip(self.traces, jobs):
            ftuple = self._tuple(members)
            start = clock()
            trace = od.change_trace(ftuple, t0, count)
            document = cli_io.canonical_json(trace.to_document())
            restored = od.ChangeTrace.from_document(json.loads(document))
            report = sv.verify_structure(trace, k)
            rnd.ops.append(Op(clock() - start))
            rnd.work += moments[2]
            outputs.append((trace, document, restored, report))
        pair = self._tuple(self.PAIR)
        start = clock()
        changes = sv.sign_changes(pair, self.horizon)
        rnd.ops.append(Op(clock() - start))
        rnd.work += sign_events
        start = clock()
        saved = sv.verify_structure(od.ChangeTrace.from_document(json.loads(self.saved[0])),
                                    self.SAVED_K)
        rnd.ops.append(Op(clock() - start))
        rnd.program_s = sum(op.seconds for op in rnd.ops)
        rnd.outputs = (outputs, changes, saved)
        return rnd

    def check_round(self, rnd):
        jobs, (sign_count, _), saved_verdicts = self.expected()
        outputs, changes, saved = rnd.outputs
        documents = []
        for (members, t0, count, _), (numbers, moments, verdicts), out in zip(
            self.traces, jobs, outputs
        ):
            trace, document, restored, report = out
            check_trace(numbers, t0, count, trace, moments)
            check_trace_roundtrip(trace, restored)
            check_verdicts(report, verdicts)
            documents.append(document)
        _require(changes == sign_count, f"sign_changes {changes}, reference {sign_count}")
        check_verdicts(saved, saved_verdicts)
        if self._documents is None:
            self._documents = documents
        _require(documents == self._documents, "trace document differs between rounds")


def saved_trace(rng, labels, k, count):
    """A trace document whose moments step by the reference permutation.

    One moment in the last quarter has two neighbouring labels swapped, so
    law vi first fails there; one moment in the third quarter jumps only
    k - 1 members, so law i first fails there.  Returns the JSON text, v0,
    the moments as (t, vector, jumping) and the verdicts this construction
    implies.
    """
    vector = tuple(rng.sample(labels, len(labels)))
    v0 = vector
    t = rng.randrange(2, 1000)
    bad_vector = rng.randrange(3 * count // 4, count)
    bad_jump = rng.randrange(count // 2, 3 * count // 4)
    moments = []
    for index in range(count):
        jumping = vector[:k] if index != bad_jump else vector[1:k]
        vector = ref.pi_step(k, vector)
        t += rng.randrange(1, 10**6)
        shown = vector
        if index == bad_vector:
            at = rng.randrange(len(vector) - 1)
            shown = vector[:at] + (vector[at + 1], vector[at]) + vector[at + 2 :]
        moments.append((t, shown, jumping))
    doc = {
        "header": {"t0": "2", "v0": list(v0)},
        "events": [{"t": str(t), "v": list(v), "jumping": list(j)} for t, v, j in moments],
    }
    witnesses = {"i": ("fail", moments[bad_jump][0]), "vi": ("fail", moments[bad_vector][0])}
    return json.dumps(doc), v0, moments, witnesses


# ---------------------------------------------------------------- synth_extremal


def check_synthesis(events, result, replayed):
    """A synthesis result: replay_check passed and the reference recurrence agrees."""
    _require(replayed is True, "replay_check rejected the result")
    _require(tuple(result.schedule.events) == tuple(events), "schedule changed")
    problems = ref.synthesis_problems(
        events, {label: list(terms) for label, terms in result.quotients.items()},
        list(result.event_values),
    )
    _require(not problems, "; ".join(problems[:3]))


def check_synth_roundtrip(result, document):
    """The canonical JSON of a result parses back to the same integers.

    The digit guard is lifted only while this check parses, so that a result
    the program managed to write can be read back here; it is restored before
    the program runs again.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _check_synth_document(result, json.loads(document))
    finally:
        sys.set_int_max_str_digits(limit)


def _check_synth_document(result, doc):
    _require([int(v) for v in doc["event_values"]] == list(result.event_values),
             "round trip changed the event values")
    _require({k: tuple(v) for k, v in doc["quotients"].items()} == dict(result.quotients),
             "round trip changed the quotients")
    for certs_doc, certs in zip(doc["certificates"], result.certificates):
        for c_doc, c in zip(certs_doc, certs):
            _require(
                (c_doc["label"], int(c_doc["modulus"]), int(c_doc["residue"]),
                 int(c_doc["quotient"]), c_doc["cf_index"])
                == (c.label, c.modulus, c.residue, c.quotient, c.cf_index),
                "round trip changed a certificate",
            )


class SynthExtremal:
    """synthesize(extremal_schedule(k, cycles)) + replay_check, then JSON.

    The FIXED schedules use the synth command's default prefixes and never
    depend on the seed.  All but (4, 3) pass 4300 decimal digits, so their
    JSON round trips fail every time (CPython's int_max_str_digits guard
    inside SynthesisResult.to_document) and are counted as failed.  The
    SEEDED schedules get a seeded permutation of the default starting
    quotients as prefixes and stay below 2000 digits.  Eleven schedules of
    well-separated cost keep the median schedule latency on one schedule.
    """

    name = "synth_extremal"
    UNIT = staticmethod(calibrate.bigint_unit)
    clock = staticmethod(time.perf_counter)
    FIXED = ((4, 3), (2, 10), (3, 5), (5, 3), (4, 4), (3, 6), (2, 12))
    SEEDED = ((2, 8), (3, 4), (4, 2), (5, 2))

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        self.plan = [(k, cycles, None) for k, cycles in self.FIXED]
        for k, cycles in self.SEEDED:
            n = k * (k + 1) // 2
            self.plan.append((k, cycles, rng.sample(range(1, n + 1), n)))
        self._checked = {}
        self._documents = None
        self._too_long = 10**JSON_DIGIT_LIMIT

    def prepare(self, prog):
        self.prog = prog
        self.jobs = []
        for k, cycles, firsts in self.plan:
            schedule = prog.synth.extremal_schedule(k, cycles)
            prefixes = None
            if firsts is not None:
                prefixes = {label: [0, a] for label, a in zip(schedule.labels, firsts)}
            self.jobs.append((schedule, prefixes))

    def run_round(self):
        synth, cli_io = self.prog.synth, self.prog.cli_io
        clock = self.clock
        rnd = Round()
        outputs = []
        for schedule, prefixes in self.jobs:
            start = clock()
            result = synth.synthesize(schedule, prefixes=prefixes)
            replayed = synth.replay_check(result)
            rnd.ops.append(Op(clock() - start))
            rnd.work += len(schedule.events)
            start = clock()
            try:
                document = cli_io.canonical_json(result.to_document())
            except ValueError as exc:
                document = exc
            rnd.other_ops.append(Op(clock() - start, isinstance(document, ValueError)))
            outputs.append((result, replayed, document))
        rnd.program_s = sum(op.seconds for op in rnd.ops)
        rnd.outputs = outputs
        return rnd

    def check_round(self, rnd):
        documents = []
        for (schedule, _), (result, replayed, document) in zip(self.jobs, rnd.outputs):
            key = (result.event_values, tuple(sorted(result.quotients.items())))
            if self._checked.get(schedule) != key:
                check_synthesis(schedule.events, result, replayed)
                self._checked[schedule] = key
            _require(replayed is True, "replay_check rejected the result")
            too_long = result.event_values[-1] >= self._too_long
            if isinstance(document, ValueError):
                _require(too_long, f"JSON failed below {JSON_DIGIT_LIMIT} digits: {document}")
            else:
                check_synth_roundtrip(result, document)
            documents.append(None if too_long else document)
        if self._documents is None:
            self._documents = documents
        _require(documents == self._documents, "synthesis document differs between rounds")


WORKLOADS = {w.name: w for w in (PsiSweep, TraceTuple, SynthExtremal)}
