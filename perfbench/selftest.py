"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Takes real program outputs, checks that they pass, then corrupts each in
one way and checks that the corresponding checker rejects it:

  * a psi bracket shifted by its own width,
  * two adjacent labels swapped in one order vector of a trace,
  * a jumping set missing one label,
  * a synthesized event value off by one,
  * a tampered partial quotient in a synthesis result,
  * law verdicts from verify_structure while ``triangle_perm.apply_pi``
    steps twice, on a saved trace and on the synthesized extremal tuple.

It also checks the reference against itself: its quotient rules against
mpmath's closed forms, and the cyclic permutation's order k.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

PLACES = workloads.PSI_PLACES


def rejects(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def psi_cases(prog):
    width = Fraction(1, 10**workloads.PSI_DIGITS)
    results = []
    for spec, t in (("periodic:[1;|1]", 1000), ("rule:e", 4321), ("seeded:5:9", 777)):
        number = ref.RefNumber(spec)
        err = prog.psi.psi_at(prog.cf_engine.parse_source(spec), t, target_width=width)
        lo, hi = err.bracket.lo, err.bracket.hi

        def texts(a, b):
            fmt = prog.cli_io.format_decimal
            return fmt(a, PLACES, "down"), fmt(b, PLACES, "up")

        ok = not rejects(workloads.check_psi_value, number, t, err.m, err.q, lo, hi, *texts(lo, hi), width)
        shift = hi - lo
        bad = rejects(workloads.check_psi_value, number, t, err.m, err.q, lo + shift, hi + shift,
                      *texts(lo + shift, hi + shift), width)
        results.append((f"psi bracket shifted by its width ({spec}, t={t})", ok, bad))
    return results


def trace_cases(prog):
    members = tuple((f"m{i}", f"seeded:{1000 + i}:{2 + i % 5}") for i in range(15))
    numbers = [(label, ref.RefNumber(spec)) for label, spec in members]
    ftuple = prog.order_dynamics.FunctionTuple.build(
        (label, prog.cf_engine.parse_source(spec)) for label, spec in members
    )
    count = 30
    trace = prog.order_dynamics.change_trace(ftuple, 2, count)
    start = ref.trace_start(numbers, 2)
    expected = ref.expected_moments(numbers, start, count, 4 * start)
    ok = not rejects(workloads.check_trace, numbers, 2, count, trace, expected)

    index = count // 2
    moment = trace.moments[index]
    vector = list(moment.vector)
    vector[3], vector[4] = vector[4], vector[3]
    swapped = _replace_moment(trace, index, vector=tuple(vector))
    jumping = tuple(moment.jumping)[1:]
    short = _replace_moment(trace, index, jumping=jumping)
    return [
        ("two adjacent labels swapped in an order vector", ok,
         rejects(workloads.check_trace, numbers, 2, count, swapped, expected)),
        ("jumping set missing one label", ok,
         rejects(workloads.check_trace, numbers, 2, count, short, expected)),
    ]


def _replace_moment(trace, index, **changes):
    moments = list(trace.moments)
    moments[index] = dataclasses.replace(moments[index], **changes)
    return dataclasses.replace(trace, moments=tuple(moments))


def synth_cases(prog):
    schedule = prog.synth.extremal_schedule(3, 3)
    result = prog.synth.synthesize(schedule)
    ok = not rejects(workloads.check_synthesis, schedule.events, result, True)

    values = list(result.event_values)
    values[len(values) // 2] += 1
    off_by_one = dataclasses.replace(result, event_values=tuple(values))

    label = schedule.labels[1]
    quotients = dict(result.quotients)
    terms = list(quotients[label])
    terms[len(terms) // 2] += 1
    quotients[label] = tuple(terms)
    tampered = dataclasses.replace(result, quotients=quotients)
    return [
        ("event value off by one", ok,
         rejects(workloads.check_synthesis, schedule.events, off_by_one, True)),
        ("tampered quotient in a synthesis result", ok,
         rejects(workloads.check_synthesis, schedule.events, tampered, True)),
    ]


def law_cases(prog):
    od, sv, tp = prog.order_dynamics, prog.structure_verify, prog.triangle_perm
    k = workloads.TraceTuple.SAVED_K
    text, v0, moments, _ = workloads.saved_trace(
        random.Random(7), [f"m{i}" for i in range(15)], k, 100)
    saved = (lambda: sv.verify_structure(od.ChangeTrace.from_document(json.loads(text)), k),
             ref.law_verdicts(v0, moments, k))

    job = workloads.TraceTuple(7)
    job.prepare(prog)
    members, t0, count, k2 = job.traces[-1]
    numbers = [(label, ref.RefNumber(spec)) for label, spec in members]
    start = ref.trace_start(numbers, t0)
    expected = ref.expected_moments(numbers, start, count, 4 * start)
    ftuple = od.FunctionTuple.build((label, prog.cf_engine.parse_source(spec)) for label, spec in members)
    extremal = (lambda: sv.verify_structure(od.change_trace(ftuple, t0, count), k2),
                ref.law_verdicts(expected[0], expected[1], k2))

    results = []
    right = tp.apply_pi
    for name, (verify, verdicts) in (("saved k=5 trace", saved), ("extremal(2, 5) tuple", extremal)):
        ok = not rejects(workloads.check_verdicts, verify(), verdicts)
        tp.apply_pi = lambda size, vector: right(size, right(size, vector))
        try:
            bad = rejects(workloads.check_verdicts, verify(), verdicts)
        finally:
            tp.apply_pi = right
        results.append((f"law verdicts with pi applied twice ({name})", ok, bad))
    return results


def reference_cases():
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 60
    closed = {
        "periodic:[1;|1]": (1 + ctx.sqrt(5)) / 2,
        "periodic:[1;|2]": ctx.sqrt(2),
        "rule:e": ctx.e,
    }
    good = True
    for spec, alpha in closed.items():
        number = ref.RefNumber(spec)
        for m in range(1, 40):
            q = number.denominator(m)
            good &= abs(alpha - ctx.mpf(number.p[m]) / q) < ctx.mpf(1) / q**2
    for k in range(2, 7):
        start = tuple(range(k * (k + 1) // 2))
        vector = ref.pi_step(k, start)
        steps = 1
        while vector != start:
            vector = ref.pi_step(k, vector)
            steps += 1
        good &= steps == k
    return [("reference quotient rules and permutation order", good, True)]


def main():
    prog = run.load_program()
    cases = psi_cases(prog) + trace_cases(prog) + synth_cases(prog) + law_cases(prog)
    cases += reference_cases()
    failures = 0
    for name, passes_clean, rejects_corrupt in cases:
        verdict = "ok" if passes_clean and rejects_corrupt else "FAILED"
        failures += verdict != "ok"
        print(f"{verdict:6s} {name}: clean output accepted={passes_clean}, "
              f"corrupted output rejected={rejects_corrupt}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
