"""Benchmark entry point for irrmeasure.

    python3 perfbench/run.py --workload psi_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
next to this directory; nothing is installed.  Workloads: psi_sweep,
trace_tuple, synth_extremal, or ``all`` for the three one after another.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up time is
the median over several fresh interpreters, each importing the package and
building the workload's inputs.  One untimed warm-up round follows, then
whole rounds run until ``--seconds`` have passed, and each reported time is
the median over rounds.  While a timed round runs, a calibration unit of
fixed work samples the host's speed every few milliseconds (calibrate.py),
and the work rate is reported as it would be on a host of reference speed.
Set-up time is scaled the same way, by the unit timed around each probe.
With ``--trace 1`` the run wraps the program's public functions and
reports per-layer figures per round, alternating traced and untraced
rounds so that it can report its own overhead.

Every output is checked against an independent reference after its round;
a wrong output makes the run exit with code 1.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A copy
of the result, with the seed, Python version, CPU count and git sha, goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 21  # one probe's time spreads about 0.3 (interquartile over median)
# set-up is imports and input building, interpreter work like fraction_unit;
# one probe's time does not follow the unit timed around it, but a run's
# median does, because the host's slow phases can last minutes
SETUP_UNIT = calibrate.fraction_unit
# peak_rss_mib is read after this many timed rounds: the resident set of
# synth_extremal keeps growing with every round, so a reading at the end of
# the run would count how many rounds the host's speed allowed
RSS_ROUNDS = 3

END_TO_END = {"setup_s": "s", "peak_rss_mib": "MiB", "norm_work_per_s": "1/s"}
# per workload: the name the raw work rate goes by, and the operation whose
# median latency is printed beside it
ALIASES = {
    "psi_sweep": ("psi_values_per_s", "values/s", "psi_value_p50_us", "us", 1e6),
    "trace_tuple": ("trace_events_per_s", "events/s", "trace_job_p50_ms", "ms", 1e3),
    "synth_extremal": ("synth_events_per_s", "events/s", "synth_schedule_p50_ms", "ms", 1e3),
}


def load_program():
    """Import irrmeasure from this checkout's src/, or stop with code 2."""
    init = os.path.join(SRC, "irrmeasure", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"no irrmeasure sources at {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import irrmeasure
    from irrmeasure import (  # noqa: F401  (loads every layer)
        cf_engine,
        cli_io,
        order_dynamics,
        psi,
        structure_verify,
        synth,
        triangle_perm,
    )

    if os.path.dirname(os.path.abspath(irrmeasure.__file__)) != os.path.dirname(init):
        sys.stderr.write(f"imported irrmeasure from {irrmeasure.__file__}, not {SRC}\n")
        sys.exit(2)
    # verify_structure warns when a trace's length is not triangular; the
    # pair job (k = 1) is such a trace on purpose
    warnings.filterwarnings("ignore", module=r"irrmeasure\.")
    return irrmeasure


def probe_setup(args):
    """One fresh interpreter that imports the package and builds the inputs.

    Returns its wall time and the calibration unit's time around it.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    before = calibrate.unit_seconds(SETUP_UNIT)
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    return seconds, (before + calibrate.unit_seconds(SETUP_UNIT)) / 2


def environment(args):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown (not a git checkout)",
    }


def run_workload(args):
    program = load_program()
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare(program)
    if args.setup_probe:
        return 0

    setup_times = []  # probes spread over the run, between rounds
    instrumentation = calibration = None
    if args.trace:
        import tracing

        instrumentation = tracing.Instrumentation(program)
    else:
        calibration = calibrate.Calibration(workload.UNIT)
        workload.clock = calibration.clock

    attempted = failed = 0
    correct = True
    problem = None
    untraced, traced = [], []  # rounds
    peak_rss = None
    layer_rounds = []  # per-layer figures of each traced round

    def one_round(trace_it):
        nonlocal attempted, failed
        if trace_it:
            instrumentation.tracer.reset()
            instrumentation.tracer.keep_spans = not layer_rounds
            instrumentation.install()
        try:
            if calibration:
                units, spent = calibration.sample()
                with calibration:
                    rnd = workload.run_round()
                rnd.unit_s = (calibration.spent - spent) / (calibration.units - units)
            else:
                rnd = workload.run_round()
        finally:
            if trace_it:
                instrumentation.remove()
        attempted += rnd.attempted
        failed += rnd.failed
        workload.check_round(rnd)
        # keep only the round's summary, so the run's memory stays flat
        rnd.op_p50_s = statistics.median(op.seconds for op in rnd.ops)
        rnd.ops = rnd.other_ops = rnd.outputs = None
        if trace_it:
            layer_rounds.append(instrumentation.figures())
            if len(layer_rounds) == 1:
                write_spans(args, instrumentation.tracer.spans)
        return rnd

    def probes_due(elapsed):
        if args.trace:
            return 0
        due = 1 + int(elapsed / args.seconds * (SETUP_PROBES - 1))
        return min(due, SETUP_PROBES) - len(setup_times)

    try:
        one_round(False)  # warm-up, checked, not timed
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or (args.trace and not traced):
            for _ in range(probes_due(time.perf_counter() - start)):
                setup_times.append(probe_setup(args))
            if args.trace:
                traced.append(one_round(True))
            untraced.append(one_round(False))
            if len(untraced) == RSS_ROUNDS:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(probes_due(args.seconds)):
            setup_times.append(probe_setup(args))
    except workloads.CheckFailed as exc:
        correct, problem = False, str(exc)
    except Exception as exc:  # an operation that should never fail did
        correct, problem = False, f"{type(exc).__name__}: {exc}"
        attempted += 1
        failed += 1

    metrics = {}
    if correct and not args.trace:
        values = {
            "setup_s": statistics.median(s for s, _ in setup_times)
            * calibrate.REFERENCE_UNIT_S[SETUP_UNIT]
            / statistics.median(u for _, u in setup_times),
            "peak_rss_mib": peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "norm_work_per_s": statistics.median(
                r.work / r.program_s * r.unit_s / calibration.reference_s for r in untraced
            ),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    elif correct:
        for name in layer_rounds[0]:
            if name.endswith("_s"):
                value = statistics.median(r[name] for r in layer_rounds)
            else:
                value = layer_rounds[0][name]
            metrics[name] = {"value": value, "unit": tracing.METRICS[name][3]}
        overhead = statistics.median(r.program_s for r in traced) / statistics.median(
            r.program_s for r in untraced
        )
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        for name in sorted(instrumentation.missing):
            print(f"absent: {name} no longer exists; metrics built on it are left out")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    rounds = len(untraced)
    report(args, result, rounds, problem, untraced, setup_times)
    print(json.dumps(result))
    return 0 if correct else 1


def report(args, result, rounds, problem, untraced, setup_times):
    """Human-readable lines and the result file."""
    env = environment(args)
    print(" ".join(f"{key}={value}" for key, value in env.items()))
    kind = "untraced rounds between traced ones" if args.trace else "timed rounds"
    print(f"{args.workload}: {rounds} {kind}, attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    if problem:
        print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if result["metrics"] and not args.trace:
        rate_name, rate_unit, p50_name, p50_unit, scale = ALIASES[args.workload]
        p50 = statistics.median(rnd.op_p50_s for rnd in untraced)
        rate = statistics.median(rnd.work / rnd.program_s for rnd in untraced)
        unit_us = statistics.median(rnd.unit_s for rnd in untraced) * 1e6
        print(f"  {rate_name} = {rate:.6g} {rate_unit} (median over rounds, not normalised)")
        print(f"  calibration_unit_us = {unit_us:.6g} us (median over rounds)")
        wall = statistics.median(s for s, _ in setup_times)
        print(f"  setup_wall_s = {wall:.6g} s (median over probes, not normalised)")
        print(f"  {p50_name} = {p50 * scale:.6g} {p50_unit} (median over rounds, not gated)")
        if args.workload == "synth_extremal":
            wall = statistics.median(rnd.program_s for rnd in untraced)
            print(f"  synth_wall_s = {wall:.6g} s (median over rounds)")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        samples = [
            {"work": rnd.work, "program_s": rnd.program_s, "op_p50_s": rnd.op_p50_s,
             "unit_s": getattr(rnd, "unit_s", None)}
            for rnd in untraced
        ]
        json.dump({"environment": env, "result": result, "problem": problem,
                   "rounds": samples, "setup_probes": setup_times}, handle, indent=2)
        handle.write("\n")


def write_spans(args, spans):
    """Spans of the first traced round, one JSON array per line."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
    with open(path, "w") as handle:
        for name, start, end, parent in spans:
            handle.write(json.dumps([name, start, end, parent]) + "\n")


def run_all(args):
    """Each workload in its own interpreter; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("psi_sweep", "trace_tuple", "synth_extremal"):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["psi_sweep", "trace_tuple", "synth_extremal", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
