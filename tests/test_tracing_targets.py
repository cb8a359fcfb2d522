"""The benchmark's tracer finds every public name it wraps, and the program
prints nothing while the benchmark drives it.

`perfbench/run.py --trace 1` wraps public names of the package at run
time; a name that is renamed or made private is skipped, its per-layer
metrics go missing and an `absent:` line is printed.  The run's result is
the last line of stdout, so a print from program code would bury it.
The tracer is loaded here by path and used as it is, never edited.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import irrmeasure
from irrmeasure import cf_engine, cli_io, order_dynamics, psi, synth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    module_name, _, name = target.partition(".")
    owner = getattr(irrmeasure, module_name, None)
    for part in name.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_still_exists():
    tracing = load_tracing()
    assert tracing.Instrumentation(irrmeasure).missing == set()
    for metric, (target, *_) in tracing.METRICS.items():
        assert resolve(target) is not None, f"{metric} is built on {target}, which is gone"


def sweep(width, ts, jump):
    """psi_at and both printed ends at each t, and the left limit at jump,
    through module attributes, as the psi_sweep workload calls them."""
    source = cf_engine.parse_source("periodic:[1;|1]")
    for t in ts:
        err = psi.psi_at(source, t, target_width=width)
        cli_io.format_decimal(err.bracket.lo, 30, "down")
        cli_io.format_decimal(err.bracket.hi, 30, "up")
    psi.psi_left_limit(source, jump, target_width=width)


def test_a_traced_sweep_counts_one_handle_per_level():
    tracing = load_tracing()
    instrumentation = tracing.Instrumentation(irrmeasure)
    originals = psi.psi_at, psi.ApproximationError, cli_io.format_decimal
    instrumentation.install()
    try:
        jump = 10946  # q_20 of phi
        sweep(Fraction(1, 10**24), range(jump - 200, jump + 200), jump)
        figures = instrumentation.figures()
        calls = dict(instrumentation.tracer.calls)
    finally:
        instrumentation.remove()
    assert (psi.psi_at, psi.ApproximationError, cli_io.format_decimal) == originals
    # levels 19 and 20, and the left limit at q_20 settles its own handle
    assert figures["psi.handles_built"] == 3
    assert figures["psi.values"] == 401
    assert calls["cli_io.format_decimal"] == 800
    assert set(figures) == set(tracing.METRICS)


def test_a_traced_synthesis_counts_its_merges():
    tracing = load_tracing()
    instrumentation = tracing.Instrumentation(irrmeasure)
    instrumentation.install()
    try:
        result = synth.synthesize(synth.extremal_schedule(2, 4))
        figures = instrumentation.figures()
    finally:
        instrumentation.remove()
    # synthesize merges each event's congruences through merge_congruences
    assert figures["synth.merge_calls"] == len(result.event_values) == 8
    assert figures["synth.merge_s"] > 0


def test_the_program_prints_nothing(capsys):
    sweep(Fraction(1, 10**24), range(1, 300), 233)
    pair = order_dynamics.FunctionTuple.build(
        [
            ("phi", cf_engine.parse_source("periodic:[1;|1]")),
            ("rt2", cf_engine.parse_source("periodic:[1;|2]")),
        ]
    )
    trace = order_dynamics.change_trace(pair, 2, 20)
    cli_io.canonical_json(trace.to_document())
    result = synth.synthesize(synth.extremal_schedule(2, 4))
    assert synth.replay_check(result)
    cli_io.canonical_json(result.to_document())
    assert capsys.readouterr().out == ""
