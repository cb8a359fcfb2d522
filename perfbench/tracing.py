"""Per-layer tracing by wrapping the program's public functions at run time.

Each target is a public name in one irrmeasure module.  The wrapper replaces
that object in every irrmeasure module that holds it, so a call is traced
wherever the calling module looks the name up (``order_dynamics.psi_at`` as
well as ``psi.psi_at``).  Names starting with an underscore are never
wrapped.  A target that no longer exists is skipped, and the metrics built
on it are reported absent.

Spans (name, start, end, parent) are kept in memory; a span's self time is
its duration minus the time its child spans cover.  The program is single
threaded, so child spans nest strictly inside their parent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_CAP = 300_000  # spans kept for the written span file

# wrapped target -> name its calls are counted under, with no span: state
# is called hundreds of thousands of times per round, and a span around each
# call would cost more than the call
COUNTED = {"cf_engine.PartialQuotientSource.state": "cf_engine.state"}
# wrapped target -> span name (functions and methods)
FUNCTIONS = {
    "cf_engine.bracket": "cf_engine.bracket",
    "psi.psi_at": "psi.value",
    "psi.psi_left_limit": "psi.value",
    "psi.ApproximationError.refine": "psi.refine",
    "order_dynamics.order_vector_at": "order_dynamics.order_vector",
    "order_dynamics.change_trace": "order_dynamics.change_trace",
    "structure_verify.verify_structure": "structure_verify.verify",
    "structure_verify.sign_changes": "structure_verify.sign_changes",
    "triangle_perm.apply_pi": "triangle_perm.apply_pi",
    "synth.merge_congruences": "synth.merge",
    "synth.synthesize": "synth.synthesize",
    "synth.replay_check": "synth.replay",
    "cli_io.format_decimal": "cli_io.format_decimal",
    "cli_io.canonical_json": "cli_io.json",
}
# generators: one span per item produced, and a count of the items
GENERATORS = {"order_dynamics.iter_events": "order_dynamics.events"}
# classes: a count of the instances built
CLASSES = {"psi.ApproximationError": "psi.handles_built"}

# per-layer metric -> (target it is built on, tracer table, key, unit)
METRICS = {
    "cf_engine.state_calls": ("cf_engine.PartialQuotientSource.state", "calls", "cf_engine.state", "count"),
    "cf_engine.bracket_calls": ("cf_engine.bracket", "calls", "cf_engine.bracket", "count"),
    "cf_engine.bracket_s": ("cf_engine.bracket", "self_s", "cf_engine.bracket", "s"),
    "cf_engine.max_q_bits": ("cf_engine.PartialQuotientSource.state", "gauges", "cf_engine.max_q_bits", "bits"),
    "psi.values": ("psi.psi_at", "calls", "psi.value", "count"),
    "psi.value_self_s": ("psi.psi_at", "self_s", "psi.value", "s"),
    "psi.handles_built": ("psi.ApproximationError", "counters", "psi.handles_built", "count"),
    "psi.refine_calls": ("psi.ApproximationError.refine", "calls", "psi.refine", "count"),
    "psi.refine_s": ("psi.ApproximationError.refine", "total_s", "psi.refine", "s"),
    "psi.max_depth": ("psi.psi_at", "gauges", "psi.max_depth", "quotients"),
    "order_dynamics.events": ("order_dynamics.iter_events", "counters", "order_dynamics.events", "count"),
    "order_dynamics.merge_s": ("order_dynamics.iter_events", "self_s", "order_dynamics.events", "s"),
    "order_dynamics.order_vector_calls": ("order_dynamics.order_vector_at", "calls", "order_dynamics.order_vector", "count"),
    "order_dynamics.order_vector_self_s": ("order_dynamics.order_vector_at", "self_s", "order_dynamics.order_vector", "s"),
    "order_dynamics.moments": ("order_dynamics.change_trace", "counters", "order_dynamics.moments", "count"),
    "structure_verify.verify_s": ("structure_verify.verify_structure", "total_s", "structure_verify.verify", "s"),
    "structure_verify.sign_changes_self_s": ("structure_verify.sign_changes", "self_s", "structure_verify.sign_changes", "s"),
    "triangle_perm.apply_pi_calls": ("triangle_perm.apply_pi", "calls", "triangle_perm.apply_pi", "count"),
    "triangle_perm.apply_pi_s": ("triangle_perm.apply_pi", "total_s", "triangle_perm.apply_pi", "s"),
    "synth.merge_calls": ("synth.merge_congruences", "calls", "synth.merge", "count"),
    "synth.merge_s": ("synth.merge_congruences", "total_s", "synth.merge", "s"),
    "synth.synthesize_self_s": ("synth.synthesize", "self_s", "synth.synthesize", "s"),
    "synth.replay_s": ("synth.replay_check", "total_s", "synth.replay", "s"),
    "synth.max_event_bits": ("synth.synthesize", "gauges", "synth.max_event_bits", "bits"),
    "cli_io.format_decimal_s": ("cli_io.format_decimal", "total_s", "cli_io.format_decimal", "s"),
    "cli_io.json_s": ("cli_io.canonical_json", "total_s", "cli_io.json", "s"),
    "cli_io.json_bytes": ("cli_io.canonical_json", "counters", "cli_io.json_bytes", "bytes"),
}


class Tracer:
    """Span stack, per-span totals, counters and gauges."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds, span index]
        self.keep_spans = False
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.gauges = defaultdict(int)
        self.spans = []  # [name, start, end, parent index]

    def open(self, name):
        index = None
        if self.keep_spans and len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][1:3] = [start, end]

    def gauge(self, name, value):
        if value > self.gauges[name]:
            self.gauges[name] = value

    def after(self, span, result, args):
        """Counts and gauges read off a traced call's result."""
        if span == "cf_engine.state":
            self.gauge("cf_engine.max_q_bits", result.q.bit_length())
        elif span == "psi.value":
            self.gauge("psi.max_depth", result.depth)
        elif span == "psi.refine":
            self.gauge("psi.max_depth", args[0].depth)
        elif span == "order_dynamics.change_trace":
            self.counters["order_dynamics.moments"] += len(result.moments)
        elif span == "synth.synthesize":
            self.gauge("synth.max_event_bits", result.event_values[-1].bit_length())
        elif span == "cli_io.json":
            self.counters["cli_io.json_bytes"] += len(result.encode())


def _wrap_function(tracer, fn, span):
    def traced(*args, **kwargs):
        frame = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        tracer.after(span, result, args)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_counted(tracer, fn, name):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.calls[name] += 1
        tracer.after(name, result, args)
        return result

    counted.__wrapped__ = fn
    return counted


def _wrap_generator(tracer, fn, span):
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            frame = tracer.open(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.counters[span] += 1
            yield item

    traced.__wrapped__ = fn
    return traced


def _wrap_class(tracer, cls, counter):
    class Counted(cls):
        def __init__(self, *args, **kwargs):
            tracer.counters[counter] += 1
            super().__init__(*args, **kwargs)

    Counted.__name__ = cls.__name__
    Counted.__qualname__ = cls.__qualname__
    return Counted


class Instrumentation:
    """Installs and removes the wrappers around one package."""

    def __init__(self, package):
        self.package = package
        self.tracer = Tracer()
        self.missing = set()
        self._patches = []  # (owner, attribute, original, replacement)
        for target, name in COUNTED.items():
            self._plan(target, lambda fn, n=name: _wrap_counted(self.tracer, fn, n))
        for target, span in FUNCTIONS.items():
            self._plan(target, lambda fn, s=span: _wrap_function(self.tracer, fn, s))
        for target, span in GENERATORS.items():
            self._plan(target, lambda fn, s=span: _wrap_generator(self.tracer, fn, s))
        for target, counter in CLASSES.items():
            self._plan(target, lambda cls, c=counter: _wrap_class(self.tracer, cls, c))

    def _plan(self, target, make):
        module_name, _, name = target.partition(".")
        if any(part.startswith("_") for part in name.split(".")):
            raise ValueError(f"refusing to wrap private name {target}")
        owner = getattr(self.package, module_name, None)
        *path, attribute = name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.add(target)
            return
        replacement = make(original)
        if path:  # a method: replace it on its class
            self._patches.append((owner, attribute, original, replacement))
            return
        prefix = self.package.__name__ + "."
        for key, module in sorted(sys.modules.items()):
            if not key.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is original and not attr.startswith("_"):
                    self._patches.append((module, attr, original, replacement))

    def install(self):
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def remove(self):
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)

    def figures(self):
        """Per-layer figures of what the tracer holds; absent metrics left out."""
        out = {}
        for metric, (target, table, key, _) in METRICS.items():
            if target not in self.missing:
                out[metric] = getattr(self.tracer, table)[key]
        return out
