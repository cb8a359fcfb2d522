"""Command line interface and file formats.

Subcommands: expand, psi, trace, verify, pi, synth, export.  All file
output is written atomically (temp file + rename) and all JSON is emitted
in a canonical form, so identical configurations produce byte-identical
files.  Big integers travel as decimal strings.

Exit codes: 0 success, 2 bad arguments, 3 undecided comparison,
4 exhausted source or infeasible schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .cf_engine import parse_source
from .errors import (
    ComparisonUndecided,
    InfeasibleSchedule,
    IrrMeasureError,
    SourceExhausted,
)
from .order_dynamics import (
    ChangeTrace,
    FunctionTuple,
    build_events,
    change_trace,
    tuple_from_header,
)
from .psi import psi_at, psi_left_limit
from .structure_verify import verify_structure
from .synth import load_schedule, synthesize
from .triangle_perm import cycle_decomposition, pi_order, render_diagram

OUTPUT_DIR_ENV = "IRRMEASURE_OUT"
CSV_HEADER = "label,t,value_lo,value_hi,kind"


# ---------------------------------------------------------------- files


def canonical_json(doc) -> str:
    """Canonical JSON text of a document, the form of every JSON output.

    Bytes: dict keys sorted, two-space indent, items separated by ",\n"
    and keys by ": ", empty containers as {} and [], strings escaped to
    ASCII as json.dumps escapes them, ints in decimal, None/True/False as
    null/true/false, tuples as lists, and one final newline.  This is
    exactly json.dumps(doc, sort_keys=True, indent=2) + "\n".  It is
    written by hand because before CPython 3.13 an indent makes json.dumps
    skip its C encoder for the pure-Python generator one, which made JSON
    the slowest step of the psi command.  Any other value, such as a
    float, a Fraction or a key that is not a str, raises TypeError.
    """
    parts = []
    _write_json(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list) -> None:
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        if type(value[0]) is dict:
            text = _rows_json(value, newline)
            if text is not None:
                parts.append(text)
                return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")


def _rows_json(rows, newline: str) -> str | None:
    """JSON text of a list of same-keyed rows, written column by column.

    The shape served: every item a dict (not a subclass) with the same
    non-empty set of str keys, and every column holding only str or only
    int values.  Each column is encoded by one C-level map and every row
    fills one %-template, so no Python code runs per value.  Any other
    shape, and an int past the interpreter's digit limit, returns None:
    the recursive writer then writes the list or raises its TypeError or
    ValueError at the first offending value in document order.
    """
    if set(map(type, rows)) != {dict} or len(set(map(len, rows))) != 1:
        return None
    if set(map(type, rows[0])) != {str}:  # also refuses rows of {}
        return None
    keys = tuple(sorted(rows[0]))
    columns = []
    for key in keys:
        try:
            column = list(map(itemgetter(key), rows))
        except KeyError:
            return None
        leaf = set(map(type, column))
        if leaf == {str}:
            encode = encode_basestring_ascii
        elif leaf == {int}:
            encode = int.__repr__
        else:
            return None
        try:
            columns.append(list(map(encode, column)))
        except ValueError:
            return None
    inner = newline + "  "
    lines = map(_row_template(keys, inner).__mod__, zip(*columns))
    return "[" + inner + ("," + inner).join(lines) + newline + "]"


@lru_cache(maxsize=32)
def _row_template(keys: tuple, newline: str) -> str:
    """The %-template of one row with these sorted keys at this indent."""
    inner = newline + "  "
    fields = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + inner + ("," + inner).join(fields) + newline + "}"


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates the file 0600; give it the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def emit(text: str, out_path: str | None) -> None:
    resolved = resolve_output(out_path)
    if resolved is None:
        sys.stdout.write(text)
    else:
        atomic_write(resolved, text)


def format_decimal(x: Fraction, places: int, direction: str) -> str:
    """Fixed-point decimal, rounded outward so brackets stay brackets.

    direction is "down" (floor) or "up" (ceiling) and places is at least
    1; anything else raises ValueError, memo or not.  Every copy of a psi
    level's handle shares one pair of bracket ends, so a sweep passes the
    very same lo and hi Fraction objects for every t of the level.  The
    text therefore comes from a memo of the last end printed in each
    direction, matched by the object itself (`is`) and places: no
    as_integer_ratio and no hash of the Fraction, whose hash costs a
    modular inverse.  The memo holds its two ends strongly, so no other
    object can take over their ids.
    """
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    held = _last_printed.get(direction)
    if held is not None and held[0] is x and held[1] == places:
        return held[2]
    text = _decimal_text(x, places, direction)
    _last_printed[direction] = (x, places, text)
    return text


# direction -> (end, places, text) of the last end printed that way; two
# entries at most, so no million-bit ends of extremal tuples pile up
_last_printed: dict[str, tuple[Fraction, int, str]] = {}


def _decimal_text(x: Fraction, places: int, direction: str) -> str:
    num, den = x.as_integer_ratio()
    scaled = num * 10**places
    n = scaled // den if direction == "down" else -(-scaled // den)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _places_for(hi: Fraction, minimum: int = 30) -> int:
    num, den = hi.as_integer_ratio()
    places = minimum
    while num > 0 and num * 10**places < den:
        places += 10
    return places


# ---------------------------------------------------------------- config


@dataclass
class RunConfig:
    """Options shared by the trace-producing commands."""

    sources: list = field(default_factory=list)
    t0: int = 1
    count: int = 10
    horizon: int | None = None
    depth_limit: int = 64
    out: str | None = None

    def to_document(self) -> dict:
        return {
            "sources": list(self.sources),
            "t0": str(self.t0),
            "count": self.count,
            "horizon": None if self.horizon is None else str(self.horizon),
            "depth_limit": self.depth_limit,
        }


def read_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {line!r}")
            values[key.strip()] = value.strip()
    return values


def merge_config(args: argparse.Namespace, file_values: dict) -> RunConfig:
    config = RunConfig()
    if "sources" in file_values:
        config.sources = shlex.split(file_values["sources"])
    for key in ("t0", "count", "horizon", "depth_limit"):
        if key in file_values:
            setattr(config, key, int(file_values[key]))
    if "out" in file_values:
        config.out = file_values["out"]
    for key in ("sources", "t0", "count", "horizon", "depth_limit", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    return config


def parse_labeled_sources(specs):
    """Sources given as spec or label=spec; unlabeled ones become f1, f2, ..."""
    members = []
    for i, item in enumerate(specs):
        label, sep, rest = item.partition("=")
        if sep and ":" in rest:
            members.append((label, parse_source(rest)))
        else:
            members.append((f"f{i + 1}", parse_source(item)))
    return FunctionTuple.build(members)


# ---------------------------------------------------------------- commands


def cmd_expand(args) -> int:
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    source = parse_source(args.source)
    rows = []
    for m in range(args.depth):
        state = source.state(m)
        rows.append(
            {"m": m, "a": str(source.term(m)), "p": str(state.p), "q": str(state.q)}
        )
    if args.json:
        emit(canonical_json({"source": source.spec_string(), "rows": rows}), args.out)
    else:
        lines = [f"{'m':>4}  {'a_m':>8}  {'p_m':>16}  {'q_m':>16}"]
        for row in rows:
            lines.append(
                f"{row['m']:>4}  {row['a']:>8}  {row['p']:>16}  {row['q']:>16}"
            )
        emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_psi(args) -> int:
    if args.digits < 0:
        raise ValueError(f"--digits must be >= 0, got {args.digits}")
    if args.t_end is not None and args.t_end < args.t:
        raise ValueError(f"--t-end must be >= --t, got {args.t_end} < {args.t}")
    source = parse_source(args.source)
    width = Fraction(1, 10**args.digits)
    rows = []
    t_values = [args.t] if args.t_end is None else range(args.t, args.t_end + 1)
    hi = None  # the t of one level share their hi, and so its places
    for t in t_values:
        err = (
            psi_left_limit(source, t, target_width=width)
            if args.left
            else psi_at(source, t, target_width=width)
        )
        if err.bracket.hi is not hi:
            hi = err.bracket.hi
            places = _places_for(hi)
        rows.append(
            {
                "t": str(t),
                "m": err.m,
                "q": str(err.q),
                "lo": format_decimal(err.bracket.lo, places, "down"),
                "hi": format_decimal(err.bracket.hi, places, "up"),
            }
        )
    emit(canonical_json({"source": source.spec_string(), "values": rows}), args.out)
    return 0


def trace_document(config: RunConfig) -> dict:
    ftuple = parse_labeled_sources(config.sources)
    trace = change_trace(ftuple, config.t0, config.count, config.depth_limit)
    doc = trace.to_document()
    doc["header"]["config"] = config.to_document()
    doc["header"]["version"] = __version__
    return doc


def cmd_trace(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    config = merge_config(args, file_values)
    if not config.sources:
        raise ValueError("trace needs at least two sources")
    emit(canonical_json(trace_document(config)), config.out)
    return 0


def cmd_verify(args) -> int:
    with open(args.trace) as handle:
        doc = json.load(handle)
    trace = ChangeTrace.from_document(doc)
    report = verify_structure(trace, args.k)
    emit(canonical_json(report.to_document()), args.out)
    return 0


def cmd_pi(args) -> int:
    k = args.k
    cycles = cycle_decomposition(k)
    doc = {
        "k": k,
        "order": pi_order(k),
        "cycle_count": len(cycles),
        "cycles": cycles,
    }
    if args.json:
        emit(canonical_json(doc), args.out)
    else:
        lines = [
            f"k = {k}",
            f"order = {doc['order']}",
            f"cycles ({doc['cycle_count']}): "
            + " ".join("(" + " ".join(map(str, c)) + ")" for c in cycles),
            "",
            render_diagram(k),
        ]
        emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    if os.path.exists(args.schedule):
        with open(args.schedule) as handle:
            text = handle.read()
    else:
        text = args.schedule
    schedule = load_schedule(text)
    result = synthesize(schedule, search_bound=args.search_bound)
    doc = result.to_document()
    doc["sources"] = {
        label: source.spec_string() for label, source in result.sources().items()
    }
    emit(canonical_json(doc), args.out)
    return 0


def _sampled_points(event_times, tail: int | None):
    """(t, kind) pairs: each event plus one interior sample per gap."""
    points = []
    for index, t in enumerate(event_times):
        points.append((t, "event"))
        t_next = event_times[index + 1] if index + 1 < len(event_times) else tail
        if t_next is not None and t_next - t >= 2:
            points.append((t + (t_next - t) // 2, "sample"))
    return points


def staircase_rows(ftuple: FunctionTuple, t_points, digits: int = 30):
    width = Fraction(1, 10**digits)
    rows = []
    hi = None  # the t of one level share their hi, and so its places
    for label, source in ftuple.members:
        for t, kind in t_points:
            err = psi_at(source, t, target_width=width)
            if err.bracket.hi is not hi:
                hi = err.bracket.hi
                places = _places_for(hi, minimum=digits)
            rows.append(
                (
                    label,
                    str(t),
                    format_decimal(err.bracket.lo, places, "down"),
                    format_decimal(err.bracket.hi, places, "up"),
                    kind,
                )
            )
    return rows


def export_staircase(subject, path: str | None, horizon: int | None = None) -> int:
    """CSV staircase for a trace (rows at its change moments) or for a
    function tuple up to a horizon (rows at every jump event)."""
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(subject, ChangeTrace):
        ftuple = tuple_from_header(subject.header)
        times = [m.t for m in subject.moments]
        if horizon is not None:
            times = [t for t in times if t <= horizon]
        points = _sampled_points(times, None)
    else:
        ftuple = subject
        if horizon is None:
            raise ValueError("horizon required when exporting from sources")
        times = [e.t for e in build_events(ftuple, horizon)]
        points = _sampled_points(times, horizon + 1)
    rows = staircase_rows(ftuple, points)
    lines = [CSV_HEADER] + [",".join(row) for row in rows]
    emit("\n".join(lines) + "\n", path)
    return 0


def cmd_export(args) -> int:
    if args.trace:
        with open(args.trace) as handle:
            trace = ChangeTrace.from_document(json.load(handle))
        return export_staircase(trace, args.out, args.horizon)
    if not args.sources:
        raise ValueError("export needs --trace or --sources with --horizon")
    if args.horizon is None:
        raise ValueError("export from sources needs --horizon")
    ftuple = parse_labeled_sources(args.sources)
    return export_staircase(ftuple, args.out, args.horizon)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrmeasure",
        description="Exact staircases of best rational approximation errors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="table of partial quotients and convergents")
    p.add_argument("--source", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("psi", help="staircase value brackets at integer points")
    p.add_argument("--source", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--t-end", type=int, dest="t_end")
    p.add_argument("--left", action="store_true", help="value before the jump at t")
    p.add_argument("--digits", type=int, default=24)
    p.add_argument("--out")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("trace", help="order vector change moments of a tuple")
    p.add_argument("--sources", nargs="+")
    p.add_argument("--t0", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--depth-limit", type=int, dest="depth_limit")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="check structural laws on a saved trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pi", help="order, cycles and diagram of the permutation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("synth", help="realize a jump schedule as explicit sources")
    p.add_argument("--schedule", required=True, help="JSON file, JSON text, or extremal:k=K:cycles=C")
    p.add_argument("--search-bound", type=int, default=10**6, dest="search_bound")
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export", help="CSV staircase suitable for plotting")
    p.add_argument("--trace")
    p.add_argument("--sources", nargs="+")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def error_document(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n"


def _write_warning(message, category, filename, lineno, file=None, line=None):
    """Warnings as "Category: message", without the checkout's source path."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _write_warning
        try:
            return args.func(args)
        except ComparisonUndecided as exc:
            sys.stderr.write(error_document(exc))
            return 3
        except (SourceExhausted, InfeasibleSchedule) as exc:
            sys.stderr.write(error_document(exc))
            return 4
        except (ValueError, OSError, KeyError, json.JSONDecodeError, IrrMeasureError) as exc:
            sys.stderr.write(error_document(exc))
            return 2


if __name__ == "__main__":
    sys.exit(main())
