"""End-to-end command line behavior: formats, exit codes, reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracle as oracle
from _documents import trace_documents
from irrmeasure import cli_io
from irrmeasure.cf_engine import PartialQuotientSource
from irrmeasure.cli_io import (
    CSV_HEADER,
    OUTPUT_DIR_ENV,
    RunConfig,
    _places_for,
    canonical_json,
    format_decimal,
    main,
    parse_labeled_sources,
    read_config_file,
    trace_document,
    tuple_from_header,
)
from irrmeasure.order_dynamics import build_events
from irrmeasure.synth import extremal_schedule, synthesize

PHI = "phi=periodic:[1;|1]"
RT2 = "rt2=periodic:[1;|2]"


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    return code, out


# ------------------------------------------------------------------ helpers


def test_canonical_json_is_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def dumps_json(doc) -> str:
    """The json.dumps route that canonical_json must match byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, controls, non-ASCII and an astral character
AWKWARD = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=6
)
INTEGERS = st.integers(-(10**4000), 10**4000)
SCALARS = st.one_of(st.none(), st.booleans(), INTEGERS, TEXT)


def json_documents(depth):
    if depth == 0:
        return SCALARS
    children = json_documents(depth - 1)
    return st.one_of(
        SCALARS,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=3),
    )


@settings(deadline=None)
@given(json_documents(4))
@example([{"a": 1}, {"b": 2}])  # rows of one size but not one key set
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == dumps_json(doc)


@pytest.mark.parametrize(
    "doc", [{}, [], (), {"a": {}, "b": [], "c": [{}, [[]]]}, "", 0, -(10**300)]
)
def test_canonical_json_of_empty_and_bare_values(doc):
    assert canonical_json(doc) == dumps_json(doc)


class Int(int):
    pass


class Str(str):
    pass


class List(list):
    pass


# each turns one row of a list of same-keyed rows into another shape;
# the flag says whether canonical_json refuses the result (json.dumps
# writes floats, canonical_json refuses them)
PERTURBATIONS = {
    "missing key": (lambda row, key, spare: row.pop(key), False),
    "extra key": (lambda row, key, spare: row.setdefault(spare, 0), False),
    "float": (lambda row, key, spare: row.update({key: 1.5}), True),
    "Fraction": (lambda row, key, spare: row.update({key: Fraction(1, 3)}), True),
    "bool": (lambda row, key, spare: row.update({key: True}), False),
    "None": (lambda row, key, spare: row.update({key: None}), False),
    "int subclass": (lambda row, key, spare: row.update({key: Int(7)}), False),
    "str subclass": (lambda row, key, spare: row.update({key: Str("x")}), False),
    "nested list": (lambda row, key, spare: row.update({key: [row[key]]}), False),
    "int in a list": (lambda row, key, spare: row.update({key: ["x", 7]}), False),
    "tuple for a list": (lambda row, key, spare: row.update({key: ("x",)}), False),
    "list subclass": (lambda row, key, spare: row.update({key: List(["x"])}), False),
}
# a column of lists of str, such as a trace's "v" and "jumping"
STR_LISTS = st.lists(TEXT, max_size=4)


@st.composite
def row_lists(draw):
    """(document, refused): 0-40 dicts over one key set, maybe one perturbed.

    Each column draws its values from str, from int, from lists of str
    (empty ones too) or from all scalars, so most lists take
    canonical_json's column path.  Keys holding % and %s check that the
    row templates escape them.
    """
    key = st.one_of(TEXT, st.sampled_from(["%", "%s", "a%sb"]))
    keys = draw(st.lists(key, max_size=5, unique=True))
    leaves = {
        key: draw(st.sampled_from([TEXT, INTEGERS, STR_LISTS, SCALARS])) for key in keys
    }
    rows = draw(st.lists(st.fixed_dictionaries(leaves), max_size=40))
    refused = False
    perturbation = draw(st.one_of(st.none(), st.sampled_from(list(PERTURBATIONS))))
    if rows and keys and perturbation is not None:
        change, refused = PERTURBATIONS[perturbation]
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(keys))
        spare = "".join(keys) + "~"  # longer than any key, so in none of them
        change(row, key, spare)
    wrap = draw(st.sampled_from([lambda d: d, lambda d: {"rows": d}, lambda d: [[d]]]))
    return wrap(rows), refused


@settings(deadline=None)
@given(row_lists())
@example(([{"a": 1}, {"a": 2, "b": "x"}], False))  # first row lacks a key
@example(([{"a": 1, "b": "x"}, {"a": 2}], False))  # a later row lacks one
@example(([{"a": 1}, {"a": True}, {"a": Int(2)}], False))
@example(([{"%s": "x", "%": 1}], False))
@example(([{"v": ["a", AWKWARD], "j": []}, {"v": [], "j": ["%s"]}], False))
@example(([{"v": ["a"]}, {"v": ["b", 7]}], False))
@example(([{"v": ["a"]}, {"v": ("b",)}], False))
@example(([{"v": ["a"]}, {"v": List(["b"])}], False))
@example(([{"v": ["a"]}, {"v": [Str("b")]}], False))
def test_canonical_json_writes_row_lists_as_json_dumps(case):
    doc, refused = case
    if refused:
        with pytest.raises(TypeError):
            canonical_json(doc)
    else:
        assert canonical_json(doc) == dumps_json(doc)


def test_long_int_in_a_row_raises_at_the_first_offending_value():
    long_int = 10**4999
    with pytest.raises(ValueError) as bare:
        canonical_json(long_int)
    with pytest.raises(ValueError) as in_row:
        canonical_json([{"a": 1, "b": "x"}, {"a": long_int, "b": "y"}])
    assert str(in_row.value) == str(bare.value)
    # the Fraction comes first in document order, the long int first by column
    with pytest.raises(TypeError):
        canonical_json([{"a": 1, "b": Fraction(1, 3)}, {"a": long_int, "b": "y"}])


@pytest.mark.parametrize(
    "doc",
    [
        1.5,
        {"a": [Fraction(1, 3)]},
        {1: "x"},
        {"a": {None: 1}},
        [{"x", "y"}],
        [{"a": 1}, {"a": 1.5}],
        [{"a": "x"}, {"a": Fraction(1, 3)}],
        [{1: "x"}],
    ],
)
def test_canonical_json_rejects_other_types(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


def floor_ceil_format_decimal(x, places, direction):
    """format_decimal through a Fraction product and math.floor/math.ceil."""
    scaled = x * 10**places
    n = math.floor(scaled) if direction == "down" else math.ceil(scaled)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


FRACTIONS = st.builds(
    Fraction, st.integers(-(10**90), 10**90), st.integers(1, 10**90)
)


@given(FRACTIONS, st.integers(1, 80), st.sampled_from(["down", "up"]))
def test_format_decimal_matches_floor_and_ceil(x, places, direction):
    assert format_decimal(x, places, direction) == floor_ceil_format_decimal(
        x, places, direction
    )


@settings(max_examples=40)
@given(
    st.lists(FRACTIONS, min_size=9, max_size=30, unique=True),
    st.integers(1, 80),
)
def test_format_decimal_memo_never_serves_stale_text(xs, places):
    # more distinct ends than the memo holds, at two place counts, both
    # directions interleaved, twice over
    calls = [
        (x, places + i % 2, d) for i, x in enumerate(xs) for d in ("down", "up")
    ]
    for x, p, d in calls + calls:
        assert format_decimal(x, p, d) == floor_ceil_format_decimal(x, p, d)


@pytest.mark.parametrize(
    "places, direction",
    [(0, "down"), (-3, "up"), (5, "Down"), (5, "nearest"), (5, None)],
)
def test_format_decimal_refuses_bad_arguments_on_every_call(places, direction):
    for _ in range(2):
        with pytest.raises(ValueError):
            format_decimal(Fraction(5, 2), places, direction)


def integer_decimal_text(num, den, places, direction):
    """format_decimal's integer formula on num/den, kept as its oracle."""
    scaled = num * 10**places
    n = scaled // den if direction == "down" else -(-scaled // den)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@settings(max_examples=60)
@given(
    st.lists(FRACTIONS, min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.integers(0, 11),  # an end from the pool, modulo its size
            st.sampled_from([1, 2, 30, 80]),
            st.sampled_from(["down", "up"]),
        ),
        max_size=40,
    ),
)
def test_format_decimal_memo_keys_on_the_end_itself(xs, calls):
    # each value twice, as two distinct but equal Fraction objects
    pool = xs + [Fraction(x.numerator, x.denominator) for x in xs]
    assert all(a == b and a is not b for a, b in zip(xs, pool[len(xs) :]))
    # a sweep: the lo and hi of each level in turn, three t per level
    sweep = [
        (x, 30, d)
        for lo, hi in zip(pool, pool[1:])
        for _ in range(3)
        for x, d in ((lo, "down"), (hi, "up"))
    ]
    for x, places, direction in sweep + [(pool[i % len(pool)], p, d) for i, p, d in calls]:
        num, den = x.as_integer_ratio()
        expected = integer_decimal_text(num, den, places, direction)
        assert format_decimal(x, places, direction) == expected
        assert len(cli_io._last_printed) <= 2


def test_format_decimal_never_matches_a_freed_end():
    # ends freed at once may hand their ids to the next ones; the memo
    # holds the last ends, so a new object never matches an old entry
    for i in range(-300, 300):
        for direction in ("down", "up"):
            x = Fraction(i, 7)
            assert format_decimal(x, 5, direction) == integer_decimal_text(i, 7, 5, direction)


def test_format_decimal_checks_its_arguments_before_the_memo():
    x = Fraction(5, 2)
    for places, direction in [(3, "down"), (3, "up"), (1, "down")]:
        expected = integer_decimal_text(5, 2, places, direction)
        assert format_decimal(x, places, direction) == expected
    for places, direction in [(0, "down"), (-3, "up"), (1, "Down"), (1, "nearest"), (1, None)]:
        with pytest.raises(ValueError):
            format_decimal(x, places, direction)
    assert format_decimal(x, 1, "down") == "2.5"


def fraction_places_for(hi):
    """_places_for with a Fraction product on every pass."""
    places = 30
    scale = Fraction(10) ** 30
    while hi > 0 and hi * scale < 1:
        places += 10
        scale *= 10**10
    return places


@given(st.builds(Fraction, st.integers(-10, 10**40), st.integers(1, 10**200)))
def test_places_for_matches_the_fraction_loop(hi):
    assert _places_for(hi) == fraction_places_for(hi)


def test_format_decimal_rounds_outward():
    third = Fraction(1, 3)
    assert format_decimal(third, 5, "down") == "0.33333"
    assert format_decimal(third, 5, "up") == "0.33334"
    assert format_decimal(-third, 5, "down") == "-0.33334"
    assert format_decimal(-third, 5, "up") == "-0.33333"
    assert format_decimal(Fraction(5, 4), 3, "down") == "1.250"


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nsources = phi=periodic:[1;|1] rt2=periodic:[1;|2]\ncount = 3\n\n")
    values = read_config_file(str(path))
    assert values["count"] == "3"
    assert "phi=" in values["sources"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


# --------------------------------------------------------------- subcommands


def test_expand_json(tmp_path):
    code, out = run(tmp_path, "expand", "--source", "periodic:[1;|1]", "--depth", "7", "--json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert [row["q"] for row in doc["rows"]] == ["1", "1", "2", "3", "5", "8", "13"]


def test_expand_table(capsys):
    assert main(["expand", "--source", "periodic:[1;|2]", "--depth", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["m", "a_m", "p_m", "q_m"]
    assert lines[4].split() == ["3", "2", "17", "12"]


def test_expand_past_the_frozen_depths(tmp_path, monkeypatch):
    # one pass over the quotients: the uncached state(m) walks a_0 .. a_m
    # each call, so a loop through it would be O(depth^2)
    def state(self, m):
        raise AssertionError(f"state {m} read")

    monkeypatch.setattr(PartialQuotientSource, "state", state)
    start = time.perf_counter()
    code, out = run(tmp_path, "expand", "--source", "rule:e", "--depth", "2000", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    expected = [
        {"m": m, "a": str(oracle.e_quotient(m)), "p": str(p), "q": str(q)}
        for m, (p, q, _, _) in zip(range(2000), oracle.convergents(oracle.e_quotient))
    ]
    assert json.loads(out.read_text())["rows"] == expected


def test_expand_of_an_exhausted_source_exits_4(capsys):
    assert main(["expand", "--source", "explicit:[0;1,2]", "--depth", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SourceExhausted",
        "detail": "source exhausted: term 3 requested, only 3 available",
    }


def test_psi_single_point(tmp_path):
    code, out = run(tmp_path, "psi", "--source", "periodic:[1;|1]", "--t", "4")
    assert code == 0
    doc = json.loads(out.read_text())
    (row,) = doc["values"]
    assert row["q"] == "3" and row["m"] == 3
    assert row["lo"].startswith("0.1458980337") and row["hi"].startswith("0.1458980337")
    assert Fraction(row["lo"]) < Fraction(row["hi"])


def test_psi_range_and_left(tmp_path):
    code, out = run(tmp_path, "psi", "--source", "periodic:[1;|1]", "--t", "2", "--t-end", "6")
    assert code == 0
    doc = json.loads(out.read_text())
    assert [row["t"] for row in doc["values"]] == ["2", "3", "4", "5", "6"]
    code, out = run(tmp_path, "psi", "--source", "periodic:[1;|1]", "--t", "5", "--left")
    (row,) = json.loads(out.read_text())["values"]
    assert row["q"] == "3"  # value an instant before the jump at t = 5


def test_trace_document_shape(tmp_path):
    code, out = run(
        tmp_path, "trace", "--sources", PHI, RT2, "--t0", "2", "--count", "4"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["sources"] == [
        ["phi", "periodic:[1;|1]"],
        ["rt2", "periodic:[1;|2]"],
    ]
    assert doc["header"]["config"]["count"] == 4
    assert [e["t"] for e in doc["events"]] == ["8", "12", "21", "29"]
    assert doc["events"][0]["v"] == ["rt2", "phi"]


def test_unlabeled_trace_sources_are_named_in_order(tmp_path):
    sources = ["periodic:[1;|1]", "periodic:[1;|2]"]
    code, out = run(tmp_path, "trace", "--sources", *sources, "--t0", "2", "--count", "2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["sources"] == [["f1", "periodic:[1;|1]"], ["f2", "periodic:[1;|2]"]]
    assert doc["events"][0]["v"] == ["f2", "f1"]


def test_trace_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sources = {PHI} {RT2}\nt0 = 2\ncount = 3\n")
    code, out = run(tmp_path, "trace", "--config", str(cfg), "--count", "5")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["config"]["count"] == 5  # flag wins
    assert doc["header"]["config"]["t0"] == "2"  # file survives
    assert len(doc["events"]) == 5


def test_header_rebuilds_tuple():
    doc = trace_document(RunConfig(sources=[PHI, RT2], t0=2, count=3))
    rebuilt = tuple_from_header(doc["header"])
    assert rebuilt.labels == ("phi", "rt2")
    assert build_events(rebuilt, 13) == build_events(parse_labeled_sources([PHI, RT2]), 13)


def test_seeded_header_records_prng():
    doc = trace_document(RunConfig(sources=["s1=seeded:3:4", "s2=seeded:4:4"], count=1))
    assert doc["header"]["prng"] == "splitmix64"
    assert "prng" not in trace_document(RunConfig(sources=[PHI, RT2], t0=2, count=1))["header"]


def test_synth_trace_verify_loop_at_k2(tmp_path):
    # the padded members of extremal(2, 9), traced by spec up to the
    # certified horizon; count only caps the trace, the horizon ends it
    result = synthesize(extremal_schedule(2, 9))
    padded = result.padded_sources(extra=60)
    specs = [f"{label}={source.spec_string()}" for label, source in padded.items()]
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(
        f"sources = {' '.join(specs)}\nhorizon = {result.certified_horizon}\ncount = 1000\n"
    )
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    assert main(["trace", "--config", str(cfg), "--out", str(trace)]) == 0
    assert main(["verify", "--trace", str(trace), "--k", "2", "--out", str(report)]) == 0
    events = json.loads(trace.read_text())["events"]
    assert len(events) == 12 and int(events[-1]["t"]) <= result.certified_horizon
    items = json.loads(report.read_text())["items"]
    assert sorted(items) == ["i", "ii", "iii", "iv", "v", "vi"]
    assert all(item["status"] == "pass" for item in items.values()), items


def test_verify_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    main(["trace", "--sources", PHI, RT2, "--t0", "2", "--count", "6", "--out", str(trace_path)])
    report_path = tmp_path / "report.json"
    code = main(["verify", "--trace", str(trace_path), "--k", "2", "--out", str(report_path)])
    assert code == 0
    # the warning carries no source path, so stderr is the same in every checkout
    assert capsys.readouterr().err == (
        "UserWarning: vector length 2 is not the triangular size 3 for k=2\n"
    )
    report = json.loads(report_path.read_text())
    assert report["items"]["i"]["status"] == "fail"
    assert report["items"]["ii"]["status"] == "pass"
    assert report["items"]["vi"]["status"] == "inconclusive"


def test_pi_json_and_text(tmp_path, capsys):
    code, out = run(tmp_path, "pi", "--k", "5", "--json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 5 and doc["cycle_count"] == 3
    assert main(["pi", "--k", "3"]) == 0
    text = capsys.readouterr().out
    assert "order = 3" in text
    assert "1,1  2,2  3,3" in text


def test_synth_preset_and_json_schedule(tmp_path):
    code, out = run(tmp_path, "synth", "--schedule", "extremal:k=2:cycles=2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["sources"]) == {"1.1", "1.2", "2.2"}
    assert len(doc["event_values"]) == 4
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(json.dumps({"k": None, "events": [["A", "B"]]}))
    code, out = run(tmp_path, "synth", "--schedule", str(schedule_file))
    assert code == 0
    assert json.loads(out.read_text())["event_values"] == ["3"]


def test_export_from_sources(tmp_path):
    csv_path = tmp_path / "stairs.csv"
    code = main(["export", "--sources", PHI, "--horizon", "13", "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    events = [ln for ln in lines[1:] if ln.endswith(",event")]
    assert [ln.split(",")[1] for ln in events] == ["1", "2", "3", "5", "8", "13"]
    for ln in lines[1:]:
        _, _, lo, hi, _ = ln.split(",")
        assert Fraction(lo) < Fraction(hi)
    # re-import: parsing the file back reproduces the step count
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert sum(row["kind"] == "event" for row in rows) == 6
    assert {row["label"] for row in rows} == {"phi"}


def test_export_from_trace_and_empty_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    main(["trace", "--sources", PHI, RT2, "--t0", "2", "--count", "3", "--out", str(trace_path)])
    csv_path = tmp_path / "stairs.csv"
    assert main(["export", "--trace", str(trace_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    moment_ts = {"8", "12", "21"}
    event_rows = [ln for ln in lines[1:] if ln.endswith(",event")]
    assert {ln.split(",")[1] for ln in event_rows} == moment_ts
    assert {ln.split(",")[0] for ln in lines[1:]} == {"phi", "rt2"}

    empty_path = tmp_path / "empty.json"
    main(["trace", "--sources", PHI, RT2, "--count", "0", "--out", str(empty_path)])
    out_path = tmp_path / "empty.csv"
    assert main(["export", "--trace", str(empty_path), "--out", str(out_path)]) == 0
    assert out_path.read_text() == CSV_HEADER + "\n"


def test_export_of_a_trace_keeps_the_rows_up_to_the_horizon(tmp_path):
    trace_path = tmp_path / "trace.json"
    argv = ["trace", "--sources", PHI, RT2, "--t0", "2", "--count", "20", "--out", str(trace_path)]
    assert main(argv) == 0
    rows = []
    for horizon in ([], ["--horizon", "100"]):
        csv_path = tmp_path / "stairs.csv"
        assert main(["export", "--trace", str(trace_path), *horizon, "--out", str(csv_path)]) == 0
        rows.append(csv_path.read_text().splitlines()[1:])
    full, cut = rows
    assert (len(full), len(cut)) == (78, 26)
    assert cut == [row for row in full if int(row.split(",")[1]) <= 100]


def test_export_requires_a_subject(tmp_path, capsys):
    assert main(["export", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["export", "--sources", PHI, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.count('"ValueError"') == 2


# ------------------------------------------------------------ frozen outputs


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["psi", "--source", "periodic:[1;|1]", "--t", "1", "--t-end", "700"],
            "094828f4e3a8a3a0c3d1a67277c4e738224a20a8d19c638f1801ebf96bd67873",
        ),
        (
            # q_3 = 666 is a jump of seeded:5:9; the value before it is level 2
            ["psi", "--source", "seeded:5:9", "--t", "666", "--left"],
            "6e2b0d5fa69d22882e69c8ec947fcea1eda1db84a72c48182a3ec4abe01e0694",
        ),
        (
            ["psi", "--source", "rule:e", "--t", "1", "--t-end", "300", "--digits", "60"],
            "e259d7dd4225ce4469e6958e3ee62757f42ca94743c80e53b48ff293dc5bc26f",
        ),
        (
            ["export", "--sources", PHI, RT2, "--horizon", "5000"],
            "c961ae9cecf4234d48464f1e1dce8ebe27d866772db7b70f889f83ca684be306",
        ),
        (
            ["pi", "--k", "5", "--json"],
            "ab828f6810905ffacef0d0924856c10757a255659d3a40d84176f4dcc11bd989",
        ),
        (
            ["expand", "--source", "rule:e", "--depth", "40", "--json"],
            "9f25d0f5254997437106881fa13ad6b1c95187fa07e794a3fd55b5eaa1236ec0",
        ),
        (
            ["synth", "--schedule", "extremal:k=2:cycles=3"],
            "7c747c012d493b3b7877d182fab972b31858c9689147812870eb3d5594d46c2f",
        ),
    ],
    ids=[
        "psi-phi-700",
        "psi-left-seeded",
        "psi-e-60-digits",
        "export-5000",
        "pi-5-json",
        "expand-e-40-json",
        "synth-k2-cycles3",
    ],
)
def test_stdout_is_frozen(capsys, argv, digest):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_verify_stdout_is_frozen(tmp_path, capsys):
    # 15 members fit k = 5; from t0 = 500 the best calendar offset is 4
    sources = [f"s{i}=seeded:{1000 + i}:{2 + i % 5}" for i in range(15)]
    trace_path = tmp_path / "trace.json"
    argv = ["trace", "--sources", *sources, "--t0", "500", "--count", "60"]
    assert main([*argv, "--out", str(trace_path)]) == 0
    assert main(["verify", "--trace", str(trace_path), "--k", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (
        hashlib.sha256(captured.out.encode()).hexdigest()
        == "7ed57d024bdc85ff8db6370dfc0da09454578c77edef8ac6a68fb4bde2acd485"
    )


SEEDED_15 = [f"s{i}=seeded:{1000 + i}:{2 + i % 5}" for i in range(15)]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["trace", "--sources", *SEEDED_15, "--t0", "500", "--count", "60"],
            "53b078f4a5e3d0cb8a62724eacdd8ae17a15a7418abe9e4cdf8fbe1b029c1a16",
        ),
        (
            ["trace", "--sources", PHI, RT2, "--t0", "2", "--count", "200"],
            "3757dc0f8e1e09b2c3a98cc8109a17523450a349a86ff76b6ce7a1cbaec65462",
        ),
    ],
    ids=["trace-15-from-500", "trace-phi-rt2-200"],
)
def test_trace_stdout_is_frozen(capsys, argv, digest):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_undecided_stderr_is_frozen(capsys):
    argv = ["trace", "--sources", "a=periodic:[1;|1]", "b=periodic:[1;|1]", "--count", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        hashlib.sha256(captured.err.encode()).hexdigest()
        == "473602e0d201ea07dccd7e98667bc893cf4cc8c416ae659ba39a296889bf4157"
    )


# ----------------------------------------------------------------- failures


def test_bad_source_exits_2(capsys):
    assert main(["expand", "--source", "nonsense:xyz"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SourceSyntaxError" or "nonsense" in err["detail"]


def test_missing_trace_file_exits_2(tmp_path, capsys):
    assert main(["verify", "--trace", str(tmp_path / "absent.json"), "--k", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_undecided_comparison_exits_3(capsys):
    code = main(
        ["trace", "--sources", "a=periodic:[1;|1]", "b=periodic:[1;|1]", "--count", "1"]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ComparisonUndecided"


def test_exhausted_source_exits_4(capsys):
    assert main(["psi", "--source", "explicit:[0;1,2]", "--t", "100"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "SourceExhausted"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (
            ["psi", "--source", "periodic:[1;|1]", "--t", "5", "--digits", "-3"],
            "--digits must be >= 0, got -3",
        ),
        (
            ["trace", "--sources", PHI, RT2, "--depth-limit", "-1"],
            "depth_limit must be >= 0, got -1",
        ),
        (["trace", "--config", "CONFIG"], "depth_limit must be >= 0, got -1"),
        (["trace", "--config", "UNKNOWN"], "unknown config key(s) 'depth-limit', 'bogus'"),
        (["trace", "--config", "HORIZON"], "horizon must be >= 1"),
        (
            ["synth", "--schedule", "extremal:k=2:cycles=3", "--search-bound", "-1"],
            "search_bound must be >= 0, got -1",
        ),
        (
            ["expand", "--source", "periodic:[1;|1]", "--depth", "-2"],
            "--depth must be >= 0, got -2",
        ),
        (
            ["psi", "--source", "periodic:[1;|1]", "--t", "9", "--t-end", "3"],
            "--t-end must be >= --t, got 3 < 9",
        ),
        (["export", "--trace", "TRACE", "--horizon", "0"], "horizon must be >= 1"),
        (["export", "--trace", "TRACE", "--horizon", "-5"], "horizon must be >= 1"),
        (["export", "--sources", PHI, "--horizon", "0"], "horizon must be >= 1"),
        (["export", "--sources", PHI, "--horizon", "-5"], "horizon must be >= 1"),
        (["psi", "--source", "periodic:[1;0|1]", "--t", "5"], "preperiod term a_1 must be >= 1"),
        (["psi", "--source", "periodic:[1;|0]", "--t", "5"], "period terms must be >= 1"),
        (
            ["psi", "--source", "periodic:[1;2]", "--t", "5"],
            "malformed periodic source 'periodic:[1;2]'",
        ),
        (["psi", "--source", "rule:const:0", "--t", "5"], "rule 'const' needs a constant >= 1"),
        (["psi", "--source", "seeded:1:0", "--t", "5"], "quotient bound must be >= 1"),
        (["trace", "--count", "3"], "trace needs at least two sources"),
        (["trace", "--sources", PHI, "--count", "3"], "trace needs at least two sources"),
    ],
    ids=[
        "digits",
        "depth-limit",
        "depth-limit-config",
        "unknown-config-key",
        "horizon-config",
        "search-bound",
        "depth",
        "t-end",
        "export-trace-horizon-0",
        "export-trace-horizon-negative",
        "export-sources-horizon-0",
        "export-sources-horizon-negative",
        "periodic-a1-0",
        "periodic-period-term-0",
        "periodic-without-period",
        "rule-const-0",
        "seeded-bound-0",
        "trace-no-sources",
        "trace-one-source",
    ],
)
def test_negative_argument_exits_2(tmp_path, capsys, argv, detail):
    config = tmp_path / "run.cfg"
    config.write_text(f"sources = {PHI} {RT2}\ndepth_limit = -1\n")
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(f"sources = {PHI} {RT2}\ndepth-limit = 0\nbogus = 1\n")
    horizon = tmp_path / "horizon.cfg"
    horizon.write_text(f"sources = {PHI} {RT2}\nhorizon = 0\n")
    trace = tmp_path / "trace.json"
    trace_argv = ["trace", "--sources", PHI, RT2, "--t0", "2", "--count", "3", "--out", str(trace)]
    assert main(trace_argv) == 0
    capsys.readouterr()
    paths = {
        "CONFIG": str(config),
        "UNKNOWN": str(unknown),
        "HORIZON": str(horizon),
        "TRACE": str(trace),
    }
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": detail}


def test_infeasible_schedule_exits_4(tmp_path, capsys):
    schedule = json.dumps({"k": None, "events": [["A"], ["A", "B"], ["A", "B"]]})
    assert main(["synth", "--schedule", schedule]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleSchedule"


@pytest.mark.parametrize(
    "schedule, detail",
    [
        ({"k": None, "events": [[1, 2]]}, "schedule label 1 is not a string"),
        ({"k": None, "events": [["A", 2.5]]}, "schedule label 2.5 is not a string"),
        ({"k": 1.5, "events": [["A", "B"]]}, "schedule k=1.5 is neither an integer nor null"),
        ({"k": True, "events": [["A", "B"]]}, "schedule k=True is neither an integer nor null"),
    ],
)
def test_schedule_values_json_cannot_write_exit_2(capsys, schedule, detail):
    assert main(["synth", "--schedule", json.dumps(schedule)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": detail}


def test_trace_with_a_non_string_label_exits_2(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({"header": {"t0": "1", "v0": ["a", 7]}, "events": []}))
    assert main(["verify", "--trace", str(trace_path), "--k", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": "trace label 7 is not a string"}


@pytest.mark.parametrize(
    "schedule, detail",
    [
        ("[1]", "schedule must be an object, not list"),
        ('{"events": 5}', "schedule events must be a list, not int"),
        ('"x"', "schedule must be an object, not str"),
        ('{"events": ["AB"]}', "schedule event must be a list, not str"),
    ],
)
def test_schedule_of_the_wrong_shape_exits_2(capsys, schedule, detail):
    assert main(["synth", "--schedule", schedule]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": detail}


HEADER = {"t0": "1", "v0": ["a"]}


@pytest.mark.parametrize(
    "doc, detail",
    [
        ([], "trace must be an object, not list"),
        ({"header": [], "events": []}, "trace header must be an object, not list"),
        ({"header": HEADER, "events": 3}, "trace events must be a list, not int"),
        (
            {"header": {**HEADER, "t0": None}, "events": []},
            "trace t0 must be an integer, not NoneType",
        ),
        ({"header": {**HEADER, "v0": "ab"}, "events": []}, "trace v0 must be a list, not str"),
        ({"header": HEADER, "events": [7]}, "trace event must be an object, not int"),
        (
            {"header": HEADER, "events": [{"t": [2], "v": ["a"], "jumping": []}]},
            "trace event t must be an integer, not list",
        ),
        (
            {"header": HEADER, "events": [{"t": "2", "v": "a", "jumping": []}]},
            "trace event v must be a list, not str",
        ),
        (
            {"header": HEADER, "events": [{"t": "2", "v": ["a"], "jumping": 1}]},
            "trace event jumping must be a list, not int",
        ),
        (
            {"header": HEADER, "events": [{"t": "2", "v": ["a"], "jumping": [3]}]},
            "trace label 3 is not a string",
        ),
    ],
)
def test_trace_of_the_wrong_shape_exits_2(tmp_path, capsys, doc, detail):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(doc))
    assert main(["verify", "--trace", str(trace_path), "--k", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": detail}


def six_moment_trace(v0, repeat_in=None):
    """A k = 2 trace of six moments over a, b, c, with one list repeating a
    label: v0 as given, the third event's v or its jumping."""
    vectors = [["c", "b", "a"], ["b", "c", "a"], ["b", "a", "c"]] * 2
    events = [
        {"t": str(10 * (i + 1)), "v": v, "jumping": [v[0], v[-1]]} for i, v in enumerate(vectors)
    ]
    if repeat_in is not None:
        events[2][repeat_in] = ["b", "b", "a"] if repeat_in == "v" else ["c", "c"]
    return {"header": {"t0": "1", "v0": v0}, "events": events}


@pytest.mark.parametrize(
    "doc, detail",
    [
        (six_moment_trace(["a", "a", "b"]), "trace v0 repeats label 'a'"),
        (six_moment_trace(["a", "b", "c"], "v"), "trace event v repeats label 'b'"),
        (six_moment_trace(["a", "b", "c"], "jumping"), "trace event jumping repeats label 'c'"),
    ],
    ids=["v0", "v", "jumping"],
)
def test_trace_with_a_repeated_label_exits_2(tmp_path, capsys, doc, detail):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(doc))
    assert main(["verify", "--trace", str(trace_path), "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": detail}


@pytest.mark.parametrize(
    "at, event, detail",
    [
        (3, {"t": "5"}, "trace event t must increase: 5 follows 30"),
        (3, {"t": "30"}, "trace event t must increase: 30 follows 30"),
        (0, {"t": "1"}, "trace event t must increase: 1 follows 1"),
        (2, {"v": ["b", "a", "d"]}, "trace event v ['b', 'a', 'd'] is not a permutation of v0"),
        (2, {"v": ["b", "a"]}, "trace event v ['b', 'a'] is not a permutation of v0"),
    ],
    ids=["t-decreases", "t-repeats", "t-at-t0", "v-other-label", "v-missing-label"],
)
def test_trace_out_of_order_or_off_its_labels_exits_2(tmp_path, capsys, at, event, detail):
    doc = six_moment_trace(["a", "b", "c"])
    doc["events"][at].update(event)
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(doc))
    assert main(["verify", "--trace", str(trace_path), "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": detail}


def test_the_six_moment_trace_verifies_without_a_repeat(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(six_moment_trace(["a", "b", "c"])))
    assert main(["verify", "--trace", str(trace_path), "--k", "2"]) == 0


@pytest.mark.parametrize("k", [-1, 0])
@pytest.mark.parametrize("events", ["none", "six"])
def test_verify_refuses_k_below_1(tmp_path, capsys, k, events):
    doc = six_moment_trace(["a", "b", "c"])
    if events == "none":
        doc["events"] = []
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(doc))
    assert main(["verify", "--trace", str(trace_path), "--k", str(k)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": f"k must be >= 1, got {k}"}


def run_captured(argv):
    """main(argv)'s exit code and stderr; argparse's exit is a code too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, err.getvalue()


@settings(deadline=None, max_examples=60)
@given(
    trace_documents(),
    st.sampled_from(["verify", "export"]),
    st.sampled_from([2, 1, 0, -1, 2**64, None]),
)
@example({"header": {"t0": "2", "v0": ["a", "b"]}, "events": []}, "verify", -1)
@example(
    {
        "header": {
            "t0": "1",
            "v0": ["a", "b"],
            "sources": [["a", "periodic:[1;|1]"], ["b", "explicit:[1;2,3]"]],
        },
        "events": [{"t": "100", "v": ["b", "a"], "jumping": ["a"]}],
    },
    "export",
    None,
)
def test_trace_commands_exit_with_a_documented_code(doc, command, number):
    # verify takes the number as --k and export as --horizon, where None
    # leaves the flag out
    with tempfile.TemporaryDirectory() as directory:
        trace_path = os.path.join(directory, "trace.json")
        with open(trace_path, "w") as handle:
            json.dump(doc, handle)
        argv = [command, "--trace", trace_path, "--out", os.path.join(directory, "out")]
        if command == "verify":
            argv += ["--k", str(2 if number is None else number)]
        elif number is not None:
            argv += ["--horizon", str(number)]
        code, err = run_captured(argv)
    assert code in (0, 2, 3, 4, ("argparse", 2))
    if code in (2, 3, 4):
        assert err.endswith("\n")
        last = json.loads(err.splitlines()[-1])
        assert set(last) == {"error", "detail"} and isinstance(last["detail"], str)


@pytest.mark.parametrize("sources", [5, [["a"]], [["a", 7]], [[1, "periodic:[1;|1]"]]])
def test_export_of_a_trace_with_bad_sources_exits_2(tmp_path, capsys, sources):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({"header": {**HEADER, "sources": sources}, "events": []}))
    assert main(["export", "--trace", str(trace_path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "ValueError",
        "detail": "trace header sources must be a list of [label, spec] strings",
    }


FORM = "expected extremal:k=<int>:cycles=<int>"


@pytest.mark.parametrize(
    "preset, detail",
    [
        ("extremal:k=3", "missing key 'cycles' in 'extremal:k=3'"),
        ("extremal:k=3:cycles=2:z", "entry 'z' is not key=value in 'extremal:k=3:cycles=2:z'"),
        ("extremal:k=3:cycles=2:n=4", "unknown key 'n' in 'extremal:k=3:cycles=2:n=4'"),
        ("extremal:k=3:cycles=2:k=3", "duplicate key 'k' in 'extremal:k=3:cycles=2:k=3'"),
        ("extremal:k=3:cycles=two", "cycles='two' is not an integer in 'extremal:k=3:cycles=two'"),
    ],
)
def test_malformed_extremal_preset_exits_2(capsys, preset, detail):
    assert main(["synth", "--schedule", preset]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": f"{detail}; {FORM}"}


# ------------------------------------------------------------ file handling


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "outputs"))
    assert main(["pi", "--k", "2", "--json", "--out", "pi.json"]) == 0
    assert (tmp_path / "outputs" / "pi.json").exists()
    absolute = tmp_path / "direct.json"
    assert main(["pi", "--k", "2", "--json", "--out", str(absolute)]) == 0
    assert absolute.exists()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "deep" / "trace.json"
    assert main(["trace", "--sources", PHI, RT2, "--count", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert [p.name for p in out.parent.iterdir()] == ["trace.json"]


def test_atomic_write_honours_umask(tmp_path):
    out = tmp_path / "pi.txt"
    old = os.umask(0o022)
    try:
        assert main(["pi", "--k", "3", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_identical_configs_reproduce_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sources = {PHI} {RT2}\nt0 = 2\ncount = 8\n")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["trace", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["trace", "--config", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_export_refuses_sources_that_are_not_the_labels_of_v0(tmp_path, capsys):
    doc = {
        "header": {
            "t0": "2",
            "v0": ["a", "b"],
            "sources": [["a", "periodic:[1;|1]"], ["c", "periodic:[1;|2]"]],
        },
        "events": [{"t": "3", "v": ["b", "a"], "jumping": ["b"]}],
    }
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert main(["export", "--trace", str(trace_path), "--horizon", "50", "--out", str(out)]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "detail": "trace header sources name ['a', 'c'], not the labels of v0 ['a', 'b']",
    }


TRACE = {"header": {**HEADER, "sources": [["a", "periodic:[1;|1]"]]}, "events": []}


@pytest.mark.parametrize(
    "command, doc, detail",
    [
        ("synth", {}, "schedule has no key 'events'"),
        ("export", {"header": HEADER, "events": []}, "trace header has no key 'sources'"),
        ("verify", {"header": HEADER}, "trace has no key 'events'"),
        ("verify", {"events": []}, "trace has no key 'header'"),
        ("verify", {"header": {"v0": ["a"]}, "events": []}, "trace header has no key 't0'"),
        ("verify", {"header": {"t0": "1"}, "events": []}, "trace header has no key 'v0'"),
        ("export", {**TRACE, "events": [{"t": "2", "v": ["a"]}]},
         "trace event has no key 'jumping'"),
    ],
)
def test_a_missing_key_is_named_with_its_document(tmp_path, capsys, command, doc, detail):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "synth": ["synth", "--schedule", json.dumps(doc)],
        "export": ["export", "--trace", str(path)],
        "verify": ["verify", "--trace", str(path), "--k", "1"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "detail": detail}


def check_documented_exit(argv):
    code, err = run_captured(argv)
    assert code in (0, 2, 3, 4, ("argparse", 2))
    if code in (2, 3, 4):
        assert err.endswith("\n")
        last = json.loads(err.splitlines()[-1])
        assert set(last) == {"error", "detail"} and isinstance(last["detail"], str)


small = st.sampled_from(["-1", "0", "1", "2", "x", ""])
presets = st.builds("extremal:k={}:cycles={}".format, small, small) | st.sampled_from(
    ["extremal:", "extremal:k=2", "extremal:k=2:cycles=2:k=2", "extremal:k:cycles=1"]
)


def _schedule_fault(doc, fault):
    events = doc.get("events") if isinstance(doc, dict) else None
    if fault == "no-events" and isinstance(doc, dict):
        doc.pop("events", None)
    elif fault == "events-not-list" and isinstance(doc, dict):
        doc["events"] = "ab"
    elif fault == "event-not-list" and isinstance(events, list) and events:
        events[0] = "a"
    elif fault == "label" and isinstance(events, list) and events and isinstance(events[-1], list):
        events[-1].append(7)
    elif fault == "repeat" and isinstance(events, list) and events and isinstance(events[0], list):
        events[0].append(events[0][0] if events[0] else "a")
    elif fault == "empty-event" and isinstance(events, list):
        events.append([])
    elif fault == "no-event" and isinstance(doc, dict):
        doc["events"] = []
    elif fault == "bad-k" and isinstance(doc, dict):
        doc["k"] = 1.5
    elif fault == "not-object":
        return [doc]
    return doc


schedule_faults = st.sampled_from(
    ["no-events", "events-not-list", "event-not-list", "label", "repeat", "empty-event",
     "no-event", "bad-k", "not-object"]
)
schedule_documents = st.builds(
    lambda events, k, faults: json.dumps(
        reduce(_schedule_fault, faults, {"events": events, "k": k})
    ),
    st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
             min_size=1, max_size=4),
    st.sampled_from([None, 2, 3]),
    st.lists(schedule_faults, max_size=3),
)
config_lines = st.lists(
    st.sampled_from(["t0", "count", "horizon", "depth_limit"]).flatmap(
        lambda key: st.builds("{} = {}".format, st.just(key), small)
    )
    | st.sampled_from(["bogus = 1", "no separator", "# comment", ""]),
    max_size=4,
)
config_sources = st.sampled_from(
    ["periodic:[1;|1] periodic:[1;|2]", "a=periodic:[1;|1] b=explicit:[1;2,3]", "periodic:[1;|1]",
     "periodic:[1;|1] bogus:1", "'unclosed"]
)


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.tuples(st.just("synth"), presets | schedule_documents, st.sampled_from(["0", "100"])),
        st.tuples(st.just("config"), config_sources, config_lines),
        st.tuples(st.just("config-path"), st.sampled_from(["missing", "directory"]), st.none()),
    )
)
def test_synth_and_config_commands_exit_with_a_documented_code(case):
    kind, first, second = case
    with tempfile.TemporaryDirectory() as directory:
        out = ["--out", os.path.join(directory, "out")]
        if kind == "synth":
            argv = ["synth", "--schedule", first, "--search-bound", second] + out
        else:
            path = os.path.join(directory, "run.conf")
            if kind == "config":
                with open(path, "w") as handle:
                    handle.write("\n".join([f"sources = {first}"] + second) + "\n")
            elif first == "directory":
                os.mkdir(path)
            argv = ["trace", "--config", path] + out
        check_documented_exit(argv)
