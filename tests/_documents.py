"""Hypothesis strategies for trace documents, well formed or with faults.

A well-formed document is one ChangeTrace.from_document reads: t0 and v0
in its header, and events whose t increase from t0, whose v permute v0
and whose jumping lists hold distinct string labels.  trace_documents
draws such a document and then applies none, one or several of the
faults below, each at a drawn event, key or value, or to the header.
"""

from itertools import accumulate

from hypothesis import strategies as st

LABELS = ("a", "b", "c", "d", "e")
# specs a header's sources may name: two that trace anywhere, one that runs
# out at its fourth quotient, and two that do not parse
SPECS = ("periodic:[1;|1]", "periodic:[1;|2]", "explicit:[1;2,3]", "bogus:1", "periodic:[1;]")

integer_forms = st.sampled_from([str, int])


@st.composite
def well_formed_documents(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    t0 = draw(st.integers(-2, 40))
    steps = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    events = [
        {
            "t": draw(integer_forms)(t),
            "v": list(draw(st.permutations(labels))),
            "jumping": draw(st.lists(st.sampled_from(labels + ["z"]), unique=True, max_size=3)),
        }
        for t in (t0 + step for step in accumulate(steps))
    ]
    header = {"t0": draw(integer_forms)(t0), "v0": labels}
    if draw(st.booleans()):
        header["sources"] = [[label, draw(st.sampled_from(SPECS))] for label in labels]
    if draw(st.booleans()):
        header["version"] = "0.1.0"
        header["depth_limit"] = draw(st.integers(0, 64))
    return {"header": header, "events": events}


def _event(draw, doc):
    """A drawn event of doc and its index, or (None, None) without events."""
    events = doc["events"]
    if not events:
        return None, None
    i = draw(st.integers(0, len(events) - 1))
    return i, events[i]


def _row_not_an_object(draw, doc):
    i, _ = _event(draw, doc)
    if i is not None:
        doc["events"][i] = draw(st.sampled_from([1, "t", None, [], True]))


def _missing_key(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict):
        e.pop(draw(st.sampled_from(["t", "v", "jumping"])), None)


def _bad_t(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict):
        e["t"] = draw(
            st.sampled_from([True, False, 1.5, None, "x", "", "1e3", " 7", "0x10", "1_0"])
        )


def _not_a_list(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict):
        key = draw(st.sampled_from(["v", "jumping"]))
        e[key] = draw(st.sampled_from(["ab", 5, None, {"a": 1}]))


def _not_a_str_label(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict):
        labels = e.get(draw(st.sampled_from(["v", "jumping"])))
        if isinstance(labels, list):
            at = draw(st.integers(0, len(labels)))
            labels.insert(at, draw(st.sampled_from([3, None, 1.5, True, ["a"]])))


def _repeated_label(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict):
        labels = e.get(draw(st.sampled_from(["v", "jumping"])))
        if isinstance(labels, list):
            label = draw(st.sampled_from(labels)) if labels else "z"
            labels.insert(draw(st.integers(0, len(labels))), label)
            labels.insert(draw(st.integers(0, len(labels))), label)


def _not_a_permutation(draw, doc):
    _, e = _event(draw, doc)
    if isinstance(e, dict) and isinstance(e.get("v"), list) and e["v"]:
        v = e["v"]
        at = draw(st.integers(0, len(v) - 1))
        how = draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "replace":
            v[at] = "zz"
        elif how == "drop":
            del v[at]
        else:
            v.insert(at, "zz")


def _t_not_increasing(draw, doc):
    i, e = _event(draw, doc)
    if isinstance(e, dict):
        before = doc["events"][i - 1] if i else doc["header"]
        previous = before.get("t" if i else "t0") if isinstance(before, dict) else None
        if type(previous) is int or type(previous) is str and previous.lstrip("-").isdigit():
            e["t"] = draw(integer_forms)(int(previous) - draw(st.integers(0, 3)))


def _no_events(draw, doc):
    doc["events"] = []


def _bad_header(draw, doc):
    header = doc["header"]
    fault = draw(
        st.sampled_from(["v0-repeat", "v0-not-list", "v0-label", "t0", "t0-missing", "not-object"])
    )
    if fault == "v0-repeat" and isinstance(header.get("v0"), list):
        header["v0"] = header["v0"] + header["v0"][:1]
    elif fault == "v0-not-list":
        header["v0"] = "abc"
    elif fault == "v0-label" and isinstance(header.get("v0"), list):
        header["v0"] = header["v0"] + [7]
    elif fault == "t0":
        header["t0"] = draw(st.sampled_from([1.0, None, "two"]))
    elif fault == "t0-missing":
        header.pop("t0", None)
    elif fault == "not-object":
        doc["header"] = ["t0", "v0"]


FAULTS = (
    _bad_header,
    _row_not_an_object,
    _missing_key,
    _bad_t,
    _not_a_list,
    _not_a_str_label,
    _repeated_label,
    _not_a_permutation,
    _t_not_increasing,
    _no_events,
)


@st.composite
def trace_documents(draw, first=None):
    """A well-formed document with the fault first, if given, and then up
    to three drawn faults applied in turn."""
    doc = draw(well_formed_documents())
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in [first, *faults] if first else faults:
        if isinstance(doc["header"], dict):
            fault(draw, doc)
    return doc
