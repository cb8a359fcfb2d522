"""The package root exports what the README's library sketch imports.

Everything else is imported from its module, so a name added to the root
for one caller shows up here.  The library's argument refusals, which no
command reaches, are checked here word for word.
"""

import ast
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import irrmeasure
from irrmeasure import cf_engine
from irrmeasure.cf_engine import RationalBracket, RuleSource, parse_source
from irrmeasure.order_dynamics import FunctionTuple, build_events, change_trace
from irrmeasure.psi import ApproximationError

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_sketch_runs_as_written(capsys):
    exec(library_sketch(), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_the_root_exports_the_sketch_names_and_the_version():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_sketch()))
        if isinstance(node, ast.ImportFrom) and node.module == "irrmeasure"
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(irrmeasure).items()
        if (name == "__version__" or not name.startswith("_"))
        and not isinstance(value, types.ModuleType)
    }
    assert imported
    assert public == imported | {"__version__"}


def phi():
    return parse_source("periodic:[1;|1]")


REFUSALS = {
    "dynamics need at least two members": lambda: change_trace(
        FunctionTuple.build([("a", phi())]), 1, count=1
    ),
    "tuple must not be empty": lambda: FunctionTuple(()),
    "horizon must be >= 1": lambda: build_events(
        FunctionTuple.build([("a", phi()), ("b", parse_source("periodic:[1;|2]"))]), 0
    ),
    "term index must be >= 0": lambda: phi().term(-1),
    "level index must be >= 0": lambda: ApproximationError(phi(), -1),
    "rule 'e' takes no parameter": lambda: RuleSource("e", 3),
    "unknown rule 'x'": lambda: RuleSource("x"),
    "bracket needs depth >= 2": lambda: cf_engine.bracket(phi(), 1),
    "bracket endpoints out of order: 1 > 0": lambda: RationalBracket(Fraction(1), Fraction(0)),
}


@pytest.mark.parametrize("message", REFUSALS)
def test_a_library_refusal_says_exactly_what_it_refuses(message):
    with pytest.raises(ValueError) as refused:
        REFUSALS[message]()
    assert str(refused.value) == message
