"""The package root exports what the README's library sketch imports.

Everything else is imported from its module, so a name added to the root
for one caller shows up here.
"""

import ast
import re
import types
from pathlib import Path

import irrmeasure

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
