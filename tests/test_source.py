"""Source gates over the package modules, with the standard library only."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "rpsf"
# __init__.py re-exports what it imports, so its imports are its API
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# an import kept on purpose says so on its line, with the reason after the code
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def unused_imports(text: str) -> list[str]:
    """Names bound by module-level imports that the module never reads,
    except those whose line carries ``# noqa: F401`` and a reason."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not KEPT.search(lines[alias.lineno - 1]):
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_gate_sees_an_unused_name_and_a_kept_one():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "from json import dumps, loads\n"
            "from sys import (\n"
            "    argv,  # noqa: F401  read by a test that patches it\n"
            "    path,  # noqa: F401\n"
            ")\n"
            "loads('1')\n")
    assert unused_imports(text) == ["line 2: os", "line 3: dumps", "line 6: path"]
