"""Source gates over the package modules, with the standard library only."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "rpsf"
# __init__.py re-exports what it imports, so its imports are its API
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the one function that may call dataclasses.dataclass: money.record, which
# gives every record class the shared __repr__, __eq__ and __hash__
RECORD_HELPER = ("money.py", "record")
# an import kept on purpose says so on its line, with the reason after the code
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")
# the classes that may write their own JSON; every other record gets a codec
# row and ``to_dict = value_to_dict``
OWN_ENCODERS = {
    "SynthesisResult": "writes witness_count, which no field holds, and an untyped grounding",
    "Witness": "writes its actions only; origin is the search state, which has no JSON form",
}


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


def bare_dataclasses(text: str, helper_name: str = "") -> list[str]:
    """Reads of ``dataclasses.dataclass`` or ``make_dataclass`` outside the
    function ``helper_name``: a class made there would have its methods
    generated and compiled again instead of sharing the record methods."""
    tree = ast.parse(text)
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == helper_name:
            helper.update(id(inner) for inner in ast.walk(node))
    makers, modules = {"dataclass", "make_dataclass"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            makers.update(a.asname for a in node.names if a.asname
                          and a.name in ("dataclass", "make_dataclass"))
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "dataclasses")
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in makers:
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute) and node.attr in ("dataclass", "make_dataclass")
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_is_a_record(module):
    helper_name = RECORD_HELPER[1] if module == RECORD_HELPER[0] else ""
    assert bare_dataclasses((PACKAGE / module).read_text(), helper_name) == []


def test_the_gate_sees_each_way_round_the_record_helper():
    text = ("import dataclasses\n"
            "import dataclasses as dc\n"
            "from dataclasses import dataclass, field, make_dataclass as md\n"
            "def record(**options):\n"
            "    return lambda cls: dataclass(cls, **options)\n"
            "@record(frozen=True)\n"
            "class Kept:\n"
            "    x: int = field(default=0)\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    x: int\n"
            "@dataclasses.dataclass\n"
            "class B:\n"
            "    x: int\n"
            "C = dc.dataclass(type('C', (), {}))\n"
            "D = md('D', ['x'])\n")
    assert bare_dataclasses(text, "record") == [
        "line 9: dataclass", "line 12: dataclasses.dataclass", "line 15: dc.dataclass",
        "line 16: md"]
    assert bare_dataclasses(text)[0] == "line 5: dataclass"  # outside money.py


def hand_written_encoders(text: str) -> list[str]:
    """Every ``def to_dict``, named by the class that holds it, or by
    ``<module>`` when no class does."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == "to_dict":
                found.append(owner)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
    visit(ast.parse(text), "<module>")
    return found


def test_only_the_allowed_classes_write_their_own_json():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in hand_written_encoders(path.read_text())]
    assert sorted(found) == sorted(OWN_ENCODERS)
    assert all(reason.strip() for reason in OWN_ENCODERS.values())


def test_the_gate_sees_a_hand_written_encoder():
    text = ("class Coded:\n"
            "    to_dict = value_to_dict\n"
            "class Written:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "def to_dict(value):\n"
            "    return {}\n"
            "class Outer:\n"
            "    class Inner:\n"
            "        def to_dict(self):\n"
            "            return {}\n"
            "    def as_json(self):\n"
            "        return {}\n")
    assert hand_written_encoders(text) == ["Written", "<module>", "Inner"]
