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
# the classes that may write their own JSON; every other record gets a codec
# row and ``to_dict = value_to_dict``
OWN_ENCODERS = {
    "Witness": "writes its actions only; its opening world and pending settlements "
               "have no JSON form",
}


def _unused(imports, scope: ast.AST, lines: list[str]) -> list[str]:
    """The names ``imports`` bind that nothing in ``scope`` reads, except
    those whose line carries ``# noqa: F401`` and a reason."""
    read = {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for statement in imports:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not KEPT.search(lines[alias.lineno - 1]):
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def unused_imports(text: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(text)
    imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
    return _unused(imports, tree, text.splitlines())


def unused_function_imports(text: str) -> list[str]:
    """Names a function imports, at any depth of its body, that the
    function never reads; an import in a nested function belongs to that
    function."""
    lines, unused = text.splitlines(), []

    def own(node: ast.AST):  # the nodes under ``node`` outside nested scopes
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                yield child
                yield from own(child)

    for function in ast.walk(ast.parse(text)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = [s for s in own(function) if isinstance(s, (ast.Import, ast.ImportFrom))]
            unused += _unused(imports, function, lines)
    return sorted(unused, key=lambda entry: int(entry.split()[1].rstrip(":")))


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_in_a_function_is_read(module):
    assert unused_function_imports((PACKAGE / module).read_text()) == []


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


def test_the_gate_sees_an_unused_name_in_a_function():
    text = ("import os\n"
            "def command(args):\n"
            "    from json import dumps, loads\n"
            "    if args:\n"
            "        import re, sys  # noqa: F401  kept for a caller that patches it\n"
            "        from math import lcm\n"
            "    def inner():\n"
            "        from os import path\n"
            "        return loads(args)\n"
            "    return inner\n"
            "class Shell:\n"
            "    def run(self):\n"
            "        import shlex as quoting\n"
            "        return os.sep\n")
    assert unused_function_imports(text) == [
        "line 3: dumps", "line 6: lcm", "line 8: path", "line 13: quoting"]


def dataclasses_imports(text: str) -> list[str]:
    """Every import of ``dataclasses``, under any name and at any depth.

    Importing it loads ``inspect`` and ``ast`` into every command; the
    record classes come from ``money.record`` instead."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(name == "dataclasses" or name.startswith("dataclasses.") for name in names):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


# With no module importing dataclasses, every class with fields is a record.
@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_is_a_record(module):
    assert dataclasses_imports((PACKAGE / module).read_text()) == []


def test_the_gate_sees_each_way_round_the_record_helper():
    text = ("import dataclasses\n"
            "import os, dataclasses as dc\n"
            "from dataclasses import field\n"
            "from json import dumps\n"
            "def make():\n"
            "    from dataclasses import dataclass as d\n"
            "    return __import__('dataclasses'), importlib.import_module('dataclasses')\n"
            "print('dataclasses')\n"
            "dataclasses_like = 1\n")
    assert dataclasses_imports(text) == [
        "line 1", "line 2", "line 3", "line 6", "line 7", "line 7"]


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


def declared_fields(text: str) -> dict[str, list[str]]:
    """Each class's annotated names in body order: a record's fields."""
    return {node.name: [s.target.id for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)}


def restated_codec_rows(text: str, classes: dict[str, list[str]]) -> list[str]:
    """Every ``codec_row`` call whose keys are its class's declared fields in
    order, which is what the row takes when it names no keys."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "codec_row"):
            continue
        keys = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "keys"), None)
        cls = getattr(node.args[0], "id", None)
        if (isinstance(keys, ast.Constant) and isinstance(keys.value, str)
                and keys.value.split() == classes.get(cls)):
            found.append((node.lineno, cls))
    return [f"line {line}: {cls}" for line, cls in sorted(found)]


def test_no_codec_row_restates_its_fields():
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    classes = {name: names for text in texts.values()
               for name, names in declared_fields(text).items()}
    assert [f"{module} {entry}" for module, text in texts.items()
            for entry in restated_codec_rows(text, classes)] == []


def test_the_gate_sees_a_restated_codec_row():
    text = ("class Pair:\n"
            "    left: int\n"
            "    right: int = 0\n"
            "    def total(self) -> int:\n"
            "        return self.left + self.right\n"
            "class Empty:\n"
            "    pass\n"
            "codec_row(Pair)\n"
            "codec_row(Pair, 'left right', omit='right')\n"
            "codec_row(Pair, 'right left')\n"
            "codec_row(Pair, 'first=left right')\n"
            "world.codec_row(Pair, keys='left '\n"
            "                'right')\n"
            "codec_row(Empty, '')\n"
            "codec_row(Elsewhere, 'left right')\n")
    assert restated_codec_rows(text, declared_fields(text)) == [
        "line 9: Pair", "line 12: Pair", "line 14: Empty"]


def leading_key(row, declared) -> tuple[str, str | None]:
    """A codec row's least JSON key, and the field under it if every
    encoding holds it, which a field with no default does; else None."""
    key, name = min(row.keys)
    return key, None if next(f for f in declared if f.name == name).has_default else name


def test_every_frozen_action_starts_with_its_actor():
    # Enumeration returns one choice assignment's traces in the order its
    # lattice yields them, unsorted. That order is the key order because two
    # paths first part at events of different actors, as a plan acts for its
    # own agent only (tests/test_engine.py::TestRun::test_rejections
    # [acts-for-another]), and a frozen action, its encoding's sorted items,
    # starts with ("actor", name). A key that sorts before "actor", or an
    # actor that the encoder may leave out, would reorder `rpsf enumerate`.
    from rpsf.money import fields
    from rpsf.world import Action, _ROWS

    assert leading_key(_ROWS[Action], fields(Action)) == ("actor", "actor")


def test_the_gate_sees_a_key_before_the_actor_and_an_actor_left_out():
    from rpsf.money import fields, record
    from rpsf.world import _Row

    @record(frozen=True, slots=True)
    class Act:
        kind: str
        actor: str
        amount: int = 0

    @record(frozen=True, slots=True)
    class Anonymous:
        kind: str
        actor: str = ""

    def row(keys: str):
        return _Row(tuple(tuple(k.split("=")) if "=" in k else (k, k) for k in keys.split()),
                    frozenset(), {})

    assert leading_key(row("kind actor amount"), fields(Act)) == ("actor", "actor")
    assert leading_key(row("kind agent=actor amount"), fields(Act)) == ("agent", "actor")
    assert leading_key(row("kind actor account=amount"), fields(Act)) == ("account", None)
    assert leading_key(row("kind actor"), fields(Anonymous)) == ("actor", None)


# parameters that nothing reads, each kept because its caller passes it
UNREAD_PARAMETERS = {
    "legality.py judge(instance)": "public signature: every caller, perfbench's among them, "
                                   "passes the scenario with the progression it judges",
    "legality.py __get__(owner)": "descriptor protocol: Python passes the owner class",
    "money.py _frozen_setattr(value)": "installed as __setattr__, which Python calls with the "
                                       "value it refuses",
    "money.py <lambda>(obj)": "the zero-field getter: called with the record, as every "
                              "fields getter is",
}


def unread_parameters(text: str) -> list[str]:
    """Every parameter of a function or lambda that nothing in its body
    reads (a nested function's read counts), as ``line N: name(parameter)``.
    A method's receiver ``self`` is bound whether or not it is read."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [(node.lineno, f"{getattr(node, 'name', '<lambda>')}({arg.arg})")
                  for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                              args.kwarg)
                  if arg is not None and arg.arg != "self" and arg.arg not in read]
    return [f"line {line}: {entry}" for line, entry in sorted(found, key=lambda f: f[0])]


def test_every_parameter_is_read_or_kept_with_a_reason():
    found = {f"{path.name} {entry.split(': ', 1)[1]}" for path in sorted(PACKAGE.glob("*.py"))
             for entry in unread_parameters(path.read_text())}
    assert found == set(UNREAD_PARAMETERS)
    assert all(reason.strip() for reason in UNREAD_PARAMETERS.values())


def test_the_gate_sees_an_unread_parameter():
    text = ("def used(a, *args, b=1, **kw):\n"
            "    return a, args, b, kw\n"
            "def unused(a, /, b, *, c=0):\n"
            "    return b\n"
            "class Box:\n"
            "    def get(self, key, default=None):\n"
            "        def inner(x):\n"
            "            return key\n"
            "        return inner\n"
            "skip = lambda value: None\n"
            "def spread(*args, **kwargs):\n"
            "    args = ()\n")
    assert unread_parameters(text) == [
        "line 3: unused(a)", "line 3: unused(c)", "line 6: get(default)", "line 7: inner(x)",
        "line 10: <lambda>(value)", "line 11: spread(args)", "line 11: spread(kwargs)"]


def ad_hoc_needs(text: str) -> list[str]:
    """Every ``if action.<field> is None:`` or ``if promise.<field> is None:``
    whose body raises ``ValidationError``, outside ``_need``: what an action
    of each kind must carry is stated once, in ``world._NEEDS``."""
    found = []

    def missing_field(test: ast.AST) -> bool:
        return (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.left, ast.Attribute)
                and getattr(test.left.value, "id", None) in ("action", "promise")
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None)

    def raises_validation(body: list[ast.stmt]) -> bool:
        return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None))
                   == "ValidationError"
                   for statement in body for node in ast.walk(statement))

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If) and owner != "_need" and missing_field(child.test)
                    and raises_validation(child.body)):
                found.append(f"line {child.lineno}: {ast.unparse(child.test)}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else owner)
    visit(ast.parse(text), "<module>")
    return found


def test_each_kind_states_what_it_carries_in_one_table():
    assert [f"{path.name} {entry}" for path in sorted(PACKAGE.glob("*.py"))
            for entry in ad_hoc_needs(path.read_text())] == []


def test_the_gate_sees_an_ad_hoc_need():
    text = ("def apply(action):\n"
            "    if action.good_id is None:\n"
            "        raise ValidationError('needs a good')\n"
            "    elif promise.amount is None:\n"
            "        if ready:\n"
            "            raise world.ValidationError('needs an amount')\n"
            "    if action.due_date is not None:\n"
            "        raise ValidationError('has a date')\n"
            "    if action.contract_id is None:\n"
            "        raise UnknownReference('no contract')\n"
            "    if record.stage is None:\n"
            "        raise ValidationError('no stage')\n"
            "    if action.channel is None:\n"
            "        return\n"
            "def _need(action):\n"
            "    if action.amount is None:\n"
            "        raise ValidationError('needs an amount')\n")
    assert ad_hoc_needs(text) == [
        "line 2: action.good_id is None", "line 4: promise.amount is None"]


def _owned_nodes(text: str):
    """Every node with the function that holds it, named ``Class.method``
    for a method and ``<module>`` outside any function; a lambda belongs to
    the function around it."""
    def visit(node: ast.AST, owner: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            yield child, owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, prefix + child.name, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, owner, prefix + child.name + ".")
            else:
                yield from visit(child, owner, prefix)
    yield from visit(ast.parse(text), "<module>", "")


def callers(text: str, name: str) -> list[str]:
    """The functions that call ``name``, bare or as an attribute, once each
    in the order of their first call."""
    found = [owner for node, owner in _owned_nodes(text) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return list(dict.fromkeys(found))


def test_only_the_successor_step_applies_an_event_in_the_engine():
    # run and enumeration both step through _step, the one place an event
    # is applied, so every scheduled trace is an enumerated one
    assert callers((PACKAGE / "engine.py").read_text(), "apply_event") == ["_step"]


def test_the_gate_sees_each_caller_of_a_name():
    text = ("apply_event(world, a, 0)\n"
            "def _step(world):\n"
            "    return apply_event(world, a, 0)\n"
            "class Memo:\n"
            "    def keep(self, world):\n"
            "        def again():\n"
            "            return world_module.apply_event(world, a, 0)\n"
            "        return (lambda w: apply_event(w, a, 0))(world)\n"
            "def quiet(world):\n"
            "    return apply_event\n")
    assert callers(text, "apply_event") == ["<module>", "_step", "Memo.keep.again", "Memo.keep"]


def seq_spelt_ids(text: str) -> list[str]:
    """The functions that spell an id from a sequence number: an f-string
    in which ``seq`` or some ``x.seq`` follows a hyphen, as in
    ``credit-{seq}``."""
    def spelt(node: ast.AST) -> bool:
        parts = node.values if isinstance(node, ast.JoinedStr) else []
        return any(isinstance(before, ast.Constant) and before.value.endswith("-")
                   and isinstance(part, ast.FormattedValue)
                   and "seq" in (getattr(part.value, "id", None), getattr(part.value, "attr", None))
                   for before, part in zip(parts, parts[1:]))
    return list(dict.fromkeys(owner for node, owner in _owned_nodes(text) if spelt(node)))


def test_the_seq_named_contract_rule_is_stated_once():
    # apply_event names a contract credit-{seq} or promise-{seq} in one
    # helper, and enumeration's node table reads the same helper to know
    # which steps' outcome depends on their sequence number
    world, engine = ((PACKAGE / name).read_text() for name in ("world.py", "engine.py"))
    assert [f"{path.name} {owner}" for path in sorted(PACKAGE.glob("*.py"))
            for owner in seq_spelt_ids(path.read_text())] == ["world.py seq_named_contract"]
    assert callers(world, "seq_named_contract") == ["apply_event"]
    assert callers(engine, "seq_named_contract") == ["_Lattice.extend"]


def test_the_gate_sees_an_id_spelt_from_a_sequence_number():
    text = ("def apply(action, seq):\n"
            "    return action.contract_id or f'credit-{seq}'\n"
            "class Log:\n"
            "    def line(self, event):\n"
            "        return f'event {event.seq:>4}: {event.action}'\n"
            "    def name(self, event, prefix):\n"
            "        return f'{prefix}-{event.seq}'\n"
            "def label(n):\n"
            "    return f'{n}-{seqs}' + 'promise-{seq}'\n")
    assert seq_spelt_ids(text) == ["apply", "Log.name"]
