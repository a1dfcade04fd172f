"""Line probe: the function-body statements of ``src/rpsf`` that tier-1 never runs.

Run it as a script, as ``tests/test_transcript.py`` is run (pytest does not
collect it, since its name does not start with ``test_``)::

    python tests/line_probe.py [pytest arguments]

It runs the tier-1 suite (``tests`` and ``perfbench``, or the pytest
arguments given) in this one process under a ``sys.settrace`` line tracer,
then prints, per module, each statement in a function body that no test
ran, as ``path:line: source``, and exits with pytest's status.

- Module-level and class-body statements are left out: they run once, at
  import, whatever the tests do.
- The tracer is installed again before each test's setup and call, since
  hypothesis replaces it while it runs a test. A probe that installed it
  once reported ``ActionTemplate.matches`` and ``make_world`` as never run.
- A test that runs the CLI in a subprocess is not traced, so a statement
  that only a subprocess reaches is reported. So is one that runs after a
  ``RecursionError`` in the same test: CPython unsets a tracer that raises,
  and the tracer raises when it is called at the recursion limit.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rpsf"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DECLARATIONS = (ast.Global, ast.Nonlocal)  # compiled to no code, so they never run


def statements(source: str) -> dict[int, range]:
    """Each function-body statement of ``source`` by its first line, with
    the lines of its head: a line event on any of them means it ran.

    A simple statement's head is all its lines. A compound statement's head
    ends before its body, and a decorated definition's begins at its first
    decorator. A statement of a function nested in another, or of a class
    defined inside a function, is in a function body; a function's
    docstring and a ``global`` or ``nonlocal`` declaration are not
    statements here, since they do not run.
    """
    found: dict[int, range] = {}

    def visit(node: ast.AST, in_function: bool) -> None:
        body = getattr(node, "body", None)
        docstring = (body[0] if isinstance(node, _DEFS) and isinstance(body[0], ast.Expr)
                     and isinstance(body[0].value, ast.Constant)
                     and isinstance(body[0].value.value, str) else None)
        for child in ast.iter_child_nodes(node):
            if (in_function and isinstance(child, ast.stmt) and child is not docstring
                    and not isinstance(child, _DECLARATIONS)):
                start = min([child.lineno, *(d.lineno for d in
                                             getattr(child, "decorator_list", ()))])
                inner = getattr(child, "body", None)
                end = inner[0].lineno - 1 if inner else child.end_lineno
                found[start] = range(start, max(start, end) + 1)
            visit(child, in_function or isinstance(child, _DEFS))

    visit(ast.parse(source), False)
    return found


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the function-body statements of ``source`` none of
    whose head lines is in ``ran``."""
    return sorted(start for start, head in statements(source).items() if ran.isdisjoint(head))


class LineProbe:
    """A ``sys.settrace`` tracer that records which lines of ``files`` run."""

    def __init__(self, files):
        self.ran: dict[str, set[int]] = {os.path.realpath(f): set() for f in files}
        self._where: dict[str, str | None] = {}  # co_filename -> its key in ran, or None

    def _trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        key = self._where.get(name, "")
        if key == "":
            real = os.path.realpath(name)
            key = self._where[name] = real if real in self.ran else None
        if key is None:
            return None
        ran = self.ran[key]

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line

    def install(self) -> None:
        sys.settrace(self._trace)
        threading.settrace(self._trace)


class _Reinstall:
    """A pytest plugin that installs the probe again at every test."""

    def __init__(self, probe: LineProbe):
        self.probe = probe

    def pytest_runtest_setup(self, item):
        self.probe.install()

    def pytest_runtest_call(self, item):
        self.probe.install()


def main(argv: list[str]) -> int:
    import pytest

    files = sorted(PACKAGE.glob("*.py"))
    probe = LineProbe(files)
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests"), str(ROOT / "perfbench")]
    probe.install()
    try:
        status = pytest.main(["--rootdir", str(ROOT), *args], plugins=[_Reinstall(probe)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        total += len(statements(source))
        never = unrun(source, probe.ran[os.path.realpath(path)])
        missed += len(never)
        where = path.relative_to(ROOT)
        print(f"\n{where}: {len(never)} statement(s) no test runs")
        for start in never:
            print(f"  {where}:{start}: {lines[start - 1].strip()}")
    print(f"\n{missed} of {total} function-body statements are not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
