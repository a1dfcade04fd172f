"""The line probe's statement collector and tracer, on a planted module."""

import importlib.util
import sys
import textwrap
import threading

from line_probe import LineProbe, statements, unrun

PLANTED = textwrap.dedent('''\
    import os

    LIMIT = 3


    class Box:
        size = 1

        def grow(self, n):
            """Stored with the function, never run."""
            global LIMIT
            if n > LIMIT:
                raise ValueError(
                    "too big")
            return n


    @staticmethod
    def outer(items):
        @staticmethod
        def inner(x):
            return x
        try:
            total = sum(
                map(inner, items))
        except TypeError:
            return None
        return total
''')


def test_only_function_bodies_hold_statements():
    # module-level and class-body lines run at import; a docstring and a
    # global declaration never run
    assert statements(PLANTED) == {
        12: range(12, 13), 13: range(13, 15), 15: range(15, 16),
        20: range(20, 22), 22: range(22, 23), 23: range(23, 24),
        24: range(24, 26), 27: range(27, 28), 28: range(28, 29),
    }


def test_a_statement_runs_when_any_line_of_its_head_runs():
    # the raise's second line counts, and so does the def under a decorator;
    # the body under the try does not count for the try
    assert unrun(PLANTED, {12, 14, 15, 21, 24, 28}) == [22, 23, 27]
    assert unrun(PLANTED, set()) == sorted(statements(PLANTED))


def test_the_tracer_sees_which_statements_run(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    probe = LineProbe([path])
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.gettrace(), threading.gettrace()
    probe.install()
    try:
        spec.loader.exec_module(module)
        assert module.Box().grow(2) == 2
        assert module.outer([1, 2]) == 3
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    assert unrun(PLANTED, next(iter(probe.ran.values()))) == [13, 27]
