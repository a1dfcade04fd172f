"""The benchmark's tracer wraps program bindings by name; each must exist.

``perfbench/spans.py`` is read and executed here without being imported as
a file module, so nothing is written beside it.
"""

import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_binding_exists():
    if not SPANS.exists():
        pytest.skip("perfbench is not in this tree")
    spans = types.ModuleType("perfbench_spans")
    spans.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    targets, quantity = spans._targets()
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    assert "__post_init__" in vars(quantity)
