"""Identical invocations give identical bytes, whatever the hash seed.

The transcript pins are taken in one process, so an output that leaked a
set's or a dict's hash order would still match itself there. Each command
here runs as ``python -m rpsf.cli`` in a fresh interpreter under three
``PYTHONHASHSEED`` values: seeds 1 and 2 alone order the grounding's
three coordination actions alike when they come from a set.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"


def _cli(seed: str, *argv: str) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "rpsf.cli", *argv], capture_output=True,
                          env=env, timeout=120)
    return done.returncode, done.stdout


@pytest.mark.parametrize("argv", [
    ("run", "tawarruq_classic", "--format", "json"),
    ("judge", "ina_two_party", "--position", "MAJORITY", "--format", "json"),
    ("synthesize", "--target", "savings_account_with_interest", "--bound", "4",
     "--format", "json"),
    ("enumerate", "tawarruq_classic", "-v", "--format", "json"),
], ids=" ".join)
def test_a_command_gives_the_same_bytes_under_each_hash_seed(argv):
    first = _cli("1", *argv)
    assert first[1]  # the command printed its result
    assert _cli("2", *argv) == _cli("3", *argv) == first
