"""Random parameters and options on the command line: documented exit codes only."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.cli import main  # noqa: E402
from rpsf.scenarios import get_spec, scenario_names  # noqa: E402

NAMES = scenario_names()
KEYS = sorted({p.name for name in NAMES for p in get_spec(name).params}) + ["", "zz"]
VALUES = st.one_of(
    st.sampled_from(("0", "-1", "1/3", "1/0", "abc", "true", "ture", "NO", "", "2.5", "1e3",
                     "pledge-of-goods", "all", " 7 ")),
    st.integers(-5, 400).map(str),
    st.text(max_size=4),
)
PAIRS = st.lists(st.builds("{}={}".format, st.sampled_from(KEYS), VALUES), max_size=3)
NUMBERS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(("x", "", "1.5")))


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(("run", "judge", "enumerate", "synthesize")))
    scenario = draw(st.sampled_from(NAMES))
    argv = [command]
    if command == "synthesize":
        argv += ["--target", scenario, "--bound", str(draw(st.integers(-1, 4)))]
        argv += draw(_option("--max-witnesses", NUMBERS))
    else:
        argv.append(scenario)
    if command in ("run", "judge"):
        argv += draw(_option("--horizon", NUMBERS))
        argv += draw(_option("--seed", NUMBERS))
        argv += draw(st.sampled_from(([], ["--strategy", "random"])))
    if command == "enumerate":
        argv += draw(_option("--bound", NUMBERS))
    argv += draw(PAIRS)
    argv += draw(st.sampled_from(([], ["--format", "json"])))
    return argv


@given(command_lines())
def test_random_command_line_exits_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
    assert code in (0, 2, 3, 4, 5), argv
