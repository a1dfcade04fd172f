"""Pin the test suite to this tree's sources, whatever pip has installed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "src"))

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, no per-example deadline (shared hosts run
    # in slow bursts), and few enough examples to keep the suite quick.
    settings.register_profile("rpsf", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("rpsf")
