"""Host speed probes, so that runs on a shared host can be compared.

On a host shared with other tenants, the same Python code runs up to
twice as slowly while neighbours are busy, in stretches of seconds to
minutes. A benchmark run's median then depends on how much of that run
fell in a slow stretch, and two sets of runs minutes apart disagree by
more than any useful bound. So every timed operation is bracketed by a
fixed pure-Python probe, and its time is scaled by ``REFERENCE_S`` over
the probe's time: the latency the operation would have had with the host
at reference speed. The probe uses only the standard library, so no
change to rpsf can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import Callable, TypeVar

T = TypeVar("T")

# Probe time at reference speed, roughly what one probe takes on a 2-vCPU
# Intel Xeon VM with Python 3.11. Any constant would do; it only sets the
# unit in which scaled times read.
REFERENCE_S = 0.0006

# probes per reading; the fastest is kept, so a single interruption of a
# probe does not read as a slow host
PROBES = 3


def _probe() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 200):
        total += Fraction(i % 97, 100)
        seen[(i % 13, i)] = total
    sorted(seen.items())
    return time.perf_counter() - start


def reading() -> float:
    """Seconds the probe takes now.

    The collector is off meanwhile: a collection it triggered would walk
    the caller's heap and time that instead of the host.
    """
    gc.disable()
    try:
        return min(_probe() for _ in range(PROBES))
    finally:
        gc.enable()


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``fn`` between two readings.

    Returns its result, its seconds as measured, and the factor that
    scales a time taken meanwhile to reference speed.
    """
    before = reading()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    after = reading()
    return result, seconds, REFERENCE_S / ((before + after) / 2)
