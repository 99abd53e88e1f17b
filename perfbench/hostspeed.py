"""Host speed probe: a fixed unit of pure-Python work, timed over and over.

The benchmark runs on a shared virtual machine whose speed drifts by up to
2x within seconds and for minutes at a time, and a CLI invocation's wall
time drifts with it.  Each virtual CPU drifts on its own, so the probe
shares the child's CPU: ``pin_to_one_cpu()`` pins the benchmark, and so
every child it starts and the probe's thread, to a single CPU.  While the
benchmark waits for a child, the thread runs ``unit()`` every ``PERIOD_S``
and records the CPU time it took (``time.thread_time``), which excludes
the time the child holds the CPU.  The mean unit time over an interval says
how slow that CPU ran during it, so ``wall * REFERENCE_UNIT_S / mean`` is
the wall time the interval would have taken at the reference speed.

The probe takes about 4 % of the CPU from the child, the same share on
every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

__all__ = ["PERIOD_S", "REFERENCE_UNIT_S", "unit", "timed_unit", "pin_to_one_cpu", "SpeedProbe"]

PERIOD_S = 0.25
# CPU time of unit() on a calm host: Python 3.11.7, "Intel(R) Xeon(R)
# Processor" at 2.1 GHz, 2 vCPUs.
REFERENCE_UNIT_S = 0.009
UNIT_RESULT = 20165  # what unit() returns, so a changed unit shows


def unit(n: int = 1500) -> int:
    """Rational arithmetic and a tuple-keyed memo, as the program's sweeps do."""
    memo: dict = {}
    total = 0
    for i in range(n):
        a = Fraction(i % 17 + 1, i % 11 + 1)
        b = Fraction(i % 7 + 2, i % 5 + 3)
        c = a * b + a - b
        key = (i % 409, i % 31)
        memo[key] = memo.get(key, 0) + c.numerator
        total += c.denominator
    return total + len(memo)


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and so the threads and children it starts later, to its lowest CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_unit() -> float:
    """CPU time of one ``unit()`` in the calling thread."""
    t0 = time.thread_time()
    result = unit()
    elapsed = time.thread_time() - t0
    if result != UNIT_RESULT:
        raise RuntimeError(f"speed probe unit returned {result}, expected {UNIT_RESULT}")
    return elapsed


class SpeedProbe:
    """Times ``unit()`` on a background thread while the block runs.

    Create it after ``pin_to_one_cpu()``, so that its thread shares the
    children's CPU.

    ``mark()`` gives the index of the next sample; ``scale(mark)`` gives
    ``REFERENCE_UNIT_S`` over the mean unit time of the samples taken since,
    the factor that turns a wall time measured in that window into one at
    the reference speed.
    """

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(timed_unit())

    def __enter__(self) -> "SpeedProbe":
        timed_unit()  # warm-up, and checks the unit's result before any timing
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        window = self.samples[since:]
        if not window:  # an interval shorter than one period
            window = [timed_unit()]
        return REFERENCE_UNIT_S / statistics.fmean(window)
