"""Machine-speed calibration.

The benchmark shares its machine, whose speed varies with a coefficient of
variation of about 20%, correlated over a few hundred milliseconds (measured
on a 2-vCPU container: autocorrelation 0.77 at 20 ms, 0.39 at 400 ms, none
at 1 s), and drifts by up to 70% between runs a minute apart.  Every time
the benchmark reports is therefore scaled to a reference speed,

    scaled = (wall - time spent calibrating) * REFERENCE_S * mean(1 / loop)

where `loop` ranges over the times of a short fixed pure-Python loop run
just before and just after the measurement and, for long operations, every
TICK_S during it (from a SIGALRM handler).  The loop hashes tuples and
probes a dict, as the package does.  Its tuples are made once, when this
module is imported, so that where they lie in memory does not depend on
what the package has allocated and freed.  scale_check.py tests this with
a package change that adds a fixed loop and one that adds a large live
table to the same calls: on queries, over 12 rounds, the table change read
1.99 times the unchanged pass time scaled and 1.91 times in wall time.  A
first loop, which made its 2000 tuples afresh on each run, read 1.66
against 1.96 for the same change: it ran slower next to the table, most
likely because its tuples landed scattered through the table's heap, and
so hid a third of the change's cost.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

LOOP = 2_000
#: loop time that defines the reference speed, near the typical time on the
#: 2-vCPU container the baseline was measured on
REFERENCE_S = 0.00045
TICK_S = 0.02
#: made again, the same way, in the interpreter that run.measure_setup probes
KEYS = [(i, i >> 1, i & 7) for i in range(LOOP)]


def calibrate() -> float:
    """Seconds the fixed loop takes now.  The collector is paused so that
    the loop's short-lived tuples do not move the package's collections."""
    paused = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict = {}
    for key in KEYS:
        table[key] = table.get(key[:2], 0) + len(key)
    elapsed = perf_counter() - start
    if paused:
        gc.enable()
    return elapsed


def scaled(wall_s: float, loops: list[float]) -> float:
    """Wall seconds of a measurement as seconds at the reference speed."""
    return wall_s * REFERENCE_S * statistics.fmean(1 / t for t in loops)


class Clock:
    """Times calls in wall and reference-speed seconds.  Use as a context
    manager: it owns SIGALRM while open.  The interval timer runs only
    while the timed call does, so no tick lands inside calibrate()."""

    def __init__(self) -> None:
        self._ticks: list[float] = []
        self._last = calibrate()

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        self._ticks.append(calibrate())

    def time(self, fn, *args, **kwargs):
        """(result, exception, wall seconds, scaled seconds) of one call."""
        self._ticks.clear()
        result = error = None
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the caller counts a failed operation
            error = exc
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start - sum(self._ticks)
        loops = [self._last, *self._ticks]
        self._last = calibrate()
        loops.append(self._last)
        return result, error, wall, scaled(wall, loops)
