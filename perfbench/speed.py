"""Machine-speed gauge: times of the program scaled to a reference speed.

The benchmark shares a host whose speed drifts: a fixed pure-Python loop
takes 0.11 s or 0.18 s depending on a state that changes from one second
to the next and can last minutes, so raw times of the single-process
workloads spread by more than their bounds whenever ten runs straddle a
change.  The gauge times a fixed reference unit of work (pure-Python
dictionary, tuple and float work like the program's dominance and
preprocessing code, plus the small NumPy array updates of its vectorised
kernel) next to the measured operations, and each operation's time is
scaled by ``UNIT_S / (median unit time around it)``.  The scaled time is
what the operation would take on a host where the unit takes ``UNIT_S``.
The program cannot change the unit's time, so a slower or faster program
moves the scaled time exactly as it moves the raw one.  Raw times are
kept in the detail line.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Seconds one unit takes on the host the bounds were set on (2 vCPU
#: x86-64, CPython 3, in its fast state).
UNIT_S = 0.0025
#: Units timed per reading; the reading is their median.
REPEATS = 5
#: Seconds between two units timed while an operation runs.
SAMPLE_EVERY_S = 0.2


def _unit() -> float:
    table = {}
    total = 1.0
    for i in range(7500):
        key = (i % 89, i % 13)
        table[key] = table.get(key, 0.5) * 0.75 + (i & 7) * 0.125
        total = total * 0.999 + table[key]
    ranked = sorted(table.items(), key=lambda item: item[1])
    signed = np.ones(1 << 10)
    mask = (np.arange(1 << 10) & 3) == 0
    for _ in range(50):
        np.multiply(signed, 0.999, out=signed, where=mask)
    return total + ranked[0][1] + float(signed.sum())


def timed_unit() -> float:
    """Seconds one unit takes now."""
    # The collector stays off so that the unit never pays for collecting
    # the program's garbage: its time must not depend on the program.
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _unit()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Unit times, read between operations or sampled while one runs."""

    def __init__(self) -> None:
        self.readings = []

    def read(self) -> float:
        self.readings.append(statistics.median(timed_unit() for _ in range(REPEATS)))
        return self.readings[-1]

    @contextmanager
    def sampling(self):
        """Time one unit every ``SAMPLE_EVERY_S`` of wall time in the block.

        Yields the list ``(start, end, unit time)`` samples are appended
        to.  The units run in this thread from a ``SIGALRM`` handler, so
        their spans must be taken off the block's measured time (see
        ``scaled_span``).  Only for blocks that start no process or
        thread: the unit must see the host, not the program.
        """
        inside = []

        def sample(signum, frame) -> None:
            started = time.perf_counter()
            unit = timed_unit()
            inside.append((started, time.perf_counter(), unit))

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield inside
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.readings.extend(unit for _, _, unit in inside)


def scaled(seconds: float, *unit_times: float) -> float:
    """``seconds`` measured among ``unit_times``, at the reference speed."""
    return seconds * UNIT_S / statistics.median(unit_times)


def scaled_span(started: float, ended: float, samples, first: float, last: float) -> float:
    """Program time from ``started`` to ``ended``, at the reference speed.

    ``samples`` are the ``(start, end, unit time)`` units of ``sampling``
    taken in between; their spans are not program time.  Each stretch of
    program time between two samples is scaled by the mean unit time at
    its ends, so a change of the host's speed inside the span is followed.
    ``first`` and ``last`` are readings taken just before and after it.
    """
    total, since, unit_before = 0.0, started, first
    for start, end, unit in samples:
        total += (start - since) * 2.0 * UNIT_S / (unit_before + unit)
        since, unit_before = end, unit
    return total + (ended - since) * 2.0 * UNIT_S / (unit_before + last)
