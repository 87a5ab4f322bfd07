"""Helpers shared by the workloads: statistics, memory, answer checks."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Exact answers must match the oracle within this relative tolerance
#: (room for the last-ulp differences of reordered float products) ...
EXACT_TOLERANCE = 1e-9
#: ... or this absolute one, for answers that cancel to zero.  It is far
#: below the smallest reference answer (about 4e-10), so every nonzero
#: answer is held to the relative tolerance.
ABSOLUTE_FLOOR = 1e-18
#: Confidence parameter of the Hoeffding check on sampled answers.  The
#: check's false-alarm rate per answer is at most this, so a correct
#: program fails a run by chance with probability far below 1e-3.
CHECK_DELTA = 1e-6


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (and its largest child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def hoeffding_radius(samples: int) -> float:
    """Theorem 2: ``|estimate - sky| <= radius`` with probability ``1 - CHECK_DELTA``."""
    return math.sqrt(math.log(2.0 / CHECK_DELTA) / (2.0 * samples))


@dataclass
class Checks:
    """Answer checks of one run: counts of checked and wrong answers."""

    checked: int = 0
    wrong: List[str] = field(default_factory=list)

    def exact(self, what: str, got: float, want: float) -> None:
        self.checked += 1
        if not abs(got - want) <= EXACT_TOLERANCE * abs(want) + ABSOLUTE_FLOOR:
            self.wrong.append(f"{what}: got {got!r}, want {want!r}")

    def sampled(self, what: str, got: float, want: float, samples: int) -> None:
        self.checked += 1
        radius = hoeffding_radius(samples)
        if not abs(got - want) <= radius:
            self.wrong.append(
                f"{what}: estimate {got!r} outside {want!r} +- {radius:.4f} "
                f"({samples} samples, delta={CHECK_DELTA})"
            )


class Stopwatch:
    """Wall-clock deadline for a measured phase."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
