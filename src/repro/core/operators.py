"""Confidence-aware probabilistic-skyline operators.

The paper's target operator returns all objects with ``sky ≥ τ``.  With
the exact algorithms the membership test is clear-cut, but when a
probability comes from sampling, a point estimate on the wrong side of
``τ`` by less than the sampling error is *not evidence* of membership
either way.  :func:`classify_against_threshold` therefore returns a
three-way verdict per object:

* ``IN``        — probability ≥ τ beyond the error radius (or exact);
* ``OUT``       — probability < τ beyond the error radius (or exact);
* ``UNCERTAIN`` — the Hoeffding interval straddles τ; more samples (or
  an exact evaluation) would be needed to decide.

This is the honest interface a downstream application should consume
instead of silently thresholding noisy estimates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.bounds import hoeffding_error
from repro.core.engine import SkylineProbabilityEngine
from repro.core.options import QueryOptions
from repro.errors import ReproError

__all__ = [
    "ThresholdDecision",
    "ThresholdClassification",
    "classify_against_threshold",
]


class ThresholdDecision(enum.Enum):
    """Three-way verdict of a τ-membership test."""

    IN = "in"
    OUT = "out"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class ThresholdClassification:
    """Per-object verdicts of one probabilistic-skyline query.

    ``decisions[i]`` classifies ``dataset[i]``; ``probabilities[i]`` is
    the (exact or estimated) skyline probability that produced it.
    """

    tau: float
    decisions: Tuple[ThresholdDecision, ...]
    probabilities: Tuple[float, ...]

    @property
    def members(self) -> List[int]:
        """Indices certainly in the probabilistic skyline."""
        return [
            index
            for index, decision in enumerate(self.decisions)
            if decision is ThresholdDecision.IN
        ]

    @property
    def excluded(self) -> List[int]:
        """Indices certainly outside the probabilistic skyline."""
        return [
            index
            for index, decision in enumerate(self.decisions)
            if decision is ThresholdDecision.OUT
        ]

    @property
    def undecided(self) -> List[int]:
        """Indices whose membership the sampling error leaves open."""
        return [
            index
            for index, decision in enumerate(self.decisions)
            if decision is ThresholdDecision.UNCERTAIN
        ]


def classify_against_threshold(
    engine: SkylineProbabilityEngine,
    tau: float,
    *,
    method: str = QueryOptions.method,
    epsilon: float = QueryOptions.epsilon,
    delta: float = QueryOptions.delta,
    samples: int | None = QueryOptions.samples,
    seed: object = None,
) -> ThresholdClassification:
    """Classify every object of the engine's dataset against ``τ``.

    Exact reports decide immediately; sampled reports compare against
    ``τ`` with the Hoeffding radius implied by their sample count at
    confidence ``1 - δ`` and abstain (``UNCERTAIN``) inside the band.
    """
    if not 0 < tau <= 1:
        raise ReproError(f"threshold tau must lie in (0, 1], got {tau!r}")
    decisions: List[ThresholdDecision] = []
    probabilities: List[float] = []
    for index in range(len(engine.dataset)):
        report = engine.skyline_probability(
            index,
            method=method,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=seed,
        )
        probabilities.append(report.probability)
        if report.exact:
            decisions.append(
                ThresholdDecision.IN
                if report.probability >= tau
                else ThresholdDecision.OUT
            )
            continue
        radius = hoeffding_error(max(report.samples, 1), delta)
        if report.probability - radius >= tau:
            decisions.append(ThresholdDecision.IN)
        elif report.probability + radius < tau:
            decisions.append(ThresholdDecision.OUT)
        else:
            decisions.append(ThresholdDecision.UNCERTAIN)
    return ThresholdClassification(
        tau=tau,
        decisions=tuple(decisions),
        probabilities=tuple(probabilities),
    )
