"""Shared-world estimation of *all* objects' skyline probabilities.

The paper's future-work section (Section 8) observes that the naive way
to find the probabilistic skyline or the top-k objects is to run the
sampling algorithm once per object.  This module implements the natural
amortisation: sample a *complete* world once (every value pair on every
dimension resolved to ``a ≺ b`` / ``b ≺ a`` / incomparable), compute the
classic skyline of that world, and tally every object simultaneously.
Each object's tally is an unbiased Bernoulli estimator of its ``sky``
probability, so Theorem 2's Hoeffding guarantee applies *per object* with
one shared sample budget.

The implementation is vectorised over worlds: one uniform draw per value
pair decides its three-way outcome, objects gather their per-dimension
requirement columns, and a world's skyline falls out of two boolean
reductions.  Complexity is ``O(m · n² · d)`` bit-operations, so this is
the right tool for small-to-medium datasets (hundreds of objects); for a
single object in a huge dataset use
:func:`repro.core.sampling.skyline_probability_sampled`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bounds import hoeffding_error
from repro.core.objects import Dataset, Value
from repro.core.preferences import PreferenceModel
from repro.errors import ComputationBudgetError, EstimationError
from repro.util.rng import as_rng

__all__ = [
    "AllObjectsEstimate",
    "estimate_all_skyline_probabilities",
    "top_k_shared_worlds",
]

_DEFAULT_CHUNK_SIZE = 128
_MAX_VARIABLES = 500_000


@dataclass(frozen=True)
class AllObjectsEstimate:
    """Per-object skyline-probability estimates from shared worlds.

    ``probabilities[i]`` estimates ``sky`` of ``dataset[i]``; all entries
    share the same ``samples`` budget and the per-object Hoeffding radius
    of :meth:`error_radius`.
    """

    probabilities: Tuple[float, ...]
    samples: int

    def error_radius(self, delta: float = 0.01) -> float:
        """Per-object Hoeffding half-width at confidence 1-δ."""
        return hoeffding_error(self.samples, delta)


def _build_requirements(
    preferences: PreferenceModel, dataset: Dataset
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair probabilities and per-ordered-object-pair requirement columns.

    Returns ``(forward_probs, backward_probs, columns)`` where the
    probability arrays cover the P distinct value pairs and
    ``columns[a, b, j]`` is the boolean column that must be true for
    object ``a`` to be weakly preferred to object ``b`` on dimension
    ``j``:  ``pair`` (forward), ``P + pair`` (backward), or ``2P`` (the
    constant-true column used when the two values are equal).
    """
    n = len(dataset)
    d = dataset.dimensionality
    forward_probs: List[float] = []
    backward_probs: List[float] = []
    pair_index: Dict[Tuple[int, Value, Value], int] = {}
    for dimension in range(d):
        values = sorted(dataset.values_on(dimension), key=repr)
        for a, b in combinations(values, 2):
            pair_index[(dimension, a, b)] = len(forward_probs)
            forward_probs.append(preferences.prob_prefers(dimension, a, b))
            backward_probs.append(preferences.prob_prefers(dimension, b, a))
            if len(forward_probs) > _MAX_VARIABLES:
                raise ComputationBudgetError(
                    f"shared-world sampling needs more than "
                    f"{_MAX_VARIABLES} preference variables; use the "
                    f"per-object sampler instead"
                )
    p = len(forward_probs)
    true_column = 2 * p
    columns = np.empty((n, n, d), dtype=np.int64)
    for a_index, a in enumerate(dataset):
        for b_index, b in enumerate(dataset):
            for dimension in range(d):
                av, bv = a[dimension], b[dimension]
                if av == bv:
                    columns[a_index, b_index, dimension] = true_column
                    continue
                pair = pair_index.get((dimension, av, bv))
                if pair is not None:
                    columns[a_index, b_index, dimension] = pair
                else:
                    columns[a_index, b_index, dimension] = (
                        p + pair_index[(dimension, bv, av)]
                    )
    return (
        np.asarray(forward_probs, dtype=np.float64),
        np.asarray(backward_probs, dtype=np.float64),
        columns,
    )


def estimate_all_skyline_probabilities(
    preferences: PreferenceModel,
    dataset: Dataset,
    *,
    samples: int = 1000,
    seed: object = None,
    chunk_size: int = _DEFAULT_CHUNK_SIZE,
) -> AllObjectsEstimate:
    """Estimate every object's ``sky`` with one shared world stream.

    Each world draws one uniform per value pair and classifies it into
    the three outcomes (forward / backward / incomparable), so the two
    strict orientations are mutually exclusive exactly as the model
    requires.  A world contributes a success to every object not
    dominated in it.
    """
    if samples <= 0:
        raise EstimationError(f"samples must be positive, got {samples!r}")
    if chunk_size <= 0:
        raise EstimationError(f"chunk_size must be positive, got {chunk_size!r}")
    rng = as_rng(seed)
    forward_probs, backward_probs, columns = _build_requirements(
        preferences, dataset
    )
    n = len(dataset)
    successes = np.zeros(n, dtype=np.int64)
    # columns[a, b_index, :] for all a != b_index.  The requirement
    # gathers are world-independent, so build them once instead of
    # re-running np.delete for every (chunk, object) pair.
    requirements = [
        np.delete(columns[:, b_index, :], b_index, axis=0)
        for b_index in range(n)
    ]
    remaining = samples
    while remaining > 0:
        chunk = min(chunk_size, remaining)
        remaining -= chunk
        draws = rng.random((chunk, forward_probs.size))
        forward_wins = draws < forward_probs
        backward_wins = (~forward_wins) & (draws < forward_probs + backward_probs)
        resolved = np.concatenate(
            [
                forward_wins,
                backward_wins,
                np.ones((chunk, 1), dtype=bool),  # the constant-true column
            ],
            axis=1,
        )
        for b_index, requirement in enumerate(requirements):
            gathered = resolved[:, requirement]  # (chunk, n-1, d)
            dominated = gathered.all(axis=2).any(axis=1)
            successes[b_index] += int((~dominated).sum())
    probabilities = tuple((successes / samples).tolist())
    return AllObjectsEstimate(probabilities, samples)


def top_k_shared_worlds(
    preferences: PreferenceModel,
    dataset: Dataset,
    k: int,
    *,
    samples: int = 1000,
    seed: object = None,
) -> List[Tuple[int, float]]:
    """Top-k objects by estimated skyline probability (shared worlds).

    Returns ``(index, estimate)`` pairs, descending by estimate with
    index tie-breaking.  The same world stream serves every object, so a
    ranking over n objects costs one sampling run instead of n.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise EstimationError(f"k must be a positive integer, got {k!r}")
    estimate = estimate_all_skyline_probabilities(
        preferences, dataset, samples=samples, seed=seed
    )
    ranked = sorted(
        enumerate(estimate.probabilities), key=lambda pair: (-pair[1], pair[0])
    )
    return ranked[: min(k, len(ranked))]
