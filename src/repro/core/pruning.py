"""Cheap skyline-probability bounds and bounded top-k (§8 future work).

The paper's conclusion suggests evaluating top-k probabilistic-skyline
queries with a bound-and-prune framework instead of computing every
object's probability exactly.  This module supplies the two cheap bounds
that make that work, both computable in ``O(n·d)`` per object:

* **Lower bound** — the independence product ``∏ (1 - Pr(e_i))`` (the Sac
  baseline).  The complement events ``ē_i`` are decreasing functions of
  the independent preference variables, so they are positively associated
  (Harris/FKG inequality) and the product *under*-estimates
  ``Pr(∩ ē_i) = sky(O)``.  (This also explains the direction of Sac's
  bias in the paper's examples: 3/8 ≤ 1/2, 9/64 ≤ 3/16.)

* **Upper bound** — the independence product over a greedily chosen set
  of *pairwise value-disjoint* competitors.  Events reading disjoint
  preference variables are genuinely independent (Theorem 4's
  observation), so for any such set ``S``:
  ``sky(O) = Pr(∩_i ē_i) ≤ Pr(∩_{i∈S} ē_i) = ∏_{i∈S} (1 - Pr(e_i))``.
  The greedy pass takes competitors in decreasing ``Pr(e_i)`` order,
  skipping any that shares a variable with one already taken.

:func:`top_k_pruned` then ranks objects by refining only those whose
upper bound clears the running k-th lower bound, delegating refinement
to any exact/approximate method of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.dominance import dominance_factors
from repro.core.engine import SkylineProbabilityEngine, _check_count
from repro.core.objects import Dataset, Value
from repro.core.preferences import PreferenceModel

__all__ = ["skyline_probability_bounds", "TopKResult", "top_k_pruned"]


def skyline_probability_bounds(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
) -> Tuple[float, float]:
    """Cheap ``(lower, upper)`` bounds on ``sky(target)``.

    ``lower`` is the Harris-inequality product over *all* competitors;
    ``upper`` the independence product over a greedy value-disjoint
    subset (see the module docstring).  Both cost ``O(n·d log n)`` and
    coincide whenever no two competitors share a relevant value — then
    they equal the exact probability.
    """
    lower = 1.0
    ranked: List[Tuple[float, List]] = []
    for q in competitors:
        factors = dominance_factors(preferences, q, target)
        probability = 1.0
        for _, _, factor in factors:
            probability *= factor
        lower *= 1.0 - probability
        if probability == 1.0:
            return 0.0, 0.0
        if probability > 0.0:
            ranked.append((probability, factors))
    ranked.sort(key=lambda entry: -entry[0])
    upper = 1.0
    used: set = set()
    for probability, factors in ranked:
        keys = {(dimension, value) for dimension, value, _ in factors}
        if keys & used:
            continue
        used |= keys
        upper *= 1.0 - probability
    return lower, max(lower, upper)


@dataclass(frozen=True)
class TopKResult:
    """Outcome of a bounded top-k evaluation.

    ``ranking`` holds ``(index, probability)`` pairs, best first.
    ``refined`` counts the objects whose probability was actually
    computed; ``pruned`` those eliminated on bounds alone.
    """

    ranking: Tuple[Tuple[int, float], ...]
    refined: int
    pruned: int


def top_k_pruned(
    dataset: Dataset,
    preferences: PreferenceModel,
    k: int,
    *,
    engine: SkylineProbabilityEngine | None = None,
    **query_options: object,
) -> TopKResult:
    """The ``k`` highest-probability objects, refining as few as possible.

    Phase 1 computes the O(n·d) bound pair for every object and sorts by
    upper bound.  Phase 2 walks that order, refining with engine queries
    under ``query_options`` (any of the
    :class:`~repro.core.options.QueryOptions`, ``seed`` and ``cache``)
    and stopping as soon as the next upper bound cannot beat
    the current k-th best refined probability — every remaining object is
    pruned.  With an exact refinement method the result equals
    :meth:`SkylineProbabilityEngine.top_k` (sampling methods rank within
    their ε).
    """
    _check_count("k", k, minimum=1)
    if engine is None:
        engine = SkylineProbabilityEngine(dataset, preferences)
    bounds: List[Tuple[float, float, int]] = []
    for index in range(len(dataset)):
        lower, upper = skyline_probability_bounds(
            preferences, dataset.others(index), dataset[index]
        )
        bounds.append((upper, lower, index))
    # Best upper bound first; ties by index for determinism.
    bounds.sort(key=lambda entry: (-entry[0], entry[2]))

    refined: List[Tuple[int, float]] = []
    kth_best = 0.0
    examined = 0
    for upper, _, index in bounds:
        if len(refined) >= k and upper < kth_best:
            break  # nothing later can enter the top k
        examined += 1
        probability = engine.skyline_probability(index, **query_options).probability
        refined.append((index, probability))
        refined.sort(key=lambda pair: (-pair[1], pair[0]))
        if len(refined) >= k:
            kth_best = refined[k - 1][1]
    ranking = tuple(refined[: min(k, len(refined))])
    return TopKResult(ranking, examined, len(dataset) - examined)
