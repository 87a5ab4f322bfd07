"""Preprocessing speed-ups: absorption and partition (Section 5).

Both techniques shrink the set of competitors that must enter the
exponential exact computation (or the sampling loop) *without changing the
answer*:

* **Absorption** (Theorem 3, Algorithm 3).  Let ``Γ(Q)`` be the set of
  ``(dimension, value)`` pairs where ``Q`` differs from the target ``O``.
  If ``Γ(A) ⊆ Γ(B)`` — i.e. ``B`` carries all of ``A``'s differing values —
  then ``B ≺ O`` implies ``A ≺ O``, so the event ``e_B`` is contained in
  ``e_A`` and ``B`` contributes nothing to the union in Equation 3: it is
  *absorbed* by ``A``.  Absorption is transitive (Corollary 1), so one
  pass in arbitrary order removes every absorbable object.

* **Partition** (Theorem 4).  Dominance events touch only the preference
  variables between a competitor value and the target value on the same
  dimension.  Competitors that share no such variable — transitively —
  have mutually independent union events, so ``sky(O)`` factors into a
  product over the connected components of the value-sharing graph.  Each
  component can then be solved exactly on its own (usually tiny) event set.

A third, probability-aware filter is included: a competitor with a zero
preference factor can never dominate (``Pr(e_i) = 0``) and may be dropped
before partitioning, which also stops it from gluing components together.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import repro.obs as obs
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.objects import ObjectValues, Value, as_object
from repro.core.preferences import PreferenceModel
from repro.errors import DatasetError, DimensionalityError
from repro.util.unionfind import UnionFind

__all__ = [
    "AbsorptionResult",
    "PreprocessResult",
    "absorb",
    "absorb_keys",
    "partition",
    "partition_keys",
    "drop_never_dominators",
    "preprocess",
]

_DifferingKey = Tuple[int, Value]


def _differing_keys(
    competitor: Sequence[Value], target: Sequence[Value]
) -> Tuple[_DifferingKey, ...]:
    """``Γ(Q)``: the (dimension, value) pairs where Q differs from O.

    Keys come in dimension order, one per differing dimension.  A
    competitor of another dimensionality raises
    :class:`~repro.errors.DimensionalityError` instead of being compared
    on the shorter prefix.
    """
    if len(competitor) != len(target):
        raise DimensionalityError(
            f"competitor has {len(competitor)} dimensions, the target "
            f"{len(target)}"
        )
    return tuple(
        [
            (dimension, value)
            for dimension, value, target_value in zip(
                range(len(target)), competitor, target
            )
            if value != target_value
        ]
    )


@dataclass(frozen=True)
class AbsorptionResult:
    """Outcome of the absorption pass.

    ``kept_indices`` are positions (into the original competitor sequence)
    of survivors, in their original order; ``absorbed_by`` maps each
    removed competitor to the *surviving* competitor that (transitively)
    absorbed it — every value is a member of ``kept_indices``.
    """

    kept_indices: Tuple[int, ...]
    absorbed_by: Dict[int, int] = field(default_factory=dict)

    @property
    def removed_count(self) -> int:
        """How many competitors were absorbed."""
        return len(self.absorbed_by)


def absorb(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
) -> AbsorptionResult:
    """One-pass absorption (Algorithm 3), index-accelerated.

    For each still-alive competitor ``Q_i`` the pass removes every other
    alive competitor matching ``Q_i`` on all of ``Q_i``'s differing
    dimensions.  Correct in a single arbitrary-order pass by the
    transitivity of absorption (Corollary 1).  A competitor identical to
    the target (``Γ = ∅``) is left alone here — the no-duplicates
    assumption makes it an upstream error, handled by the caller.
    """
    target = as_object(target)
    objects = [as_object(q) for q in competitors]
    keys = [_differing_keys(q, target) for q in objects]
    return absorb_keys(keys)


def absorb_keys(
    keys: Sequence[Tuple[_DifferingKey, ...]],
) -> AbsorptionResult:
    """Absorption on precomputed ``Γ`` key tuples, one per competitor.

    This is the index-accelerated core of :func:`absorb`, factored out so
    callers that already hold each competitor's differing keys (e.g. the
    restriction planner, which *slices* full-dimension keys per subspace)
    can run the identical pass without rebuilding objects.  Each tuple
    lists its keys in dimension order, as :func:`preprocess` builds them.

    Only a competitor that can absorb something scans.  A scan by ``X``
    removes the competitors whose ``Γ`` contains ``Γ(X)``; when ``Γ(X)``
    is as wide as the widest ``Γ`` present, that is only an exact copy of
    ``Γ(X)``.  So a widest competitor scans only when another one carries
    the same ``Γ``, and every skipped scan would have removed nothing.
    """
    widest = max(map(len, keys), default=0)
    copies = Counter(gamma for gamma in keys if len(gamma) == widest)
    scanners = [
        position
        for position, gamma in enumerate(keys)
        if gamma and (len(gamma) < widest or copies[gamma] > 1)
    ]
    if not scanners:
        return AbsorptionResult(tuple(range(len(keys))), {})
    # Inverted index over the keys the scans read: (dimension, value) ->
    # positions of the competitors holding it.
    buckets: Dict[_DifferingKey, List[int]] = {
        key: [] for position in scanners for key in keys[position]
    }
    for position, gamma in enumerate(keys):
        for key in gamma:
            if key in buckets:
                buckets[key].append(position)
    alive = [True] * len(keys)
    absorbed_by: Dict[int, int] = {}
    for position in scanners:
        if not alive[position]:
            continue
        gamma = keys[position]
        required = set(gamma)
        # Scan the smallest bucket and verify the full Γ match there.
        for candidate in min((buckets[key] for key in gamma), key=len):
            if (
                candidate != position
                and alive[candidate]
                and required <= set(keys[candidate])
            ):
                alive[candidate] = False
                absorbed_by[candidate] = position
    kept = tuple(position for position, ok in enumerate(alive) if ok)
    # A scanner can itself be absorbed by a *later* scan (reachable when
    # Γ(Y) ⊆ Γ(X) ⊆ Γ(Z) with Y positioned after X: X's scan removes Z,
    # then Y's removes X), which would leave Z mapped to a non-survivor.
    # Follow each chain to its final survivor — sound by transitivity
    # (Corollary 1) and acyclic because a removed competitor never scans,
    # so mutual absorption is impossible.
    for removed in list(absorbed_by):
        absorber = absorbed_by[removed]
        while absorber in absorbed_by:
            absorber = absorbed_by[absorber]
        absorbed_by[removed] = absorber
    return AbsorptionResult(kept, absorbed_by)


def partition(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    indices: Sequence[int] | None = None,
) -> List[List[int]]:
    """Group competitors into value-disjoint components (Theorem 4).

    Two competitors land in the same component when they share a value on
    some dimension where that value differs from the target's — i.e. when
    their dominance events read a common preference variable.  Values
    equal to the target's never induce dependence and are ignored.

    Returns lists of positions (into ``competitors``), deterministic in
    first-seen order.  ``indices`` restricts the input to a subset (e.g.
    absorption survivors).
    """
    target = as_object(target)
    keys = [_differing_keys(as_object(q), target) for q in competitors]
    return partition_keys(keys, indices)


def partition_keys(
    keys: Sequence[Tuple[_DifferingKey, ...]],
    indices: Sequence[int] | None = None,
) -> List[List[int]]:
    """Value-disjoint components over precomputed ``Γ`` key tuples.

    The union-find core of :func:`partition`, shared with callers that
    slice full-dimension keys per subspace (restriction planning) and must
    reproduce the exact same component structure per slice.
    """
    if indices is None:
        indices = range(len(keys))
    union_find: UnionFind = UnionFind()
    anchor: Dict[_DifferingKey, int] = {}
    for position in indices:
        union_find.add(position)
        for key in keys[position]:
            if key in anchor:
                union_find.union(anchor[key], position)
            else:
                anchor[key] = position
    return [sorted(component) for component in union_find.components()]


def drop_never_dominators(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    indices: Sequence[int] | None = None,
    *,
    cache: DominanceCache | None = None,
) -> Tuple[List[int], List[int]]:
    """Split positions into (possible dominators, impossible ones).

    A competitor with any zero preference factor towards the target has
    ``Pr(e_i) = 0``; its event is null and removing it changes neither the
    union (Equation 3) nor the partition structure it would otherwise
    pollute.
    """
    factors_of = factor_source(preferences, cache)
    return _split_possible(
        lambda position: factors_of(competitors[position], target),
        range(len(competitors)) if indices is None else indices,
    )


def _split_possible(
    factors_of: Callable[[int], Sequence[DominanceFactor]],
    indices: Iterable[int],
) -> Tuple[List[int], List[int]]:
    """The zero-probability filter over a ``position -> factors`` lookup."""
    possible: List[int] = []
    impossible: List[int] = []
    for position in indices:
        for _, _, probability in factors_of(position):
            if probability == 0.0:
                impossible.append(position)
                break
        else:
            possible.append(position)
    return possible, impossible


@dataclass(frozen=True)
class PreprocessResult:
    """Combined outcome of the full preprocessing pipeline.

    All indices refer to positions in the original competitor sequence.
    ``partitions`` covers exactly the kept competitors; multiplying the
    per-partition skyline probabilities yields ``sky(target)``.
    """

    target: ObjectValues
    kept_indices: Tuple[int, ...]
    absorbed_by: Dict[int, int]
    dropped_impossible: Tuple[int, ...]
    partitions: Tuple[Tuple[int, ...], ...]

    @property
    def kept_count(self) -> int:
        """Competitors surviving all preprocessing."""
        return len(self.kept_indices)

    @property
    def largest_partition(self) -> int:
        """Size of the biggest component (drives exact-solve feasibility)."""
        return max((len(part) for part in self.partitions), default=0)

    def partition_objects(
        self, competitors: Sequence[Sequence[Value]]
    ) -> List[List[ObjectValues]]:
        """Materialise each partition as its list of competitor objects."""
        return [
            [as_object(competitors[position]) for position in part]
            for part in self.partitions
        ]


def preprocess(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    *,
    preferences: PreferenceModel | None = None,
    use_absorption: bool = True,
    use_partition: bool = True,
    cache: DominanceCache | None = None,
) -> PreprocessResult:
    """Run the paper's preprocessing pipeline for one target object.

    Order follows Section 5: absorption first (so partitions need no
    further absorption), then the zero-probability filter (needs
    ``preferences``; skipped when not supplied), then partition.  Any
    stage can be disabled for ablation studies.

    Each competitor's ``Γ`` is built once and serves the duplicate check
    (an empty ``Γ`` is a competitor equal to the target), absorption and
    partition alike.
    """
    target = as_object(target)
    with obs.stage("preprocess"):
        keys = []
        for position, q in enumerate(competitors):
            gamma = _differing_keys(as_object(q), target)
            if not gamma:
                raise DatasetError(
                    f"competitor {position} equals the target {target!r}; "
                    f"sky(target) would be 0 by the duplicate convention"
                )
            keys.append(gamma)
        drop_impossible = None
        if preferences is not None:
            drop_impossible = functools.partial(
                drop_never_dominators, preferences, competitors, target,
                cache=cache,
            )
        result = _preprocess_keys(
            target,
            keys,
            drop_impossible,
            use_absorption=use_absorption,
            use_partition=use_partition,
        )
    _record_preprocess(result)
    return result


def _preprocess_keys(
    target: ObjectValues,
    keys: Sequence[Tuple[_DifferingKey, ...]],
    drop_impossible: Callable[[Sequence[int]], Tuple[List[int], List[int]]]
    | None,
    *,
    use_absorption: bool = True,
    use_partition: bool = True,
) -> PreprocessResult:
    """The pipeline on precomputed ``Γ`` key tuples, one per competitor.

    Absorption, then ``drop_impossible`` (absorption survivors ->
    ``(possible, impossible)``; ``None`` skips the filter), then
    partition.  :func:`preprocess` and the restriction planner, which
    slices full-dimension keys per subspace, both build their
    :class:`PreprocessResult` here, so a sliced cell's structure is
    exactly the one a materialised query gets.
    """
    if use_absorption:
        absorption = absorb_keys(keys)
    else:
        absorption = AbsorptionResult(tuple(range(len(keys))), {})
    kept: Sequence[int] = absorption.kept_indices
    dropped: Tuple[int, ...] = ()
    if drop_impossible is not None:
        possible, impossible = drop_impossible(kept)
        kept, dropped = possible, tuple(impossible)
    if use_partition:
        partitions = tuple(tuple(part) for part in partition_keys(keys, kept))
    else:
        partitions = (tuple(kept),) if kept else ()
    return PreprocessResult(
        target=target,
        kept_indices=tuple(kept),
        absorbed_by=dict(absorption.absorbed_by),
        dropped_impossible=dropped,
        partitions=partitions,
    )


def _record_preprocess(result: PreprocessResult) -> None:
    """Publish one preprocessing run's reductions (no-op while disabled)."""
    if not obs.is_enabled():
        return
    registry = obs.registry()
    registry.counter(
        "repro_preprocess_runs_total", "Completed preprocessing pipelines."
    ).inc()
    registry.counter(
        "repro_preprocess_absorbed_total",
        "Competitors removed by absorption (Theorem 3).",
    ).inc(len(result.absorbed_by))
    registry.counter(
        "repro_preprocess_dropped_impossible_total",
        "Competitors dropped by the zero-probability filter.",
    ).inc(len(result.dropped_impossible))
    registry.counter(
        "repro_preprocess_partitions_total",
        "Value-disjoint components produced by partitioning (Theorem 4).",
    ).inc(len(result.partitions))
