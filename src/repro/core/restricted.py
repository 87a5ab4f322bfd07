"""Restricted/subspace skyline probabilities with a shared dominance pass.

Real applications rarely ask "is O on the skyline of *everything*, over
*every* dimension": they ask sky(O) relative to an arbitrary competitor
subset (a category, a price band, a shortlist) and a dimension subspace
(the attributes the user actually cares about).  Gao et al. (arXiv
2303.00259) observe that all such *restricted* skyline probabilities can
share one dominance pass; this module is that planner.

The key reduction: restricting dominance to the subspace ``D`` is the
same as replacing every competitor ``Q`` with its *materialisation*
``Q' = (Q.j if j ∈ D else O.j)`` — outside-subspace dimensions are
neutralised by giving ``Q'`` the target's own value there, so ``Q'``
can only beat ``O`` where ``D`` says it may.  Consequently:

* the dominance factors of ``Q'`` against ``O`` are the *slice* of
  ``Q``'s full-dimension factors to ``D`` — so the planner computes each
  ``(target, competitor)`` factor tuple **once** against the full
  :class:`~repro.core.dominance.DominanceCache` and re-slices it per
  subspace, never recomputing a factor two restrictions share;
* absorption (Theorem 3) and partition (Theorem 4) run on the sliced
  ``Γ`` keys through the same cores (:func:`~repro.core.preprocess.absorb_keys`,
  :func:`~repro.core.preprocess.partition_keys`) the full pipeline uses,
  so restricted answers are bit-for-bit what a per-restriction engine
  query computes;
* per-component Det solves are memoised on the sliced factor structure
  itself, so restrictions (and targets) inducing the same component pay
  for it once;
* a competitor whose sliced factor list is empty coincides with the
  target on every retained dimension — a *projected duplicate* — and
  dominates with certainty, giving ``sky = 0`` exactly by the duplicate
  convention.

The same reduction makes restrictions first-class everywhere else: the
engine accepts ``competitors=``/``dims=`` on a single query (memo keys
carry the restriction key), the batch planner threads them through, the
dynamic engine answers restricted queries against its live state, and
the serve tier buckets coalesced requests on the restriction key.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.bounds import validate_accuracy
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.engine import (
    METHODS,
    SkylineProbabilityEngine,
    SkylineReport,
    _check_det_kernel,
    _ComponentMemo,
    _resolve_index,
    _resolve_pool,
    _solve_target,
)
from repro.core.exact import DEFAULT_DET_KERNEL
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.preprocess import _preprocess_keys, _split_possible
from repro.errors import DimensionalityError, ReproError

__all__ = [
    "Restriction",
    "RestrictedResult",
    "normalize_restriction",
    "materialize_competitor",
    "slice_factors",
    "restricted_skyline_probabilities",
]


@dataclass(frozen=True)
class Restriction:
    """A normalised ``(competitor subset, dimension subspace)`` pair.

    ``competitors`` holds sorted, de-duplicated dataset indices (``None``
    means "every other object"); ``dims`` holds sorted, de-duplicated
    dimension indices (``None`` means "all dimensions").  Build through
    :func:`normalize_restriction` — normalisation is what makes ``key``
    usable as a memo/coalescing key: two spellings of the same
    restriction always normalise identically.
    """

    competitors: Tuple[int, ...] | None
    dims: Tuple[int, ...] | None

    @property
    def key(self) -> Tuple[Tuple[int, ...] | None, Tuple[int, ...] | None]:
        """Hashable identity of the restriction (memo / bucket key)."""
        return (self.competitors, self.dims)

    @property
    def is_full(self) -> bool:
        """Whether this is the unrestricted full-skyline query."""
        return self.competitors is None and self.dims is None


def normalize_restriction(
    dataset: Dataset,
    *,
    competitors: Sequence[int] | None = None,
    dims: Sequence[int] | None = None,
) -> Restriction:
    """Validate and canonicalise a restriction against ``dataset``.

    Competitor indices follow the one index rule of every entry point
    (an integer, NumPy integers included, in ``[0, n)``; anything else
    is a :class:`~repro.errors.DatasetError`) and are de-duplicated and
    sorted; the full index range collapses to ``None`` (same semantics,
    better sharing).  An *empty* competitor subset is legal — nothing
    can dominate, so ``sky = 1`` exactly.  Dimensions must be integers
    in range too (a :class:`~repro.errors.DimensionalityError`
    otherwise) and are handled the same way, except that an empty
    subspace is rejected: with no dimensions left, dominance is vacuous
    in a way the paper's model never defines, so it is an error rather
    than a silent 1.0.
    """
    cardinality = len(dataset)
    dimensionality = dataset.dimensionality
    competitor_key: Tuple[int, ...] | None = None
    if competitors is not None:
        seen = {_resolve_index(dataset, position) for position in competitors}
        competitor_key = tuple(sorted(seen))
        if len(competitor_key) == cardinality:
            competitor_key = None
    dim_key: Tuple[int, ...] | None = None
    if dims is not None:
        chosen = set()
        for dimension in dims:
            try:
                index = operator.index(dimension)
            except TypeError:
                raise DimensionalityError(
                    f"dimension {dimension!r} is not an integer"
                ) from None
            if not 0 <= index < dimensionality:
                raise DimensionalityError(
                    f"dimension {index} outside the space "
                    f"(dimensionality {dimensionality})"
                )
            chosen.add(index)
        if not chosen:
            raise ReproError(
                "a restriction's dimension subspace must not be empty"
            )
        dim_key = tuple(sorted(chosen))
        if len(dim_key) == dimensionality:
            dim_key = None
    return Restriction(competitor_key, dim_key)


def materialize_competitor(
    values: Sequence[Value],
    target: Sequence[Value],
    dims: Tuple[int, ...] | None,
) -> ObjectValues:
    """The subspace materialisation ``Q' = (Q.j if j ∈ D else O.j)``.

    ``Q'`` against the *full* space asks exactly the restricted question
    ``Q`` asks within ``D`` — the reduction every non-Det method (and the
    engine's single-query path) rides on.
    """
    if dims is None:
        return as_object(values)
    retained = set(dims)
    return tuple(
        value if dimension in retained else target[dimension]
        for dimension, value in enumerate(values)
    )


def slice_factors(
    factors: Sequence[DominanceFactor],
    dims: Tuple[int, ...] | None,
) -> Tuple[DominanceFactor, ...]:
    """Restrict a full-dimension factor tuple to a subspace.

    Equals ``dominance_factors(preferences, materialize_competitor(q, t,
    dims), t)`` — same factors, same ascending-dimension order — without
    touching the preference model again.
    """
    if dims is None:
        return tuple(factors)
    retained = set(dims)
    return tuple(
        factor for factor in factors if factor[0] in retained
    )


@dataclass(frozen=True)
class RestrictedResult:
    """Answers for a ``targets × restrictions`` grid.

    ``reports[i][j]`` is the :class:`~repro.core.engine.SkylineReport`
    for ``targets[i]`` under ``restrictions[j]``.  The sharing counters
    describe the pass: ``factor_passes`` full-dimension factor tuples
    were computed (once per live ``(target, competitor)`` pair),
    ``component_solves``/``component_hits`` count Det component
    evaluations performed vs served from the sliced-structure memo.
    """

    targets: Tuple[object, ...]
    restrictions: Tuple[Restriction, ...]
    reports: Tuple[Tuple[SkylineReport, ...], ...]
    shared_pass: bool
    factor_passes: int = 0
    component_solves: int = 0
    component_hits: int = 0

    def report(
        self, target_position: int, restriction_position: int
    ) -> SkylineReport:
        """The report for one grid cell."""
        return self.reports[target_position][restriction_position]

    @property
    def probabilities(self) -> List[List[float]]:
        """The grid of probabilities, ``[target][restriction]``."""
        return [
            [report.probability for report in row] for row in self.reports
        ]


def _normalize_restriction_specs(
    dataset: Dataset,
    competitors: Sequence[int] | None,
    dims: Sequence[int] | None,
    restrictions: Sequence[object] | None,
) -> List[Restriction]:
    """The restriction list for one planner call."""
    if restrictions is None:
        return [
            normalize_restriction(dataset, competitors=competitors, dims=dims)
        ]
    if competitors is not None or dims is not None:
        raise ReproError(
            "pass either competitors=/dims= (one restriction) or "
            "restrictions= (many), not both"
        )
    normalized = []
    for spec in restrictions:
        if isinstance(spec, Restriction):
            subset, subspace = spec.competitors, spec.dims
        else:
            subset, subspace = spec
        normalized.append(
            normalize_restriction(dataset, competitors=subset, dims=subspace)
        )
    if not normalized:
        raise ReproError("restrictions= must name at least one restriction")
    return normalized


def restricted_skyline_probabilities(
    engine,
    targets: Sequence[int | Sequence[Value]],
    *,
    competitors: Sequence[int] | None = None,
    dims: Sequence[int] | None = None,
    restrictions: Sequence[object] | None = None,
    method: str = "auto",
    epsilon: float = 0.01,
    delta: float = 0.01,
    samples: int | None = None,
    seed: object = None,
    det_kernel: str = DEFAULT_DET_KERNEL,
    cache: DominanceCache | None = None,
    share_pass: bool = True,
) -> RestrictedResult:
    """sky(target) for every target under every restriction, one pass.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.engine.SkylineProbabilityEngine`, or a
        :class:`~repro.core.dynamic.DynamicSkylineEngine`, whose inner
        static engine (and so its ``max_exact_objects``) answers.
    targets:
        Dataset indices and/or external objects.  An index target is
        dropped from its own competitor subset.
    competitors, dims:
        One restriction, applied to every target.  Mutually exclusive
        with ``restrictions``.
    restrictions:
        Many restrictions: ``(competitor subset, dim subspace)`` pairs or
        :class:`Restriction` objects.  Every target is answered under
        every restriction.
    method, epsilon, delta, samples, det_kernel:
        As on :meth:`~repro.core.engine.SkylineProbabilityEngine.skyline_probability`.
        The default ``det_kernel="auto"`` routes each sliced component
        by its dominator count, exactly as the engine does, so the
        shared pass still equals ``share_pass=False`` bit for bit.
    seed:
        Root seed for the sampling methods.  Per-item seeds are spawned
        exactly as the batch planner spawns them
        (:func:`~repro.core.batch.spawn_batch_seeds`, row-major over the
        ``targets × restrictions`` grid), so answers are bit-reproducible
        and independent of how the grid is grouped.
    cache:
        Optional shared :class:`~repro.core.dominance.DominanceCache`.
    share_pass:
        ``True`` (default) runs the shared dominance pass described in
        the module docstring.  ``False`` answers every grid cell with an
        independent engine query — the ablation baseline the
        ``restricted_sharing`` experiment measures against, and the
        differential oracle the shared pass must match bit-for-bit on
        the exact methods.
    """
    # Imported here, not at module top: batch imports the engine, which
    # lazily imports this module — keep the lazy edge in one place.
    from repro.core.batch import spawn_batch_seeds

    # A DynamicSkylineEngine exposes its static engine as `.engine`;
    # unwrap it (duck-typed, as the batch planner does) so the shared
    # pass solves with the same exact budget as share_pass=False.
    inner = getattr(engine, "engine", None)
    if isinstance(inner, SkylineProbabilityEngine):
        engine = inner
    dataset = engine.dataset
    preferences = engine.preferences
    if method not in METHODS:
        raise ReproError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    _check_det_kernel(det_kernel)
    validate_accuracy(epsilon, delta, samples)
    restriction_list = _normalize_restriction_specs(
        dataset, competitors, dims, restrictions
    )
    target_list = list(targets)
    if not target_list:
        raise ReproError("targets must name at least one target")
    seeds = iter(
        spawn_batch_seeds(
            method, len(target_list) * len(restriction_list), seed=seed
        )
    )

    if not share_pass:
        rows = tuple(
            tuple(
                engine.skyline_probability(
                    target,
                    method=method,
                    epsilon=epsilon,
                    delta=delta,
                    samples=samples,
                    seed=next(seeds),
                    det_kernel=det_kernel,
                    cache=cache,
                    competitors=restriction.competitors,
                    dims=restriction.dims,
                )
                for restriction in restriction_list
            )
            for target in target_list
        )
        return RestrictedResult(
            tuple(target_list), tuple(restriction_list), rows, shared_pass=False
        )

    factors_of = factor_source(preferences, cache)
    memo = _ComponentMemo()
    factor_passes = 0
    rows = []
    for target in target_list:
        cells = [
            _resolve_pool(dataset, target, restriction)
            for restriction in restriction_list
        ]
        target_values = cells[0][0]
        pools = [pool for _, pool, _ in cells]
        # The union of every restriction's pool, factored once each.
        full_factors = {
            index: factors_of(dataset[index], target_values)
            for index in sorted({index for pool in pools for index in pool})
        }
        factor_passes += len(full_factors)
        # Restrictions sharing a subspace share each competitor's slice
        # and its (dimension, value) key — computed once per (member,
        # dims) pair, not once per restriction.
        slice_cache: Dict[object, Tuple[Tuple, Tuple]] = {}
        row = []
        for restriction, pool in zip(restriction_list, pools):
            sliced = []
            keys = []
            for index in pool:
                entry = slice_cache.get((index, restriction.dims))
                if entry is None:
                    factors = slice_factors(
                        full_factors[index], restriction.dims
                    )
                    entry = (
                        factors,
                        tuple(
                            (dimension, value)
                            for dimension, value, _ in factors
                        ),
                    )
                    slice_cache[(index, restriction.dims)] = entry
                sliced.append(entry[0])
                keys.append(entry[1])
            row.append(
                _solve_target(
                    preferences,
                    method,
                    target_values,
                    len(pool),
                    sliced.__getitem__,
                    lambda position: materialize_competitor(
                        dataset[pool[position]], target_values, restriction.dims
                    ),
                    lambda: _preprocess_keys(
                        target_values,
                        keys,
                        functools.partial(_split_possible, sliced.__getitem__),
                    ),
                    # An empty slice is a projected duplicate.
                    duplicate=not all(sliced),
                    max_exact=engine.max_exact_objects,
                    det_kernel=det_kernel,
                    epsilon=epsilon,
                    delta=delta,
                    samples=samples,
                    seed=next(seeds),
                    cache=cache,
                    memo=memo,
                )
            )
        rows.append(tuple(row))
    return RestrictedResult(
        tuple(target_list),
        tuple(restriction_list),
        tuple(rows),
        shared_pass=True,
        factor_passes=factor_passes,
        component_solves=memo.solves,
        component_hits=memo.hits,
    )
