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
can only beat ``O`` where ``D`` says it may.  So every cell of a
``targets × restrictions`` grid is an ordinary engine query, and the
planner shares the engine's multi-target plan among them:

* each restriction's cells are planned together by the engine's
  planning step, which runs the tile pass once they reach its crossover:
  a restriction is a competitor pool and a subspace mask, and the tile
  reads each ``(target, competitor, dimension)`` factor once, through
  one bulk read of the :class:`~repro.core.dominance.DominanceCache`;
* every component of the grid goes to one exact call, where identical
  components (across restrictions and targets) are solved once and
  ``"vec"`` components of one key structure are solved together;
* a competitor equal to the target on every retained dimension — a
  *projected duplicate* — dominates with certainty, giving ``sky = 0``
  exactly by the duplicate convention.

The plan is the engine's own, so restricted answers are bit-for-bit
what a per-restriction engine query computes.  On a
:class:`~repro.core.dynamic.DynamicSkylineEngine` each cell is first
looked up in the engine's restricted memo, under the key its single
restricted query uses, and each exact answer is stored there with the
preference variables it read, so an edit re-plans only the cells it
touches.

The same reduction makes restrictions first-class everywhere else: the
engine accepts ``competitors=``/``dims=`` on a single query (memo keys
carry the restriction key), the batch planner threads them through, the
dynamic engine answers restricted queries against its live state, and
the serve tier buckets coalesced requests on the restriction key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.engine import (
    _TILE_METHODS,
    SkylineProbabilityEngine,
    SkylineReport,
    _Query,
    _resolve_index,
)
from repro.core.exact import Component
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.options import QueryOptions, _index_tuple
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
    than a silent 1.0.  The integer and sorting part is
    :class:`~repro.core.options.QueryOptions`' own; this adds the
    ranges, which need the dataset.
    """
    competitor_key = _index_tuple("competitors", competitors)
    if competitor_key is not None:
        for position in competitor_key:
            _resolve_index(dataset, position)
        if len(competitor_key) == len(dataset):
            competitor_key = None
    dim_key = _index_tuple("dims", dims)
    if dim_key is not None:
        if not dim_key:
            raise ReproError(
                "a restriction's dimension subspace must not be empty"
            )
        dimensionality = dataset.dimensionality
        for index in dim_key:
            if not 0 <= index < dimensionality:
                raise DimensionalityError(
                    f"dimension {index} outside the space "
                    f"(dimensionality {dimensionality})"
                )
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
    return tuple(
        [
            value if dimension in dims else target[dimension]
            for dimension, value in enumerate(values)
        ]
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
    describe the shared pass over the cells it planned (a cell a
    dynamic engine's memo served counts in its
    ``restricted_cache_info()`` hits instead): ``factor_passes`` counts
    the live ``(target, competitor)`` pairs, once per target however
    many restrictions name the competitor; ``component_solves`` the
    exact components the pass's one exact call solved, and
    ``component_hits`` the components an identical one served.
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
    method: str = QueryOptions.method,
    epsilon: float = QueryOptions.epsilon,
    delta: float = QueryOptions.delta,
    samples: int | None = QueryOptions.samples,
    seed: object = None,
    det_kernel: str = QueryOptions.det_kernel,
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
        The query options (:class:`~repro.core.options.QueryOptions`)
        the planner takes, checked before any work.  The default
        ``det_kernel="auto"`` routes each component by its dominator
        count, exactly as the engine does, so the shared pass still
        equals ``share_pass=False`` bit for bit.
    seed:
        Root seed for the sampling methods.  Per-item seeds are spawned
        exactly as the batch planner spawns them
        (:func:`~repro.core.batch.spawn_batch_seeds`, row-major over the
        ``targets × restrictions`` grid), so answers are bit-reproducible
        and independent of how the grid is grouped; a memo-served cell
        keeps its slot.
    cache:
        Optional shared :class:`~repro.core.dominance.DominanceCache`;
        one built for another model raises
        :class:`~repro.errors.PreferenceError` before any work.  Without
        one the shared pass plans through a private cache.
    share_pass:
        ``True`` (default) runs the shared pass described in the module
        docstring.  ``False`` answers every grid cell with an
        independent engine query, never touching a dynamic engine's
        restricted memo — the ablation baseline the
        ``restricted_sharing`` experiment measures against, and the
        differential oracle the shared pass must match bit-for-bit on
        the exact methods.

    The first failing cell in row-major order raises its error: a
    target that does not resolve, a planning error (the ``det+``
    budget) or a failed component.
    """
    # Imported here, not at module top: batch imports the engine, which
    # lazily imports this module — keep the lazy edge in one place.
    from repro.core.batch import spawn_batch_seeds

    # A DynamicSkylineEngine exposes its static engine as `.engine`;
    # unwrap it (duck-typed, as the batch planner does) so the shared
    # pass solves with the same exact budget as share_pass=False, and
    # keep it: its restricted memo serves the shared pass's cells.
    dynamic = None
    inner = getattr(engine, "engine", None)
    if isinstance(inner, SkylineProbabilityEngine):
        dynamic, engine = engine, inner
    dataset = engine.dataset
    options = QueryOptions(
        method=method,
        epsilon=epsilon,
        delta=delta,
        samples=samples,
        det_kernel=det_kernel,
    )
    restriction_list = _normalize_restriction_specs(
        dataset, competitors, dims, restrictions
    )
    target_list = list(targets)
    if not target_list:
        raise ReproError("targets must name at least one target")
    seeds = spawn_batch_seeds(
        options.method, len(target_list) * len(restriction_list), seed=seed
    )

    if not share_pass:
        keywords = options.as_kwargs()
        spawned = iter(seeds)
        rows = tuple(
            tuple(
                engine.skyline_probability(
                    target,
                    seed=next(spawned),
                    cache=cache,
                    **dict(
                        keywords,
                        competitors=restriction.competitors,
                        dims=restriction.dims,
                    ),
                )
                for restriction in restriction_list
            )
            for target in target_list
        )
        return RestrictedResult(
            tuple(target_list), tuple(restriction_list), rows, shared_pass=False
        )

    # A cache built for another model fails here, before any work.
    factor_source(engine.preferences, cache)
    if cache is None:
        cache = DominanceCache(engine.preferences)
    width = len(restriction_list)
    # Per cell, row-major: its report, or the exception it raised.
    cells: List[object] = [None] * (len(target_list) * width)
    columns: List[List[Tuple[int, _Query]]] = [[] for _ in restriction_list]
    memo_keys: Dict[int, object] = {}
    try:
        for position, target in enumerate(target_list):
            for column, restriction in enumerate(restriction_list):
                cell = position * width + column
                if dynamic is not None:
                    memo_keys[cell] = dynamic._restricted_key(
                        target, restriction, options
                    )
                    cells[cell] = dynamic._restricted_lookup(memo_keys[cell])
                    if cells[cell] is not None:
                        continue
                query = engine._open(
                    target,
                    options,
                    None if restriction.is_full else restriction,
                    seeds[cell],
                    cache,
                )
                columns[column].append((cell, query))
    except Exception as error:
        # A target that fails to open fails its first cell; no later
        # cell can be the first failure in row-major order.
        cells[cell] = error
    # Each restriction's cells are planned together (the tile pass takes
    # one pool and subspace), and every component goes to one exact call.
    components: List[Component] = []
    planned: List[Tuple[int, _Query]] = []
    tiles = None if options.method in _TILE_METHODS else {}
    for column in filter(None, columns):
        starts = engine._plan_queries(column, components, None, tiles)
        for (cell, query), start in zip(column, starts):
            if isinstance(start, Exception):
                cells[cell] = start
            else:
                planned.append((cell, query))
    # Identical components, of one cell or of many, are solved once.
    unique: Dict[Component, int] = {}
    slots = [unique.setdefault(component, len(unique)) for component in components]
    outcomes: List[object] = []
    if unique:
        solved = engine._exact(list(unique), options.det_kernel)
        outcomes = [solved[slot] for slot in slots]
    pools: Dict[int, set] = {}  # per target, its planned cells' competitors
    for cell, query in planned:
        try:
            with query:
                cells[cell] = engine._finish(query, outcomes)
        except Exception as error:
            cells[cell] = error
            continue
        if cell in memo_keys:
            dynamic._restricted_store(memo_keys[cell], cells[cell])
        pool = pools.setdefault(cell // width, set())
        subset = None if query.restriction is None else query.restriction.competitors
        pool.update(range(len(dataset)) if subset is None else subset)
        pool.discard(query.own)
    for cell in cells:
        if isinstance(cell, Exception):
            raise cell
    return RestrictedResult(
        tuple(target_list),
        tuple(restriction_list),
        tuple(
            tuple(cells[start : start + width])
            for start in range(0, len(cells), width)
        ),
        shared_pass=True,
        factor_passes=sum(map(len, pools.values())),
        component_solves=len(unique),
        component_hits=len(components) - len(unique),
    )
