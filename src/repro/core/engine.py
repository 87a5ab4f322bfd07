"""High-level facade: one entry point for every algorithm in the paper.

:class:`SkylineProbabilityEngine` binds a :class:`~repro.core.objects.Dataset`
to a :class:`~repro.core.preferences.PreferenceModel` and answers skyline
probability queries with any of the paper's methods:

========  =====================================================
``det``   Algorithm 1 (exact inclusion-exclusion), no preprocessing
``det+``  absorption + partition, then Algorithm 1 per partition
``sam``   Algorithm 2 (Monte-Carlo), no preprocessing
``sam+``  absorption + zero-filter, then Algorithm 2 on the survivors
``naive`` exhaustive world enumeration (tiny inputs; ground truth)
``auto``  preprocess, solve small partitions exactly, sample the rest
========  =====================================================

``auto`` is the production default: after preprocessing, partitions no
larger than the exact budget are solved by Algorithm 1 (zero error) and
only oversized partitions are estimated, with the ε/δ budget split across
them so the *product* still meets the requested accuracy — by Theorem 4
the per-partition probabilities are independent, and for values in [0, 1]
the product's absolute error is at most the sum of the factors' errors.

The engine also exposes the dataset-level operators built on top of the
single-object query: all-objects probabilities, the probabilistic skyline
(threshold ``τ``), and top-k.
"""

from __future__ import annotations

import bisect
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import repro.obs as obs
from repro.core.bounds import hoeffding_error, hoeffding_sample_size
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.exact import (
    DEFAULT_MAX_OBJECTS,
    Component,
    ExactResult,
    _component,
    _solve,
)
from repro.core.naive import skyline_probability_naive
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.options import DEADLINE_POLICIES, METHODS, QueryOptions
from repro.core.preferences import PreferenceModel
from repro.core.preprocess import (
    PreprocessResult,
    _plan_tile,
    _ValueCodes,
    preprocess,
)
from repro.core.sampling import SamplingResult, skyline_probability_sampled
from repro.errors import (
    ComputationBudgetError,
    DatasetError,
    DeadlineExceededError,
    DimensionalityError,
    ReproError,
)
from repro.obs import QueryStats, query_stats_from_report
from repro.util.rng import as_rng

__all__ = ["SkylineProbabilityEngine", "SkylineReport", "METHODS", "DEADLINE_POLICIES"]

#: Fewest ``(target, competitor, dimension)`` cells the multi-target form
#: plans through the tile pass; below it each target is planned alone.
#: ``results/tile_planning.md`` times whole batch passes by chunk size: a
#: tile of one target loses to the per-target pipeline at 189 and 476
#: cells (1.20x and 1.05x its time), is about even at 378 (0.95x), and
#: wins from 756 cells on (0.84-0.88x up to 952, 0.53-0.62x at 32 targets).
_TILE_CROSSOVER = 512

#: Most ``(target, competitor, dimension)`` cells one tile holds.  A tile
#: keeps a few arrays of this many entries alive, so the bound caps the
#: tile pass's memory the way ``exact_vec.SLICE_FLOATS`` caps a ``vec``
#: slice.  The sweep in ``results/tile_planning.md`` (all-objects pass,
#: n=200 d=4) has the traced peak flat up to 2^15 cells (41 targets per
#: tile) and growing beyond (22 MB at 2^16, 30 MB at 2^17), while the
#: pass time levels off there.
_TILE_CELLS = 1 << 15

#: The methods the tile pass plans (the rest have no exact components).
_TILE_METHODS = frozenset({"det", "det+", "auto"})


@dataclass(frozen=True)
class SkylineReport:
    """Answer to a skyline-probability query, with full provenance.

    ``probability`` is exact when ``exact`` is ``True``; otherwise it is a
    Monte-Carlo estimate and ``samples`` records the total draws spent.
    ``preprocessing`` is present for the ``+``/``auto`` methods;
    ``partition_results`` holds the per-partition sub-results (an
    :class:`ExactResult` or :class:`SamplingResult` each) in partition
    order.  ``degraded`` is ``True`` when the requested exact method blew
    its wall-clock ``deadline`` and the engine fell back to the
    ``(ε, δ)``-bounded ``Sam`` estimator; ``degradation_reason`` then
    records why (and ``method`` names the method actually used).
    ``overrun_seconds`` records, for degraded reports, how far past the
    deadline the answer was finally assembled — the fallback's own cost.
    With a ``max_overrun`` ceiling armed the fallback truncates at the
    ceiling (``samples`` then records the smaller drawn count and the
    reason states the accuracy actually achieved).

    ``duplicate_target`` marks an external-object query whose target
    equals a dataset object: by the duplicate convention that object
    dominates with probability 1, so ``probability`` is exactly 0 and no
    algorithm ran.  ``stats`` is a :class:`~repro.obs.QueryStats`
    provenance record when :mod:`repro.obs` instrumentation is enabled,
    ``None`` otherwise (the disabled-by-default contract).
    """

    probability: float
    method: str
    exact: bool
    preprocessing: PreprocessResult | None = None
    partition_results: Tuple[object, ...] = ()
    samples: int = 0
    degraded: bool = False
    degradation_reason: str | None = None
    duplicate_target: bool = False
    overrun_seconds: float = 0.0
    stats: QueryStats | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"internal error: probability {self.probability} outside [0, 1]"
            )


class SkylineProbabilityEngine:
    """Skyline probability queries over one dataset + preference model.

    Parameters
    ----------
    dataset:
        The objects of the space.
    preferences:
        Uncertain preferences covering the dataset's dimensionality.
    max_exact_objects:
        Largest dominance-event set Algorithm 1 may enumerate (per
        partition for ``det+``/``auto``): an integer of at least 0.
    """

    def __init__(
        self,
        dataset: Dataset,
        preferences: PreferenceModel,
        *,
        max_exact_objects: int = DEFAULT_MAX_OBJECTS,
    ) -> None:
        _check_count("max_exact_objects", max_exact_objects, minimum=0)
        if preferences.dimensionality != dataset.dimensionality:
            raise DimensionalityError(
                f"preference model covers {preferences.dimensionality} "
                f"dimensions but the dataset has {dataset.dimensionality}"
            )
        self._dataset = dataset
        self._preferences = preferences
        self._max_exact_objects = max_exact_objects
        # Exact answers are deterministic: cache them keyed by the
        # preference model's mutation counter so in-place preference
        # updates (what-if analyses) invalidate automatically.
        self._exact_cache: dict = {}
        self._memo_version = preferences.version
        self._memo_hits = 0
        self._memo_misses = 0
        self._codes: _ValueCodes | None = None  # built by the first tile

    @property
    def dataset(self) -> Dataset:
        """The engine's dataset."""
        return self._dataset

    @property
    def preferences(self) -> PreferenceModel:
        """The engine's preference model."""
        return self._preferences

    @property
    def max_exact_objects(self) -> int:
        """Largest dominance-event set Algorithm 1 may enumerate."""
        return self._max_exact_objects

    # ------------------------------------------------------------------
    # Single-object query
    # ------------------------------------------------------------------
    def skyline_probability(
        self,
        target: int | Sequence[Value],
        *,
        seed: object = None,
        cache: DominanceCache | None = None,
        **options: object,
    ) -> SkylineReport:
        """``sky(target)`` under the query ``options``.

        ``target`` is either an index into the dataset or an object (which
        may be outside the dataset — then the whole dataset competes).
        ``options`` are any of the :class:`~repro.core.options.QueryOptions`
        — method, accuracy, ablation switches, kernel, deadline policy and
        restriction — checked before any work.  ``seed`` feeds the
        sampling methods and a degraded query's fallback; ``cache`` is an
        optional :class:`~repro.core.dominance.DominanceCache` shared
        across queries, which never changes the answer.

        A restriction drops an index target from its own competitor
        subset and neutralises the dimensions outside ``dims`` by
        materialising each competitor with the target's own values
        there, so every method — sampling included — answers the
        restricted question unchanged; a competitor equal to the target
        on every retained dimension is a *projected duplicate* and forces
        ``sky = 0`` exactly.  Exact reports are memoised, keyed on the
        target, the duplicate flag,
        :attr:`~repro.core.options.QueryOptions.exact_key`, the
        restriction and the preference model's version.
        """
        query_options = QueryOptions(**options)
        query = self._open(
            target, query_options, self._restriction(query_options), seed, cache
        )
        cached = self._memoised(query)
        if cached is not None:
            return cached
        self._memo_misses += 1
        with query:
            components: List[Component] = []
            self._plan(query, components)
            outcomes = self._exact(
                components, query_options.det_kernel, query.deadline_at
            )
            report = self._finish(query, outcomes)
        return self._close(query, report)

    def _skyline_probability_many(
        self,
        tasks: Sequence[Tuple[int | Sequence[Value], object]],
        options: QueryOptions,
        cache: DominanceCache | None,
        *,
        before: Callable[[int], None] | None = None,
        beat: Callable[[], None] | None = None,
        stop_at_error: bool = False,
    ) -> List[object]:
        """Answer many ``(target, seed)`` tasks through one exact call.

        The multi-target form of :meth:`skyline_probability`: the tasks
        share ``options`` and ``cache``.  Each task is opened (memo,
        duplicate rule, method dispatch) in task order; the targets left are
        planned by :meth:`_plan_queries` (the ``det+`` budget error, the
        exact components), then
        one :func:`~repro.core.exact._solve` call evaluates the exact
        components of all of them — ``"vec"`` components of one key
        structure together — and each target is finished in task order.
        Every report equals the one :meth:`skyline_probability` returns.

        ``det``/``det+``/``auto`` targets whose ``(target, competitor,
        dimension)`` cells reach ``_TILE_CROSSOVER`` are planned by the
        tile pass (:func:`~repro.core.preprocess._plan_tile`) in tiles of
        at most ``_TILE_CELLS`` cells, each one ``preprocess`` obs stage
        outside every query's scope: a tiled query's ``stage_seconds``
        and cache deltas leave its tile out.  With fewer cells, and for
        the other methods, each target is planned alone, as
        :meth:`skyline_probability` plans it.

        Returns, per task, its report or the exception it raised; one
        failing task fails nothing else.  ``before(k)`` runs first in
        task ``k`` (a failpoint: what it raises is the task's answer).
        ``beat()`` is a supervisor's heartbeat, called before each task
        is opened, before each tile, in the exact call before each
        structure group and before each task's components solved alone,
        and before each target is finished; what it raises aborts the
        whole call.  ``stop_at_error`` plans no task after the first one
        that fails, leaving their answers ``None``: for callers that
        raise the first failure in task order.  Its tiles are planned
        ahead of the tasks, so each target's planning outcome is known
        when its turn comes and no failpoint after the first failure is
        consulted.  The
        memo behaves as for one query after another: a target repeated
        within the tasks is answered after its first occurrence is
        finished, so it is a memo hit whenever that answer is exact.  An
        armed ``deadline`` answers the tasks one at a time, so each
        deadline starts with its own query.  A task answered alone goes
        through :meth:`skyline_probability`, as one query of its own.
        """
        answers: List[object] = [None] * len(tasks)
        keywords = options.as_kwargs()

        def alone(position: int) -> None:
            target, seed = tasks[position]
            try:
                answers[position] = self.skyline_probability(
                    target, seed=seed, cache=cache, **keywords
                )
            except Exception as error:
                answers[position] = error

        if options.deadline is not None:
            for position in range(len(tasks)):
                if beat is not None:
                    beat()
                try:
                    if before is not None:
                        before(position)
                except Exception as error:
                    answers[position] = error
                else:
                    alone(position)
                if stop_at_error and isinstance(answers[position], Exception):
                    break
            return answers
        planned: List[Tuple[int, _Query]] = []
        open_keys: set = set()
        repeats: List[int] = []
        components: List[Component] = []
        starts: List[int] = []  # where each planned target's components begin

        def plan(
            queries: List[Tuple[int, _Query]], tiles: Dict[int, object] | None
        ) -> None:
            outcomes = self._plan_queries(queries, components, beat, tiles)
            for (position, query), outcome in zip(queries, outcomes):
                if isinstance(outcome, Exception):
                    answers[position] = outcome
                else:
                    starts.append(outcome)
                    planned.append((position, query))

        dataset = self._dataset
        tiled = (
            options.method in _TILE_METHODS
            and cache is not None
            and len(tasks) * len(dataset) * dataset.dimensionality
            >= _TILE_CROSSOVER
        )
        restriction = self._restriction(options)
        ahead: Dict[int, object] = {}
        if tiled and stop_at_error:
            # Each planning failure must come out before the next task's
            # failpoint, so the tiles are planned ahead of the tasks.
            ahead = self._tile_outcomes(
                self._peek(tasks, options, restriction, cache), beat
            )
        deferred: List[Tuple[int, _Query]] = []
        for position, (target, seed) in enumerate(tasks):
            if beat is not None:
                beat()
            try:
                if before is not None:
                    before(position)
                query = self._open(target, options, restriction, seed, cache)
                if query.key in open_keys:
                    repeats.append(position)
                    continue
                cached = self._memoised(query)
                if cached is not None:
                    answers[position] = cached
                    continue
                self._memo_misses += 1
            except Exception as error:
                answers[position] = error
                if stop_at_error:
                    break
                continue
            if tiled and not stop_at_error:
                open_keys.add(query.key)
                deferred.append((position, query))
                continue
            plan([(position, query)], ahead)
            if answers[position] is None:
                open_keys.add(query.key)
            elif stop_at_error:
                break
        if deferred:
            plan(deferred, None)
        beaten = None

        def solving(component: int | None) -> None:
            # One beat before each group, and one before the first of each
            # task's components solved alone (they come consecutively).
            nonlocal beaten
            task = None if component is None else bisect.bisect_right(starts, component)
            if task is None or task != beaten:
                beaten = task
                beat()

        outcomes = self._exact(
            components,
            options.det_kernel,
            progress=None if beat is None else solving,
        )
        for position, query in planned:
            if beat is not None:
                beat()
            try:
                with query:
                    report = self._finish(query, outcomes)
                answers[position] = self._close(query, report)
            except Exception as error:
                answers[position] = error
        for position in repeats:
            if beat is not None:
                beat()
            alone(position)
        return answers

    def _plan_queries(
        self,
        queries: List[Tuple[int, "_Query"]],
        components: List[Component],
        beat: Callable[[], None] | None = None,
        tiles: Dict[int, object] | None = None,
    ) -> List[int | Exception]:
        """Plan opened queries, appending their exact components to ``components``.

        The planning half of the multi-target form, which the dynamic
        engine's view builds and the restriction planner's grid share.
        ``queries`` are ``(position, query)`` pairs of opened queries
        with one options value and restriction, planned in order; ``tiles``
        holds the tile pass's outcomes (:meth:`_tile_outcomes`), and ``None``
        tiles the queries here, which must then be ``det``/``det+``/
        ``auto`` queries with a cache.  A query without a tile outcome is
        planned alone.  Returns, per query, where its components begin
        in ``components`` (its plan is ``query.plan``) or the exception
        its planning raised; a failed plan leaves no component behind.
        """
        if tiles is None:
            tiles = self._tile_outcomes(queries, beat)
        outcomes: List[int | Exception] = []
        for position, query in queries:
            tiled = tiles.get(position)
            if isinstance(tiled, Exception):
                outcomes.append(tiled)
                continue
            start = len(components)
            try:
                with query:
                    self._plan(query, components, tiled)
            except Exception as error:
                del components[start:]
                outcomes.append(error)
                continue
            outcomes.append(start)
        return outcomes

    def _peek(
        self,
        tasks: Sequence[Tuple[int | Sequence[Value], object]],
        options: QueryOptions,
        restriction: object,
        cache: DominanceCache | None,
    ) -> List[Tuple[int, "_Query"]]:
        """The tasks that will need planning, opened without side effects.

        Skips tasks that fail to open, memo hits and repeated targets;
        the memo is only read, not counted.
        """
        queries: List[Tuple[int, _Query]] = []
        keys = set()
        for position, (target, seed) in enumerate(tasks):
            try:
                query = self._open(target, options, restriction, seed, cache)
            except Exception:
                continue
            if query.key not in keys and query.key not in self._exact_cache:
                keys.add(query.key)
                queries.append((position, query))
        return queries

    def _tile_outcomes(
        self,
        queries: List[Tuple[int, "_Query"]],
        beat: Callable[[], None] | None,
    ) -> Dict[int, object]:
        """The tile pass's outcome for each query worth tiling, by position.

        The queries' ``(target, competitor, dimension)`` cells decide:
        below ``_TILE_CROSSOVER`` there are none (each target is planned
        alone).  Otherwise every target with competitors and no duplicate
        is planned by :func:`~repro.core.preprocess._plan_tile`, in tiles
        of at most ``_TILE_CELLS`` cells, each after a ``beat()`` and as
        one ``preprocess`` obs stage outside every query's scope.
        """
        dimensionality = self._dataset.dimensionality
        cells = [
            0 if query.duplicate else len(query.competitors) * dimensionality
            for _, query in queries
        ]
        if sum(cells) < _TILE_CROSSOVER:
            return {}
        tiles: List[List[Tuple[int, _Query]]] = []
        filled = 0
        for entry, cost in zip(queries, cells):
            if not cost:
                continue
            if not tiles or filled + cost > _TILE_CELLS:
                tiles.append([])
                filled = 0
            tiles[-1].append(entry)
            filled += cost
        outcomes: Dict[int, object] = {}
        for tile in tiles:
            if beat is not None:
                beat()
            for (position, _), outcome in zip(tile, self._plan_tile(tile)):
                outcomes[position] = outcome
        return outcomes

    def _plan_tile(self, tile: List[Tuple[int, "_Query"]]) -> List[object]:
        """The tile pass's outcome for each query of ``tile``."""
        first = tile[0][1]
        options = first.options
        restriction = first.restriction
        pool: Sequence[int] = range(len(self._dataset))
        dims = None
        if restriction is not None:
            if restriction.competitors is not None:
                pool = restriction.competitors
            dims = restriction.dims
        if self._codes is None:
            self._codes = _ValueCodes(
                self._dataset.objects, self._dataset.dimensionality
            )
        with obs.stage("preprocess"):
            return _plan_tile(
                self._codes,
                [(query.target, query.own) for _, query in tile],
                pool,
                dims,
                first.cache,
                method=options.method,
                use_absorption=options.use_absorption,
                use_partition=options.use_partition,
                max_exact=self._max_exact_objects,
            )

    def _restriction(self, options: QueryOptions) -> object:
        """``options``' normalised restriction, or ``None`` for a full query."""
        if not options.restricted:
            return None
        # Imported lazily: repro.core.restricted builds SkylineReport
        # objects, so a top-level import would be circular.
        from repro.core.restricted import normalize_restriction

        restriction = normalize_restriction(
            self._dataset, competitors=options.competitors, dims=options.dims
        )
        return None if restriction.is_full else restriction

    def _open(
        self,
        target: int | Sequence[Value],
        options: QueryOptions,
        restriction: object,
        seed: object = None,
        cache: DominanceCache | None = None,
    ) -> "_Query":
        """Resolve one query; its memo key names the answer.

        ``restriction`` is ``options``' normalised restriction
        (:meth:`_restriction`): the options themselves were checked when
        they were built.
        """
        target_values, pool, own = _resolve_pool(
            self._dataset, target, restriction
        )
        objects = self._dataset.objects
        competitors = [objects[position] for position in pool]
        if restriction is not None and restriction.dims is not None:
            from repro.core.restricted import materialize_competitor

            # Dimensions outside the subspace take the target's own
            # values, so every method answers the restricted question.
            competitors = [
                materialize_competitor(values, target_values, restriction.dims)
                for values in competitors
            ]
        # Also covers projected duplicates (equal on every retained
        # dimension); an external target competes with the whole dataset.
        duplicate = target_values in competitors
        # `duplicate` is part of the key: an index query for object i and
        # an external-object query for the same values are *different*
        # questions (the former excludes object i from the competitors,
        # the latter answers 0 by the duplicate convention).  The
        # restriction key (None for full queries) keeps restricted
        # answers from ever colliding with full ones.
        key = (
            target_values,
            duplicate,
            *options.exact_key,
            None if restriction is None else restriction.key,
            self._preferences.version,
        )
        return _Query(
            key, options, seed, cache, target_values, competitors, duplicate,
            own, restriction,
        )

    def _memoised(self, query: "_Query") -> SkylineReport | None:
        """The memoised answer to ``query``, counted as a hit, or ``None``."""
        cached = self._exact_cache.get(query.key)
        if cached is not None:
            self._memo_hits += 1
            obs.count(
                "repro_queries_total",
                help_text="Engine queries answered, by method and outcome.",
                method=query.options.method,
                outcome="memoised",
            )
        return cached

    def _plan(
        self,
        query: "_Query",
        components: List[Component],
        tiled: Tuple[PreprocessResult | None, List[Component | None]] | None = None,
    ) -> None:
        """Plan ``query``, appending its exact components to ``components``.

        ``tiled`` is the tile pass's ``(prep, components)`` for the query,
        which then stand in for its own preprocessing and factor lists.
        """
        options = query.options
        deadline = options.deadline
        query.deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        cache = query.cache
        competitors = query.competitors
        target_values = query.target
        if tiled is None:
            factors_of = factor_source(self._preferences, cache)
            forms = None

            def prepare() -> PreprocessResult:
                return preprocess(
                    competitors,
                    target_values,
                    preferences=self._preferences,
                    use_absorption=options.use_absorption,
                    use_partition=options.use_partition,
                    cache=cache,
                )

        else:
            factors_of = None
            prep, forms = tiled

            def prepare() -> PreprocessResult:
                return prep

        query.plan = _plan_target(
            self._preferences,
            options,
            target_values,
            len(competitors),
            None
            if factors_of is None
            else lambda position: factors_of(competitors[position], target_values),
            competitors.__getitem__,
            prepare,
            components,
            duplicate=query.duplicate,
            max_exact=self._max_exact_objects,
            seed=query.seed,
            cache=cache,
            forms=forms,
        )

    def _exact(
        self,
        components: List[Component],
        det_kernel: str,
        deadline_at: float | None = None,
        progress: Callable[[int | None], None] | None = None,
    ) -> List[ExactResult | Exception]:
        """One exact call over ``components`` (none when there are none)."""
        if not components:
            return []
        return _solve(
            components,
            max_objects=self._max_exact_objects,
            kernel=det_kernel,
            deadline_at=deadline_at,
            progress=progress,
        )

    def _finish(
        self, query: "_Query", outcomes: Sequence[ExactResult | Exception]
    ) -> SkylineReport:
        """``query``'s report from its components' exact outcomes.

        An expired deadline follows the query's ``on_deadline`` policy.
        """
        try:
            return _finish_target(query.plan, outcomes)
        except DeadlineExceededError as expiry:
            if query.options.on_deadline == "raise":
                raise
            return self._degrade_to_sampling(query, expiry)

    def _close(self, query: "_Query", report: SkylineReport) -> SkylineReport:
        """Attach ``query``'s stats (obs enabled) and memoise an exact report."""
        if query.collect:
            if query.duplicate:
                outcome = "duplicate_target"
            elif report.degraded:
                outcome = "degraded"
            else:
                outcome = "answered"
            stats = query_stats_from_report(
                report,
                outcome=outcome,
                competitors=len(query.competitors),
                cache_hits=query.cache_hits,
                cache_misses=query.cache_misses,
                wall_seconds=query.seconds,
                stage_seconds=query.scope.stage_seconds,
            )
            report = replace(report, stats=stats)
            _record_query(stats)
        if report.exact:
            version = query.key[-1]
            if version > self._memo_version:
                # Answers of an older preference version are never asked
                # for again: drop them rather than keep them forever.
                self._exact_cache.clear()
                self._memo_version = version
            self._exact_cache[query.key] = report
        return report

    def _degrade_to_sampling(
        self, query: "_Query", expiry: DeadlineExceededError
    ) -> SkylineReport:
        """Answer ``query``, an over-deadline exact query, with ``Sam``.

        The estimate carries the caller's ``(ε, δ)`` Hoeffding guarantee
        (Theorem 2) and, given the same ``seed``, is bit-for-bit the
        answer a direct ``method="sam"`` query would have produced — the
        exact attempt consumed no randomness before expiring.

        The deadline has *already* expired when this runs, so the
        fallback is pure overrun; ``max_overrun`` bounds it by handing
        the sampler the hard ceiling ``deadline_at + max_overrun``.  A
        truncated run keeps the bit-identity property for the samples it
        drew (the stream prefix matches the untruncated run), reports
        the drawn count, and appends the effectively achieved Hoeffding
        ``ε`` to the reason.  ``overrun_seconds`` records the measured
        overrun either way.
        """
        options = query.options
        epsilon, delta, samples = options.epsilon, options.delta, options.samples
        max_overrun = options.max_overrun
        result = skyline_probability_sampled(
            self._preferences,
            query.competitors,
            query.target,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=query.seed,
            cache=query.cache,
            deadline_at=(
                None if max_overrun is None else query.deadline_at + max_overrun
            ),
        )
        reason = (
            f"deadline of {options.deadline}s expired during exact "
            f"method {options.method!r} ({expiry}); degraded to sam with "
            f"epsilon={epsilon}, delta={delta}"
        )
        planned = (
            samples
            if samples is not None
            else hoeffding_sample_size(epsilon, delta)
        )
        if result.samples < planned:
            achieved = hoeffding_error(result.samples, delta)
            reason += (
                f"; max_overrun={max_overrun}s truncated the fallback at "
                f"{result.samples} of {planned} samples "
                f"(achieved epsilon~{achieved:.4g} at delta={delta})"
            )
        return SkylineReport(
            result.estimate,
            "sam",
            False,
            partition_results=(result,),
            samples=result.samples,
            degraded=True,
            degradation_reason=reason,
            overrun_seconds=max(0.0, time.monotonic() - query.deadline_at),
        )

    def cache_info(self) -> dict:
        """Memo-table snapshot: ``{"entries", "hits", "misses"}``.

        ``hits`` counts queries answered straight from the memoised
        report; ``misses`` counts lookups that fell through (whether or
        not the answer was cacheable — sampled answers never are).  The
        counters describe the *current* cache generation:
        :meth:`clear_cache` resets them along with the entries.
        ``entries`` holds answers of one preference version only:
        memoising an answer at a newer version first drops the older
        ones, which no query can ask for again (the counters keep
        running).
        """
        return {
            "entries": len(self._exact_cache),
            "hits": self._memo_hits,
            "misses": self._memo_misses,
        }

    def clear_cache(self) -> None:
        """Drop memoised exact answers and reset the hit/miss counters.

        Clearing starts a fresh cache generation, so the ``hits``/
        ``misses`` counters reported by :meth:`cache_info` restart from
        zero — keeping them running across a clear would make post-clear
        hit rates unmeasurable.  Answers are unaffected (same results,
        recomputed).
        """
        self._exact_cache.clear()
        self._memo_hits = 0
        self._memo_misses = 0

    # ------------------------------------------------------------------
    # Dataset-level operators
    # ------------------------------------------------------------------
    def skyline_probabilities(self, **batch_options: object) -> List[float]:
        """``sky`` for every object (or a subset of ``indices``), in order.

        Answered by the batch planner
        (:func:`~repro.core.batch.batch_skyline_probabilities`, which
        takes ``batch_options``): one shared :class:`~repro.core.dominance.DominanceCache` amortises
        preference lookups across all queries, and ``workers`` fans object
        shards out over the shard coordinator's worker processes
        (``workers=None`` uses every core this process may run on).
        Sampling methods draw one spawned, per-object random stream from
        ``seed``, so the output is identical for every ``workers``/
        ``chunk_size`` choice.

        Unlike :func:`~repro.core.batch.batch_skyline_probabilities`
        itself, this facade defaults to ``on_error="raise"``: a positional
        list of probabilities cannot represent a salvaged hole, so a
        permanently failing object propagates its error instead.
        """
        from repro.core.batch import batch_skyline_probabilities

        batch_options.setdefault("on_error", "raise")
        result = batch_skyline_probabilities(self, **batch_options)
        return list(result.probabilities)

    def probabilistic_skyline(
        self, tau: float, **batch_options: object
    ) -> List[int]:
        """Indices of objects with ``sky ≥ τ`` (the probabilistic skyline).

        This is the paper's target operator (Section 1); it evaluates the
        single-object query for every object, as the paper prescribes for
        the general case, through the shared-cache batch planner
        (``workers=``/``cache=`` are accepted and forwarded).
        """
        if not 0 < tau <= 1:
            raise ReproError(f"threshold tau must lie in (0, 1], got {tau!r}")
        probabilities = self.skyline_probabilities(**batch_options)
        return [
            index
            for index, probability in enumerate(probabilities)
            if probability >= tau
        ]

    def top_k(self, k: int, **batch_options: object) -> List[Tuple[int, float]]:
        """The ``k`` objects with the highest skyline probability.

        Returns ``(index, probability)`` pairs, descending by probability
        (ties broken by index for determinism).  Evaluated through the
        batch planner (``workers=``/``cache=`` forwarded); see
        :mod:`repro.core.topk` for the shared-world estimator that scales
        this to large datasets.
        """
        _check_count("k", k, minimum=1)
        probabilities = self.skyline_probabilities(**batch_options)
        ranked = sorted(
            enumerate(probabilities), key=lambda pair: (-pair[1], pair[0])
        )
        return ranked[: min(k, len(ranked))]


def _check_count(name: str, value: object, *, minimum: int) -> None:
    """Reject ``value`` unless it is an integer of at least ``minimum``.

    ``bool`` is refused although it subclasses ``int``: ``True`` is no
    count.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
    ):
        raise ReproError(
            f"{name} must be an integer of at least {minimum}, got {value!r}"
        )


def _resolve_index(dataset: Dataset, index: object) -> int:
    """``index`` as a dataset position, or :class:`DatasetError`.

    The one index rule of every entry point: an integer — NumPy integers
    included, through :func:`operator.index` — in ``[0, n)``.
    """
    try:
        position = operator.index(index)
    except TypeError:
        raise DatasetError(
            f"object index {index!r} is not an integer"
        ) from None
    if not 0 <= position < len(dataset):
        raise DatasetError(
            f"object index {position} out of range (dataset has "
            f"{len(dataset)} objects)"
        )
    return position


def _resolve_indices(
    dataset: Dataset, indices: Sequence[object] | None
) -> List[int]:
    """Dataset positions of a batch's ``indices`` (default: all, in order)."""
    if indices is None:
        return list(range(len(dataset)))
    return [_resolve_index(dataset, index) for index in indices]


def _resolve_pool(
    dataset: Dataset,
    target: int | Sequence[Value],
    restriction: object = None,
) -> Tuple[ObjectValues, List[int], int | None]:
    """``(target values, competitor pool, own index)`` for one query.

    The one target resolver of the engine, the restriction planner and
    the dynamic engine.  An integer target (NumPy integers included) is
    an index and must lie in ``[0, n)``; it is dropped from its own pool
    (``own index`` is that index, ``None`` for an external object).  The
    pool is every dataset position, or the restriction's competitor
    subset when it names one, in ascending order.
    """
    try:
        operator.index(target)
    except TypeError:
        try:
            values, own = as_object(target), None
        except TypeError:
            raise DatasetError(
                f"target {target!r} is neither an object index (an "
                f"integer) nor a sequence of values"
            ) from None
        if len(values) != dataset.dimensionality:
            raise DimensionalityError(
                f"target has {len(values)} dimensions, dataset has "
                f"{dataset.dimensionality}"
            )
    else:
        own = _resolve_index(dataset, target)
        values = dataset[own]
    subset = None if restriction is None else restriction.competitors
    pool = range(len(dataset)) if subset is None else subset
    return values, [position for position in pool if position != own], own


@dataclass(eq=False)
class _Query:
    """One engine query between its memo miss and its report.

    Used as a context around each stretch of the query's own work (its
    planning, its finishing; a single query's exact call too): the
    stretch runs inside the query's obs scope and ``query`` stage, and
    its wall time and dominance-cache traffic add to the query's stats.
    A chunk's tiles and exact call run outside every query's stretches.
    ``own`` is the target's dataset index (``None`` for an external
    object) and ``restriction`` the normalised restriction (``None``
    for a full query): what the tile pass needs to find the pool.
    """

    key: tuple
    options: QueryOptions
    seed: object
    cache: DominanceCache | None
    target: ObjectValues
    competitors: List[ObjectValues]
    duplicate: bool
    own: int | None = None
    restriction: object = None
    deadline_at: float | None = None
    plan: object = None
    collect: bool = field(default_factory=obs.is_enabled)
    scope: object = field(default_factory=obs.query_scope)
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def __enter__(self) -> "_Query":
        self.scope.__enter__()
        self._stage = obs.stage("query")
        self._stage.__enter__()
        if self.collect:
            cache = self.cache
            self._entered = (
                time.perf_counter(),
                0 if cache is None else cache.hits,
                0 if cache is None else cache.misses,
            )
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self.collect:
            started, hits, misses = self._entered
            self.seconds += time.perf_counter() - started
            cache = self.cache
            if cache is not None:
                self.cache_hits += cache.hits - hits
                self.cache_misses += cache.misses - misses
        self._stage.__exit__(*exc_info)
        self.scope.__exit__(*exc_info)
        return False


class _TargetPlan(NamedTuple):
    """A ``det``/``det+``/``auto`` target waiting for its exact outcomes.

    ``steps`` holds one entry per partition, in order: the component's
    position in the exact call (an ``int``) or the oversized part to
    sample (its member positions).  ``sample(part, share, rng)``
    estimates an oversized part with the target's Sam options.
    """

    method: str
    prep: PreprocessResult | None
    steps: List[object]
    seed: object
    sample: Callable[[Sequence[int], int, object], SamplingResult] | None


def _plan_target(
    preferences: PreferenceModel,
    options: QueryOptions,
    target: ObjectValues,
    count: int,
    factors_of: Callable[[int], Sequence[DominanceFactor]] | None,
    objects_of: Callable[[int], ObjectValues],
    prepare: Callable[[], PreprocessResult],
    components: List[Component],
    *,
    duplicate: bool,
    max_exact: int,
    seed: object,
    cache: DominanceCache | None,
    forms: Sequence[Component | None] | None = None,
) -> SkylineReport | _TargetPlan:
    """Plan ``sky(target)`` by ``options.method``: a finished report, or
    what finishing needs.

    Competitors are named by position: ``factors_of`` gives one's
    dominance factors (Det), ``objects_of`` its values (Sam and naive),
    and ``prepare`` builds the :class:`PreprocessResult` the ``+``/
    ``auto`` methods need.  ``duplicate`` marks a competitor equal to
    the target (on every retained dimension): ``sky = 0`` exactly and
    nothing runs.  ``naive``, ``sam`` and ``sam+`` are answered here.

    ``det`` solves the whole pool as one component.  ``det+``/``auto``
    plan one step per Theorem-4 component: components within
    ``max_exact`` go to Algorithm 1 — appended to ``components`` for
    the exact call in their :class:`~repro.core.exact.Component` form —
    and oversized ones either fail here (``det+``) or are sampled when
    the target is finished.  ``forms`` holds the tile pass's components, one per
    partition (``det``: the one); given them, ``factors_of`` is unused.
    """
    method = options.method
    epsilon, delta, samples = options.epsilon, options.delta, options.samples
    if duplicate:
        return SkylineReport(0.0, method, True, duplicate_target=True)
    if method == "naive":
        probability = skyline_probability_naive(
            preferences, [objects_of(p) for p in range(count)], target
        )
        return SkylineReport(probability, "naive", True)
    if method == "det":
        # The whole pool in one evaluation.
        steps = [len(components)]
        if forms is None:
            components.append(_component([factors_of(p) for p in range(count)]))
        else:
            components.append(forms[0])
        return _TargetPlan("det", None, steps, seed, None)
    prep = None if method == "sam" else prepare()
    if method in ("sam", "sam+"):
        positions = range(count) if prep is None else prep.kept_indices
        result = skyline_probability_sampled(
            preferences,
            [objects_of(p) for p in positions],
            target,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=seed,
            cache=cache,
        )
        return SkylineReport(
            result.estimate,
            method,
            False,
            preprocessing=prep,
            partition_results=(result,),
            samples=result.samples,
        )
    oversized = [part for part in prep.partitions if len(part) > max_exact]
    if oversized and method == "det+":
        raise ComputationBudgetError(
            f"efficient exact computation impossible: partition of size "
            f"{max(len(part) for part in oversized)} exceeds "
            f"max_exact_objects={max_exact}; use method='sam+' or 'auto'"
        )
    steps: List[object] = []
    for number, part in enumerate(prep.partitions):
        if len(part) > max_exact:
            steps.append(part)
            continue
        steps.append(len(components))
        if forms is None:
            components.append(_component([factors_of(member) for member in part]))
        else:
            components.append(forms[number])

    def sample(part: Sequence[int], share: int, rng: object) -> SamplingResult:
        return skyline_probability_sampled(
            preferences,
            [objects_of(member) for member in part],
            target,
            epsilon=epsilon / share,
            delta=delta / share,
            samples=samples,
            seed=rng,
            cache=cache,
        )

    return _TargetPlan(method, prep, steps, seed, sample)


def _finish_target(
    plan: SkylineReport | _TargetPlan,
    outcomes: Sequence[ExactResult | Exception],
) -> SkylineReport:
    """The report of a planned target, given its components' outcomes.

    ``outcomes`` holds the outcomes of the exact call the target's
    components went to.  Per Theorem 4 the per-component results multiply, in
    partition order, stopping at a zero product.  A component that
    failed raises its error when reached.  Oversized components are
    sampled with the ε/δ budget split evenly among them, keeping the
    product inside the requested accuracy (absolute errors of [0, 1]
    factors add at worst).
    """
    if isinstance(plan, SkylineReport):
        return plan
    sampled = sum(1 for step in plan.steps if not isinstance(step, int))
    share = max(1, sampled)
    # One generator shared by all sampled partitions: re-seeding each
    # partition with the same integer would correlate their estimates
    # and bias the product.
    rng = as_rng(plan.seed) if sampled else None
    probability = 1.0
    results: List[object] = []
    total_samples = 0
    exact = True
    for step in plan.steps:
        if isinstance(step, int):
            result = outcomes[step]
            if isinstance(result, Exception):
                raise result
            probability *= result.probability
        else:
            result = plan.sample(step, share, rng)
            probability *= result.estimate
            total_samples += result.samples
            exact = False
        results.append(result)
        if probability == 0.0:
            break
    return SkylineReport(
        min(max(probability, 0.0), 1.0),
        plan.method,
        exact,
        preprocessing=plan.prep,
        partition_results=tuple(results),
        samples=total_samples,
    )


def _record_query(stats: QueryStats) -> None:
    """Publish one query's registry counters (obs is known enabled)."""
    registry = obs.registry()
    registry.counter(
        "repro_queries_total",
        "Engine queries answered, by method and outcome.",
    ).inc(method=stats.method, outcome=stats.outcome)
    if stats.cache_hits:
        registry.counter(
            "repro_cache_hits_total",
            "DominanceCache lookups served from the memo tables.",
        ).inc(stats.cache_hits)
    if stats.cache_misses:
        registry.counter(
            "repro_cache_misses_total",
            "DominanceCache lookups that computed and stored an entry.",
        ).inc(stats.cache_misses)
    if stats.degraded:
        registry.counter(
            "repro_degraded_total",
            "Exact queries degraded to Sam by an expired deadline.",
        ).inc()
    if stats.duplicate_target:
        registry.counter(
            "repro_duplicate_targets_total",
            "Queries answered 0 by the duplicate-target convention.",
        ).inc()
