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
from repro.core.bounds import (
    hoeffding_error,
    hoeffding_sample_size,
    validate_accuracy,
    validate_robustness,
)
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.exact import (
    DEFAULT_DET_KERNEL,
    DEFAULT_MAX_OBJECTS,
    DET_KERNELS,
    Component,
    ExactResult,
    _component,
    _solve,
)
from repro.core.naive import skyline_probability_naive
from repro.core.objects import Dataset, ObjectValues, Value, as_object
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
    RobustnessPolicyError,
)
from repro.obs import QueryStats, query_stats_from_report
from repro.util.rng import as_rng

__all__ = ["SkylineProbabilityEngine", "SkylineReport", "METHODS", "DEADLINE_POLICIES"]

METHODS = ("det", "det+", "sam", "sam+", "naive", "auto")

#: What to do when an exact query's wall-clock ``deadline`` expires:
#: ``"degrade"`` (default) falls back to the ``(ε, δ)``-bounded ``Sam``
#: estimator and flags the report; ``"raise"`` surfaces
#: :class:`~repro.errors.DeadlineExceededError` to the caller.
DEADLINE_POLICIES = ("degrade", "raise")

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
        method: str = "auto",
        epsilon: float = 0.01,
        delta: float = 0.01,
        samples: int | None = None,
        seed: object = None,
        use_absorption: bool = True,
        use_partition: bool = True,
        det_kernel: str = DEFAULT_DET_KERNEL,
        cache: DominanceCache | None = None,
        deadline: float | None = None,
        on_deadline: str = "degrade",
        max_overrun: float | None = None,
        competitors: Sequence[int] | None = None,
        dims: Sequence[int] | None = None,
    ) -> SkylineReport:
        """``sky(target)`` by the chosen method.

        ``target`` is either an index into the dataset or an object (which
        may be outside the dataset — then the whole dataset competes).

        ``competitors``/``dims`` restrict the query (see
        :func:`~repro.core.restricted.restricted_skyline_probabilities`
        for the shared-pass planner over many restrictions):
        ``competitors`` names the dataset indices allowed to compete (the
        target index, when the target is an index, is dropped from its own
        subset; an empty subset gives ``sky = 1`` exactly) and ``dims``
        names the dimensions that participate in dominance.  Dimensions
        outside ``dims`` are neutralised by materialising each competitor
        with the target's own values there, so every method — including
        sampling — answers the restricted question unchanged.  A
        competitor that coincides with the target on every retained
        dimension is a *projected duplicate* and forces ``sky = 0``
        exactly, per the duplicate convention.  The restriction key is
        part of the memo key, so full and restricted answers never
        collide.
        ``epsilon``/``delta``/``samples``/``seed`` only matter for the
        sampling methods; the ``use_*`` switches only for the ``+``/
        ``auto`` methods (ablation hooks).  ``det_kernel`` picks the
        Algorithm 1 evaluation kernel (:data:`~repro.core.exact.DET_KERNELS`):
        the default ``"auto"`` solves each partition with ``"fast"``
        below 8 dominators (and above ``"vec"``'s 26-object ceiling)
        and with ``"vec"`` from 8 to 26, so its answer equals
        ``"reference"`` bit for bit on small partitions and within
        1e-12 on large ones; ``"fast"``/``"reference"`` are bit-for-bit
        identical with ``"reference"`` the slower seed transcription
        kept for differential testing; ``"vec"`` is the NumPy
        subset-doubling kernel — same provenance counters, probability
        within 1e-12, much faster on large partitions.  ``cache`` is
        an optional :class:`~repro.core.dominance.DominanceCache` shared
        across queries (see :meth:`skyline_probabilities`); it never
        changes the answer.

        ``deadline`` arms a wall-clock budget (seconds) over the exact
        inclusion-exclusion enumeration of ``det``/``det+``/``auto``
        (the problem is #P-complete, so a pathological instance *will*
        blow any latency target).  On expiry the engine follows
        ``on_deadline``: ``"degrade"`` (default) answers with the
        ``(ε, δ)``-bounded ``Sam`` estimator instead — using this query's
        ``epsilon``/``delta``/``samples``/``seed`` — and returns a report
        flagged ``degraded=True`` with the reason recorded;
        ``"raise"`` propagates
        :class:`~repro.errors.DeadlineExceededError`.  An armed deadline
        routes ``"fast"`` exact work (including the small partitions
        ``"auto"`` gives ``"fast"``) through the ``"reference"`` kernel
        (same bit-for-bit answer, per-term accounting); ``"vec"`` checks
        the deadline natively between its doubling levels.  ``sam``/
        ``sam+``/``naive`` have predictable cost and ignore the deadline.

        ``max_overrun`` (requires a ``deadline``-style use, ignored
        without one) caps how far *past* the expired deadline the
        degradation fallback itself may run: the ``Sam`` estimator is
        handed the hard wall-clock ceiling ``deadline + max_overrun`` and
        truncates its draw loop there (at chunk granularity — see
        :func:`~repro.core.sampling.skyline_probability_sampled`), so a
        deadline-armed query can never take more than roughly
        ``deadline + max_overrun`` seconds even when the fallback's full
        Hoeffding sample budget would.  A truncated fallback's report
        states the accuracy its drawn samples actually support, and every
        degraded report records ``overrun_seconds``.  The default
        ``None`` keeps the fallback's full ``(ε, δ)`` budget (the
        pre-serving behaviour): the estimate's accuracy contract is then
        never silently weakened, at the price of an unbounded tail.
        """
        options = dict(
            method=method,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=seed,
            use_absorption=use_absorption,
            use_partition=use_partition,
            det_kernel=det_kernel,
            cache=cache,
            deadline=deadline,
            on_deadline=on_deadline,
            max_overrun=max_overrun,
            competitors=competitors,
            dims=dims,
        )
        query = self._open(target, options)
        cached = self._memoised(query)
        if cached is not None:
            return cached
        self._memo_misses += 1
        with query:
            components: List[Component] = []
            self._plan(query, components)
            outcomes = self._exact(components, det_kernel, query.deadline_at)
            report = self._finish(query, outcomes)
        return self._close(query, report)

    def _skyline_probability_many(
        self,
        tasks: Sequence[Tuple[int | Sequence[Value], object]],
        *,
        before: Callable[[int], None] | None = None,
        beat: Callable[[], None] | None = None,
        stop_at_error: bool = False,
        **options: object,
    ) -> List[object]:
        """Answer many ``(target, seed)`` tasks through one exact call.

        The multi-target form of :meth:`skyline_probability`, with every
        option but the seed shared.  Each task is opened (memo, duplicate
        rule, method dispatch) in task order; the targets left are
        planned (the ``det+`` budget error, the exact components), then
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
        deadline starts with its own query.
        """
        answers: List[object] = [None] * len(tasks)

        def alone(position: int) -> None:
            target, seed = tasks[position]
            try:
                answers[position] = self.skyline_probability(
                    target, seed=seed, **options
                )
            except Exception as error:
                answers[position] = error

        if options["deadline"] is not None:
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

        def plan(position: int, query: _Query, tiled: object = None) -> bool:
            # `tiled` is the query's tile outcome: its error, or its
            # preprocessing and components.
            if isinstance(tiled, Exception):
                answers[position] = tiled
                return False
            starts.append(len(components))
            try:
                with query:
                    self._plan(query, components, tiled)
            except Exception as error:
                answers[position] = error
                return False
            planned.append((position, query))
            return True

        dataset = self._dataset
        tiled = (
            options["method"] in _TILE_METHODS
            and options["cache"] is not None
            and len(tasks) * len(dataset) * dataset.dimensionality
            >= _TILE_CROSSOVER
        )
        ahead: Dict[int, object] = {}
        if tiled and stop_at_error:
            # Each planning failure must come out before the next task's
            # failpoint, so the tiles are planned ahead of the tasks.
            ahead = self._tile_outcomes(self._peek(tasks, options), beat)
        deferred: List[Tuple[int, _Query]] = []
        for position, (target, seed) in enumerate(tasks):
            if beat is not None:
                beat()
            try:
                if before is not None:
                    before(position)
                query = self._open(target, dict(options, seed=seed))
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
            elif plan(position, query, ahead.get(position)):
                open_keys.add(query.key)
            elif stop_at_error:
                break
        if deferred:
            outcomes = self._tile_outcomes(deferred, beat)
            for position, query in deferred:
                plan(position, query, outcomes.get(position))
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
            options["det_kernel"],
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

    def _peek(
        self, tasks: Sequence[Tuple[int | Sequence[Value], object]], options: dict
    ) -> List[Tuple[int, "_Query"]]:
        """The tasks that will need planning, opened without side effects.

        Skips tasks that fail to open, memo hits and repeated targets;
        the memo is only read, not counted.
        """
        queries: List[Tuple[int, _Query]] = []
        keys = set()
        for position, (target, seed) in enumerate(tasks):
            try:
                query = self._open(target, dict(options, seed=seed))
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
        options = tile[0][1].options
        restriction = tile[0][1].restriction
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
                options["cache"],
                method=options["method"],
                use_absorption=options["use_absorption"],
                use_partition=options["use_partition"],
                max_exact=self._max_exact_objects,
            )

    def _open(self, target: int | Sequence[Value], options: dict) -> "_Query":
        """Resolve and validate one query; its memo key names the answer."""
        restriction = None
        subset, dims = options.get("competitors"), options.get("dims")
        if subset is not None or dims is not None:
            # Imported lazily: repro.core.restricted builds SkylineReport
            # objects, so a top-level import would be circular.
            from repro.core.restricted import (
                materialize_competitor,
                normalize_restriction,
            )

            restriction = normalize_restriction(
                self._dataset, competitors=subset, dims=dims
            )
            if restriction.is_full:
                restriction = None  # the full query, just spelled out
        target_values, pool, own = _resolve_pool(
            self._dataset, target, restriction
        )
        objects = self._dataset.objects
        competitors = [objects[position] for position in pool]
        if restriction is not None and restriction.dims is not None:
            # Dimensions outside the subspace take the target's own
            # values, so every method answers the restricted question.
            competitors = [
                materialize_competitor(values, target_values, restriction.dims)
                for values in competitors
            ]
        # Also covers projected duplicates (equal on every retained
        # dimension); an external target competes with the whole dataset.
        duplicate = target_values in competitors
        method = options["method"]
        if method not in METHODS:
            raise ReproError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        _check_det_kernel(options["det_kernel"])
        validate_accuracy(options["epsilon"], options["delta"], options["samples"])
        validate_robustness(
            deadline=options["deadline"], max_overrun=options["max_overrun"]
        )
        if options["on_deadline"] not in DEADLINE_POLICIES:
            raise RobustnessPolicyError(
                f"unknown on_deadline policy {options['on_deadline']!r}; "
                f"expected one of {DEADLINE_POLICIES}"
            )
        # `duplicate` is part of the key: an index query for object i and
        # an external-object query for the same values are *different*
        # questions (the former excludes object i from the competitors,
        # the latter answers 0 by the duplicate convention).  The kernel
        # is part of the key because "vec" answers differ from the
        # recursive kernels in the last ulps — a memo hit must never
        # cross kernels.  The restriction key (None for full queries)
        # keeps restricted answers from ever colliding with full ones.
        key = (
            target_values,
            duplicate,
            method,
            options["use_absorption"],
            options["use_partition"],
            options["det_kernel"],
            None if restriction is None else restriction.key,
            self._preferences.version,
        )
        return _Query(
            key, options, target_values, competitors, duplicate, own, restriction
        )

    def _memoised(self, query: "_Query") -> SkylineReport | None:
        """The memoised answer to ``query``, counted as a hit, or ``None``."""
        cached = self._exact_cache.get(query.key)
        if cached is not None:
            self._memo_hits += 1
            obs.count(
                "repro_queries_total",
                help_text="Engine queries answered, by method and outcome.",
                method=query.options["method"],
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
        deadline = options["deadline"]
        query.deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        cache = options["cache"]
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
                    use_absorption=options["use_absorption"],
                    use_partition=options["use_partition"],
                    cache=cache,
                )

        else:
            factors_of = None
            prep, forms = tiled

            def prepare() -> PreprocessResult:
                return prep

        query.plan = _plan_target(
            self._preferences,
            options["method"],
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
            det_kernel=options["det_kernel"],
            epsilon=options["epsilon"],
            delta=options["delta"],
            samples=options["samples"],
            seed=options["seed"],
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
            options = query.options
            if options["on_deadline"] == "raise":
                raise
            return self._degrade_to_sampling(
                query.competitors,
                query.target,
                options["method"],
                epsilon=options["epsilon"],
                delta=options["delta"],
                samples=options["samples"],
                seed=options["seed"],
                cache=options["cache"],
                deadline=options["deadline"],
                deadline_at=query.deadline_at,
                max_overrun=options["max_overrun"],
                expiry=expiry,
            )

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
            self._exact_cache[query.key] = report
        return report

    def _degrade_to_sampling(
        self,
        competitors: List[ObjectValues],
        target_values: ObjectValues,
        method: str,
        *,
        epsilon: float,
        delta: float,
        samples: int | None,
        seed: object,
        cache: DominanceCache | None,
        deadline: float,
        deadline_at: float,
        max_overrun: float | None,
        expiry: DeadlineExceededError,
    ) -> SkylineReport:
        """Answer an over-deadline exact query with ``Sam`` instead.

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
        fallback_deadline_at = (
            None if max_overrun is None else deadline_at + max_overrun
        )
        result = skyline_probability_sampled(
            self._preferences,
            competitors,
            target_values,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=seed,
            cache=cache,
            deadline_at=fallback_deadline_at,
        )
        reason = (
            f"deadline of {deadline}s expired during exact "
            f"method {method!r} ({expiry}); degraded to sam with "
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
            overrun_seconds=max(0.0, time.monotonic() - deadline_at),
        )

    def cache_info(self) -> dict:
        """Memo-table snapshot: ``{"entries", "hits", "misses"}``.

        ``hits`` counts queries answered straight from the memoised
        report; ``misses`` counts lookups that fell through (whether or
        not the answer was cacheable — sampled answers never are).  The
        counters describe the *current* cache generation:
        :meth:`clear_cache` resets them along with the entries.
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
    def skyline_probabilities(
        self,
        *,
        method: str = "auto",
        indices: Sequence[int] | None = None,
        workers: int | None = 1,
        cache: DominanceCache | None = None,
        chunk_size: int | None = None,
        **query_options: object,
    ) -> List[float]:
        """``sky`` for every object (or a subset of indices), in order.

        Answered by the batch planner (:mod:`repro.core.batch`): one
        shared :class:`~repro.core.dominance.DominanceCache` amortises
        preference lookups across all queries, and ``workers`` fans object
        chunks out over a process pool (``workers=None`` uses every core;
        a thread pool is substituted when the model cannot be pickled).
        Sampling methods draw one spawned, per-object random stream from
        ``seed``, so the output is identical for every ``workers``/
        ``chunk_size`` choice.

        Unlike :func:`~repro.core.batch.batch_skyline_probabilities`
        itself, this facade defaults to ``on_error="raise"``: a positional
        list of probabilities cannot represent a salvaged hole, so a
        permanently failing object propagates its error instead.
        """
        from repro.core.batch import batch_skyline_probabilities

        query_options.setdefault("on_error", "raise")
        result = batch_skyline_probabilities(
            self,
            method=method,
            indices=indices,
            workers=workers,
            cache=cache,
            chunk_size=chunk_size,
            **query_options,
        )
        return list(result.probabilities)

    def probabilistic_skyline(
        self,
        tau: float,
        *,
        method: str = "auto",
        **query_options: object,
    ) -> List[int]:
        """Indices of objects with ``sky ≥ τ`` (the probabilistic skyline).

        This is the paper's target operator (Section 1); it evaluates the
        single-object query for every object, as the paper prescribes for
        the general case, through the shared-cache batch planner
        (``workers=``/``cache=`` are accepted and forwarded).
        """
        if not 0 < tau <= 1:
            raise ReproError(f"threshold tau must lie in (0, 1], got {tau!r}")
        probabilities = self.skyline_probabilities(method=method, **query_options)
        return [
            index
            for index, probability in enumerate(probabilities)
            if probability >= tau
        ]

    def top_k(
        self,
        k: int,
        *,
        method: str = "auto",
        **query_options: object,
    ) -> List[Tuple[int, float]]:
        """The ``k`` objects with the highest skyline probability.

        Returns ``(index, probability)`` pairs, descending by probability
        (ties broken by index for determinism).  Evaluated through the
        batch planner (``workers=``/``cache=`` forwarded); see
        :mod:`repro.core.topk` for the shared-world estimator that scales
        this to large datasets.
        """
        _check_count("k", k, minimum=1)
        probabilities = self.skyline_probabilities(method=method, **query_options)
        ranked = sorted(
            enumerate(probabilities), key=lambda pair: (-pair[1], pair[0])
        )
        return ranked[: min(k, len(ranked))]


def _check_det_kernel(det_kernel: object) -> None:
    """Reject a ``det_kernel`` outside :data:`~repro.core.exact.DET_KERNELS`."""
    if det_kernel not in DET_KERNELS:
        raise ReproError(
            f"unknown det_kernel {det_kernel!r}; expected one of {DET_KERNELS}"
        )


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
    options: dict
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
            cache = self.options["cache"]
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
            cache = self.options["cache"]
            if cache is not None:
                self.cache_hits += cache.hits - hits
                self.cache_misses += cache.misses - misses
        self._stage.__exit__(*exc_info)
        self.scope.__exit__(*exc_info)
        return False


class _ComponentMemo:
    """Exact component results keyed on their factor structure.

    Cells (or targets) inducing the same component share one Det
    evaluation.  The key carries the kernel: ``"vec"`` differs from the
    recursive kernels in the last ulps.  ``solves`` counts Det
    evaluations performed (a ``det`` cell's included), ``hits`` results
    served from the memo.
    """

    def __init__(self) -> None:
        self.results: Dict[object, ExactResult] = {}
        self.solves = 0
        self.hits = 0


class _TargetPlan(NamedTuple):
    """A ``det``/``det+``/``auto`` target waiting for its exact outcomes.

    ``steps`` holds one entry per partition, in order: the component's
    position in the exact call (an ``int``), a memoised
    :class:`ExactResult`, or the oversized part to sample (its member
    positions).  ``keys`` maps a solved component's position to its
    ``memo`` key.  ``sample(part, share, rng)`` estimates an oversized
    part with the target's Sam options.
    """

    method: str
    prep: PreprocessResult | None
    steps: List[object]
    memo: _ComponentMemo | None
    keys: Dict[int, object]
    seed: object
    sample: Callable[[Sequence[int], int, object], SamplingResult] | None


def _solve_target(
    preferences: PreferenceModel,
    method: str,
    target: ObjectValues,
    count: int,
    factors_of: Callable[[int], Sequence[DominanceFactor]],
    objects_of: Callable[[int], ObjectValues],
    prepare: Callable[[], PreprocessResult],
    *,
    duplicate: bool,
    max_exact: int,
    det_kernel: str,
    epsilon: float,
    delta: float,
    samples: int | None,
    seed: object,
    cache: DominanceCache | None,
    memo: _ComponentMemo | None = None,
) -> SkylineReport:
    """``sky(target)`` against ``count`` competitors by ``method``.

    The one solve behind every planner cell, in three steps: plan
    (:func:`_plan_target`), one exact call over the target's
    components, finish (:func:`_finish_target`).  The engine runs the
    same steps around its own exact call, for one target or many.
    """
    components: List[Component] = []
    plan = _plan_target(
        preferences, method, target, count, factors_of, objects_of, prepare,
        components, duplicate=duplicate, max_exact=max_exact,
        det_kernel=det_kernel, epsilon=epsilon, delta=delta,
        samples=samples, seed=seed, cache=cache, memo=memo,
    )
    outcomes: List[ExactResult | Exception] = []
    if components:
        outcomes = _solve(
            components, max_objects=max_exact, kernel=det_kernel, deadline_at=None
        )
    return _finish_target(plan, outcomes)


def _plan_target(
    preferences: PreferenceModel,
    method: str,
    target: ObjectValues,
    count: int,
    factors_of: Callable[[int], Sequence[DominanceFactor]] | None,
    objects_of: Callable[[int], ObjectValues],
    prepare: Callable[[], PreprocessResult],
    components: List[Component],
    *,
    duplicate: bool,
    max_exact: int,
    det_kernel: str,
    epsilon: float,
    delta: float,
    samples: int | None,
    seed: object,
    cache: DominanceCache | None,
    memo: _ComponentMemo | None = None,
    forms: Sequence[Component | None] | None = None,
) -> SkylineReport | _TargetPlan:
    """Plan ``sky(target)``: a finished report, or what finishing needs.

    Competitors are named by position: ``factors_of`` gives one's
    dominance factors (Det), ``objects_of`` its values (Sam and naive),
    and ``prepare`` builds the :class:`PreprocessResult` the ``+``/
    ``auto`` methods need.  ``duplicate`` marks a competitor equal to
    the target (on every retained dimension): ``sky = 0`` exactly and
    nothing runs.  ``naive``, ``sam`` and ``sam+`` are answered here.

    ``det`` solves the whole pool as one component.  ``det+``/``auto``
    plan one step per Theorem-4 component: components within
    ``max_exact`` go to Algorithm 1 — served by ``memo`` when it holds
    them, else appended to ``components`` for the exact call in their
    :class:`~repro.core.exact.Component` form — and oversized ones
    either fail here (``det+``) or are sampled when the target is
    finished.  ``forms`` holds the tile pass's components, one per
    partition (``det``: the one); given them, ``factors_of`` is unused.
    """
    if duplicate:
        return SkylineReport(0.0, method, True, duplicate_target=True)
    if method == "naive":
        probability = skyline_probability_naive(
            preferences, [objects_of(p) for p in range(count)], target
        )
        return SkylineReport(probability, "naive", True)
    if method == "det":
        # The whole pool in one evaluation: counted, never memoised.
        steps = [len(components)]
        if forms is None:
            components.append(_component([factors_of(p) for p in range(count)]))
        else:
            components.append(forms[0])
        return _TargetPlan("det", None, steps, memo, {}, seed, None)
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
    keys: Dict[int, object] = {}
    for number, part in enumerate(prep.partitions):
        if len(part) > max_exact:
            steps.append(part)
            continue
        if forms is not None:
            steps.append(len(components))
            components.append(forms[number])
            continue
        factor_lists = [factors_of(member) for member in part]
        if memo is not None:
            key = (tuple(factor_lists), det_kernel)
            known = memo.results.get(key)
            if known is not None:
                steps.append(known)
                continue
            keys[len(components)] = key
        steps.append(len(components))
        components.append(_component(factor_lists))

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

    return _TargetPlan(method, prep, steps, memo, keys, seed, sample)


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
    sampled = sum(
        1 for step in plan.steps if not isinstance(step, (int, ExactResult))
    )
    share = max(1, sampled)
    # One generator shared by all sampled partitions: re-seeding each
    # partition with the same integer would correlate their estimates
    # and bias the product.
    rng = as_rng(plan.seed) if sampled else None
    memo = plan.memo
    probability = 1.0
    results: List[object] = []
    total_samples = 0
    exact = True
    for step in plan.steps:
        if isinstance(step, int):
            result = outcomes[step]
            if isinstance(result, Exception):
                raise result
            if memo is not None:
                memo.solves += 1
                if step in plan.keys:
                    memo.results[plan.keys[step]] = result
            probability *= result.probability
        elif isinstance(step, ExactResult):
            result = step
            memo.hits += 1
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
