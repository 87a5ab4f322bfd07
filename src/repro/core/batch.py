"""Batch query planner: every object's ``sky`` in one shared pass.

The paper's target operator (Section 1) asks for the skyline probability
of the *whole* dataset, yet answering it as n independent queries re-runs
the absorption/partition preprocessing and re-resolves the same
``(dimension, a, b)`` preference lookups O(n²·d) times.  This module
amortises that cost across queries, the same way related work amortises
restricted-skyline probabilities across objects:

* one :class:`~repro.core.dominance.DominanceCache` is shared by every
  query of the batch, so each distinct preference pair is resolved once
  per batch instead of once per (query, competitor) pair — and the cache
  is keyed on :attr:`PreferenceModel.version`, so in-place what-if edits
  can never serve stale answers;
* ``workers > 1`` hands the batch to the supervised shard coordinator
  (:class:`repro.distrib.ShardCoordinator`, checkpointing off) when the
  host offers real parallelism; with one worker, or when the process may
  run on only one core, the chunks run sequentially in-process — the
  work is GIL-bound pure Python, so threads would only add contention;
* sampling methods draw one child stream per *object*, spawned from the
  batch ``seed`` via :class:`numpy.random.SeedSequence` (through
  :func:`repro.util.rng.spawn_rngs`).  Object streams are therefore
  statistically independent, yet fixed by ``(seed, object position)``
  alone — the batch output is bit-for-bit identical for every ``workers``
  and ``chunk_size`` choice.

On top of the planner sits a **fault-tolerance layer** (heavy production
traffic *will* hit worker crashes and pathological objects):

* a task that fails is retried in its chunk with capped exponential
  backoff (``max_retries``, ``backoff``); under the coordinator, a shard
  whose worker dies, stalls or fails is also re-dispatched as a whole;
* errors that persist per object are **salvaged**: the object's entry
  moves to :attr:`BatchResult.failures` as a structured
  :class:`BatchFailure` (index, exception type, message, attempts) while
  every other object's answer is returned as normal
  (``on_error="salvage"``; pass ``"raise"`` to propagate instead —
  deterministic :class:`~repro.errors.ReproError` failures are never
  retried, only recorded or raised);
* a per-query wall-clock ``deadline`` arms the engine's Det→Sam
  degradation (see :meth:`SkylineProbabilityEngine.skyline_probability`):
  over-budget exact queries return ``(ε, δ)``-bounded estimates flagged
  ``degraded=True`` instead of hanging the batch;
* a :class:`~repro.robustness.FaultInjector` can be threaded through
  (``fault_injector=``) to replay crashes/stragglers deterministically —
  the chaos suite (``tests/test_fault_injection.py``) asserts that
  retried and salvaged runs stay bit-identical to clean runs for every
  surviving object.

Every chunk — in-process, or one shard in a coordinator worker — is
answered by the same chunk runner (:func:`_run_chunk_inprocess`) through
the engine's multi-target form: its objects are planned together by the
tile pass when there are enough of them (one at a time otherwise, as
:meth:`SkylineProbabilityEngine.skyline_probability` plans each, with
the same result), one exact call solves the components of all of them
(``"vec"`` components sharing a key structure together, each
bit-identical to a lone solve), and each object is finished as the
per-object query finishes it.  So batch results equal the per-object
loop exactly (and bit-for-bit for the sampled methods, given the
matching spawned streams).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import repro.obs as obs
from repro.core.bounds import validate_robustness
from repro.core.dominance import DominanceCache
from repro.core.engine import (
    SkylineProbabilityEngine,
    SkylineReport,
    _resolve_indices,
)
from repro.core.objects import Dataset
from repro.core.options import QueryOptions
from repro.errors import ReproError, RobustnessPolicyError
from repro.obs import BatchStats
from repro.util.rng import spawn_rngs
from repro.util.unionfind import UnionFind

__all__ = [
    "BatchFailure",
    "BatchResult",
    "Shard",
    "batch_skyline_probabilities",
    "plan_shards",
    "spawn_batch_seeds",
    "ON_ERROR_POLICIES",
]

#: Methods that never consume randomness — no streams are spawned for them
#: (unless a ``deadline`` is armed: degradation to ``Sam`` needs a fixed
#: per-object stream to stay reproducible).
_EXACT_METHODS = frozenset({"det", "det+", "naive"})

#: What to do with an object whose query still fails after every retry:
#: ``"salvage"`` (default) records a :class:`BatchFailure` and keeps the
#: other answers; ``"raise"`` propagates the error (the facade methods
#: use this — their positional return values cannot have holes).
ON_ERROR_POLICIES = ("salvage", "raise")

#: Ceiling on one exponential-backoff delay, seconds.
_BACKOFF_CAP = 1.0


@dataclass(frozen=True)
class BatchFailure:
    """One object whose query failed permanently, in structured form.

    ``index`` is the dataset position that could not be answered;
    ``error_type``/``message`` describe the last exception observed;
    ``attempts`` counts how many times the task was tried (first dispatch
    plus retries) before the planner gave up.
    """

    index: int
    error_type: str
    message: str
    attempts: int


@dataclass(frozen=True)
class BatchResult:
    """Answers of one batch run, with full per-object provenance.

    ``reports[k]`` answers ``indices[k]`` and is exactly the
    :class:`~repro.core.engine.SkylineReport` the per-object API would
    have produced.  Objects that failed permanently (``on_error=
    "salvage"``) are excluded from ``indices``/``reports`` and listed in
    ``failures`` instead; with no failures the result is exactly the
    pre-fault-tolerance one.  ``cache_hits``/``cache_misses`` count the
    dominance cache's memo lookups performed by this batch (summed over
    worker processes); ``workers`` records the fan-out actually used;
    ``retries`` the number of task retries (a shard re-dispatch under
    the coordinator counts only on its ``DistribResult``).

    ``stats`` is a :class:`~repro.obs.BatchStats` aggregate of the whole
    batch's provenance (terms, samples, reductions, degradations, cache
    traffic, wall-clock) when :mod:`repro.obs` instrumentation is
    enabled, ``None`` otherwise.
    """

    indices: Tuple[int, ...]
    reports: Tuple[SkylineReport, ...]
    method: str
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    failures: Tuple[BatchFailure, ...] = ()
    retries: int = 0
    stats: BatchStats | None = None

    @property
    def probabilities(self) -> Tuple[float, ...]:
        """Skyline probabilities in ``indices`` order."""
        return tuple(report.probability for report in self.reports)

    @property
    def degraded_indices(self) -> Tuple[int, ...]:
        """Indices answered by Det→Sam deadline degradation."""
        return tuple(
            index
            for index, report in zip(self.indices, self.reports)
            if report.degraded
        )

    def as_dict(self) -> Dict[int, float]:
        """``{object index: probability}`` mapping of the batch."""
        return dict(zip(self.indices, self.probabilities))


def _resolve_workers(workers: int | None, n: int) -> int:
    if workers is None:
        workers = _effective_cores()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ReproError(
            f"workers must be a positive integer or None (= all cores), "
            f"got {workers!r}"
        )
    return max(1, min(workers, n))


def _chunked(items: List, chunk_size: int) -> List[List]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _effective_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        # AttributeError: platforms without affinity support; OSError:
        # containers/cgroup setups where the affinity syscall is denied.
        return os.cpu_count() or 1


def _backoff_delay(backoff: float, retry: int) -> float:
    """Capped exponential delay before the ``retry``-th retry (1-based):
    ``backoff * 2**(retry - 1)`` seconds, at most ``_BACKOFF_CAP``.  The
    chunk runner sleeps it before a task's retry; the shard coordinator
    waits it out before a shard's re-dispatch."""
    return min(backoff * 2.0 ** (retry - 1), _BACKOFF_CAP)


def spawn_batch_seeds(
    method: str,
    n: int,
    *,
    seed: object = None,
    seeds: Sequence[object] | None = None,
    deadline: float | None = None,
) -> List[object]:
    """The batch's per-object seed streams, one entry per queried object.

    This is the *single* definition of how a batch derives randomness —
    :func:`batch_skyline_probabilities` and the shard coordinator
    (:mod:`repro.distrib`) both call it, which is what makes a sharded
    run bit-identical to the one-shot batch: object ``k`` receives the
    same stream no matter which worker, shard, or resumed coordinator
    ultimately answers it.

    Exact methods consume no randomness, so they get ``None`` entries —
    unless a ``deadline`` is armed, in which case Det→Sam degradation
    needs a fixed per-object stream to stay reproducible.  Explicit
    ``seeds`` (one per object) bypass the spawning entirely.
    """
    if seeds is not None:
        seed_list = list(seeds)
        if len(seed_list) != n:
            raise ReproError(
                f"seeds must provide one entry per queried object "
                f"({n}), got {len(seed_list)}"
            )
        return seed_list
    if method in _EXACT_METHODS and deadline is None:
        return [None] * n
    return list(spawn_rngs(seed, n))


@dataclass(frozen=True)
class Shard:
    """One partition-component-aligned slice of a batch computation.

    ``positions`` are positions in the batch's task order (the order of
    the ``indices`` argument given to the planner), ``indices`` the
    corresponding dataset indices.  Shards are what the
    :class:`repro.distrib.ShardCoordinator` dispatches, supervises,
    retries and checkpoints as a unit.
    """

    shard_id: int
    positions: Tuple[int, ...]
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.positions)


def plan_shards(
    dataset: Dataset,
    indices: Sequence[int] | None = None,
    *,
    max_shard_objects: int | None = None,
) -> Tuple[Shard, ...]:
    """Split a batch's objects into value-sharing-aligned shards.

    Two objects land in the same *component* when they transitively share
    an attribute value on some dimension — exactly the value-sharing
    graph behind the Theorem-4 partition, lifted from one target's
    competitors to the whole batch.  Objects in different components
    never read a common preference variable for *any* target, so a shard
    that follows component boundaries maximises what each worker-local
    :class:`DominanceCache` can amortise and minimises duplicated
    preference resolution across workers.

    Components larger than ``max_shard_objects`` are split into
    consecutive runs; smaller ones are packed together first-fit in
    first-seen order, up to the cap (default: ``ceil(n / 8)``, so a
    typical plan has at least eight shards for the coordinator to
    schedule around stragglers).  The plan is a pure function of the
    dataset, the index list, and the cap — every run (and every resumed
    run) produces the same shards.
    """
    index_list = _resolve_indices(dataset, indices)
    n = len(index_list)
    if max_shard_objects is None:
        max_shard_objects = max(1, -(-n // 8))
    if (
        isinstance(max_shard_objects, bool)
        or not isinstance(max_shard_objects, int)
        or max_shard_objects < 1
    ):
        raise ReproError(
            f"max_shard_objects must be a positive integer or None, "
            f"got {max_shard_objects!r}"
        )
    # Connected components of the value-sharing graph over the queried
    # objects: positions sharing any (dimension, value) key are unioned.
    union_find = UnionFind()
    anchor: Dict[Tuple[int, object], int] = {}
    for position, index in enumerate(index_list):
        union_find.add(position)
        for dimension, value in enumerate(dataset[index]):
            key = (dimension, value)
            if key in anchor:
                union_find.union(anchor[key], position)
            else:
                anchor[key] = position
    components = [sorted(part) for part in union_find.components()]
    components.sort(key=lambda part: part[0])  # first-seen order
    # Split oversized components, then pack small ones first-fit in
    # order so shard boundaries respect component boundaries wherever
    # the cap allows.
    groups: List[List[int]] = []
    for component in components:
        pieces = [
            component[i : i + max_shard_objects]
            for i in range(0, len(component), max_shard_objects)
        ]
        for piece in pieces:
            if (
                len(pieces) == 1
                and groups
                and len(groups[-1]) + len(piece) <= max_shard_objects
            ):
                groups[-1].extend(piece)
            else:
                groups.append(list(piece))
    return tuple(
        Shard(
            shard_id,
            tuple(group),
            tuple(index_list[position] for position in group),
        )
        for shard_id, group in enumerate(groups)
    )


# One task = (position in the batch, dataset index, per-object seed).
_Task = Tuple[int, int, object]
# One outcome = (position, report or None, failure or None, retries used).
_Outcome = Tuple[int, SkylineReport | None, "BatchFailure | None", int]


def _give_up(
    index: int, error: Exception, attempts: int, on_error: str
) -> BatchFailure:
    """A task out of attempts: raise its error or record it as a failure."""
    if on_error == "raise":
        raise error
    return BatchFailure(index, type(error).__name__, str(error), attempts)


def _run_task_with_retry(
    engine: SkylineProbabilityEngine,
    cache: DominanceCache,
    options: QueryOptions,
    injector: object,
    task: _Task,
    *,
    max_retries: int,
    backoff: float,
    on_error: str,
    last_error: Exception,
) -> _Outcome:
    """Retry one task whose first attempt failed with ``last_error``.

    Deterministic library errors (:class:`ReproError`) are never
    retried — re-running the same exact computation cannot heal a budget
    violation — while anything else (injected crashes, infrastructure
    faults) is retried with capped exponential backoff until
    ``max_retries + 1`` total attempts are spent.  A task that still
    fails is either recorded as a :class:`BatchFailure`
    (``on_error="salvage"``) or re-raised.  Each retry is one
    :meth:`SkylineProbabilityEngine.skyline_probability` query.
    """
    position, index, task_seed = task
    keywords = options.as_kwargs()
    attempt = 1
    while attempt <= max_retries and not isinstance(last_error, ReproError):
        attempt += 1
        time.sleep(_backoff_delay(backoff, attempt - 1))
        try:
            if injector is not None:
                injector.before_task(index, attempt)
            report = engine.skyline_probability(
                index, seed=task_seed, cache=cache, **keywords
            )
            return position, report, None, attempt - 1
        except Exception as error:
            last_error = error
    failure = _give_up(index, last_error, attempt, on_error)
    return position, None, failure, attempt - 1


def _run_chunk_inprocess(
    engine: SkylineProbabilityEngine,
    cache: DominanceCache,
    options: QueryOptions,
    injector: object,
    chunk: List[_Task],
    *,
    max_retries: int,
    backoff: float,
    on_error: str,
    beat: Callable[[int, int], None] | None = None,
) -> List[_Outcome]:
    """Answer a chunk in-process; one bad task cannot poison its chunk.

    The chunk's first attempt is one pass of the engine's multi-target
    form: the injector is consulted before each task, every task is
    planned, one exact call solves them all and each is finished.  A
    task that fails there goes on alone: a :class:`ReproError` is
    recorded or raised, anything else is retried per task
    (:func:`_run_task_with_retry`).  With no retries under
    ``on_error="raise"`` the pass plans nothing after the first failure,
    which then raises.  ``beat(done, total)`` is a heartbeat outside
    every task, called at each step of the pass and before each per-task
    retry, with ``done`` the tasks whose outcome is settled; what it
    raises aborts the chunk.
    """
    total = len(chunk)

    def before(position: int) -> None:
        if injector is not None:
            injector.before_task(chunk[position][1], 1)

    answers = engine._skyline_probability_many(
        [(index, task_seed) for _, index, task_seed in chunk],
        options,
        cache,
        before=before,
        beat=None if beat is None else lambda: beat(0, total),
        stop_at_error=on_error == "raise" and max_retries == 0,
    )
    outcomes: List[_Outcome] = []
    for done, (task, answer) in enumerate(zip(chunk, answers)):
        position, index, _ = task
        if isinstance(answer, SkylineReport):
            outcomes.append((position, answer, None, 0))
        elif isinstance(answer, ReproError):
            failure = _give_up(index, answer, 1, on_error)
            outcomes.append((position, None, failure, 0))
        else:
            if beat is not None:
                beat(done, total)
            outcomes.append(
                _run_task_with_retry(
                    engine, cache, options, injector, task,
                    max_retries=max_retries, backoff=backoff,
                    on_error=on_error, last_error=answer,
                )
            )
    return outcomes


def batch_skyline_probabilities(
    engine: SkylineProbabilityEngine,
    *,
    indices: Sequence[int] | None = None,
    workers: int | None = 1,
    cache: DominanceCache | None = None,
    chunk_size: int | None = None,
    seed: object = None,
    seeds: Sequence[object] | None = None,
    max_retries: int = 2,
    backoff: float = 0.05,
    on_error: str = "salvage",
    fault_injector: object = None,
    **options: object,
) -> BatchResult:
    """Compute ``sky`` for all objects (or an index subset) in one pass.

    Parameters
    ----------
    engine:
        The engine whose dataset/preferences/budget the batch uses.
    options:
        Any of the :class:`~repro.core.options.QueryOptions`, shared by
        every query of the batch and checked before any work (a
        restriction's ranges too), raising the error a single query
        raises instead of one :class:`BatchFailure` per object.  An
        armed ``deadline`` degrades an over-budget exact query to the
        ``(ε, δ)``-bounded ``Sam`` estimator (its report is flagged
        ``degraded=True``; see :attr:`BatchResult.degraded_indices`)
        instead of stalling the batch.  A restriction
        (``competitors``/``dims``) applies to every query; for many
        restrictions in one pass, use
        :func:`repro.core.restricted.restricted_skyline_probabilities`.
    indices:
        Object positions to answer (default: the whole dataset, in order).
    workers:
        Fan-out width: ``1`` (default) answers in-process, ``None`` uses
        every core this process may run on.  With more than one worker
        the batch runs on a :class:`repro.distrib.ShardCoordinator` of
        that many worker processes (checkpointing off; its heartbeats,
        hedging, shard retries and salvage apply); when the process may
        run on only one core, the chunks run sequentially in-process
        instead — the queries are GIL-bound pure Python, so more workers
        could only add contention.  The answers are identical for every
        choice; ``cache_hits``/``cache_misses`` and ``retries`` follow
        the coordinator's shard plan (shard re-dispatches show only on
        :meth:`ShardCoordinator.run`'s ``DistribResult``).
    cache:
        A :class:`DominanceCache` to (re)use; by default a fresh one is
        created for the batch.  Must have been built from ``engine``'s
        preference model.  It serves the in-process path; coordinator
        workers build a fresh cache per shard.
    chunk_size:
        Objects per chunk in-process (default: one chunk of every
        object), or the shard cap under the coordinator (default: its
        component-aligned ``ceil(n / 8)`` plan, see :func:`plan_shards`).
        A chunk is answered through one exact call, so it is also the
        unit that shares ``"vec"`` evaluations between objects.  Affects
        scheduling only, never the answers.
    seed:
        Feeds one spawned stream per object for the sampling methods
        (and, with a ``deadline`` armed, for the exact methods'
        degradation), so a fixed seed fixes the whole batch output for
        every ``workers``/``chunk_size`` choice.
    seeds:
        Explicit per-object seed-likes (one entry per queried object,
        each anything :func:`repro.util.rng.as_rng` accepts), overriding
        the internal spawning.  This is how a caller merging independent
        single-object requests into one batch — the serving tier's
        request coalescer — keeps every answer bit-identical to the
        direct query each request would have made: pass each request's
        own derived stream instead of streams keyed to batch positions.
    max_retries, backoff:
        Fault-tolerance budget per task: a failed query (an injected
        chaos fault, an infrastructure error) is retried with capped
        exponential backoff (``backoff * 2**k`` seconds, capped at 1s)
        until ``max_retries`` retries are spent.  Deterministic
        :class:`ReproError` failures are never retried.  Under the
        coordinator, ``backoff`` also spaces the re-dispatches of a shard
        whose worker died, stalled or failed; a worker that dies on every
        dispatch salvages its whole shard.
    on_error:
        ``"salvage"`` (default) turns an object whose query permanently
        fails into a structured :class:`BatchFailure` entry while the
        rest of the batch completes; ``"raise"`` propagates the error
        (the engine's facade methods use this — their positional return
        values cannot have holes).  Under the coordinator the error
        raised is a :class:`~repro.errors.ShardFailedError` naming the
        shard and the last error.
    fault_injector:
        Optional :class:`repro.robustness.FaultInjector` consulted before
        every per-object query — the deterministic chaos hook.  ``None``
        (default) costs nothing.
    """
    # A DynamicSkylineEngine (repro.core.dynamic) exposes its static
    # engine as `.engine`; unwrap it so the dynamic facade can be handed
    # to the planner directly (duck-typed to avoid a circular import).
    inner = getattr(engine, "engine", None)
    if isinstance(inner, SkylineProbabilityEngine):
        engine = inner
    query = QueryOptions(**options)
    engine._restriction(query)  # the restriction's ranges, before any work
    validate_robustness(max_retries=max_retries, backoff=backoff)
    if on_error not in ON_ERROR_POLICIES:
        raise RobustnessPolicyError(
            f"unknown on_error policy {on_error!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    if fault_injector is not None and not callable(
        getattr(fault_injector, "before_task", None)
    ):
        raise RobustnessPolicyError(
            f"fault_injector must provide a before_task(index, attempt) "
            f"method (see repro.robustness.FaultInjector), got "
            f"{fault_injector!r}"
        )
    if chunk_size is not None and (
        isinstance(chunk_size, bool)
        or not isinstance(chunk_size, int)
        or chunk_size < 1
    ):
        raise ReproError(
            f"chunk_size must be a positive integer or None, got {chunk_size!r}"
        )
    index_list = _resolve_indices(engine.dataset, indices)
    if cache is None:
        cache = DominanceCache(engine.preferences)
    elif cache.preferences is not engine.preferences:
        raise ReproError(
            "the supplied DominanceCache was built for a different "
            "PreferenceModel; build it from engine.preferences"
        )
    n = len(index_list)
    workers = _resolve_workers(workers, n)
    if n == 0:
        return BatchResult((), (), query.method, workers)
    if workers > 1 and _effective_cores() > 1:
        # Deferred: repro.distrib builds on this module.
        from repro.distrib.coordinator import DistribConfig, ShardCoordinator

        config = DistribConfig(
            workers=workers,
            max_shard_objects=chunk_size,
            task_retries=int(max_retries),
            backoff=backoff,
            on_error=on_error,
        )
        batch = ShardCoordinator(engine, config).run(
            indices=index_list,
            seed=seed,
            seeds=seeds,
            fault_injector=fault_injector,
            **options,
        ).batch
        if batch.stats is not None:
            _record_batch(batch.stats)
        return batch

    collect = obs.is_enabled()
    started = time.perf_counter() if collect else 0.0
    # One spawned stream per object: independent across objects, fixed by
    # (seed, position) alone — chunking and worker count cannot move them.
    # An armed deadline spawns streams for exact methods too, so their
    # Det→Sam degradation is equally reproducible.  Explicit ``seeds``
    # bypass the spawning entirely (coalesced single-object requests each
    # bring the stream their direct query would have used).  The same
    # helper feeds the shard coordinator, which is what keeps sharded
    # runs bit-identical to this one-shot path.
    seed_list = spawn_batch_seeds(
        query.method, n, seed=seed, seeds=seeds, deadline=query.deadline
    )
    tasks: List[_Task] = list(zip(range(n), index_list, seed_list))
    results: Dict[int, SkylineReport] = {}
    failure_map: Dict[int, BatchFailure] = {}
    retries = 0
    hits_before, misses_before = cache.hits, cache.misses
    for chunk in _chunked(tasks, chunk_size or n):
        for position, report, failure, retries_used in _run_chunk_inprocess(
            engine, cache, query, fault_injector, chunk,
            max_retries=max_retries, backoff=backoff, on_error=on_error,
        ):
            retries += retries_used
            if report is not None:
                results[position] = report
            else:
                failure_map[position] = failure

    answered = sorted(results)
    reports = tuple(results[position] for position in answered)
    cache_hits = cache.hits - hits_before
    cache_misses = cache.misses - misses_before
    stats = None
    if collect:
        stats = BatchStats.from_reports(
            reports,
            queries=n,
            failed=len(failure_map),
            retries=retries,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            wall_seconds=time.perf_counter() - started,
        )
        _record_batch(stats)
    return BatchResult(
        tuple(index_list[position] for position in answered),
        reports,
        query.method,
        workers,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        failures=tuple(
            failure_map[position] for position in sorted(failure_map)
        ),
        retries=retries,
        stats=stats,
    )


def _record_batch(stats: BatchStats) -> None:
    """Publish one batch run's registry counters (obs is known enabled)."""
    registry = obs.registry()
    registry.counter(
        "repro_batches_total", "Completed batch planner runs."
    ).inc()
    registry.counter(
        "repro_batch_queries_total", "Objects submitted to batch runs."
    ).inc(stats.queries)
    if stats.retries:
        registry.counter(
            "repro_batch_retries_total", "Re-dispatched batch task attempts."
        ).inc(stats.retries)
    if stats.failed:
        registry.counter(
            "repro_batch_failures_total",
            "Objects salvaged as permanent failures.",
        ).inc(stats.failed)
    registry.histogram(
        "repro_batch_seconds", "Wall-clock seconds per batch run."
    ).observe(stats.wall_seconds)
