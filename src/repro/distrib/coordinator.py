"""Supervised scatter–gather coordinator for sharded batch computation.

:class:`ShardCoordinator` turns an all-objects (or index-subset) skyline
probability computation into partition-component-aligned shards
(:func:`repro.core.batch.plan_shards`) and supervises a pool of worker
*processes* across their whole lifetime.  It is the one parallel stack:
:func:`repro.core.batch.batch_skyline_probabilities` with ``workers > 1``
runs on it.  Each worker answers its shard through the batch planner's
chunk runner, which retries failed tasks in place; the coordinator
additionally survives:

* **worker death** — a SIGKILLed/crashed worker surfaces as a broken
  pipe or a dead process; its shard is re-dispatched to a respawned
  worker with capped exponential backoff;
* **worker hangs** — workers heartbeat before planning, solving and
  finishing every object, before each structure group of a shard's one
  exact call and before each per-object retry (at most one message per
  10 ms); a shard whose heartbeat goes stale past ``stall_timeout`` is
  declared hung, its worker killed and respawned;
* **stragglers** — a shard running past an adaptive p95-based hedge
  threshold is speculatively re-dispatched to an idle worker; the first
  result wins (and is bit-identical to the loser's by construction:
  per-object seed streams are fixed by batch position, and every
  dispatch builds a fresh engine and dominance cache);
* **persistent shard failure** — a per-shard circuit breaker caps
  re-dispatches at ``max_shard_retries``; the final dispatch runs in
  salvage mode (per-object :class:`~repro.core.batch.BatchFailure`
  records), and a shard that cannot even do that degrades to salvaged
  failure records for all its objects instead of failing the run.  A
  deterministic :class:`~repro.errors.ReproError` is never retried, as
  in the batch planner: its shard goes straight to the salvage dispatch;
* **coordinator death** — completed shards are appended to a versioned
  JSONL checkpoint (:mod:`repro.distrib.checkpoint`); a restarted
  coordinator pointed at the same checkpoint resumes from the last
  durable shard and merges to a bit-identical
  :class:`~repro.core.batch.BatchResult`.

The merged result carries bit-identical reports and probabilities to
the in-process :func:`repro.core.batch.batch_skyline_probabilities`
with the same ``method``/``seed``/options (only the cache hit/miss
counters are plan-shaped: shards keep per-dispatch dominance caches
where the in-process batch keeps one).  And the *whole* merged
:class:`~repro.core.batch.BatchResult` — counters included — is
bit-identical across supervised runs for any worker count, fault
pattern, hedge race or resume point, because the shard plan itself is
deterministic.  The chaos suite (``tests/test_distrib_chaos.py``,
``tests/test_distrib_checkpoint.py``) pins all of it.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.batch import (
    ON_ERROR_POLICIES,
    BatchFailure,
    BatchResult,
    Shard,
    _backoff_delay,
    plan_shards,
    spawn_batch_seeds,
)
from repro.core.bounds import _is_real_number, validate_robustness
from repro.core.engine import SkylineProbabilityEngine, _resolve_indices
from repro.core.options import QueryOptions
from repro.errors import (
    CoordinatorAbortedError,
    DistribError,
    RobustnessPolicyError,
    ShardFailedError,
)
from repro.obs import BatchStats, DistribStats
from repro.distrib.checkpoint import CheckpointStore, run_fingerprint
from repro.distrib.protocol import (
    MSG_BEAT,
    MSG_ERROR,
    MSG_READY,
    MSG_RESULT,
    MSG_RUN,
    MSG_STOP,
    ShardPayload,
    ShardTask,
)
from repro.distrib.worker import worker_main

__all__ = ["DistribConfig", "DistribResult", "ShardCoordinator", "ShardOutcome"]


def _is_finite(value: object) -> bool:
    """``value`` is a real number other than NaN and the infinities."""
    return _is_real_number(value) and math.isfinite(value)


@dataclass
class DistribConfig:
    """Tunables of one :class:`ShardCoordinator`.

    ``workers`` is the size of the supervised pool (respawns keep it
    constant).  ``max_shard_objects`` caps the shard size (default:
    ``ceil(n / 8)``, so every plan has several shards per worker and
    stragglers cannot dominate; deliberately independent of ``workers``,
    so the plan — and the checkpoint fingerprint — survives a resume
    with a different pool size).  ``stall_timeout`` is the
    heartbeat staleness after which a busy worker is declared hung
    (it must exceed the slowest single-object query or structure group
    — heartbeats come per object step, per group and per retry, at
    most one per 10 ms).
    ``hedge_multiplier`` scales the p95 of completed shard durations
    into the speculative re-dispatch threshold (``None`` disables
    hedging; ``hedge_floor`` keeps microsecond shards from hedging on
    scheduler noise;
    ``hedge_min_completions`` completions are required before the p95
    is trusted).  ``max_shard_retries`` bounds shard re-dispatches
    (the circuit breaker), ``task_retries`` the planner-style in-worker
    per-object retries, ``backoff`` the capped exponential delay base
    for both.  ``checkpoint`` enables the durable shard log;
    ``resume=False`` overwrites an existing checkpoint instead of
    resuming from it.  ``run_timeout`` hard-bounds the whole run
    (raises :class:`~repro.errors.DistribError`), which CI uses to keep
    chaos suites from ever wedging.  Workers start with ``fork`` when
    the platform offers it (the model then never crosses a pipe, so an
    unpicklable procedural preference model works too), else with the
    platform's default start method.
    """

    workers: int = 2
    max_shard_objects: Optional[int] = None
    stall_timeout: float = 10.0
    hedge_multiplier: Optional[float] = 3.0
    hedge_min_completions: int = 3
    hedge_floor: float = 0.05
    max_shard_retries: int = 2
    task_retries: int = 2
    backoff: float = 0.05
    on_error: str = "salvage"
    checkpoint: Optional[str] = None
    resume: bool = True
    run_timeout: Optional[float] = None
    poll_interval: float = 0.02


@dataclass(frozen=True)
class ShardOutcome:
    """Supervision provenance of one shard.

    ``dispatches`` counts every send (first dispatch, retries, hedges);
    ``failures`` the dispatches that died, stalled or errored;
    ``resumed`` marks shards loaded from the checkpoint instead of
    computed; ``salvaged`` shards that degraded to failure records;
    ``hedged`` shards that had a speculative twin; ``seconds`` the
    winning dispatch's wall-clock (``0.0`` for resumed/salvaged shards).
    """

    shard_id: int
    indices: Tuple[int, ...]
    dispatches: int
    failures: int
    hedged: bool
    salvaged: bool
    resumed: bool
    seconds: float


@dataclass(frozen=True)
class DistribResult:
    """One supervised run: the merged batch plus supervision provenance.

    ``batch`` carries bit-identical indices, reports and probabilities
    to the in-process
    :func:`~repro.core.batch.batch_skyline_probabilities` answer for the
    same arguments (cache counters are plan-shaped and ``stats``
    wall-clock is not replayable), and is bit-identical *in full* to any
    other supervised run of the same plan — faults, hedges and resumes
    included.
    ``supervision`` aggregates the coordinator's counters; ``shards``
    records each shard's fate.
    """

    batch: BatchResult
    shards: Tuple[ShardOutcome, ...]
    workers: int
    supervision: DistribStats
    checkpoint: Optional[str] = None

    @property
    def probabilities(self) -> Tuple[float, ...]:
        """Skyline probabilities in ``batch.indices`` order."""
        return self.batch.probabilities


@dataclass
class _ShardState:
    shard: Shard
    tasks: Tuple[Tuple[int, int, object], ...]
    dispatches: int = 0
    failures: int = 0
    next_eligible: float = 0.0
    hedged: bool = False
    done: bool = False
    salvaged: bool = False
    resumed: bool = False
    seconds: float = 0.0
    payload: Optional[ShardPayload] = None
    last_error: Optional[Tuple[str, str]] = None
    deterministic: bool = False


@dataclass
class _WorkerHandle:
    worker_id: int
    process: object
    conn: object
    shard_id: Optional[int] = None
    dispatched_at: float = 0.0
    last_beat: float = field(default_factory=time.monotonic)
    dead: bool = False

    @property
    def idle(self) -> bool:
        return self.shard_id is None and not self.dead


class ShardCoordinator:
    """Supervise a worker pool through one sharded batch computation.

    One coordinator instance is reusable: each :meth:`run` call plans,
    spawns, supervises and tears down its own pool.  Accepts a
    :class:`~repro.core.engine.SkylineProbabilityEngine` or a
    :class:`~repro.core.dynamic.DynamicSkylineEngine` (unwrapped, like
    the batch planner).
    """

    def __init__(
        self,
        engine: SkylineProbabilityEngine,
        config: Optional[DistribConfig] = None,
    ) -> None:
        inner = getattr(engine, "engine", None)
        if isinstance(inner, SkylineProbabilityEngine):
            engine = inner
        if not isinstance(engine, SkylineProbabilityEngine):
            raise DistribError(
                f"ShardCoordinator needs a SkylineProbabilityEngine (or a "
                f"DynamicSkylineEngine wrapping one), got {engine!r}"
            )
        self._engine = engine
        self._config = config or DistribConfig()
        self._validate_config()

    # ------------------------------------------------------------------
    @property
    def engine(self) -> SkylineProbabilityEngine:
        """The engine whose dataset/preferences the shards compute over."""
        return self._engine

    @property
    def config(self) -> DistribConfig:
        """The supervision policy in force."""
        return self._config

    def _validate_config(self) -> None:
        config = self._config
        if (
            isinstance(config.workers, bool)
            or not isinstance(config.workers, int)
            or config.workers < 1
        ):
            raise RobustnessPolicyError(
                f"workers must be a positive integer, got {config.workers!r}"
            )
        if config.on_error not in ON_ERROR_POLICIES:
            raise RobustnessPolicyError(
                f"unknown on_error policy {config.on_error!r}; expected one "
                f"of {ON_ERROR_POLICIES}"
            )
        # NaN and infinity fail every check: a NaN stall_timeout would
        # reap every busy worker at each poll.
        for name, optional in (
            ("stall_timeout", False),
            ("poll_interval", False),
            ("run_timeout", True),
            ("hedge_multiplier", True),
        ):
            value = getattr(config, name)
            if value is None and optional:
                continue
            if not _is_finite(value) or value <= 0:
                raise RobustnessPolicyError(
                    f"{name} must be a positive, finite number"
                    f"{' or None' if optional else ''}, got {value!r}"
                )
        if not _is_finite(config.hedge_floor) or config.hedge_floor < 0:
            raise RobustnessPolicyError(
                f"hedge_floor must be a non-negative, finite number, got "
                f"{config.hedge_floor!r}"
            )
        for name in ("max_shard_retries", "task_retries", "hedge_min_completions"):
            value = getattr(config, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise RobustnessPolicyError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
        validate_robustness(backoff=config.backoff)

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        indices: Sequence[int] | None = None,
        seed: object = None,
        seeds: Sequence[object] | None = None,
        fault_injector: object = None,
        abort_after_shards: int | None = None,
        **options: object,
    ) -> DistribResult:
        """Compute the sharded batch under supervision.

        ``options`` are the batch planner's full set of
        :class:`~repro.core.options.QueryOptions`, restriction included;
        they, the restriction's ranges and ``indices`` are checked before
        any worker starts, and the workers answer through the batch
        planner's chunk runner.  ``indices``, ``seed``, ``seeds`` and
        ``fault_injector`` mean what they mean to
        :func:`~repro.core.batch.batch_skyline_probabilities`.
        ``abort_after_shards`` is the crash-atomicity
        failpoint: the coordinator raises
        :class:`~repro.errors.CoordinatorAbortedError` immediately after
        that many shards of *this* run have been durably checkpointed —
        the chaos suite's stand-in for ``kill -9`` between shard
        completions.
        """
        engine = self._engine
        config = self._config
        query = QueryOptions(**options)
        engine._restriction(query)  # the restriction's ranges, before any worker
        # The config is mutable: a field set after construction is checked
        # here, before any worker starts.
        self._validate_config()
        if fault_injector is not None and not callable(
            getattr(fault_injector, "before_task", None)
        ):
            raise RobustnessPolicyError(
                f"fault_injector must provide a before_task(index, attempt) "
                f"method (see repro.robustness.FaultInjector), got "
                f"{fault_injector!r}"
            )
        index_list = _resolve_indices(engine.dataset, indices)
        n = len(index_list)
        collect = obs.is_enabled()
        started = time.perf_counter()
        if n == 0:
            batch = BatchResult((), (), query.method, config.workers)
            stats = DistribStats(wall_seconds=time.perf_counter() - started)
            return DistribResult(
                batch, (), config.workers, stats, checkpoint=config.checkpoint
            )
        # The default cap (ceil(n / 8), from plan_shards) deliberately
        # ignores the worker count: the shard plan — and therefore the
        # checkpoint fingerprint and every cache counter — must be a
        # pure function of the *computation*, so a resumed run may use a
        # different pool size and still merge bit-identically.
        shards = plan_shards(
            engine.dataset,
            index_list,
            max_shard_objects=config.max_shard_objects,
        )
        seed_list = spawn_batch_seeds(
            query.method, n, seed=seed, seeds=seeds, deadline=query.deadline
        )
        run = _SupervisedRun(
            coordinator=self,
            options=query,
            index_list=index_list,
            seed_list=seed_list,
            shards=shards,
            fault_injector=fault_injector,
            seed=seed,
            collect=collect,
            abort_after_shards=abort_after_shards,
        )
        outcome = run.execute()
        wall = time.perf_counter() - started
        return self._assemble(
            run, outcome, query.method, index_list, collect, wall
        )

    # ------------------------------------------------------------------
    def _assemble(
        self,
        run: "_SupervisedRun",
        states: List[_ShardState],
        method: str,
        index_list: List[int],
        collect: bool,
        wall: float,
    ) -> DistribResult:
        config = self._config
        reports: Dict[int, object] = {}
        failure_map: Dict[int, BatchFailure] = {}
        cache_hits = cache_misses = retries = 0
        for state in states:
            payload = state.payload
            for position, report in payload.reports:
                reports[position] = report
            for position, failure in payload.failures:
                failure_map[position] = failure
            cache_hits += payload.cache_hits
            cache_misses += payload.cache_misses
            retries += payload.retries
        answered = sorted(reports)
        answered_reports = tuple(reports[position] for position in answered)
        stats = None
        if collect:
            stats = BatchStats.from_reports(
                answered_reports,
                queries=len(index_list),
                failed=len(failure_map),
                retries=retries,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                wall_seconds=wall,
            )
        batch = BatchResult(
            tuple(index_list[position] for position in answered),
            answered_reports,
            method,
            config.workers,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            failures=tuple(
                failure_map[position] for position in sorted(failure_map)
            ),
            retries=retries,
            stats=stats,
        )
        outcomes = tuple(
            ShardOutcome(
                shard_id=state.shard.shard_id,
                indices=state.shard.indices,
                dispatches=state.dispatches,
                failures=state.failures,
                hedged=state.hedged,
                salvaged=state.salvaged,
                resumed=state.resumed,
                seconds=state.seconds,
            )
            for state in states
        )
        supervision = DistribStats(
            shards=len(states),
            resumed=sum(1 for state in states if state.resumed),
            salvaged=sum(
                1 for state in states if state.salvaged and not state.resumed
            ),
            hedges=run.hedges,
            respawns=run.respawns,
            stalls=run.stalls,
            deaths=run.deaths,
            heartbeats=run.heartbeats,
            duplicates=run.duplicates,
            wall_seconds=wall,
        )
        if collect:
            _record_distrib(supervision)
        return DistribResult(
            batch,
            outcomes,
            config.workers,
            supervision,
            checkpoint=config.checkpoint,
        )


class _SupervisedRun:
    """The mutable state machine of one :meth:`ShardCoordinator.run`."""

    def __init__(
        self,
        *,
        coordinator: ShardCoordinator,
        options: QueryOptions,
        index_list: List[int],
        seed_list: List[object],
        shards: Tuple[Shard, ...],
        fault_injector: object,
        seed: object,
        collect: bool,
        abort_after_shards: int | None,
    ) -> None:
        self._engine = coordinator.engine
        self._config = coordinator.config
        self._options = options
        self._index_list = index_list
        self._fault_injector = fault_injector
        self._seed = seed
        self._collect = collect
        self._abort_after = abort_after_shards
        self._stride = self._config.task_retries + 1
        self._states: Dict[int, _ShardState] = {}
        for shard in shards:
            tasks = tuple(
                (position, index, seed_list[position])
                for position, index in zip(shard.positions, shard.indices)
            )
            self._states[shard.shard_id] = _ShardState(shard=shard, tasks=tasks)
        self._pending: List[int] = [shard.shard_id for shard in shards]
        self._workers: List[_WorkerHandle] = []
        self._next_worker_id = 0
        self._durations: List[float] = []
        self._done_count = 0
        self._completed_this_run = 0
        self._fatal: Optional[Exception] = None
        self._abort_now = False
        self.hedges = 0
        self.respawns = 0
        self.stalls = 0
        self.deaths = 0
        self.heartbeats = 0
        self.duplicates = 0
        self._store: Optional[CheckpointStore] = None
        self._fingerprint: Optional[str] = None

    # -- checkpoint ----------------------------------------------------
    def _init_checkpoint(self) -> None:
        config = self._config
        if config.checkpoint is None:
            return
        shard_plan = tuple(
            state.shard.indices for state in self._ordered_states()
        )
        self._fingerprint = run_fingerprint(
            dataset=self._engine.dataset,
            preferences=self._engine.preferences,
            options=self._options,
            index_list=tuple(self._index_list),
            seed=self._seed,
            shard_plan=shard_plan,
        )
        self._store = CheckpointStore(config.checkpoint)
        if config.resume and self._store.exists():
            _, payloads = self._store.load(
                expected_fingerprint=self._fingerprint
            )
            for shard_id, payload in payloads.items():
                state = self._states.get(shard_id)
                if state is None:
                    raise DistribError(
                        f"checkpoint names shard {shard_id}, which is not in "
                        f"this run's plan of {len(self._states)} shards"
                    )
                if state.done:
                    continue
                state.done = True
                state.resumed = True
                state.payload = payload
                state.salvaged = bool(payload.failures) and not payload.reports
                self._done_count += 1
            self._pending = [
                shard_id
                for shard_id in self._pending
                if not self._states[shard_id].done
            ]
        else:
            self._store.write_header(
                self._fingerprint,
                {
                    "method": self._options.method,
                    "objects": len(self._index_list),
                    "shards": len(self._states),
                    "workers": self._config.workers,
                },
            )

    def _ordered_states(self) -> List[_ShardState]:
        return [
            self._states[shard_id] for shard_id in sorted(self._states)
        ]

    # -- workers -------------------------------------------------------
    def _context(self):
        return mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )

    def _spawn_worker(self, *, initial: bool) -> _WorkerHandle:
        ctx = self._context()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                child_conn,
                self._engine.dataset,
                self._engine.preferences,
                self._engine.max_exact_objects,
                self._options,
                self._fault_injector,
                self._config.task_retries,
                self._config.backoff,
                self._collect,
            ),
            daemon=True,
            name=f"repro-distrib-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(worker_id, process, parent_conn)
        self._workers.append(handle)
        if not initial:
            self.respawns += 1
        return handle

    def _kill_worker(self, handle: _WorkerHandle) -> None:
        handle.dead = True
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(0.5)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if handle in self._workers:
            self._workers.remove(handle)

    def _idle_workers(self) -> List[_WorkerHandle]:
        return [handle for handle in self._workers if handle.idle]

    # -- dispatching ---------------------------------------------------
    def _send_dispatch(
        self, handle: _WorkerHandle, shard_id: int, *, hedge: bool = False
    ) -> bool:
        state = self._states[shard_id]
        state.dispatches += 1
        dispatch = state.dispatches
        salvage = self._config.on_error == "salvage" and (
            state.deterministic
            or state.failures >= self._config.max_shard_retries
        )
        task = ShardTask(
            shard_id=shard_id,
            dispatch=dispatch,
            attempt_offset=(dispatch - 1) * self._stride,
            salvage=salvage,
            tasks=state.tasks,
        )
        try:
            handle.conn.send((MSG_RUN, task))
        except (BrokenPipeError, OSError):
            handle.dead = True
            return False
        now = time.monotonic()
        handle.shard_id = shard_id
        handle.dispatched_at = now
        handle.last_beat = now
        if hedge:
            state.hedged = True
            self.hedges += 1
        return True

    def _dispatch_pending(self, now: float) -> None:
        while self._pending:
            idle = self._idle_workers()
            if not idle:
                return
            eligible = None
            for position, shard_id in enumerate(self._pending):
                if self._states[shard_id].next_eligible <= now:
                    eligible = position
                    break
            if eligible is None:
                return
            shard_id = self._pending.pop(eligible)
            if not self._send_dispatch(idle[0], shard_id):
                # The worker died between ticks; put the shard back and
                # let the reaper respawn before trying again.
                self._pending.insert(0, shard_id)
                return

    def _active_dispatches(self, shard_id: int) -> List[_WorkerHandle]:
        return [
            handle
            for handle in self._workers
            if handle.shard_id == shard_id and not handle.dead
        ]

    def _hedge_threshold(self) -> Optional[float]:
        config = self._config
        if config.hedge_multiplier is None:
            return None
        if len(self._durations) < config.hedge_min_completions:
            return None
        ordered = sorted(self._durations)
        rank = max(0, -(-len(ordered) * 95 // 100) - 1)
        return max(config.hedge_floor, config.hedge_multiplier * ordered[rank])

    def _maybe_hedge(self, now: float) -> None:
        threshold = self._hedge_threshold()
        if threshold is None:
            return
        for shard_id, state in self._states.items():
            if state.done or state.hedged or shard_id in self._pending:
                continue
            active = self._active_dispatches(shard_id)
            if not active:
                continue
            elapsed = now - min(handle.dispatched_at for handle in active)
            if elapsed <= threshold:
                continue
            idle = self._idle_workers()
            if not idle:
                return
            self._send_dispatch(idle[0], shard_id, hedge=True)

    # -- failure handling ----------------------------------------------
    def _shard_attempt_failed(
        self,
        shard_id: int,
        error_type: str,
        message: str,
        now: float,
        deterministic: bool = False,
    ) -> None:
        """Count one failed dispatch and decide the shard's next step.

        A ``deterministic`` failure (a :class:`~repro.errors.ReproError`
        from the queries themselves) is never retried, as in the batch
        planner: under ``on_error="raise"`` it fails the run at once,
        otherwise the shard's next dispatch, without backoff, is its
        salvage dispatch.  Other failures are re-dispatched with capped
        backoff; past ``max_shard_retries`` the circuit breaker trips.
        """
        state = self._states[shard_id]
        if state.done:
            return
        state.failures += 1
        state.last_error = (error_type, message)
        state.deterministic = state.deterministic or deterministic
        if self._active_dispatches(shard_id):
            # A twin (hedge) is still running this shard; let it race the
            # retry budget before burning another dispatch.
            return
        raising = self._config.on_error == "raise"
        if state.failures > self._config.max_shard_retries or (
            raising and state.deterministic
        ):
            if raising:
                self._fatal = ShardFailedError(
                    f"shard {shard_id} failed permanently after "
                    f"{state.dispatches} dispatches: {error_type}: {message}",
                    shard_id=shard_id,
                    indices=state.shard.indices,
                    attempts=state.dispatches,
                )
                return
            self._salvage_shard(shard_id, now)
            return
        delay = (
            0.0
            if state.deterministic
            else _backoff_delay(self._config.backoff, state.failures)
        )
        state.next_eligible = now + delay
        if shard_id not in self._pending:
            self._pending.append(shard_id)

    def _salvage_shard(self, shard_id: int, now: float) -> None:
        """Circuit breaker: degrade the whole shard to failure records."""
        state = self._states[shard_id]
        error_type, message = state.last_error or (
            "ShardFailedError",
            "shard worker lost",
        )
        failures = tuple(
            (
                position,
                BatchFailure(index, error_type, message, state.dispatches),
            )
            for position, index, _ in state.tasks
        )
        payload = ShardPayload(
            shard_id=shard_id,
            reports=(),
            failures=failures,
            retries=0,
            cache_hits=0,
            cache_misses=0,
        )
        state.salvaged = True
        self._complete_shard(shard_id, payload, now, duration=None)

    def _complete_shard(
        self,
        shard_id: int,
        payload: ShardPayload,
        now: float,
        *,
        duration: Optional[float],
    ) -> None:
        state = self._states[shard_id]
        state.done = True
        state.payload = payload
        if duration is not None:
            state.seconds = duration
            self._durations.append(duration)
        if shard_id in self._pending:
            self._pending.remove(shard_id)
        if self._store is not None:
            self._store.append_shard(shard_id, state.dispatches, payload)
        self._done_count += 1
        self._completed_this_run += 1
        if (
            self._abort_after is not None
            and self._completed_this_run >= self._abort_after
        ):
            self._abort_now = True

    # -- message handling ----------------------------------------------
    def _handle_message(
        self, handle: _WorkerHandle, message: object, now: float
    ) -> None:
        if not isinstance(message, tuple) or not message:
            return
        tag = message[0]
        if tag == MSG_READY:
            handle.last_beat = now
        elif tag == MSG_BEAT:
            handle.last_beat = now
            self.heartbeats += 1
        elif tag == MSG_RESULT:
            _, _, shard_id, _, payload = message
            was_running = handle.shard_id == shard_id
            handle.shard_id = None
            handle.last_beat = now
            state = self._states.get(shard_id)
            if state is None or state.done:
                self.duplicates += 1
                return
            duration = now - handle.dispatched_at if was_running else None
            self._complete_shard(shard_id, payload, now, duration=duration)
        elif tag == MSG_ERROR:
            _, _, shard_id, _, error_type, text, deterministic = message
            handle.shard_id = None
            handle.last_beat = now
            self._shard_attempt_failed(
                shard_id, error_type, text, now, deterministic
            )

    # -- reapers -------------------------------------------------------
    def _reap_dead(self, now: float) -> None:
        for handle in list(self._workers):
            if not handle.dead and handle.process.is_alive():
                continue
            shard_id = handle.shard_id
            self.deaths += 1
            self._kill_worker(handle)
            self._spawn_worker(initial=False)
            if shard_id is not None and not self._states[shard_id].done:
                self._shard_attempt_failed(
                    shard_id,
                    "WorkerDied",
                    f"worker {handle.worker_id} died while running shard "
                    f"{shard_id}",
                    now,
                )

    def _reap_stalled(self, now: float) -> None:
        timeout = self._config.stall_timeout
        for handle in list(self._workers):
            if handle.dead or handle.shard_id is None:
                continue
            if now - handle.last_beat <= timeout:
                continue
            shard_id = handle.shard_id
            stale_for = now - handle.last_beat
            self._kill_worker(handle)
            self._spawn_worker(initial=False)
            if not self._states[shard_id].done:
                self.stalls += 1
                self._shard_attempt_failed(
                    shard_id,
                    "WorkerStalled",
                    f"worker {handle.worker_id} heartbeat stale for "
                    f"{stale_for:.3f}s (> stall_timeout="
                    f"{timeout}s) on shard {shard_id}",
                    now,
                )

    # -- main loop -----------------------------------------------------
    def _check_abort(self) -> None:
        """Fire the crash-atomicity failpoint the chaos suite arms."""
        if self._abort_now:
            raise CoordinatorAbortedError(
                f"coordinator aborted after {self._completed_this_run} "
                f"checkpointed shard(s) (abort_after_shards="
                f"{self._abort_after})"
            )

    def execute(self) -> List[_ShardState]:
        self._init_checkpoint()
        total = len(self._states)
        if self._done_count >= total:
            return self._ordered_states()
        if self._abort_after is not None and self._abort_after <= 0:
            raise CoordinatorAbortedError(
                "coordinator aborted before dispatching any shard "
                "(abort_after_shards=0)"
            )
        config = self._config
        deadline_at = (
            time.monotonic() + config.run_timeout
            if config.run_timeout is not None
            else None
        )
        while len(self._workers) < config.workers:
            self._spawn_worker(initial=True)
        try:
            while self._done_count < total:
                now = time.monotonic()
                if deadline_at is not None and now > deadline_at:
                    raise DistribError(
                        f"supervised run exceeded run_timeout="
                        f"{config.run_timeout}s with "
                        f"{total - self._done_count} of {total} shards "
                        f"unfinished"
                    )
                if self._fatal is not None:
                    raise self._fatal
                self._check_abort()
                self._dispatch_pending(now)
                self._maybe_hedge(now)
                by_conn = {
                    handle.conn: handle
                    for handle in self._workers
                    if not handle.dead
                }
                ready = mp_connection.wait(
                    list(by_conn), timeout=config.poll_interval
                )
                now = time.monotonic()
                for conn in ready:
                    handle = by_conn.get(conn)
                    if handle is None or handle.dead:
                        continue
                    while True:
                        try:
                            if not conn.poll():
                                break
                            message = conn.recv()
                        except (EOFError, OSError):
                            handle.dead = True
                            break
                        self._handle_message(handle, message, now)
                        self._check_abort()
                if self._fatal is not None:
                    raise self._fatal
                now = time.monotonic()
                self._reap_dead(now)
                self._reap_stalled(now)
            return self._ordered_states()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        """Tear the pool down: idle workers are sent ``MSG_STOP`` and get
        0.5 s to exit; a busy one (a hedge loser, a stalled shard) never
        reads the message, so it is killed at once.  Whatever is left —
        a worker past its grace, or every worker when an interrupt lands
        mid-shutdown — is killed on the way out."""
        try:
            stopping = []
            for handle in self._workers:
                if handle.idle and handle.process.is_alive():
                    try:
                        handle.conn.send((MSG_STOP,))
                    except (BrokenPipeError, OSError):
                        continue
                    stopping.append(handle)
            for handle in list(self._workers):
                if handle not in stopping:
                    self._kill_worker(handle)
            deadline = time.monotonic() + 0.5
            for handle in stopping:
                handle.process.join(max(0.0, deadline - time.monotonic()))
        finally:
            for handle in list(self._workers):
                self._kill_worker(handle)
            self._workers.clear()


def _record_distrib(stats: DistribStats) -> None:
    """Publish one supervised run's registry counters (obs is enabled)."""
    registry = obs.registry()
    registry.counter(
        "repro_distrib_runs_total", "Completed supervised shard runs."
    ).inc()
    registry.counter(
        "repro_distrib_shards_total",
        "Shards processed by supervised runs, by outcome.",
    ).inc(
        max(0, stats.shards - stats.resumed - stats.salvaged),
        outcome="computed",
    )
    if stats.resumed:
        registry.counter(
            "repro_distrib_shards_total",
            "Shards processed by supervised runs, by outcome.",
        ).inc(stats.resumed, outcome="resumed")
    if stats.salvaged:
        registry.counter(
            "repro_distrib_shards_total",
            "Shards processed by supervised runs, by outcome.",
        ).inc(stats.salvaged, outcome="salvaged")
    if stats.heartbeats:
        registry.counter(
            "repro_distrib_heartbeats_total",
            "Worker heartbeats received by coordinators.",
        ).inc(stats.heartbeats)
    if stats.hedges:
        registry.counter(
            "repro_distrib_hedges_total",
            "Speculative (hedged) shard re-dispatches.",
        ).inc(stats.hedges)
    if stats.respawns:
        registry.counter(
            "repro_distrib_respawns_total",
            "Workers respawned after death, stall or hedge cleanup.",
        ).inc(stats.respawns)
    if stats.resumed:
        registry.counter(
            "repro_distrib_resumes_total",
            "Shards restored from a checkpoint instead of recomputed.",
        ).inc(stats.resumed)
    registry.histogram(
        "repro_distrib_run_seconds",
        "Wall-clock seconds per supervised run.",
    ).observe(stats.wall_seconds)
