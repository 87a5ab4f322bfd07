"""Worker-process entry point for the shard coordinator.

One worker is one OS process holding one end of a duplex pipe.  It
announces itself, then loops: receive a
:class:`~repro.distrib.protocol.ShardTask`, answer its objects through
the *same* chunk runner and retry/salvage machinery the batch planner
uses in-process (:func:`repro.core.batch._run_chunk_inprocess`), and
send back a :class:`~repro.distrib.protocol.ShardPayload`.  It offers a
heartbeat before planning each object; in the shard's one exact call,
before each structure group and before each object's components solved
alone; before finishing each object; and before each per-object retry.
It sends the first beat of a shard and then any beat offered at least
``_BEAT_INTERVAL`` (10 ms) after the last one sent.  So the
coordinator's liveness model keeps per-object granularity: a worker
that stops beating mid-shard is hung (or dead), not merely busy.

Determinism notes, because they carry the whole fault-tolerance story:

* a **fresh engine and a fresh dominance cache per dispatch** make every
  payload a pure function of the shard plan and the fault plan — a
  hedged twin or a retried dispatch produces the same reports and the
  same cache counters, so "first result wins" cannot change the merged
  batch;
* the per-object seed streams ride inside the task (spawned once by the
  coordinator via :func:`repro.core.batch.spawn_batch_seeds`), so *which
  worker* answers an object never touches its randomness;
* the user's :class:`~repro.robustness.FaultInjector` is wrapped in an
  :class:`~repro.distrib.protocol.OffsetInjector` whose offset advances
  with the dispatch counter, keeping ``(seed, index, attempt)`` keying
  monotonic across worker lifetimes.

Failures inside a dispatch follow the planner's policy: transient
exceptions are retried in-worker with capped backoff; with
``salvage=False`` a persistent failure aborts the dispatch (reported as
``MSG_ERROR`` for the coordinator's shard-level retry/backoff loop,
flagged when it is a deterministic :class:`~repro.errors.ReproError`,
which no re-dispatch can heal);
with ``salvage=True`` — the circuit-breaker's final attempt — each
failing object degrades to a structured
:class:`~repro.core.batch.BatchFailure` while the rest of the shard
completes.  Injected worker deaths (``SIGKILL``) and stalls need no code
here at all: death surfaces as a broken pipe, a stall as heartbeat
silence, both at the coordinator.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Tuple

import repro.obs as obs

# The worker deliberately reuses the batch planner's private in-process
# chunk runner: it is the single implementation of "answer a chunk, each
# object with retry, backoff and salvage", and sharded execution must
# match its semantics bit for bit.
from repro.core.batch import BatchFailure, _run_chunk_inprocess
from repro.core.dominance import DominanceCache
from repro.core.engine import SkylineProbabilityEngine
from repro.core.options import QueryOptions
from repro.errors import ReproError
from repro.distrib.protocol import (
    MSG_BEAT,
    MSG_ERROR,
    MSG_READY,
    MSG_RESULT,
    MSG_RUN,
    MSG_STOP,
    OffsetInjector,
    ShardPayload,
    ShardTask,
)

__all__ = ["worker_main", "execute_shard"]

#: Shortest gap between two heartbeat messages of one shard.  The chunk
#: runner offers a beat at every step (each object's planning, solves,
#: finishing and retries, each structure group); sending every one would
#: wake the coordinator once per step, and on a small host its wake-ups
#: take CPU from the workers.  A worker's silence stays bounded by one
#: step plus this gap, far below any workable ``stall_timeout``.
_BEAT_INTERVAL = 0.01


def _throttled(send: Callable[[int, int], None]) -> Callable[[int, int], None]:
    """``send``, skipping calls made within ``_BEAT_INTERVAL`` of the last
    one it let through (the first always goes through)."""
    last = -math.inf

    def beat(done: int, total: int) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= _BEAT_INTERVAL:
            last = now
            send(done, total)

    return beat


def execute_shard(
    task: ShardTask,
    *,
    dataset: object,
    preferences: object,
    max_exact_objects: int,
    options: QueryOptions,
    fault_injector: object,
    task_retries: int,
    backoff: float,
    beat=None,
) -> ShardPayload:
    """Run one shard dispatch and return its payload.

    Factored out of the process loop so tests (and a bare process pool,
    as the ``distrib_overhead`` experiment's baseline) can run a shard
    without the supervision machinery.  The shard's objects are
    answered as one chunk: each is planned, one exact call solves all of
    them, and each is finished.  ``beat`` is called as ``beat(done,
    total)`` before each object is planned, in the exact call before
    each structure group and before each object's components solved
    alone, before each object is finished and before each per-object
    retry; an error it raises (the coordinator's pipe is gone) aborts
    the shard.
    """
    injector = fault_injector
    if injector is not None and task.attempt_offset:
        injector = OffsetInjector(injector, task.attempt_offset)
    engine = SkylineProbabilityEngine(
        dataset, preferences, max_exact_objects=max_exact_objects
    )
    cache = DominanceCache(preferences)
    reports: List[Tuple[int, object]] = []
    failures: List[Tuple[int, BatchFailure]] = []
    retries = 0
    outcomes = _run_chunk_inprocess(
        engine,
        cache,
        options,
        injector,
        list(task.tasks),
        max_retries=task_retries,
        backoff=backoff,
        on_error="salvage" if task.salvage else "raise",
        beat=beat,
    )
    for position, report, failure, retries_used in outcomes:
        retries += retries_used
        if report is not None:
            reports.append((position, report))
        else:
            failures.append((position, failure))
    return ShardPayload(
        shard_id=task.shard_id,
        reports=tuple(reports),
        failures=tuple(failures),
        retries=retries,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def worker_main(
    worker_id: int,
    conn,
    dataset: object,
    preferences: object,
    max_exact_objects: int,
    options: QueryOptions,
    fault_injector: object,
    task_retries: int,
    backoff: float,
    observe: bool,
) -> None:
    """Process entry point: serve shard dispatches until told to stop.

    ``observe`` carries the coordinator's :mod:`repro.obs` switch across
    the process boundary (spawn-style workers do not inherit module
    globals), so per-query ``stats`` ride on the pickled reports exactly
    as they do on an in-process batch.
    """
    if observe and not obs.is_enabled():
        obs.enable()
    try:
        conn.send((MSG_READY, worker_id))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # coordinator is gone; nothing left to report to
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == MSG_STOP:
                break
            if message[0] != MSG_RUN:
                continue
            task: ShardTask = message[1]
            try:
                payload = execute_shard(
                    task,
                    dataset=dataset,
                    preferences=preferences,
                    max_exact_objects=max_exact_objects,
                    options=options,
                    fault_injector=fault_injector,
                    task_retries=task_retries,
                    backoff=backoff,
                    beat=_throttled(
                        lambda done, total: conn.send(
                            (MSG_BEAT, worker_id, task.shard_id, done, total)
                        )
                    ),
                )
                conn.send(
                    (MSG_RESULT, worker_id, task.shard_id, task.dispatch, payload)
                )
            except (EOFError, BrokenPipeError, OSError):
                break  # the pipe died mid-shard; the coordinator noticed
            except BaseException as error:  # noqa: BLE001 — reported upstream
                try:
                    conn.send(
                        (
                            MSG_ERROR,
                            worker_id,
                            task.shard_id,
                            task.dispatch,
                            type(error).__name__,
                            str(error),
                            isinstance(error, ReproError),
                        )
                    )
                except (BrokenPipeError, OSError):
                    break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
