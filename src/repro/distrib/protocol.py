"""Message types shared by the shard coordinator and its workers.

Everything crossing the coordinator↔worker pipe is a plain tuple tagged
with one of the ``MSG_*`` constants, carrying frozen dataclasses of
primitives (plus pickled per-object seed streams and
:class:`~repro.core.engine.SkylineReport` results).  Keeping the
protocol in one dependency-light module means the worker entry point
imports it without pulling the coordinator in, which matters under the
``spawn`` start method where the worker re-imports its module tree.

Coordinator → worker::

    (MSG_RUN, ShardTask)        # execute one shard dispatch
    (MSG_STOP,)                 # drain and exit

Worker → coordinator::

    (MSG_READY, worker_id)                                # once, on start
    (MSG_BEAT, worker_id, shard_id, done, total)          # liveness/progress
    (MSG_RESULT, worker_id, shard_id, dispatch, payload)  # ShardPayload
    (MSG_ERROR, worker_id, shard_id, dispatch, type, msg, deterministic)
                                                          # dispatch failed

``deterministic`` is ``True`` when the error is a
:class:`~repro.errors.ReproError`: the batch planner never retries one
(re-running the same computation cannot change its outcome), and
neither does the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "MSG_RUN",
    "MSG_STOP",
    "MSG_READY",
    "MSG_BEAT",
    "MSG_RESULT",
    "MSG_ERROR",
    "ShardTask",
    "ShardPayload",
    "OffsetInjector",
]

MSG_RUN = "run"
MSG_STOP = "stop"
MSG_READY = "ready"
MSG_BEAT = "beat"
MSG_RESULT = "result"
MSG_ERROR = "error"


@dataclass(frozen=True)
class ShardTask:
    """One dispatch of one shard to one worker.

    ``dispatch`` is the shard's 1-based dispatch counter (retries and
    hedges advance it); ``attempt_offset`` shifts the per-object attempt
    numbers seen by a :class:`~repro.robustness.FaultInjector`, so a
    deterministic fault that killed dispatch 1 does not re-fire
    identically on dispatch 2.  ``salvage`` marks the final
    (circuit-breaker) dispatch: per-object failures are recorded as
    :class:`~repro.core.batch.BatchFailure` entries instead of failing
    the shard.  ``tasks`` are ``(batch position, dataset index, seed)``
    triples — positions are *global* batch positions, so the coordinator
    can merge shard results without any index arithmetic.
    """

    shard_id: int
    dispatch: int
    attempt_offset: int
    salvage: bool
    tasks: Tuple[Tuple[int, int, object], ...]


@dataclass(frozen=True)
class ShardPayload:
    """The durable result of one completed shard dispatch.

    This is both the wire format (worker → coordinator) and the
    checkpoint format (pickled into one JSONL record): ``reports`` and
    ``failures`` carry global batch positions, ``retries`` the in-worker
    re-attempts spent, and the cache counters come from the dispatch's
    fresh per-shard :class:`~repro.core.dominance.DominanceCache` — all
    pure functions of the shard plan and the fault plan, never of which
    worker ran it, which is why a hedged or resumed run merges to a
    bit-identical :class:`~repro.core.batch.BatchResult`.
    """

    shard_id: int
    reports: Tuple[Tuple[int, object], ...]
    failures: Tuple[Tuple[int, object], ...]
    retries: int
    cache_hits: int
    cache_misses: int


class OffsetInjector:
    """Shift the attempt numbers a fault injector sees by a constant.

    Dispatch ``k`` of a shard wraps the user's injector with offset
    ``(k - 1) * stride`` (``stride`` = per-object attempts per dispatch),
    so attempt numbering continues monotonically across worker lifetimes
    and the injector's ``(seed, index, attempt)`` keying stays exactly as
    reproducible as in the single-process batch planner.
    """

    def __init__(self, inner: object, offset: int) -> None:
        self._inner = inner
        self._offset = offset

    def before_task(self, index: int, attempt: int) -> None:
        self._inner.before_task(index, attempt + self._offset)
