"""``repro.distrib`` — supervised sharded execution of batch queries.

The batch planner (:mod:`repro.core.batch`) retries and salvages failed
queries inside one process; this package makes the all-objects
computation survive its worker processes, and the batch planner runs on
it whenever ``workers > 1``.  :class:`ShardCoordinator` splits the batch
into partition-component-aligned shards (:func:`repro.core.batch.plan_shards`),
runs them on supervised worker processes with heartbeat liveness,
hedged re-dispatch of stragglers, bounded shard retries with a
salvaging circuit breaker, and a versioned JSONL checkpoint
(:class:`CheckpointStore`) that lets a killed coordinator resume — all
while the merged :class:`~repro.core.batch.BatchResult` stays
bit-identical to the single-process answer.

Usage::

    from repro.distrib import DistribConfig, ShardCoordinator

    coordinator = ShardCoordinator(
        engine, DistribConfig(workers=4, checkpoint="run.ckpt")
    )
    result = coordinator.run(method="det+", seed=7)
    result.batch          # == batch_skyline_probabilities(...) bit for bit
    result.supervision    # heartbeats / hedges / respawns / resumes

Or from the command line::

    python -m repro distrib --objects blockzipf:200,4 \
        --checkpoint run.ckpt --workers 4 --method det+
"""

from repro.distrib.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    run_fingerprint,
)
from repro.distrib.coordinator import (
    DistribConfig,
    DistribResult,
    ShardCoordinator,
    ShardOutcome,
)
from repro.distrib.protocol import ShardPayload, ShardTask
from repro.distrib.worker import execute_shard

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "DistribConfig",
    "DistribResult",
    "ShardCoordinator",
    "ShardOutcome",
    "ShardPayload",
    "ShardTask",
    "execute_shard",
    "run_fingerprint",
]
