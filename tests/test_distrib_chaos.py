"""Supervision under fire: killed workers, hung workers, dead shards.

Every scenario is deterministic — faults are pure functions of
``(seed, index, attempt)`` via :class:`~repro.robustness.FaultInjector`
— and every recovered run must merge to the same
:class:`~repro.core.batch.BatchResult` a clean supervised run produces.
The suite rides the ``chaos`` marker so CI can give it a hard wall-clock
timeout of its own.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.process
import time

import pytest

import repro.obs as obs
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel
from repro.distrib import DistribConfig, ShardCoordinator
from repro.errors import ShardFailedError
from repro.robustness import FaultInjector

pytestmark = pytest.mark.chaos

#: Every chaos run gets a hard bound so a supervision bug cannot hang CI.
RUN_TIMEOUT = 120.0


def _engine(n=24, d=3, *, seed=21, preference_seed=22):
    dataset = block_zipf_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return SkylineProbabilityEngine(dataset, preferences)


def _clean(n=24):
    return ShardCoordinator(
        _engine(n),
        DistribConfig(workers=2, run_timeout=RUN_TIMEOUT),
    ).run(method="det+")


class TestWorkerDeath:
    def test_sigkilled_worker_shard_completes_via_respawn(self):
        clean = _clean()
        # the worker hosting object 5 SIGKILLs itself on its first
        # attempt; the attempt offset of the re-dispatch disarms the
        # fault, so the respawned worker completes the shard
        result = ShardCoordinator(
            _engine(),
            DistribConfig(workers=2, backoff=0.001, run_timeout=RUN_TIMEOUT),
        ).run(
            method="det+",
            fault_injector=FaultInjector(seed=1, die_indices={5}),
        )
        assert result.batch == clean.batch
        assert result.supervision.deaths >= 1
        assert result.supervision.respawns >= 1
        assert result.supervision.salvaged == 0
        killed = [s for s in result.shards if 5 in s.indices]
        assert killed and killed[0].failures >= 1
        assert killed[0].dispatches >= 2

    def test_death_recovery_is_deterministic(self):
        def run():
            return ShardCoordinator(
                _engine(),
                DistribConfig(
                    workers=2, backoff=0.001, run_timeout=RUN_TIMEOUT
                ),
            ).run(
                method="det+",
                fault_injector=FaultInjector(seed=1, die_rate=0.15),
            )

        first, second = run(), run()
        assert first.batch == second.batch

    def test_repeated_deaths_exhaust_the_breaker_into_salvage(self):
        # die_attempts covers every dispatch's attempt offsets, so the
        # shard hosting object 3 dies on the first dispatch, the
        # retries, AND the salvage-mode dispatch — the coordinator then
        # salvages the whole shard as failure records
        clean = _clean(16)
        result = ShardCoordinator(
            _engine(16),
            DistribConfig(
                workers=2,
                max_shard_retries=1,
                task_retries=1,
                backoff=0.001,
                run_timeout=RUN_TIMEOUT,
            ),
        ).run(
            method="det+",
            fault_injector=FaultInjector(
                seed=1, die_indices={3}, die_attempts=1_000_000
            ),
        )
        failed_indices = {f.index for f in result.batch.failures}
        assert 3 in failed_indices
        dead = [s for s in result.shards if 3 in s.indices][0]
        assert dead.salvaged
        assert failed_indices == set(dead.indices)
        assert result.supervision.salvaged == 1
        # every other shard still matches the clean run
        survivors = {
            index: probability
            for index, probability in zip(
                clean.batch.indices, clean.batch.probabilities
            )
            if index not in failed_indices
        }
        assert result.batch.as_dict() == survivors

    def test_on_error_raise_with_persistent_deaths_fails_loudly(self):
        with pytest.raises(ShardFailedError, match="failed permanently"):
            ShardCoordinator(
                _engine(12),
                DistribConfig(
                    workers=2,
                    max_shard_retries=0,
                    task_retries=0,
                    on_error="raise",
                    backoff=0.001,
                    run_timeout=RUN_TIMEOUT,
                ),
            ).run(
                method="det+",
                fault_injector=FaultInjector(
                    seed=1, die_indices={2}, die_attempts=1_000_000
                ),
            )


class TestStalls:
    def test_stalled_shard_completes_via_hedge(self):
        clean = _clean()
        # the worker hosting object 7 sleeps far past the whole run's
        # span on its first attempt; stall_timeout is too large to fire,
        # so only the hedge can finish the shard — its dispatch carries
        # the next attempt offset, which disarms the stall
        result = ShardCoordinator(
            _engine(),
            DistribConfig(
                workers=2,
                stall_timeout=300.0,
                hedge_multiplier=2.0,
                hedge_min_completions=2,
                hedge_floor=0.05,
                backoff=0.001,
                run_timeout=RUN_TIMEOUT,
            ),
        ).run(
            method="det+",
            fault_injector=FaultInjector(
                seed=1, stall_indices={7}, stall_seconds=240.0
            ),
        )
        assert result.batch == clean.batch
        assert result.supervision.hedges >= 1
        hedged = [s for s in result.shards if 7 in s.indices][0]
        assert hedged.hedged
        assert hedged.dispatches >= 2

    def test_stalled_worker_is_killed_and_respawned_without_hedging(self):
        clean = _clean()
        result = ShardCoordinator(
            _engine(),
            DistribConfig(
                workers=2,
                stall_timeout=1.0,
                hedge_multiplier=None,
                backoff=0.001,
                run_timeout=RUN_TIMEOUT,
            ),
        ).run(
            method="det+",
            fault_injector=FaultInjector(
                seed=1, stall_indices={7}, stall_seconds=240.0
            ),
        )
        assert result.batch == clean.batch
        assert result.supervision.stalls >= 1
        assert result.supervision.respawns >= 1
        assert result.supervision.hedges == 0


class TestShutdown:
    """Tearing the pool down at the end of a run, busy workers included."""

    #: Object 3's first dispatch sleeps far past the run; its hedge twin
    #: finishes the shard, so the run ends with that worker still busy.
    STALLED = FaultInjector(seed=0, stall_indices={3}, stall_seconds=30.0)

    def _run(self):
        return ShardCoordinator(
            _engine(14),
            DistribConfig(
                workers=2, max_shard_objects=1, run_timeout=RUN_TIMEOUT
            ),
        ).run(method="det+", fault_injector=self.STALLED)

    def test_busy_worker_is_killed_without_waiting_out_the_grace(
        self, monkeypatch
    ):
        import repro.distrib.coordinator as coordinator

        spent = []
        shutdown = coordinator._SupervisedRun._shutdown

        def timed(run):
            started = time.monotonic()
            try:
                shutdown(run)
            finally:
                spent.append(time.monotonic() - started)

        monkeypatch.setattr(coordinator._SupervisedRun, "_shutdown", timed)
        result = self._run()
        assert result.supervision.hedges >= 1
        # the idle worker exits on MSG_STOP in milliseconds; only a join
        # on the busy one would wait out the whole 0.5 s grace
        assert spent[0] < 0.4
        assert multiprocessing.active_children() == []

    def test_interrupt_during_shutdown_still_kills_every_worker(
        self, monkeypatch
    ):
        import repro.distrib.coordinator as coordinator

        join = multiprocessing.process.BaseProcess.join
        shutdown = coordinator._SupervisedRun._shutdown
        interrupted = []

        def interrupting_join(process, timeout=None):
            if not interrupted:
                interrupted.append(process.name)
                raise KeyboardInterrupt
            return join(process, timeout)

        def interrupted_shutdown(run):
            monkeypatch.setattr(
                multiprocessing.process.BaseProcess, "join", interrupting_join
            )
            shutdown(run)

        monkeypatch.setattr(
            coordinator._SupervisedRun, "_shutdown", interrupted_shutdown
        )
        with pytest.raises(KeyboardInterrupt):
            self._run()
        assert interrupted
        assert multiprocessing.active_children() == []


class TestObservability:
    def test_distrib_metrics_are_recorded(self):
        with obs.enabled() as registry:
            registry.reset()
            result = ShardCoordinator(
                _engine(16),
                DistribConfig(
                    workers=2, backoff=0.001, run_timeout=RUN_TIMEOUT
                ),
            ).run(
                method="det+",
                fault_injector=FaultInjector(seed=1, die_indices={2}),
            )
            runs = registry.counter("repro_distrib_runs_total").value()
            shards = registry.counter("repro_distrib_shards_total")
            heartbeats = registry.counter(
                "repro_distrib_heartbeats_total"
            ).value()
            respawns = registry.counter("repro_distrib_respawns_total").value()
        assert runs == 1
        assert shards.value(outcome="computed") == result.supervision.shards
        assert heartbeats == result.supervision.heartbeats > 0
        assert respawns == result.supervision.respawns >= 1
        # per-query stats still ride on the reports across the pipes
        assert result.batch.stats is not None
        assert result.batch.stats.answered == 16

    def test_disabled_obs_costs_nothing_and_records_nothing(self):
        registry = obs.registry()
        registry.reset()
        result = ShardCoordinator(
            _engine(12),
            DistribConfig(workers=2, run_timeout=RUN_TIMEOUT),
        ).run(method="det+")
        assert result.batch.stats is None
        assert registry.counter("repro_distrib_runs_total").total() == 0.0
        assert registry.counter("repro_distrib_shards_total").total() == 0.0
