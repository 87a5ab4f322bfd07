"""Concurrency smoke tests: read-only engine use across threads, plus
cancellation/cleanup — an interrupted batch must not leak worker
processes or corrupt the shared dominance cache."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.batch import batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel
from repro.robustness import FaultInjector


@pytest.fixture(scope="module")
def engine():
    dataset = block_zipf_dataset(80, 3, seed=60)
    return SkylineProbabilityEngine(dataset, HashedPreferenceModel(3, seed=61))


class TestThreadedQueries:
    def test_parallel_exact_queries_match_serial(self, engine):
        indices = list(range(len(engine.dataset)))
        serial = [
            engine.skyline_probability(index, method="det+").probability
            for index in indices
        ]
        engine.clear_cache()
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(
                    lambda index: engine.skyline_probability(
                        index, method="det+"
                    ).probability,
                    indices,
                )
            )
        assert parallel == pytest.approx(serial)

    def test_parallel_sampling_is_well_formed(self, engine):
        def sample(index):
            return engine.skyline_probability(
                index, method="sam", samples=500, seed=index
            ).probability

        with ThreadPoolExecutor(max_workers=4) as pool:
            estimates = list(pool.map(sample, range(20)))
        assert all(0.0 <= estimate <= 1.0 for estimate in estimates)

    def test_mixed_methods_in_flight(self, engine):
        def query(task):
            index, method = task
            return engine.skyline_probability(
                index, method=method, samples=300, seed=1
            ).probability

        tasks = [
            (index, method)
            for index in range(10)
            for method in ("det+", "sam+", "auto")
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(query, tasks))
        assert len(results) == len(tasks)
        # exact det+/auto pairs must agree per index
        for index in range(10):
            detplus = results[tasks.index((index, "det+"))]
            auto = results[tasks.index((index, "auto"))]
            assert detplus == pytest.approx(auto)


def _lingering_children(timeout=5.0):
    """Worker processes still alive after ``timeout`` seconds of grace."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


@pytest.mark.chaos
class TestCancellationCleanup:
    """Satellite: cancellation mid-batch must not leak workers or corrupt
    the shared cache.

    ``KeyboardInterrupt`` is *not* an ``Exception``, so the retry layer
    must let it through immediately (an operator's Ctrl-C is not a fault
    to be healed), the shard coordinator's shutdown must reap its
    workers, and a :class:`DominanceCache` that was mid-use must remain
    valid for the next batch.
    """

    def _fresh(self, n=14):
        dataset = block_zipf_dataset(n, 3, seed=60)
        return SkylineProbabilityEngine(dataset, HashedPreferenceModel(3, seed=61))

    def test_keyboard_interrupt_propagates_immediately(self):
        # poison an object mid-batch with KeyboardInterrupt: no retry,
        # no salvage — the interrupt surfaces to the caller
        interrupt = FaultInjector(
            seed=0, poison={7}, exception=KeyboardInterrupt
        )
        with pytest.raises(KeyboardInterrupt):
            batch_skyline_probabilities(
                self._fresh(),
                method="det+",
                chunk_size=2,
                fault_injector=interrupt,
                max_retries=5,  # must NOT apply to an interrupt
            )

    def test_interrupted_batch_does_not_corrupt_the_shared_cache(self):
        engine = self._fresh()
        cache = DominanceCache(engine.preferences)
        reference = batch_skyline_probabilities(
            self._fresh(), method="det+"
        ).probabilities
        with pytest.raises(KeyboardInterrupt):
            batch_skyline_probabilities(
                engine,
                method="det+",
                cache=cache,
                workers=1,
                chunk_size=1,
                fault_injector=FaultInjector(
                    seed=0, poison={5}, exception=KeyboardInterrupt
                ),
            )
        # the cache the interrupt tore through still serves exact answers
        engine.clear_cache()
        resumed = batch_skyline_probabilities(engine, method="det+", cache=cache)
        assert list(resumed.probabilities) == list(reference)
        assert resumed.failures == ()

    @pytest.mark.slow
    def test_broken_process_pool_leaves_no_workers(self):
        # hard-killed workers (os._exit) are respawned and their shards
        # re-dispatched; the coordinator's shutdown reaps every child
        result = batch_skyline_probabilities(
            self._fresh(),
            method="sam",
            samples=40,
            seed=3,
            workers=2,
            fault_injector=FaultInjector(seed=3, crash_rate=1.0, kind="exit"),
            backoff=0.001,
        )
        assert result.failures == ()
        assert _lingering_children() == []

    @pytest.mark.slow
    def test_interrupt_crossing_a_process_boundary_cleans_up(self, monkeypatch):
        # Ctrl-C reaches the calling process while a worker sleeps in a
        # shard that stalls on every dispatch: the interrupt surfaces at
        # once, and the coordinator's shutdown kills the busy worker
        # instead of waiting for its shard
        import repro.core.batch as batch_module

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 2)
        stalled = FaultInjector(
            seed=0, stall_indices={2}, stall_attempts=10**6, stall_seconds=20.0
        )
        ctrl_c = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        started = time.monotonic()
        ctrl_c.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                batch_skyline_probabilities(
                    self._fresh(),
                    method="sam",
                    samples=40,
                    seed=3,
                    workers=2,
                    fault_injector=stalled,
                )
        finally:
            ctrl_c.cancel()
        assert time.monotonic() - started < 5.0
        assert _lingering_children() == []
