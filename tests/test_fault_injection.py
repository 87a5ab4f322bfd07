"""Chaos suite: deterministic fault injection against the batch planner.

Contract under test: worker failures — raised faults and hard process
kills — are retried with capped exponential backoff, per task in the
chunk runner and per shard on the coordinator's worker processes
(``workers > 1``); objects that fail permanently are salvaged into
structured :class:`BatchFailure` records; an unpicklable preference
model still runs on workers; and, throughout, every *surviving*
object's answer is bit-identical to a fault-free run (the injector
fires before any randomness is consumed, so retries replay the exact
same sampled stream).

All chaos here is driven by :class:`repro.robustness.FaultInjector`,
whose decisions are a pure function of ``(seed, index, attempt)`` — the
same objects fail, in the same way, on every run and in every process.
"""

from __future__ import annotations

import pytest

from repro.core.batch import (
    BatchFailure,
    batch_skyline_probabilities,
)
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel
from repro.errors import ComputationBudgetError, ReproError
from repro.robustness import (
    FAULT_KINDS,
    FaultInjector,
    InjectedFault,
    UnpicklableModel,
)

pytestmark = pytest.mark.chaos

#: Backoff base for the suites: fast enough to keep tests quick, non-zero
#: so the sleep path is exercised.
FAST = 0.001


def _engine(source="running", **kwargs):
    if source == "running":
        dataset, preferences = running_example()
    else:
        dataset = block_zipf_dataset(18, 3, seed=60)
        preferences = HashedPreferenceModel(3, seed=61)
    return SkylineProbabilityEngine(dataset, preferences, **kwargs)


def _clean(source="running", **options):
    """The fault-free reference run every chaos run is compared against."""
    return batch_skyline_probabilities(_engine(source), **options)


class TestInjectorDeterminism:
    """The injector itself: pure, replayable, pickling-safe decisions."""

    def test_decisions_pure_in_seed_index_attempt(self):
        a = FaultInjector(seed=5, crash_rate=0.4)
        b = FaultInjector(seed=5, crash_rate=0.4)
        decisions = [(i, t, a.crashes(i, t)) for i in range(50) for t in (1, 2)]
        assert decisions == [
            (i, t, b.crashes(i, t)) for i in range(50) for t in (1, 2)
        ]

    def test_different_seeds_give_different_plans(self):
        plans = {
            tuple(
                FaultInjector(seed=seed, crash_rate=0.5).crashes(i, 1)
                for i in range(64)
            )
            for seed in range(4)
        }
        assert len(plans) == 4

    def test_crash_rate_zero_never_fires(self):
        injector = FaultInjector(seed=1)
        assert not any(injector.crashes(i, 1) for i in range(100))

    def test_transient_crashes_heal_after_crash_attempts(self):
        injector = FaultInjector(seed=2, crash_rate=1.0, crash_attempts=2)
        assert injector.crashes(3, 1) and injector.crashes(3, 2)
        assert not injector.crashes(3, 3)

    def test_poison_never_heals(self):
        injector = FaultInjector(seed=2, poison={7})
        assert all(injector.crashes(7, attempt) for attempt in range(1, 10))
        assert not injector.crashes(8, 1)

    def test_before_task_raises_the_configured_exception(self):
        injector = FaultInjector(seed=0, poison={4})
        with pytest.raises(InjectedFault, match="object 4 on attempt 1"):
            injector.before_task(4, 1)

    def test_exit_kind_degrades_to_raise_in_the_coordinator(self):
        # origin_pid == os.getpid() here, so "exit" must NOT kill this
        # process — it raises instead (only real workers die hard)
        injector = FaultInjector(seed=0, poison={4}, kind="exit")
        with pytest.raises(InjectedFault):
            injector.before_task(4, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultInjector(kind="segfault")
        assert FAULT_KINDS == ("raise", "exit")

    def test_injector_is_not_a_repro_error(self):
        # injected faults model infrastructure failures; the retry layer
        # must treat them as transient, unlike deterministic ReproErrors
        assert not issubclass(InjectedFault, ReproError)


class TestRetryRecovery:
    """Transient faults are healed by retries; answers never change."""

    @pytest.mark.parametrize("method", ["det+", "sam"])
    def test_serial_retry_heals_transient_crashes(self, method):
        options = {"samples": 80, "seed": 19} if method == "sam" else {}
        clean = _clean(method=method, **options)
        chaotic = batch_skyline_probabilities(
            _engine(),
            method=method,
            fault_injector=FaultInjector(seed=1, crash_rate=1.0),
            backoff=FAST,
            **options,
        )
        assert chaotic.probabilities == clean.probabilities
        assert chaotic.reports == clean.reports
        assert chaotic.failures == ()
        assert chaotic.retries == len(_engine().dataset)

    def test_threaded_retry_heals_transient_crashes(self):
        clean = _clean("zipf", method="sam+", samples=60, seed=31)
        chaotic = batch_skyline_probabilities(
            _engine("zipf"),
            method="sam+",
            samples=60,
            seed=31,
            workers=3,
            chunk_size=2,
            fault_injector=FaultInjector(seed=4, crash_rate=0.5),
            backoff=FAST,
        )
        assert chaotic.probabilities == clean.probabilities
        assert chaotic.failures == ()
        assert chaotic.retries > 0

    def test_partial_crash_rate_only_retries_the_chosen(self):
        injector = FaultInjector(seed=9, crash_rate=0.3)
        crashing = sum(
            injector.crashes(i, 1) for i in range(len(_engine().dataset))
        )
        chaotic = batch_skyline_probabilities(
            _engine(), method="det+", fault_injector=injector, backoff=FAST
        )
        assert chaotic.retries == crashing
        assert chaotic.probabilities == _clean(method="det+").probabilities

    def test_zero_backoff_is_legal(self):
        result = batch_skyline_probabilities(
            _engine(),
            method="det+",
            fault_injector=FaultInjector(seed=1, crash_rate=1.0),
            backoff=0.0,
        )
        assert result.failures == ()


class TestSalvage:
    """Permanent faults become structured failures; the rest survive."""

    def test_poisoned_objects_are_salvaged(self):
        poison = {1, 3}
        clean = _clean(method="sam", samples=80, seed=19)
        chaotic = batch_skyline_probabilities(
            _engine(),
            method="sam",
            samples=80,
            seed=19,
            fault_injector=FaultInjector(seed=0, poison=poison),
            max_retries=2,
            backoff=FAST,
        )
        n = len(_engine().dataset)
        assert chaotic.indices == tuple(i for i in range(n) if i not in poison)
        # surviving answers bit-identical to the fault-free run
        expected = {
            index: probability
            for index, probability in zip(clean.indices, clean.probabilities)
            if index not in poison
        }
        assert chaotic.as_dict() == expected
        assert {f.index for f in chaotic.failures} == poison
        for failure in chaotic.failures:
            assert isinstance(failure, BatchFailure)
            assert failure.error_type == "InjectedFault"
            assert f"object {failure.index}" in failure.message
            assert failure.attempts == 3  # first try + max_retries

    def test_on_error_raise_propagates_the_fault(self):
        with pytest.raises(InjectedFault):
            batch_skyline_probabilities(
                _engine(),
                method="det+",
                fault_injector=FaultInjector(seed=0, poison={1}),
                on_error="raise",
                backoff=FAST,
            )

    def test_max_retries_zero_disables_re_dispatch(self):
        chaotic = batch_skyline_probabilities(
            _engine(),
            method="det+",
            fault_injector=FaultInjector(seed=1, crash_rate=1.0),
            max_retries=0,
        )
        # a single attempt that always crashes: everything is salvaged
        assert chaotic.indices == ()
        assert len(chaotic.failures) == len(_engine().dataset)
        assert chaotic.retries == 0
        assert all(f.attempts == 1 for f in chaotic.failures)

    def test_deterministic_library_errors_are_not_retried(self):
        # an exact query over a too-large event set raises
        # ComputationBudgetError deterministically; retrying cannot help,
        # so exactly one attempt is burned per object
        engine = _engine("zipf", max_exact_objects=2)
        result = batch_skyline_probabilities(
            engine, method="det", max_retries=3, backoff=FAST
        )
        assert result.retries == 0
        for failure in result.failures:
            assert failure.error_type == "ComputationBudgetError"
            assert failure.attempts == 1
        # ... and on_error="raise" surfaces it as usual
        with pytest.raises(ComputationBudgetError):
            batch_skyline_probabilities(
                engine, method="det", on_error="raise"
            )

    def test_salvaged_batch_survives_mixed_chaos(self):
        # poison + transient crashes + stragglers, threaded: survivors
        # bit-identical, poison salvaged, nothing else lost
        clean = _clean("zipf", method="sam", samples=60, seed=43)
        chaotic = batch_skyline_probabilities(
            _engine("zipf"),
            method="sam",
            samples=60,
            seed=43,
            workers=2,
            fault_injector=FaultInjector(
                seed=6,
                crash_rate=0.4,
                poison={0, 9},
                slow_rate=0.3,
                slow_seconds=0.002,
            ),
            backoff=FAST,
        )
        assert {f.index for f in chaotic.failures} == {0, 9}
        expected = {
            index: probability
            for index, probability in zip(clean.indices, clean.probabilities)
            if index not in {0, 9}
        }
        assert chaotic.as_dict() == expected


@pytest.mark.slow
class TestProcessPoolChaos:
    """The harshest failures: dead workers (the coordinator's worker
    processes, forced past the single-core gate)."""

    OPTIONS = dict(method="sam", samples=60, seed=13)

    @pytest.fixture(autouse=True)
    def _many_cores(self, monkeypatch):
        import repro.core.batch as batch_module

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 2)

    def test_raised_worker_faults_recover_in_process(self):
        clean = _clean("zipf", **self.OPTIONS)
        chaotic = batch_skyline_probabilities(
            _engine("zipf"),
            workers=2,
            chunk_size=5,
            fault_injector=FaultInjector(seed=2, crash_rate=0.5),
            backoff=FAST,
            **self.OPTIONS,
        )
        assert chaotic.probabilities == clean.probabilities
        assert chaotic.failures == ()
        assert chaotic.retries > 0

    def test_poison_in_a_dead_pool_is_still_salvaged(self):
        # the worker dies on every dispatch of object 4's shard, so the
        # circuit breaker salvages that whole shard: one-object shards
        # keep the salvage per object
        chaotic = batch_skyline_probabilities(
            _engine("zipf"),
            workers=2,
            chunk_size=1,
            fault_injector=FaultInjector(seed=3, poison={4}, kind="exit"),
            backoff=FAST,
            **self.OPTIONS,
        )
        assert {f.index for f in chaotic.failures} == {4}
        clean = _clean("zipf", **self.OPTIONS)
        expected = {
            index: probability
            for index, probability in zip(clean.indices, clean.probabilities)
            if index != 4
        }
        assert chaotic.as_dict() == expected


class TestSerializationFaults:
    """An unpicklable model still fans out: fork-started coordinator
    workers inherit it and never pickle it."""

    def test_unpicklable_model_forces_thread_fallback(self, monkeypatch):
        import repro.core.batch as batch_module

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 2)
        dataset = block_zipf_dataset(12, 3, seed=60)
        inner = HashedPreferenceModel(3, seed=61)
        clean = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, inner),
            method="sam",
            samples=50,
            seed=5,
        )
        wrapped = UnpicklableModel(inner)
        assert wrapped.wrapped is inner
        chaotic = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, wrapped),
            method="sam",
            samples=50,
            seed=5,
            workers=2,
        )
        assert chaotic.probabilities == clean.probabilities
        assert chaotic.failures == ()

    def test_unpicklable_model_really_does_not_pickle(self):
        import pickle

        with pytest.raises(pickle.PicklingError):
            pickle.dumps(UnpicklableModel(HashedPreferenceModel(2, seed=1)))
