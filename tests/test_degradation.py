"""Chaos suite: deadline enforcement and Det→Sam degradation.

Contract under test (ISSUE: fault-tolerance tentpole, part 1): an exact
query that blows its wall-clock ``deadline`` does not hang — it either
degrades to the ``(ε, δ)``-bounded ``Sam`` estimator (default), returning
a report flagged ``degraded=True`` whose estimate is *bit-identical* to
what a direct ``method="sam"`` query with the same seed produces, or
raises :class:`DeadlineExceededError` under ``on_deadline="raise"``.

A deadline of ``1e-9`` seconds is used as the deterministic trigger: it
has always expired by the kernel's entry check, on every host, so these
tests never depend on machine speed.
"""

from __future__ import annotations

import pytest

from repro.core.batch import batch_skyline_probabilities
from repro.core.engine import (
    DEADLINE_POLICIES,
    SkylineProbabilityEngine,
)
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel
from repro.errors import (
    ComputationBudgetError,
    DeadlineExceededError,
    ReproError,
    RobustnessPolicyError,
)

pytestmark = pytest.mark.chaos

#: Expired before any kernel work starts, deterministically.
EXPIRED = 1e-9


def _engine(source="running", **kwargs):
    if source == "running":
        dataset, preferences = running_example()
    else:
        dataset = block_zipf_dataset(24, 3, seed=60)
        preferences = HashedPreferenceModel(3, seed=61)
    return SkylineProbabilityEngine(dataset, preferences, **kwargs)


class TestSingleQueryDegradation:
    @pytest.mark.parametrize("method", ["det", "det+", "auto"])
    def test_expired_deadline_degrades_to_sam(self, method):
        report = _engine().skyline_probability(
            0, method=method, deadline=EXPIRED, samples=150, seed=7
        )
        assert report.degraded is True
        assert report.method == "sam"
        assert report.exact is False
        assert report.samples == 150
        assert "deadline" in report.degradation_reason
        assert repr(method) in report.degradation_reason

    def test_degraded_answer_bit_identical_to_direct_sam(self):
        degraded = _engine().skyline_probability(
            0, method="det", deadline=EXPIRED, samples=200, seed=11
        )
        direct = _engine().skyline_probability(
            0, method="sam", samples=200, seed=11
        )
        assert degraded.probability == direct.probability
        assert degraded.samples == direct.samples

    def test_degradation_reason_records_accuracy_contract(self):
        report = _engine().skyline_probability(
            0, method="det", deadline=EXPIRED, epsilon=0.05, delta=0.02
        )
        assert "epsilon=0.05" in report.degradation_reason
        assert "delta=0.02" in report.degradation_reason
        # without an explicit sample count the Hoeffding size applies:
        # m = ceil(ln(2/delta) / (2 eps^2)) (Theorem 2)
        from repro.core.bounds import hoeffding_sample_size

        assert report.samples == hoeffding_sample_size(0.05, 0.02)

    def test_on_deadline_raise_surfaces_the_error(self):
        with pytest.raises(DeadlineExceededError, match="deadline"):
            _engine().skyline_probability(
                0, method="det", deadline=EXPIRED, on_deadline="raise"
            )

    def test_deadline_error_is_a_budget_error(self):
        # catchable by the documented except ComputationBudgetError /
        # except ReproError patterns
        assert issubclass(DeadlineExceededError, ComputationBudgetError)
        assert issubclass(DeadlineExceededError, ReproError)

    def test_generous_deadline_changes_nothing(self):
        engine = _engine()
        plain = engine.skyline_probability(0, method="det")
        engine.clear_cache()
        armed = engine.skyline_probability(0, method="det", deadline=3600.0)
        assert armed.probability == plain.probability
        assert armed.exact is True
        assert armed.degraded is False

    def test_degraded_report_is_never_memoised(self):
        engine = _engine()
        degraded = engine.skyline_probability(
            0, method="det", deadline=EXPIRED
        )
        assert degraded.degraded
        # the exact-answer cache must not have swallowed the estimate:
        # the same query without a deadline is answered exactly
        recovered = engine.skyline_probability(0, method="det")
        assert recovered.exact is True
        assert recovered.degraded is False

    def test_sampling_methods_ignore_the_deadline(self):
        report = _engine().skyline_probability(
            0, method="sam", deadline=EXPIRED, samples=50, seed=3
        )
        assert report.degraded is False
        assert report.method == "sam"


class TestPolicyValidation:
    """Satellite (a): malformed robustness parameters fail fast at the
    engine boundary, in the style of ``bounds.validate_accuracy``."""

    @pytest.mark.parametrize(
        "deadline", [0, -1, -0.5, float("inf"), float("nan"), "soon", True]
    )
    def test_bad_deadline(self, deadline):
        with pytest.raises(RobustnessPolicyError, match="deadline"):
            _engine().skyline_probability(0, deadline=deadline)

    def test_bad_on_deadline_policy(self):
        with pytest.raises(RobustnessPolicyError, match="on_deadline"):
            _engine().skyline_probability(0, deadline=1.0, on_deadline="panic")

    def test_policy_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            _engine().skyline_probability(0, deadline=-1)

    @pytest.mark.parametrize("max_retries", [-1, 2.5, "twice", True])
    def test_bad_max_retries_in_batch(self, max_retries):
        with pytest.raises(RobustnessPolicyError, match="max_retries"):
            batch_skyline_probabilities(_engine(), max_retries=max_retries)

    @pytest.mark.parametrize(
        "backoff", [-0.1, float("inf"), float("nan"), "slow", True]
    )
    def test_bad_backoff_in_batch(self, backoff):
        with pytest.raises(RobustnessPolicyError, match="backoff"):
            batch_skyline_probabilities(_engine(), backoff=backoff)

    def test_bad_on_error_policy_in_batch(self):
        with pytest.raises(RobustnessPolicyError, match="on_error"):
            batch_skyline_probabilities(_engine(), on_error="ignore")

    def test_bad_fault_injector_in_batch(self):
        with pytest.raises(RobustnessPolicyError, match="before_task"):
            batch_skyline_probabilities(_engine(), fault_injector=object())

    def test_policies_are_published(self):
        assert DEADLINE_POLICIES == ("degrade", "raise")


class TestBatchDegradation:
    """An armed deadline keeps whole-dataset runs bounded *and*
    reproducible: degraded batches equal a direct Sam batch bit-for-bit
    and are invariant to workers/chunking."""

    def test_degraded_batch_equals_direct_sam_batch(self):
        degraded = batch_skyline_probabilities(
            _engine("zipf"), method="det+", deadline=EXPIRED,
            samples=80, seed=17,
        )
        direct = batch_skyline_probabilities(
            _engine("zipf"), method="sam", samples=80, seed=17
        )
        assert degraded.probabilities == direct.probabilities
        assert degraded.degraded_indices == degraded.indices
        assert all(report.degraded for report in degraded.reports)
        assert degraded.failures == ()

    @pytest.mark.parametrize("workers,chunk_size", [(1, None), (2, 3), (3, 1)])
    def test_degradation_invariant_to_scheduling(self, workers, chunk_size):
        baseline = batch_skyline_probabilities(
            _engine("zipf"), method="det+", deadline=EXPIRED,
            samples=60, seed=23,
        )
        result = batch_skyline_probabilities(
            _engine("zipf"), method="det+", deadline=EXPIRED,
            samples=60, seed=23, workers=workers, chunk_size=chunk_size,
        )
        assert result.probabilities == baseline.probabilities

    def test_batch_on_deadline_raise_propagates(self):
        with pytest.raises(DeadlineExceededError):
            batch_skyline_probabilities(
                _engine(), method="det", deadline=EXPIRED,
                on_deadline="raise", on_error="raise",
            )

    def test_batch_on_deadline_raise_salvages_by_default(self):
        # DeadlineExceededError is deterministic (a ReproError): it is
        # never retried, and under the default salvage policy every
        # object lands in failures with a single attempt burned.
        result = batch_skyline_probabilities(
            _engine(), method="det", deadline=EXPIRED, on_deadline="raise"
        )
        assert result.indices == ()
        assert len(result.failures) == len(_engine().dataset)
        assert result.retries == 0
        assert {f.error_type for f in result.failures} == {
            "DeadlineExceededError"
        }
        assert all(f.attempts == 1 for f in result.failures)

    def test_facade_threads_deadline_through(self):
        probabilities = _engine().skyline_probabilities(
            method="det", deadline=EXPIRED, samples=60, seed=29
        )
        direct = _engine().skyline_probabilities(
            method="sam", samples=60, seed=29
        )
        assert probabilities == direct


class TestOverrunBudget:
    """Satellite bugfix: the degraded fallback honours the expired budget.

    Before the fix, a query whose deadline expired got a Sam fallback
    that ran to its *full* ``(ε, δ)`` sample budget — the overrun was
    unbounded.  ``max_overrun`` caps it: the fallback truncates at a
    chunk boundary once ``deadline + max_overrun`` has passed, the
    report says so (with the accuracy actually achieved), and
    ``overrun_seconds`` records how far past the deadline it went.
    """

    REQUESTED = 400_000

    def test_default_none_keeps_the_full_fallback_budget(self):
        # Backwards compatibility: without a cap the fallback still
        # delivers every sample the accuracy contract asks for.
        report = _engine().skyline_probability(
            0, method="det", deadline=EXPIRED, samples=150, seed=7
        )
        assert report.samples == 150
        assert "truncated" not in report.degradation_reason
        assert report.overrun_seconds > 0.0

    def test_expired_budget_truncates_the_fallback(self):
        import time

        start = time.monotonic()
        report = _engine("zipf").skyline_probability(
            0, method="det", deadline=EXPIRED, max_overrun=0.0,
            samples=self.REQUESTED, seed=13,
        )
        elapsed = time.monotonic() - start
        assert report.degraded is True
        assert report.method == "sam"
        # The ceiling had already passed when the fallback started, so it
        # stops at its first chunk boundary instead of drawing 400k worlds.
        assert 0 < report.samples < self.REQUESTED
        assert "max_overrun" in report.degradation_reason
        assert "truncated" in report.degradation_reason
        assert "epsilon~" in report.degradation_reason
        assert report.overrun_seconds > 0.0
        assert elapsed < 5.0

    def test_truncated_fallback_is_deterministic(self):
        # Truncation happens at chunk boundaries, so the estimate is a
        # prefix of the seeded stream — identical on every run, never a
        # race against the clock mid-chunk.
        first = _engine("zipf").skyline_probability(
            0, method="det", deadline=EXPIRED, max_overrun=0.0,
            samples=self.REQUESTED, seed=13,
        )
        second = _engine("zipf").skyline_probability(
            0, method="det", deadline=EXPIRED, max_overrun=0.0,
            samples=self.REQUESTED, seed=13,
        )
        assert first.probability == second.probability
        assert first.samples == second.samples

    def test_slow_kernel_stays_within_the_ceiling(self):
        # Fault injection: a preference model that answers slowly stands
        # in for a slow exact kernel, so the deadline genuinely expires
        # mid-run (not just at the entry check; the space is big enough
        # — 2047 inclusion-exclusion terms — to reach the kernel's
        # periodic check) and the capped fallback must still truncate
        # instead of drawing its full budget.
        import time

        dataset = block_zipf_dataset(12, 3, seed=60)
        preferences = HashedPreferenceModel(3, seed=61)
        quick = preferences.prob_prefers

        def sleepy(dimension, a, b):
            time.sleep(0.002)
            return quick(dimension, a, b)

        preferences.prob_prefers = sleepy
        engine = SkylineProbabilityEngine(dataset, preferences)
        report = engine.skyline_probability(
            0, method="det", deadline=0.01, max_overrun=0.05,
            samples=self.REQUESTED, seed=5,
        )
        assert report.degraded is True
        assert report.samples < self.REQUESTED
        assert report.overrun_seconds > 0.0

    def test_batch_threads_max_overrun_through(self):
        capped = batch_skyline_probabilities(
            _engine("zipf"), indices=[0, 1], method="det+",
            deadline=EXPIRED, max_overrun=0.0,
            samples=self.REQUESTED, seed=23, workers=1,
        )
        assert all(r.degraded for r in capped.reports)
        assert all(r.samples < self.REQUESTED for r in capped.reports)

    @pytest.mark.parametrize("max_overrun", [-0.5, float("nan"), "soon", [1]])
    def test_bad_max_overrun(self, max_overrun):
        with pytest.raises(RobustnessPolicyError):
            _engine().skyline_probability(
                0, method="det", deadline=EXPIRED, max_overrun=max_overrun
            )

    def test_max_overrun_without_deadline_is_validated_not_used(self):
        # No deadline means nothing can expire; the option is still
        # validated at the boundary like every robustness policy.
        report = _engine().skyline_probability(
            0, method="det", max_overrun=0.5
        )
        assert report.degraded is False
        assert report.overrun_seconds == 0.0
