"""Batch-vs-serial equivalence suite for the batch query planner.

The contract under test (:mod:`repro.core.batch`): for every method the
batch planner returns exactly what the per-object loop returns — equal
floats for the deterministic methods, bit-for-bit equal estimates for the
sampled ones given matching spawned streams — regardless of ``workers``
(in-process, or on the shard coordinator's worker processes),
``chunk_size``, or cache sharing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.batch import BatchResult, batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.engine import METHODS, SkylineProbabilityEngine, SkylineReport
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel
from repro.errors import DatasetError, DimensionalityError, ReproError
from repro.util.rng import spawn_rngs

from strategies import strict_block_zipf, uncertain_instance

#: Methods whose answers consume randomness (need matched streams).
SAMPLED = ("sam", "sam+")
EXACT = ("det", "det+", "naive")


def _engine(source="running", **kwargs):
    if source == "running":
        dataset, preferences = running_example()
    else:
        dataset = block_zipf_dataset(30, 3, seed=60)
        preferences = HashedPreferenceModel(3, seed=61)
    return SkylineProbabilityEngine(dataset, preferences, **kwargs)


def _serial_loop(engine, method, *, seed=None, **options):
    """The per-object reference: one spawned stream per object position."""
    n = len(engine.dataset)
    if method in SAMPLED or method == "auto":
        seeds = list(spawn_rngs(seed, n))
    else:
        seeds = [None] * n
    return [
        engine.skyline_probability(
            index, method=method, seed=seeds[index], **options
        ).probability
        for index in range(n)
    ]


class TestBatchEqualsSerial:
    """Satellite 1: the six methods, exact / bit-for-bit equality."""

    @pytest.mark.parametrize("method", METHODS)
    def test_running_example_all_methods(self, method):
        options = {"samples": 120} if method in SAMPLED else {}
        serial = _serial_loop(_engine(), method, seed=123, **options)
        result = batch_skyline_probabilities(
            _engine(), method=method, seed=123, **options
        )
        assert list(result.probabilities) == serial

    @pytest.mark.parametrize("method", ["det+", "sam+", "auto"])
    def test_blockzipf_scalable_methods(self, method):
        options = {"samples": 80} if method in SAMPLED else {}
        serial = _serial_loop(_engine("zipf"), method, seed=7, **options)
        result = batch_skyline_probabilities(
            _engine("zipf"), method=method, seed=7, **options
        )
        assert list(result.probabilities) == serial

    def test_full_reports_preserved(self):
        """Batch reports are the per-object SkylineReports, provenance and all."""
        engine = _engine()
        loop = [
            engine.skyline_probability(i, method="det+")
            for i in range(len(engine.dataset))
        ]
        result = batch_skyline_probabilities(_engine(), method="det+")
        assert all(isinstance(r, SkylineReport) for r in result.reports)
        assert list(result.reports) == loop

    def test_facade_routes_through_batch(self):
        engine = _engine("zipf")
        serial = _serial_loop(_engine("zipf"), "det+")
        assert engine.skyline_probabilities(method="det+") == serial
        assert engine.skyline_probabilities(method="det+", workers=2) == serial

    def test_probabilistic_skyline_and_top_k_forward_batch_options(self):
        reference = _engine("zipf")
        tau_members = reference.probabilistic_skyline(0.3, method="det+")
        top = reference.top_k(3, method="det+")
        engine = _engine("zipf")
        cache = DominanceCache(engine.preferences)
        assert (
            engine.probabilistic_skyline(
                0.3, method="det+", workers=2, cache=cache
            )
            == tau_members
        )
        assert engine.top_k(3, method="det+", cache=cache) == top


class TestWorkersChunksDeterminism:
    """Satellite 2 (determinism half): output invariant to scheduling."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, None])
    def test_chunk_size_never_changes_output(self, chunk_size):
        baseline = batch_skyline_probabilities(
            _engine("zipf"), method="sam+", samples=60, seed=42
        )
        result = batch_skyline_probabilities(
            _engine("zipf"),
            method="sam+",
            samples=60,
            seed=42,
            workers=2,
            chunk_size=chunk_size,
        )
        assert result.probabilities == baseline.probabilities

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_output(self, workers):
        serial = _serial_loop(
            _engine("zipf"), "sam", seed=31, samples=50
        )
        result = batch_skyline_probabilities(
            _engine("zipf"), method="sam", samples=50, seed=31, workers=workers
        )
        assert list(result.probabilities) == serial
        assert result.workers == workers

    @pytest.mark.slow
    def test_exact_method_identical_across_process_pool(self):
        serial = _serial_loop(_engine("zipf"), "det+")
        result = batch_skyline_probabilities(
            _engine("zipf"), method="det+", workers=4, chunk_size=5
        )
        assert list(result.probabilities) == serial

    def test_unpicklable_model_falls_back_inprocess(self):
        # A class defined inside the test body cannot be pickled; the
        # coordinator's fork-started workers never pickle the model, so
        # it fans out like any other, and the answers must not change.
        class LocalModel(HashedPreferenceModel):
            pass

        dataset = block_zipf_dataset(20, 3, seed=60)
        preferences = LocalModel(3, seed=61)

        def fresh():
            return SkylineProbabilityEngine(dataset, preferences)

        n = len(dataset)
        rngs = spawn_rngs(9, n)
        serial = [
            fresh()
            .skyline_probability(i, method="sam+", samples=40, seed=rngs[i])
            .probability
            for i in range(n)
        ]
        result = batch_skyline_probabilities(
            fresh(), method="sam+", samples=40, seed=9, workers=3
        )
        assert list(result.probabilities) == serial
        assert result.workers == 3


class TestSingleCoreScheduling:
    """Regression: ``workers>1`` must never be slower by construction.

    ``results/parallel_batch.md`` once recorded ``workers=4`` ~10%
    slower than ``workers=1``: on a single-core host the batch fell back
    to a thread pool whose GIL-bound threads only added context
    switches.  On one core the batch now answers in-process; with more,
    ``workers>1`` runs on the shard coordinator.
    """

    def test_auto_fallback_avoids_thread_pool_on_one_core(self, monkeypatch):
        import repro.core.batch as batch_module
        import repro.distrib.coordinator as coordinator_module

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("one core must answer in-process")

        monkeypatch.setattr(coordinator_module, "ShardCoordinator", forbidden)
        serial = _serial_loop(_engine("zipf"), "det+")
        result = batch_skyline_probabilities(
            _engine("zipf"), method="det+", workers=4
        )
        assert list(result.probabilities) == serial
        assert result.workers == 4

    def test_unpicklable_fallback_avoids_thread_pool(self, monkeypatch):
        import repro.core.batch as batch_module
        from repro.distrib import ShardCoordinator

        class LocalModel(HashedPreferenceModel):
            pass

        runs = []
        real_run = ShardCoordinator.run

        def spy(coordinator, **kwargs):
            runs.append(coordinator.config.workers)
            return real_run(coordinator, **kwargs)

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 2)
        monkeypatch.setattr(ShardCoordinator, "run", spy)
        dataset = block_zipf_dataset(20, 3, seed=60)
        engine = SkylineProbabilityEngine(dataset, LocalModel(3, seed=61))
        serial = _serial_loop(engine, "det+")
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, engine.preferences),
            method="det+",
            workers=4,
        )
        assert runs == [4]
        assert list(result.probabilities) == serial


class TestPropertyBased:
    """Satellite 1 (property half): equivalence on random tiny spaces."""

    @given(uncertain_instance())
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_loop_on_random_spaces(self, instance):
        preferences, competitors, target = instance
        dataset = Dataset([target] + competitors)
        engine = SkylineProbabilityEngine(dataset, preferences)
        loop = [
            engine.skyline_probability(i, method="det").probability
            for i in range(len(dataset))
        ]
        fresh = SkylineProbabilityEngine(dataset, preferences)
        result = batch_skyline_probabilities(fresh, method="det")
        assert list(result.probabilities) == loop

    @given(uncertain_instance())
    @settings(max_examples=15, deadline=None)
    def test_sampled_batch_bit_for_bit_on_random_spaces(self, instance):
        preferences, competitors, target = instance
        dataset = Dataset([target] + competitors)
        n = len(dataset)
        rngs = spawn_rngs(5, n)
        engine = SkylineProbabilityEngine(dataset, preferences)
        loop = [
            engine.skyline_probability(
                i, method="sam", samples=60, seed=rngs[i]
            ).probability
            for i in range(n)
        ]
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences),
            method="sam",
            samples=60,
            seed=5,
        )
        assert list(result.probabilities) == loop


class TestIndicesAndProvenance:
    def test_index_subset_in_given_order(self):
        engine = _engine("zipf")
        result = batch_skyline_probabilities(
            engine, method="det+", indices=[7, 2, 11]
        )
        assert result.indices == (7, 2, 11)
        expected = [
            _engine("zipf").skyline_probability(i, method="det+").probability
            for i in (7, 2, 11)
        ]
        assert list(result.probabilities) == expected
        assert result.as_dict() == dict(zip((7, 2, 11), expected))

    def test_empty_indices(self):
        result = batch_skyline_probabilities(_engine(), indices=[])
        assert result == BatchResult((), (), "auto", 1)

    def test_result_records_method_and_cache_traffic(self):
        dataset, preferences = running_example()
        engine = SkylineProbabilityEngine(dataset, preferences)
        cache = DominanceCache(preferences)
        result = batch_skyline_probabilities(engine, method="det+", cache=cache)
        assert result.method == "det+"
        assert result.workers == 1
        assert result.cache_misses > 0
        assert result.cache_hits + result.cache_misses == cache.hits + cache.misses

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ReproError, match="out of range"):
            batch_skyline_probabilities(_engine(), indices=[99])

    def test_bad_workers_rejected(self):
        for workers in (0, -1, 2.5, True):
            with pytest.raises(ReproError, match="workers"):
                batch_skyline_probabilities(_engine(), workers=workers)

    def test_bad_max_exact_objects_rejected(self):
        # -1 used to be accepted and made `auto` sample every partition.
        from repro import DynamicSkylineEngine

        dataset, preferences = running_example()
        for budget in (-1, 2.5, True, "x", None):
            for engine_type in (SkylineProbabilityEngine, DynamicSkylineEngine):
                with pytest.raises(ReproError, match="max_exact_objects"):
                    engine_type(dataset, preferences, max_exact_objects=budget)
        engine = SkylineProbabilityEngine(dataset, preferences, max_exact_objects=0)
        assert engine.skyline_probability(0, method="auto", seed=1).exact is False

    def test_bad_top_k_rejected(self):
        from repro import DynamicSkylineEngine

        dataset, preferences = running_example()
        engines = (
            SkylineProbabilityEngine(dataset, preferences),
            DynamicSkylineEngine(dataset, preferences),
        )
        for engine in engines:
            for k in (0, -1, 2.5, "3", True):
                with pytest.raises(ReproError, match="k must be an integer"):
                    engine.top_k(k)
            assert [index for index, _ in engine.top_k(1)] == [
                index for index, _ in engine.top_k(5)[:1]
            ]

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ReproError, match="chunk_size"):
            batch_skyline_probabilities(_engine(), chunk_size=0)

    def test_foreign_cache_rejected(self):
        foreign = DominanceCache(HashedPreferenceModel(2, seed=1))
        with pytest.raises(ReproError, match="different"):
            batch_skyline_probabilities(_engine(), cache=foreign)

    def test_unknown_method_rejected(self):
        with pytest.raises(ReproError, match="unknown method"):
            batch_skyline_probabilities(_engine(), method="magic")

    @pytest.mark.parametrize(
        "options, error, match",
        [
            (dict(det_kernel="nope"), ReproError, "unknown det_kernel"),
            (dict(dims=[]), ReproError, "must not be empty"),
            (dict(dims=[7]), DimensionalityError, "outside the space"),
            (dict(competitors=[2.5]), DatasetError, "not an integer"),
        ],
    )
    def test_bad_shared_option_raises_before_any_work(self, options, error, match):
        # Each is the error a single query raises; a batch used to salvage
        # one failure per object instead.
        engine = _engine()
        with pytest.raises(error, match=match):
            engine.skyline_probability(0, **options)
        with pytest.raises(error, match=match):
            batch_skyline_probabilities(engine, **options)
        assert engine.cache_info()["misses"] == 0


class TestSpawnedStreamStatistics:
    """Satellite 2 (statistics half): spawned per-object streams behave
    like independent samplers — unbiased and uncorrelated."""

    @pytest.fixture(scope="class")
    def estimate_matrix(self):
        dataset, preferences = running_example()
        runs = []
        for seed in range(40):
            engine = SkylineProbabilityEngine(dataset, preferences)
            result = batch_skyline_probabilities(
                engine, method="sam", samples=300, seed=seed
            )
            runs.append(result.probabilities)
        truth = [
            SkylineProbabilityEngine(dataset, preferences)
            .skyline_probability(i, method="det")
            .probability
            for i in range(len(dataset))
        ]
        return runs, truth

    def test_unbiased_against_exact(self, estimate_matrix):
        runs, truth = estimate_matrix
        count = len(runs)
        for position, exact in enumerate(truth):
            mean = sum(run[position] for run in runs) / count
            # 40 x 300 = 12000 effective draws: s.e. <= 0.005
            assert mean == pytest.approx(exact, abs=0.02)

    def test_objects_streams_uncorrelated(self, estimate_matrix):
        runs, truth = estimate_matrix
        count = len(runs)
        for a in range(len(truth)):
            for b in range(a + 1, len(truth)):
                xs = [run[a] - truth[a] for run in runs]
                ys = [run[b] - truth[b] for run in runs]
                sxx = sum(x * x for x in xs)
                syy = sum(y * y for y in ys)
                if sxx == 0.0 or syy == 0.0:
                    continue  # degenerate object (sky is 0 or 1 exactly)
                r = sum(x * y for x, y in zip(xs, ys)) / (sxx * syy) ** 0.5
                # null s.d. ~ 1/sqrt(40) = 0.16; 0.45 is a ~3 sigma gate
                # (deterministic: the seeds above are fixed)
                assert abs(r) < 0.45


class TestEffectiveCores:
    """Satellite bugfix: core detection must survive containers.

    ``os.sched_getaffinity`` raises :class:`OSError` (not just
    ``AttributeError``) on container/cgroup setups that deny the
    affinity syscall; the old code let that escape and killed the whole
    batch before any work ran.  Both failure modes now fall back to
    ``os.cpu_count()``.
    """

    def test_oserror_falls_back_to_cpu_count(self, monkeypatch):
        import os

        import repro.core.batch as batch_module

        def denied(pid):
            raise OSError("sched_getaffinity denied by seccomp")

        monkeypatch.setattr(os, "sched_getaffinity", denied, raising=False)
        assert batch_module._effective_cores() == (os.cpu_count() or 1)

    def test_missing_affinity_falls_back_to_cpu_count(self, monkeypatch):
        import os

        import repro.core.batch as batch_module

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert batch_module._effective_cores() == (os.cpu_count() or 1)

    def test_batch_still_runs_when_affinity_is_denied(self, monkeypatch):
        import os

        def denied(pid):
            raise OSError("sched_getaffinity denied by seccomp")

        monkeypatch.setattr(os, "sched_getaffinity", denied, raising=False)
        serial = _serial_loop(_engine("zipf"), "det+")
        result = batch_skyline_probabilities(
            _engine("zipf"), method="det+", workers=2
        )
        assert list(result.probabilities) == serial

    def test_all_cores_means_the_cores_this_process_may_use(self, monkeypatch):
        import os

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        result = batch_skyline_probabilities(
            _engine("zipf"), method="det+", workers=None
        )
        assert result.workers == 2
        assert list(result.probabilities) == _serial_loop(
            _engine("zipf"), "det+"
        )

    def test_numpy_integer_max_retries_runs_on_workers(self, monkeypatch):
        import numpy as np

        import repro.core.batch as batch_module
        from repro.robustness import FaultInjector

        monkeypatch.setattr(batch_module, "_effective_cores", lambda: 2)
        clean = batch_skyline_probabilities(_engine("zipf"), method="det+")
        result = batch_skyline_probabilities(
            _engine("zipf"),
            method="det+",
            workers=2,
            max_retries=np.int64(2),
            backoff=0.001,
            fault_injector=FaultInjector(seed=4, crash_rate=0.5),
        )
        assert result.probabilities == clean.probabilities
        assert result.failures == ()


class TestExplicitSeeds:
    """The ``seeds=`` override gives each object its own stream.

    The serving tier's coalescer uses it to keep a coalesced answer
    bit-identical to the answer a direct single-object batch would have
    produced: it passes ``SeedSequence(request_seed).spawn(1)[0]`` per
    request instead of letting the planner spawn streams by batch
    position.
    """

    def test_explicit_seeds_reproduce_single_object_batches(self):
        import numpy as np

        engine = _engine("zipf")
        request_seeds = [101, 202, 303]
        indices = [0, 3, 5]
        direct = [
            batch_skyline_probabilities(
                engine, indices=[index], seed=seed, method="sam",
                samples=120, workers=1,
            ).probabilities[0]
            for index, seed in zip(indices, request_seeds)
        ]
        merged = batch_skyline_probabilities(
            engine,
            indices=indices,
            seeds=[
                np.random.SeedSequence(seed).spawn(1)[0]
                for seed in request_seeds
            ],
            method="sam", samples=120, workers=1,
        )
        assert list(merged.probabilities) == direct

    def test_wrong_seed_count_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            batch_skyline_probabilities(
                _engine("zipf"), indices=[0, 1], seeds=[1], workers=1
            )


class TestStrictModelThroughChunks:
    """A strict model's missing pair fails exactly the targets that read
    it when a whole chunk is planned, and nothing else."""

    def test_absorbed_competitor_never_reads_its_missing_pair(self):
        # Only (0, "a0", "o0") is defined.
        dataset = Dataset([("o0", "o1"), ("a0", "o1"), ("a0", "b1")])
        preferences = PreferenceModel(2)
        preferences.set_preference(0, "a0", "o0", 0.6)
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        # Object 0's competitor ("a0", "b1") is absorbed by ("a0", "o1"),
        # so its missing ("b1", "o1") pair is never read.
        assert result.indices == (0,)
        assert result.reports[0].preprocessing.absorbed_by == {1: 0}
        assert [(f.index, f.error_type) for f in result.failures] == [
            (1, "UnknownPreferenceError"),
            (2, "UnknownPreferenceError"),
        ]
        assert "'b1' and 'o1'" in result.failures[0].message
        assert "'o1' and 'b1'" in result.failures[1].message

    @pytest.mark.parametrize("tiles", [True, False], ids=["tiles", "alone"])
    def test_failing_and_answering_targets_share_a_chunk(self, monkeypatch, tiles):
        import repro.core.engine as engine_module

        dataset, preferences = strict_block_zipf()
        engine = SkylineProbabilityEngine(dataset, preferences)
        expected = {}
        for index in range(len(dataset)):
            try:
                expected[index] = engine.skyline_probability(index)
            except Exception as error:
                expected[index] = error
        failing = {i for i, answer in expected.items() if isinstance(answer, Exception)}
        assert 0 < len(failing) < len(dataset)
        # Force the chunk's planning path; tiles of four targets each, so
        # failing and answering targets share tiles.
        crossover = 0 if tiles else float("inf")
        monkeypatch.setattr(engine_module, "_TILE_CROSSOVER", crossover, raising=False)
        monkeypatch.setattr(engine_module, "_TILE_CELLS", 4 * 39 * 3, raising=False)
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        assert {f.index for f in result.failures} == failing
        for failure in result.failures:
            error = expected[failure.index]
            assert failure.error_type == type(error).__name__
            assert failure.message == str(error)
        for index, report in zip(result.indices, result.reports):
            assert repr(report) == repr(expected[index])
