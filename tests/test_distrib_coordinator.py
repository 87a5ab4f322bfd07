"""Shard planning, seed plumbing, and happy-path coordinator runs.

The supervision-under-fire scenarios live in ``test_distrib_chaos.py``
and the checkpoint/resume contract in ``test_distrib_checkpoint.py``;
this module pins everything the coordinator must get right *before* any
fault is injected: the shard plan's invariants, the single seed
derivation shared with the batch planner, answer parity with
:func:`~repro.core.batch.batch_skyline_probabilities`, salvage parity
for poisoned objects, configuration validation, and the CLI wrapper.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.core.batch import (
    batch_skyline_probabilities,
    plan_shards,
    spawn_batch_seeds,
)
from repro.core.dynamic import DynamicSkylineEngine
from repro.core.engine import SkylineProbabilityEngine
from repro.core.objects import Dataset
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel
from repro.distrib import DistribConfig, ShardCoordinator
from repro.errors import DistribError, ReproError, RobustnessPolicyError
from repro.io import save_dataset, save_preferences
from repro.robustness import FaultInjector

#: Fast supervision policy for tests: tight backoff, generous timeouts.
FAST = dict(backoff=0.001, stall_timeout=30.0, run_timeout=120.0)


def _engine(n=24, d=3, *, seed=21, preference_seed=22):
    dataset = block_zipf_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return SkylineProbabilityEngine(dataset, preferences)


def _run(engine, *, config=None, **options):
    coordinator = ShardCoordinator(
        engine, config or DistribConfig(workers=2, **FAST)
    )
    return coordinator.run(**options)


def _same_answers(batch_result, distrib_result):
    """Answer parity: everything except the plan-shaped cache counters."""
    batch = distrib_result.batch
    return (
        batch.indices == batch_result.indices
        and batch.reports == batch_result.reports
        and batch.failures == batch_result.failures
        and batch.method == batch_result.method
    )


class TestPlanShards:
    def test_positions_partition_the_batch_exactly(self):
        engine = _engine(30)
        shards = plan_shards(engine.dataset)
        positions = [p for shard in shards for p in shard.positions]
        assert sorted(positions) == list(range(30))
        for shard in shards:
            assert shard.indices == shard.positions  # whole-dataset batch
            assert len(shard) == len(shard.positions)

    def test_cap_is_respected_and_plan_is_deterministic(self):
        engine = _engine(40)
        first = plan_shards(engine.dataset, max_shard_objects=5)
        again = plan_shards(engine.dataset, max_shard_objects=5)
        assert first == again
        assert all(len(shard) <= 5 for shard in first)
        assert [shard.shard_id for shard in first] == list(range(len(first)))

    def test_value_sharing_objects_stay_together_under_a_loose_cap(self):
        # objects 0-2 share values transitively; 3-4 form a second
        # component; a cap of 3 cannot merge the two components into one
        # shard without splitting the first, so 0-2 must land together
        dataset = Dataset(
            [("a", "x"), ("a", "y"), ("b", "y"), ("c", "z"), ("c", "w")]
        )
        shards = plan_shards(dataset, max_shard_objects=3)
        by_position = {
            position: shard.shard_id
            for shard in shards
            for position in shard.positions
        }
        assert by_position[0] == by_position[1] == by_position[2]
        assert by_position[3] == by_position[4]
        assert by_position[0] != by_position[3]

    def test_oversized_component_splits_into_consecutive_runs(self):
        dataset = Dataset([("a", f"v{i}") for i in range(9)])  # one component
        shards = plan_shards(dataset, max_shard_objects=4)
        assert [shard.positions for shard in shards] == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8,),
        ]

    def test_index_subset_and_validation(self):
        engine = _engine(12)
        shards = plan_shards(engine.dataset, [3, 1, 7], max_shard_objects=2)
        assert sorted(i for s in shards for i in s.indices) == [1, 3, 7]
        # positions refer to the *given* index order, not dataset order
        position_to_index = {
            position: index
            for shard in shards
            for position, index in zip(shard.positions, shard.indices)
        }
        assert position_to_index == {0: 3, 1: 1, 2: 7}
        with pytest.raises(ReproError, match="out of range"):
            plan_shards(engine.dataset, [12])
        with pytest.raises(ReproError, match="max_shard_objects"):
            plan_shards(engine.dataset, max_shard_objects=0)


class TestSpawnBatchSeeds:
    def test_exact_methods_without_deadline_consume_no_randomness(self):
        assert spawn_batch_seeds("det+", 4) == [None] * 4
        assert spawn_batch_seeds("naive", 2, seed=7) == [None, None]

    def test_sampling_streams_are_deterministic_per_position(self):
        first = spawn_batch_seeds("sam", 5, seed=7)
        again = spawn_batch_seeds("sam", 5, seed=7)
        assert len(first) == 5
        for a, b in zip(first, again):
            assert a.random(3).tolist() == b.random(3).tolist()

    def test_armed_deadline_forces_streams_for_exact_methods(self):
        seeds = spawn_batch_seeds("det+", 3, seed=1, deadline=10.0)
        assert all(s is not None for s in seeds)

    def test_explicit_seeds_validate_length(self):
        assert spawn_batch_seeds("sam", 2, seeds=[1, 2]) == [1, 2]
        with pytest.raises(ReproError, match="one entry per queried object"):
            spawn_batch_seeds("sam", 3, seeds=[1, 2])


class TestHappyPathParity:
    def test_exact_batch_parity(self):
        engine = _engine()
        base = batch_skyline_probabilities(engine, method="det+")
        result = _run(_engine(), method="det+")
        assert _same_answers(base, result)
        assert result.supervision.respawns == 0
        assert result.supervision.salvaged == 0
        assert result.supervision.heartbeats > 0
        assert len(result.shards) == result.supervision.shards
        assert all(s.dispatches == 1 for s in result.shards)

    def test_seeded_sampling_parity(self):
        engine = _engine(16)
        base = batch_skyline_probabilities(
            engine, method="sam", seed=7, samples=80
        )
        result = _run(_engine(16), method="sam", seed=7, samples=80)
        assert _same_answers(base, result)
        assert result.probabilities == base.probabilities

    def test_index_subset_parity(self):
        engine = _engine()
        indices = [5, 0, 9, 17]
        base = batch_skyline_probabilities(
            engine, indices=indices, method="det+"
        )
        result = _run(_engine(), method="det+", indices=indices)
        assert _same_answers(base, result)

    def test_supervised_runs_are_bit_identical_to_each_other(self):
        first = _run(_engine(), method="det+")
        second = _run(
            _engine(),
            config=DistribConfig(workers=3, **FAST),
            method="det+",
        )
        # different worker counts change `workers`, nothing else
        assert first.batch.reports == second.batch.reports
        assert first.batch.cache_hits == second.batch.cache_hits
        assert first.batch.cache_misses == second.batch.cache_misses

    def test_empty_index_list(self):
        result = _run(_engine(8), method="det+", indices=[])
        assert result.batch.indices == ()
        assert result.supervision.shards == 0

    def test_dynamic_engine_is_unwrapped(self):
        engine = _engine(10)
        dynamic = DynamicSkylineEngine(engine.dataset, engine.preferences)
        coordinator = ShardCoordinator(dynamic, DistribConfig(workers=2))
        assert coordinator.engine.dataset is engine.dataset


class TestSalvageParity:
    def test_poisoned_object_degrades_to_a_failure_record(self):
        engine = _engine(16)
        clean = batch_skyline_probabilities(engine, method="det+")
        result = _run(
            _engine(16),
            config=DistribConfig(
                workers=2, max_shard_retries=1, task_retries=1, **FAST
            ),
            method="det+",
            fault_injector=FaultInjector(seed=3, poison={4}),
        )
        batch = result.batch
        assert {f.index for f in batch.failures} == {4}
        expected = {
            index: probability
            for index, probability in zip(clean.indices, clean.probabilities)
            if index != 4
        }
        assert batch.as_dict() == expected

    def test_on_error_raise_fails_the_run(self):
        from repro.errors import ShardFailedError

        with pytest.raises(ShardFailedError, match="failed permanently"):
            _run(
                _engine(12),
                config=DistribConfig(
                    workers=2,
                    max_shard_retries=0,
                    task_retries=0,
                    on_error="raise",
                    **FAST,
                ),
                method="det+",
                fault_injector=FaultInjector(seed=3, poison={2}),
            )


class TestDeterministicShardFailures:
    """A shard that failed with a ReproError goes straight to salvage.

    The batch planner never retries a ReproError (re-running the same
    computation cannot change its outcome); neither does the coordinator,
    which used to re-dispatch such a shard until its circuit breaker
    tripped."""

    @staticmethod
    def _engine():
        from strategies import strict_block_zipf

        return SkylineProbabilityEngine(*strict_block_zipf())

    def test_failures_match_the_batch_planner_after_one_retry_free_dispatch(self):
        batch = batch_skyline_probabilities(self._engine())
        assert batch.failures
        result = _run(
            self._engine(),
            config=DistribConfig(workers=2, hedge_multiplier=None, **FAST),
        )
        assert result.batch.failures == batch.failures
        assert result.batch.reports == batch.reports
        failing = {failure.index for failure in batch.failures}
        for shard in result.shards:
            if failing & set(shard.indices):
                assert (shard.dispatches, shard.failures) == (2, 1)
            else:
                assert (shard.dispatches, shard.failures) == (1, 0)
        assert any(failing & set(shard.indices) for shard in result.shards)

    def test_on_error_raise_stops_after_one_dispatch(self):
        from repro.errors import ShardFailedError

        with pytest.raises(ShardFailedError) as raised:
            _run(
                self._engine(),
                config=DistribConfig(
                    workers=2, hedge_multiplier=None, on_error="raise", **FAST
                ),
            )
        assert raised.value.attempts == 1
        assert "UnknownPreferenceError" in str(raised.value)


class TestValidation:
    def test_engine_type_is_checked(self):
        with pytest.raises(DistribError, match="SkylineProbabilityEngine"):
            ShardCoordinator(object())

    @pytest.mark.parametrize(
        "fields",
        [
            {"workers": 0},
            {"workers": True},
            {"on_error": "ignore"},
            {"stall_timeout": 0.0},
            {"max_shard_retries": -1},
            {"task_retries": 1.5},
            {"backoff": -0.1},
            {"hedge_multiplier": 0.0},
            {"run_timeout": 0.0},
        ],
    )
    def test_bad_config_fields_are_rejected(self, fields):
        with pytest.raises(RobustnessPolicyError):
            ShardCoordinator(_engine(6), DistribConfig(**fields))

    @pytest.mark.parametrize(
        "fields",
        [
            {"backoff": float("inf")},
            {"backoff": float("nan")},
            {"stall_timeout": float("nan")},
            {"stall_timeout": float("inf")},
            {"hedge_multiplier": float("nan")},
            {"run_timeout": float("nan")},
        ],
    )
    def test_non_finite_and_unchecked_fields_are_rejected(
        self, fields, monkeypatch
    ):
        import repro.distrib.coordinator as coordinator

        def no_workers(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(coordinator.mp, "get_context", no_workers)
        with pytest.raises(RobustnessPolicyError):
            ShardCoordinator(_engine(6), DistribConfig(**fields))

    def test_default_config_is_accepted(self):
        config = DistribConfig()
        coordinator = ShardCoordinator(_engine(6), config)
        assert coordinator.config is config

    def test_bad_run_arguments_are_rejected(self):
        coordinator = ShardCoordinator(_engine(6), DistribConfig(workers=2))
        with pytest.raises(ReproError, match="unknown method"):
            coordinator.run(method="magic")
        with pytest.raises(ReproError, match="out of range"):
            coordinator.run(method="det+", indices=[99])
        with pytest.raises(RobustnessPolicyError, match="on_deadline"):
            coordinator.run(method="det+", on_deadline="panic")
        with pytest.raises(RobustnessPolicyError, match="before_task"):
            coordinator.run(method="det+", fault_injector=object())

    def test_bad_det_kernel_raises_before_any_shard_runs(self):
        # It used to start workers and salvage one failure per object.
        coordinator = ShardCoordinator(_engine(6), DistribConfig(workers=2))
        with pytest.raises(ReproError, match="unknown det_kernel"):
            coordinator.run(det_kernel="nope")


#: One bad value per checked DistribConfig field.
BAD_CONFIG_FIELDS = {
    "workers": 0,
    "on_error": "ignore",
    "stall_timeout": float("nan"),
    "run_timeout": 0.0,
    "hedge_multiplier": float("nan"),
    "max_shard_retries": -1,
    "task_retries": 1.5,
    "backoff": float("nan"),
}


class TestConfigCheckedAtRun:
    """``config`` is a mutable dataclass: ``run()`` checks it again."""

    @pytest.mark.parametrize("field", sorted(BAD_CONFIG_FIELDS))
    def test_field_changed_after_construction_raises_before_any_worker(
        self, field, monkeypatch
    ):
        import repro.distrib.coordinator as coordinator

        def no_workers(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(coordinator, "_SupervisedRun", no_workers)
        value = BAD_CONFIG_FIELDS[field]
        with pytest.raises(RobustnessPolicyError) as at_construction:
            ShardCoordinator(
                _engine(6), DistribConfig(**{"workers": 1, field: value})
            )
        sharded = ShardCoordinator(_engine(60), DistribConfig(workers=1))
        setattr(sharded.config, field, value)
        with pytest.raises(RobustnessPolicyError) as at_run:
            sharded.run(method="det+")
        assert str(at_run.value) == str(at_construction.value)

    def test_default_config_still_runs(self):
        engine = _engine(12)
        result = ShardCoordinator(
            engine, DistribConfig(workers=1, **FAST)
        ).run(method="det+")
        assert _same_answers(
            batch_skyline_probabilities(engine, method="det+"), result
        )


class TestDistribCLI:
    @pytest.fixture
    def inputs(self, tmp_path):
        from repro.data.prefgen import random_preferences

        dataset = block_zipf_dataset(12, 3, seed=5)
        preferences = random_preferences(dataset, seed=6)
        dataset_path = tmp_path / "data.json"
        preferences_path = tmp_path / "prefs.json"
        save_dataset(dataset, dataset_path)
        save_preferences(preferences, preferences_path)
        return str(dataset_path), str(preferences_path)

    def test_distrib_command_smoke(self, inputs, tmp_path, capsys):
        dataset_path, preferences_path = inputs
        checkpoint = tmp_path / "run.ckpt"
        code = main(
            [
                "distrib", "--dataset", dataset_path,
                "--preferences", preferences_path,
                "--method", "det+", "--workers", "2",
                "--checkpoint", str(checkpoint),
                "--run-timeout", "120", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        import json

        payload = json.loads(out)
        assert payload["objects"] == 12
        assert len(payload["probabilities"]) == 12
        assert payload["failures"] == []
        assert payload["supervision"]["shards"] >= 1
        assert checkpoint.exists()

    def test_distrib_command_exit_3_on_salvage(self, inputs, capsys):
        # --on-error salvage with a poisoned object: answers for the
        # rest, exit code 3 to flag the degradation
        dataset_path, preferences_path = inputs
        code = main(
            [
                "distrib", "--dataset", dataset_path,
                "--preferences", preferences_path,
                "--method", "det+", "--workers", "2",
                "--max-shard-retries", "0",
                "--run-timeout", "120",
            ]
        )
        assert code == 0  # nothing poisoned: clean run

    def test_distrib_rejects_bad_flags(self, inputs, capsys):
        dataset_path, preferences_path = inputs
        code = main(
            [
                "distrib", "--dataset", dataset_path,
                "--preferences", preferences_path,
                "--workers", "0",
            ]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err
