"""Tests for the experiment harness's target-selection helpers and the
quick-scale rows of the parallel_batch and robustness_overhead
experiments."""

from __future__ import annotations

from repro.bench.experiments import _interesting_targets, _pick_targets
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel


class TestPickTargets:
    def test_deterministic(self):
        dataset = block_zipf_dataset(50, 3, seed=1)
        assert _pick_targets(dataset, 5, seed=2) == _pick_targets(
            dataset, 5, seed=2
        )

    def test_count_capped_by_dataset(self):
        dataset, _ = running_example()
        assert len(_pick_targets(dataset, 100, seed=0)) == 5

    def test_indices_valid_and_unique(self):
        dataset = block_zipf_dataset(30, 2, seed=3)
        targets = _pick_targets(dataset, 10, seed=4)
        assert len(set(targets)) == 10
        assert all(0 <= index < 30 for index in targets)


class TestInterestingTargets:
    def test_prefers_nontrivial_probabilities(self):
        dataset, preferences = running_example()
        engine = SkylineProbabilityEngine(dataset, preferences)
        targets = _interesting_targets(engine, 3, seed=5)
        probabilities = [
            engine.skyline_probability(index, method="det+").probability
            for index in targets
        ]
        # the running example's objects all sit in (0.02, 0.98)
        assert all(0.02 <= p <= 0.98 for p in probabilities)

    def test_falls_back_when_nothing_interesting(self):
        # strongly dominated space: every object's sky is ~0 or 1
        dataset = block_zipf_dataset(40, 2, seed=6)
        engine = SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(2, seed=7)
        )
        targets = _interesting_targets(
            engine, 4, seed=8, low=0.49999, high=0.50001
        )
        assert len(targets) == 4  # fallback filled the quota

    def test_respects_count(self):
        dataset = block_zipf_dataset(60, 3, seed=9)
        engine = SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(3, seed=10)
        )
        assert len(_interesting_targets(engine, 5, seed=11)) == 5


class TestParallelBatchBenchmark:
    def test_experiment_registered_and_smoke_runs(self, quick_run):
        (table,) = quick_run("parallel_batch")
        rows = {row["configuration"]: row for row in table.rows}
        assert "serial loop (seed)" in rows
        # fast-kernel rows reproduce the serial answers exactly; the
        # vec-kernel rows are held to the kernel's 1e-12 contract
        for configuration, row in rows.items():
            bound = 1e-12 if "vec" in configuration else 0.0
            assert row["max |Δ| vs serial"] <= bound
        assert rows["batch, workers=1"]["speedup vs serial"] > 1.0
        assert "batch, workers=1 (vec kernel)" in rows


class TestRobustnessOverheadBenchmark:
    def test_experiment_registered_and_smoke_runs(self, quick_run):
        (table,) = quick_run("robustness_overhead")
        rows = {row["configuration"]: row for row in table.rows}
        assert "planner loop (no fault tolerance)" in rows
        assert all(row["identical"] for row in rows.values())
        # the happy-path bar: <5% overhead with the default policy (a
        # generous 1.15 gate absorbs CI timing noise; the archived
        # results/robustness_overhead.md records the honest ~1.0 ratio)
        assert rows["robust batch, defaults"]["overhead vs planner"] < 1.15
