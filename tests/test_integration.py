"""End-to-end integration tests across generators, engine, and formats."""

from __future__ import annotations

import pytest

from repro.core.engine import SkylineProbabilityEngine
from repro.core.pruning import top_k_pruned
from repro.core.skyline import expected_skyline_size
from repro.core.topk import estimate_all_skyline_probabilities
from repro.data.blockzipf import block_zipf_dataset
from repro.data.nursery import nursery_dataset, nursery_preferences
from repro.data.prefgen import (
    anti_correlated_preferences,
    correlated_preferences,
    random_preferences,
)
from repro.data.procedural import HashedPreferenceModel
from repro.data.uniform import uniform_dataset


class TestUniformWorkflow:
    def test_exact_vs_sampling_consistency(self):
        dataset = uniform_dataset(14, 4, seed=10)
        preferences = random_preferences(dataset, seed=11)
        engine = SkylineProbabilityEngine(dataset, preferences)
        for index in (0, 7, 13):
            exact = engine.skyline_probability(index, method="det").probability
            sampled = engine.skyline_probability(
                index, method="sam", samples=30000, seed=12
            ).probability
            assert sampled == pytest.approx(exact, abs=0.015)

    def test_shared_worlds_match_engine(self):
        dataset = uniform_dataset(12, 3, seed=13)
        preferences = random_preferences(dataset, seed=14)
        engine = SkylineProbabilityEngine(dataset, preferences)
        exact = engine.skyline_probabilities(method="det+")
        shared = estimate_all_skyline_probabilities(
            preferences, dataset, samples=20000, seed=15
        )
        for estimate, reference in zip(shared.probabilities, exact):
            assert estimate == pytest.approx(reference, abs=0.02)

    def test_expected_skyline_size_bounds(self):
        dataset = uniform_dataset(15, 3, seed=16)
        preferences = random_preferences(dataset, seed=17)
        engine = SkylineProbabilityEngine(dataset, preferences)
        size = expected_skyline_size(engine.skyline_probabilities())
        assert 0.0 <= size <= len(dataset)


class TestBlockZipfWorkflow:
    def test_detplus_handles_thousands(self):
        dataset = block_zipf_dataset(3000, 4, seed=20)
        engine = SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(4, seed=21)
        )
        report = engine.skyline_probability(0, method="det+")
        assert report.exact
        assert report.preprocessing.largest_partition <= 25

    def test_auto_equals_detplus_on_blockzipf(self):
        dataset = block_zipf_dataset(400, 5, seed=22)
        engine = SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(5, seed=23)
        )
        for index in (0, 100, 399):
            auto = engine.skyline_probability(index, method="auto")
            detplus = engine.skyline_probability(index, method="det+")
            assert auto.probability == pytest.approx(detplus.probability)
            assert auto.exact

    def test_sam_error_at_paper_sample_size(self):
        # Figure 11's claim: m = 3000 samples already stay within the
        # paper's epsilon = 0.01 on average
        dataset = block_zipf_dataset(200, 5, seed=5)
        engine = SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(5, seed=6)
        )
        exact = engine.skyline_probability(0, method="det+").probability
        errors = [
            abs(
                engine.skyline_probability(
                    0, method="sam", samples=3000, seed=seed
                ).probability
                - exact
            )
            for seed in range(5)
        ]
        assert sum(errors) / len(errors) <= 0.01

    def test_pruned_topk_on_blockzipf(self):
        dataset = block_zipf_dataset(150, 3, seed=24)
        preferences = HashedPreferenceModel(3, seed=25)
        engine = SkylineProbabilityEngine(dataset, preferences)
        plain = engine.top_k(4, method="det+")
        pruned = top_k_pruned(dataset, preferences, 4, method="det+")
        assert list(pruned.ranking) == plain
        assert pruned.pruned > 0


class TestCorrelationWorkflow:
    def test_correlation_controls_skyline_size(self):
        dataset = block_zipf_dataset(40, 2, blocks=1, values_per_block=10, seed=30)
        correlated = SkylineProbabilityEngine(
            dataset, correlated_preferences(dataset, 0.95)
        )
        anti = SkylineProbabilityEngine(
            dataset, anti_correlated_preferences(dataset, 0.95)
        )
        correlated_size = expected_skyline_size(
            correlated.skyline_probabilities()
        )
        anti_size = expected_skyline_size(anti.skyline_probabilities())
        assert anti_size > correlated_size


class TestNurseryWorkflow:
    def test_full_pipeline_on_projection(self):
        dims = [0, 4, 5]
        dataset = nursery_dataset(dims)
        preferences = nursery_preferences(dims, mode="ordinal", strength=0.9)
        engine = SkylineProbabilityEngine(dataset, preferences)
        probabilities = engine.skyline_probabilities()
        # the all-best application must be the likeliest skyline point
        best_index = dataset.index_of(("usual", "convenient", "convenient"))
        assert max(probabilities) == probabilities[best_index]

    def test_full_dataset_single_query_fast_and_exact(self):
        dataset = nursery_dataset()
        preferences = nursery_preferences(seed=31)
        engine = SkylineProbabilityEngine(dataset, preferences)
        report = engine.skyline_probability(0, method="auto")
        assert report.exact
        # absorption leaves sum(|domain| - 1) = 19 single-difference
        # competitors, each its own Theorem-4 component
        assert report.preprocessing.kept_count == 19
        assert report.preprocessing.largest_partition == 1

    def test_sampler_agrees_on_nursery(self):
        dims = [0, 1]
        dataset = nursery_dataset(dims)
        preferences = nursery_preferences(dims, seed=32)
        engine = SkylineProbabilityEngine(dataset, preferences)
        exact = engine.skyline_probability(3, method="det+").probability
        sampled = engine.skyline_probability(
            3, method="sam+", samples=30000, seed=33
        ).probability
        assert sampled == pytest.approx(exact, abs=0.01)
