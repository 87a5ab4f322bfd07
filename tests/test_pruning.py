"""Unit tests for cheap bounds and the bounded top-k evaluation."""

from __future__ import annotations

import pytest

from hypothesis import given, settings

from strategies import uncertain_instance

from repro.core.engine import SkylineProbabilityEngine
from repro.core.exact import skyline_probability_det
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.core.pruning import (
    skyline_probability_bounds,
    top_k_pruned,
)
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel
from repro.errors import ReproError


class TestBounds:
    def test_bracket_on_running_example(self, running):
        dataset, preferences = running
        lower, upper = skyline_probability_bounds(
            preferences, dataset.others(0), dataset[0]
        )
        assert lower <= 3 / 16 <= upper
        assert lower == pytest.approx(9 / 64)  # the Sac value
        # greedy disjoint set {Q2, Q4, Q3} covers everything but the
        # absorbed Q1, so the upper bound is tight here
        assert upper == pytest.approx(3 / 16)

    def test_tight_for_single_competitor(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "o", 0.3)
        lower, upper = skyline_probability_bounds(model, [("a",)], ("o",))
        assert lower == upper == pytest.approx(0.7)

    def test_certain_dominator_collapses_to_zero(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "o", 1.0)
        model.set_preference(0, "b", "o", 0.5)
        assert skyline_probability_bounds(
            model, [("a",), ("b",)], ("o",)
        ) == (0.0, 0.0)

    def test_no_competitors(self):
        assert skyline_probability_bounds(
            PreferenceModel.equal(1), [], ("o",)
        ) == (1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(uncertain_instance())
    def test_bounds_always_bracket_exact(self, instance):
        preferences, competitors, target = instance
        exact = skyline_probability_det(
            preferences, competitors, target
        ).probability
        lower, upper = skyline_probability_bounds(
            preferences, competitors, target
        )
        assert lower - 1e-9 <= exact <= upper + 1e-9


class TestTopKPruned:
    @pytest.fixture
    def engine_parts(self):
        dataset = block_zipf_dataset(60, 3, seed=41)
        preferences = HashedPreferenceModel(3, seed=42)
        return dataset, preferences

    def test_matches_exhaustive_top_k(self, engine_parts):
        dataset, preferences = engine_parts
        engine = SkylineProbabilityEngine(dataset, preferences)
        expected = engine.top_k(5, method="det+")
        result = top_k_pruned(dataset, preferences, 5, method="det+")
        assert list(result.ranking) == expected

    def test_prunes_some_objects(self, engine_parts):
        dataset, preferences = engine_parts
        result = top_k_pruned(dataset, preferences, 3, method="det+")
        assert result.refined + result.pruned == len(dataset)
        assert result.pruned > 0  # the whole point of the bounds

    def test_k_larger_than_dataset(self, observation):
        dataset, preferences = observation
        result = top_k_pruned(dataset, preferences, 10, method="det")
        assert len(result.ranking) == 3

    def test_reuses_supplied_engine(self, engine_parts):
        dataset, preferences = engine_parts
        engine = SkylineProbabilityEngine(dataset, preferences)
        result = top_k_pruned(
            dataset, preferences, 2, method="det+", engine=engine
        )
        assert len(result.ranking) == 2

    def test_invalid_k(self, observation):
        # the values engine.top_k refuses; True once ranked one object
        dataset, preferences = observation
        for k in (0, -1, 2.5, "3", True):
            with pytest.raises(ReproError, match="k must be"):
                top_k_pruned(dataset, preferences, k)

    def test_observation_example_order(self, observation):
        dataset, preferences = observation
        result = top_k_pruned(dataset, preferences, 2, method="det")
        assert [index for index, _ in result.ranking] == [0, 2]
        assert result.ranking[0][1] == pytest.approx(0.5)
