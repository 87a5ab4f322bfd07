"""Unit tests for the shared-world all-objects estimator and top-k."""

from __future__ import annotations

import pytest

from repro.core.naive import skyline_probabilities_naive
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.core.topk import (
    estimate_all_skyline_probabilities,
    top_k_shared_worlds,
)
from repro.errors import EstimationError


class TestEstimateAll:
    def test_matches_naive_on_running_example(self, running):
        dataset, preferences = running
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=30000, seed=1
        )
        naive = skyline_probabilities_naive(preferences, dataset)
        for value, reference in zip(estimate.probabilities, naive):
            assert value == pytest.approx(reference, abs=0.01)

    def test_matches_naive_with_incomparability(self):
        dataset = Dataset([("a", "x"), ("b", "y"), ("a", "y")])
        preferences = PreferenceModel(2)
        preferences.set_preference(0, "a", "b", 0.5, 0.2)
        preferences.set_preference(1, "x", "y", 0.3, 0.3)
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=30000, seed=2
        )
        naive = skyline_probabilities_naive(preferences, dataset)
        for value, reference in zip(estimate.probabilities, naive):
            assert value == pytest.approx(reference, abs=0.01)

    def test_hoisted_gathers_match_per_iteration_reference(self, running):
        # the requirement gathers are hoisted out of the chunk loop; the
        # estimates must be bit-identical to the straightforward
        # per-iteration np.delete transcription on the same seed
        import numpy as np

        from repro.core.topk import _build_requirements
        from repro.util.rng import as_rng

        dataset, preferences = running
        samples, seed, chunk_size = 512, 97, 128
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=samples, seed=seed,
            chunk_size=chunk_size,
        )
        forward_probs, backward_probs, columns = _build_requirements(
            preferences, dataset
        )
        n = len(dataset)
        rng = as_rng(seed)
        successes = np.zeros(n, dtype=np.int64)
        remaining = samples
        while remaining > 0:
            chunk = min(chunk_size, remaining)
            remaining -= chunk
            draws = rng.random((chunk, forward_probs.size))
            forward_wins = draws < forward_probs
            backward_wins = (~forward_wins) & (
                draws < forward_probs + backward_probs
            )
            resolved = np.concatenate(
                [forward_wins, backward_wins, np.ones((chunk, 1), dtype=bool)],
                axis=1,
            )
            for b_index in range(n):
                requirement = np.delete(columns[:, b_index, :], b_index, axis=0)
                gathered = resolved[:, requirement]
                dominated = gathered.all(axis=2).any(axis=1)
                successes[b_index] += int((~dominated).sum())
        expected = tuple((successes / samples).tolist())
        assert estimate.probabilities == expected

    def test_deterministic_with_seed(self, running):
        dataset, preferences = running
        a = estimate_all_skyline_probabilities(
            preferences, dataset, samples=500, seed=3
        )
        b = estimate_all_skyline_probabilities(
            preferences, dataset, samples=500, seed=3
        )
        assert a.probabilities == b.probabilities

    def test_result_shape(self, running):
        dataset, preferences = running
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=100, seed=0
        )
        assert len(estimate.probabilities) == len(dataset)
        assert estimate.samples == 100
        assert all(0.0 <= p <= 1.0 for p in estimate.probabilities)

    def test_error_radius(self, running):
        dataset, preferences = running
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=3000, seed=0
        )
        assert 0.0 < estimate.error_radius(0.01) < 0.1

    def test_invalid_samples(self, running):
        dataset, preferences = running
        with pytest.raises(EstimationError):
            estimate_all_skyline_probabilities(preferences, dataset, samples=0)

    def test_invalid_chunk(self, running):
        dataset, preferences = running
        with pytest.raises(EstimationError):
            estimate_all_skyline_probabilities(
                preferences, dataset, samples=10, chunk_size=0
            )

    def test_certain_preferences_exact(self):
        dataset = Dataset([("best",), ("worst",)])
        preferences = PreferenceModel(1)
        preferences.set_preference(0, "best", "worst", 1.0)
        estimate = estimate_all_skyline_probabilities(
            preferences, dataset, samples=50, seed=4
        )
        assert estimate.probabilities == (1.0, 0.0)

    def test_mutually_exclusive_orientations(self):
        # forward and backward outcomes must never both fire: with
        # Pr(a<b)=Pr(b<a)=0.5 exactly one of the two objects wins per world
        dataset = Dataset([("a",), ("b",)])
        estimate = estimate_all_skyline_probabilities(
            PreferenceModel.equal(1), dataset, samples=4000, seed=5
        )
        total = sum(estimate.probabilities)
        assert total == pytest.approx(1.0, abs=0.05)


class TestTopKSharedWorlds:
    def test_ranking_matches_exact_order(self, observation):
        dataset, preferences = observation
        ranked = top_k_shared_worlds(
            preferences, dataset, k=3, samples=20000, seed=6
        )
        assert [index for index, _ in ranked] == [0, 2, 1]
        assert ranked[0][1] == pytest.approx(0.5, abs=0.02)

    def test_k_truncates(self, observation):
        dataset, preferences = observation
        assert len(top_k_shared_worlds(preferences, dataset, 2, samples=200)) == 2

    def test_invalid_k(self, observation):
        # True once returned one pair, 2.5 failed inside a slice
        dataset, preferences = observation
        for k in (0, -1, 2.5, "3", True):
            with pytest.raises(EstimationError, match="k must be"):
                top_k_shared_worlds(preferences, dataset, k)
