"""Tests for the engine's exact-result cache and its invalidation."""

from __future__ import annotations

import pytest

from repro.core.dominance import DominanceCache, dominance_factors
from repro.core.engine import SkylineProbabilityEngine
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel


@pytest.fixture
def engine():
    dataset = Dataset([("a", "x"), ("b", "y"), ("a", "y")])
    preferences = PreferenceModel(2)
    preferences.set_preference(0, "a", "b", 0.6)
    preferences.set_preference(1, "x", "y", 0.7)
    return SkylineProbabilityEngine(dataset, preferences)


class TestVersionCounter:
    def test_version_starts_at_zero(self):
        assert PreferenceModel(1).version == 0

    def test_version_bumps_on_set(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "b", 0.5)
        assert model.version == 1
        model.set_preference(0, "a", "b", 0.6)
        assert model.version == 2

    def test_copy_has_independent_version(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "b", 0.5)
        clone = model.copy()
        clone.set_preference(0, "c", "d", 0.5)
        assert model.version == 1


class TestExactCache:
    def test_repeated_exact_query_served_from_cache(self, engine):
        first = engine.skyline_probability(0, method="det")
        second = engine.skyline_probability(0, method="det")
        assert second is first  # identical object: memoised

    def test_sampled_queries_never_cached(self, engine):
        first = engine.skyline_probability(0, method="sam", samples=100, seed=1)
        second = engine.skyline_probability(0, method="sam", samples=100, seed=2)
        assert second is not first

    def test_preference_update_invalidates(self, engine):
        # object 1 = ("b", "y") is dominated through Pr(a ≺ b), so the
        # update must change its exact answer (a cached stale value would
        # not)
        before = engine.skyline_probability(1, method="det").probability
        engine.preferences.set_preference(0, "a", "b", 0.1)
        after = engine.skyline_probability(1, method="det").probability
        assert after != before

    def test_methods_cached_separately(self, engine):
        det = engine.skyline_probability(0, method="det")
        detplus = engine.skyline_probability(0, method="det+")
        assert det is not detplus
        assert det.probability == pytest.approx(detplus.probability)

    def test_ablation_switches_cached_separately(self, engine):
        with_absorption = engine.skyline_probability(0, method="det+")
        without = engine.skyline_probability(
            0, method="det+", use_absorption=False
        )
        assert with_absorption is not without

    def test_clear_cache(self, engine):
        first = engine.skyline_probability(0, method="det")
        engine.clear_cache()
        second = engine.skyline_probability(0, method="det")
        assert second is not first
        assert second.probability == first.probability

    def test_object_and_index_queries_use_separate_entries(self, engine):
        # An index query excludes the object's own row; an object query
        # whose values match a member answers 0 by the duplicate
        # convention.  Same values, different questions — they must not
        # share a memo entry.
        by_index = engine.skyline_probability(0, method="det")
        by_object = engine.skyline_probability(
            engine.dataset[0], method="det"
        )
        assert by_object is not by_index
        assert by_object.duplicate_target
        assert by_object.probability == 0.0
        # each memoises independently
        assert engine.skyline_probability(0, method="det") is by_index
        assert (
            engine.skyline_probability(engine.dataset[0], method="det")
            is by_object
        )

    def test_cache_info_counts_hits_and_misses(self, engine):
        assert engine.cache_info() == {"entries": 0, "hits": 0, "misses": 0}
        engine.skyline_probability(0, method="det")
        assert engine.cache_info() == {"entries": 1, "hits": 0, "misses": 1}
        engine.skyline_probability(0, method="det")
        assert engine.cache_info() == {"entries": 1, "hits": 1, "misses": 1}
        engine.skyline_probability(1, method="det+")
        info = engine.cache_info()
        assert info["entries"] == 2 and info["misses"] == 2

    def test_sampled_queries_count_misses_but_never_store(self, engine):
        engine.skyline_probability(0, method="sam", samples=50, seed=1)
        engine.skyline_probability(0, method="sam", samples=50, seed=1)
        info = engine.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["misses"] == 2

    def test_clear_cache_resets_counters(self, engine):
        # Regression: clear_cache() used to drop the entries but keep the
        # hit/miss counters, so a cleared engine reported a stale ratio.
        engine.skyline_probability(0, method="det")
        engine.skyline_probability(0, method="det")
        assert engine.cache_info()["hits"] == 1
        engine.clear_cache()
        assert engine.cache_info() == {"entries": 0, "hits": 0, "misses": 0}
        engine.skyline_probability(0, method="det")
        assert engine.cache_info() == {"entries": 1, "hits": 0, "misses": 1}

    def test_cache_correct_after_many_updates(self, engine):
        values = []
        for probability in (0.2, 0.5, 0.8):
            engine.preferences.set_preference(0, "a", "b", probability)
            values.append(
                engine.skyline_probability(1, method="det").probability
            )
        # sky(Q2=(b,y)) depends on Pr(a<b) through both competitors
        assert len(set(values)) == 3


class TestOlderVersionsDropped:
    """Answers of an older preference version are never asked again."""

    def test_entries_hold_only_the_current_version(self, engine):
        for target in range(3):
            engine.skyline_probability(target, method="det")
        assert engine.cache_info() == {"entries": 3, "hits": 0, "misses": 3}
        engine.preferences.set_preference(0, "a", "b", 0.1)
        fresh = engine.skyline_probability(1, method="det")
        # The edit is not clear_cache: the counters keep running.
        assert engine.cache_info() == {"entries": 1, "hits": 0, "misses": 4}
        assert engine.skyline_probability(1, method="det") is fresh
        assert engine.cache_info() == {"entries": 1, "hits": 1, "misses": 4}

    def test_current_entries_still_answer(self, engine):
        engine.skyline_probability(0, method="det")
        engine.preferences.set_preference(1, "x", "y", 0.2)
        answers = {
            (target, method): engine.skyline_probability(target, method=method)
            for target in range(3)
            for method in ("det", "det+")
        }
        assert engine.cache_info()["entries"] == len(answers)
        rebuilt = SkylineProbabilityEngine(engine.dataset, engine.preferences)
        for (target, method), report in answers.items():
            assert engine.skyline_probability(target, method=method) is report
            assert repr(report) == repr(
                rebuilt.skyline_probability(target, method=method)
            )

    def test_a_sampled_answer_keeps_the_older_entries(self, engine):
        engine.skyline_probability(0, method="det")
        engine.preferences.set_preference(0, "a", "b", 0.3)
        engine.skyline_probability(0, method="sam", samples=20, seed=1)
        # Nothing was memoised at the new version, so nothing was dropped.
        assert engine.cache_info()["entries"] == 1


class TestSurgicalEviction:
    """The dominance cache catches up with an edit of one pair by dropping
    only the entries that read it, instead of clearing itself."""

    @pytest.fixture
    def warm(self):
        preferences = PreferenceModel(2)
        preferences.set_preference(0, "a", "b", 0.6)
        preferences.set_preference(1, "x", "y", 0.7)
        cache = DominanceCache(preferences)
        cache.dominance_factors(("a", "x"), ("b", "y"))
        cache.dominance_factors(("a", "x"), ("a", "y"))
        cache.prob_prefers(0, "a", "b")
        cache.prob_prefers(1, "x", "y")
        return preferences, cache

    def test_evicts_only_matching_entries(self, warm):
        preferences, cache = warm
        entries_before = cache.entries
        preferences.set_preference(0, "a", "b", 0.9)
        # The snapshot catches up first: the (0, a, b) prefers entry, the
        # ("a","x")/("b","y") factor tuple, and the nested (0, "a", "b")
        # lookup it stored are gone.
        removed = cache.counters()["evictions"]
        assert removed > 0
        assert cache.entries == entries_before - removed
        # The untouched dimension-1 pair must still be served warm.
        hits_before = cache.hits
        assert cache.prob_prefers(1, "x", "y") == 0.7
        assert cache.hits == hits_before + 1

    def test_post_eviction_lookups_recompute_fresh_values(self, warm):
        preferences, cache = warm
        preferences.set_preference(0, "a", "b", 0.9)
        assert cache.prob_prefers(0, "a", "b") == 0.9
        cached = cache.dominance_factors(("a", "x"), ("b", "y"))
        fresh = dominance_factors(preferences, ("a", "x"), ("b", "y"))
        assert cached == tuple(fresh)
        assert cache.evictions > 0

    def test_counters_survive_eviction(self, warm):
        preferences, cache = warm
        hits, misses, entries = cache.hits, cache.misses, cache.entries
        preferences.set_preference(0, "a", "b", 0.9)
        snapshot = cache.counters()
        removed = entries - snapshot["entries"]
        assert removed > 0
        assert (snapshot["hits"], snapshot["misses"]) == (hits, misses)
        assert snapshot["evictions"] == cache.evictions == removed

    def test_eviction_prevents_whole_cache_wipe(self, warm):
        preferences, cache = warm
        preferences.set_preference(0, "a", "b", 0.9)
        # The next lookup evicts only the logged pair: the unrelated
        # factor entry is still present (a wipe would have emptied both
        # tables).
        hits_before = cache.hits
        cache.dominance_factors(("a", "x"), ("a", "y"))
        assert cache.hits == hits_before + 1

    def test_clear_keeps_counters(self, warm):
        _, cache = warm
        hits, misses = cache.hits, cache.misses
        cache.clear()
        assert cache.entries == 0
        assert cache.hits == hits and cache.misses == misses
