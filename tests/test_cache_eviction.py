"""Indexed eviction and factor-miss accounting of :class:`DominanceCache`.

``evict_preference`` finds its stale entries through an index built on
the first eviction.  These tests hold it to the full scan it replaced,
over random sequences of lookups, evictions, edits and clears, and pin
the cache traffic of all-objects batches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SkylineProbabilityEngine, batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.preferences import PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel


class FullScanCache(DominanceCache):
    """The cache with eviction by a scan of every memoised factor entry."""

    __slots__ = ()

    def evict_preference(self, dimension, a, b):
        with self._lock:
            removed = 0
            for key in ((dimension, a, b), (dimension, b, a)):
                if self._prefers.pop(key, None) is not None:
                    removed += 1
            stale = [
                pair_key
                for pair_key in self._factors
                if dimension < len(pair_key[0])
                and {pair_key[0][dimension], pair_key[1][dimension]} == {a, b}
            ]
            for pair_key in stale:
                del self._factors[pair_key]
            removed += len(stale)
            self._version = self._preferences.version
            self._evictions += removed
            return removed


D = 3
VALUES = [[f"v{j}_{k}" for k in range(3)] for j in range(D)]
OBJECTS = [
    (VALUES[0][x], VALUES[1][y], VALUES[2][z])
    for x in range(3)
    for y in range(3)
    for z in range(3)
][::2]

_object = st.integers(min_value=0, max_value=len(OBJECTS) - 1)
_variable = st.tuples(
    st.integers(min_value=-D, max_value=D - 1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
# Factor lookups are listed twice: drawn twice as often as each other step.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _object, _object),
        st.tuples(st.just("lookup"), _object, _object),
        st.tuples(st.just("prefers"), _variable),
        st.tuples(st.just("evict"), _variable),
        st.tuples(st.just("edit"), _variable, st.booleans()),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _state(cache):
    return set(cache._factors), set(cache._prefers), cache.counters()


class TestIndexedEvictionEqualsFullScan:
    @given(OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_same_removals_and_counters(self, operations):
        model = PreferenceModel(D, default=0.4)
        indexed, scanned = DominanceCache(model), FullScanCache(model)
        for operation in operations:
            kind = operation[0]
            if kind == "lookup":
                q, o = OBJECTS[operation[1]], OBJECTS[operation[2]]
                if q != o:
                    assert indexed.dominance_factors(q, o) == (
                        scanned.dominance_factors(q, o)
                    )
            elif kind == "prefers":
                j, x, y = operation[1]
                if x != y:
                    a, b = VALUES[j % D][x], VALUES[j % D][y]
                    assert indexed.prob_prefers(j % D, a, b) == (
                        scanned.prob_prefers(j % D, a, b)
                    )
            elif kind == "evict":
                # Every (dimension, a, b), a == b and negative dimensions
                # included: the two must agree even off the edit contract.
                j, x, y = operation[1]
                a, b = VALUES[j][x], VALUES[j][y]
                assert indexed.evict_preference(j, a, b) == (
                    scanned.evict_preference(j, a, b)
                )
            elif kind == "edit":
                # An edit of one pair; evicted at once, as the dynamic
                # engine does, or left for the version check to catch.
                (j, x, y), evict = operation[1], operation[2]
                if x == y:
                    continue
                a, b = VALUES[j % D][x], VALUES[j % D][y]
                model.set_preference(j % D, a, b, 0.3, 0.6)
                if evict:
                    assert indexed.evict_preference(j % D, a, b) == (
                        scanned.evict_preference(j % D, a, b)
                    )
            else:
                indexed.clear()
                scanned.clear()
            assert _state(indexed) == _state(scanned)

    def test_index_follows_misses_after_the_first_eviction(self):
        model = PreferenceModel(D, default=0.4)
        cache = DominanceCache(model)
        target = ("v0_2", "v1_2", "v2_2")
        first, later = ("v0_0", "v1_0", "v2_2"), ("v0_1", "v1_0", "v2_2")
        cache.dominance_factors(first, target)
        # The first eviction builds the index; `later` is memoised after.
        assert cache.evict_preference(2, "v2_0", "v2_1") == 0
        cache.dominance_factors(later, target)
        # One factor entry and one preference entry read (0, v0_1, v0_2).
        assert cache.evict_preference(0, "v0_1", "v0_2") == 2
        assert set(cache._factors) == {(first, target)}

    def test_version_change_and_clear_drop_the_index(self):
        model = PreferenceModel(D, default=0.4)
        indexed, scanned = DominanceCache(model), FullScanCache(model)
        target = ("v0_2", "v1_2", "v2_2")
        first, later = ("v0_0", "v1_0", "v2_2"), ("v0_1", "v1_0", "v2_2")
        for reset in ("edit", "clear"):
            for cache in (indexed, scanned):
                cache.dominance_factors(first, target)
                cache.evict_preference(2, "v2_0", "v2_1")
            if reset == "edit":
                # Not evicted: the next lookup finds a new version and
                # empties the table.
                model.set_preference(2, "v2_0", "v2_1", 0.2, 0.7)
            else:
                indexed.clear()
                scanned.clear()
            for cache in (indexed, scanned):
                cache.dominance_factors(later, target)
            # `first` left the table with the reset; only `later` reads
            # (1, v1_0, v1_2).
            assert indexed.evict_preference(1, "v1_0", "v1_2") == (
                scanned.evict_preference(1, "v1_0", "v1_2")
            )
            assert _state(indexed) == _state(scanned)


class TestThreadedEviction:
    """Misses that file entries in the index race evictions that read it."""

    def test_index_stays_consistent_under_threads(self):
        import sys
        import threading

        model = PreferenceModel(D, default=0.4)
        cache = DominanceCache(model)
        pairs = [(q, o) for q in OBJECTS for o in OBJECTS if q != o]
        variables = [
            (j, VALUES[j][x], VALUES[j][y])
            for j in range(D)
            for x in range(3)
            for y in range(x + 1, 3)
        ]
        removed = []
        failures: list = []
        barrier = threading.Barrier(5)

        def reader() -> None:
            barrier.wait()
            try:
                for _ in range(20):
                    for pair in pairs:
                        cache.dominance_factors(*pair)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        def evictor() -> None:
            barrier.wait()
            try:
                for _ in range(20):
                    for variable in variables:
                        removed.append(cache.evict_preference(*variable))
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=evictor))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.evictions == sum(removed)
        # Every memoised factor entry is filed under its target, and the
        # index names no entry the table has lost.
        filed = {
            (q, target)
            for target, competitors in cache._index.items()
            for q in competitors
        }
        assert filed == set(cache._factors)


class TestAllObjectsCacheTraffic:
    """Cache traffic of fresh all-objects batches, pinned.

    Building each competitor's Γ once and resolving a factor miss under
    one lock make the same lookups as before, so the counts are the
    ones recorded before that change.
    """

    def test_running_example(self):
        dataset, preferences = running_example()
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        assert (result.cache_hits, result.cache_misses) == (28, 28)

    def test_block_zipf_with_absorption(self):
        dataset = block_zipf_dataset(48, 3, blocks=6, seed=17)
        preferences = HashedPreferenceModel(3, seed=18)
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        assert sum(
            len(report.preprocessing.absorbed_by) for report in result.reports
        ) == 68
        assert (result.cache_hits, result.cache_misses) == (6358, 4406)
