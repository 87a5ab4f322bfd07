"""Indexed eviction and factor-miss accounting of :class:`DominanceCache`.

A cache catching up with the model's edit log finds the entries that
read an edited pair through an index built on its first eviction.  These
tests hold it to a full scan, over random sequences of lookups, edits
(one or several pairs at a time, set or deleted) and clears, and pin the
cache traffic of all-objects batches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SkylineProbabilityEngine, batch_skyline_probabilities
from repro.core.dominance import DominanceCache, dominance_factors
from repro.core.preferences import _EDIT_LOG_LENGTH, PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel


class FullScanCache(DominanceCache):
    """The cache with eviction by a scan of every memoised factor entry."""

    __slots__ = ()

    def _evict(self, dimension, a, b):
        removed = self._evict_cells(dimension, a, b)
        stale = [
            pair_key
            for pair_key in self._factors
            if dimension < len(pair_key[0])
            and {pair_key[0][dimension], pair_key[1][dimension]} == {a, b}
        ]
        for pair_key in stale:
            del self._factors[pair_key]
        return removed + len(stale)


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
    st.integers(min_value=0, max_value=D - 1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
# Factor lookups are listed twice: drawn twice as often as each other step.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _object, _object),
        st.tuples(st.just("lookup"), _object, _object),
        st.tuples(st.just("prefers"), _variable),
        # Several edits before the next read: a gap of several pairs.
        st.tuples(
            st.just("edit"),
            st.lists(st.tuples(_variable, st.booleans()), min_size=1, max_size=4),
        ),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _state(cache):
    counters = cache.counters()  # catches up with the model first
    cells = {key for key, _ in cache._preference_cells()}
    return set(cache._factors), cells, counters


def _edit(model, j, a, b):
    model.set_preference(j, a, b, 0.2, 0.7)


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
                    a, b = VALUES[j][x], VALUES[j][y]
                    assert indexed.prob_prefers(j, a, b) == (
                        scanned.prob_prefers(j, a, b)
                    )
            elif kind == "edit":
                # Set a pair, or delete it (a no-op when it is unset).
                for (j, x, y), delete in operation[1]:
                    if x == y:
                        continue
                    a, b = VALUES[j][x], VALUES[j][y]
                    if delete:
                        model.delete_preference(j, a, b)
                    else:
                        model.set_preference(j, a, b, 0.3, 0.6)
            else:
                indexed.clear()
                scanned.clear()
            assert _state(indexed) == _state(scanned)
        # Whatever the script, no memoised entry is stale.
        for (q, o), factors in indexed._factors.items():
            assert factors == tuple(dominance_factors(model, q, o))
        for (j, a, b), probability in indexed._preference_cells():
            assert probability == model.prob_prefers(j, a, b)

    def test_index_follows_misses_after_the_first_eviction(self):
        model = PreferenceModel(D, default=0.4)
        cache = DominanceCache(model)
        target = ("v0_2", "v1_2", "v2_2")
        first, later = ("v0_0", "v1_0", "v2_2"), ("v0_1", "v1_0", "v2_2")
        cache.dominance_factors(first, target)
        # The first eviction builds the index; `later` is memoised after.
        _edit(model, 2, "v2_0", "v2_1")
        assert cache.counters()["evictions"] == 0
        cache.dominance_factors(later, target)
        # One factor entry and one preference entry read (0, v0_1, v0_2).
        _edit(model, 0, "v0_1", "v0_2")
        assert cache.counters()["evictions"] == 2
        assert set(cache._factors) == {(first, target)}

    def test_version_change_and_clear_drop_the_index(self):
        """A gap the edit log covers keeps the index; a version change the
        log does not reach back over, and ``clear()``, drop it."""
        model = PreferenceModel(D, default=0.4)
        indexed, scanned = DominanceCache(model), FullScanCache(model)
        target = ("v0_2", "v1_2", "v2_2")
        first, later = ("v0_0", "v1_0", "v2_2"), ("v0_1", "v1_0", "v2_2")
        for reset in ("edit", "clear"):
            for cache in (indexed, scanned):
                cache.dominance_factors(first, target)
            _edit(model, 2, "v2_0", "v2_1")
            assert _state(indexed) == _state(scanned)
            # Built by the first eviction and kept across a covered gap.
            assert indexed._index is not None
            if reset == "edit":
                # More edits than the log holds: the next access finds a
                # version it cannot catch up to and empties the table.
                for _ in range(_EDIT_LOG_LENGTH + 1):
                    _edit(model, 2, "v2_0", "v2_1")
            else:
                indexed.clear()
                scanned.clear()
            evictions = indexed.evictions
            assert _state(indexed) == _state(scanned) == (set(), set(), {
                "hits": indexed.hits,
                "misses": indexed.misses,
                "entries": 0,
                "evictions": evictions,
            })
            assert indexed._index is None
            for cache in (indexed, scanned):
                cache.dominance_factors(later, target)
            # `first` left the table with the reset; only `later` reads
            # (1, v1_0, v1_2).
            _edit(model, 1, "v1_0", "v1_2")
            assert _state(indexed) == _state(scanned)
            assert indexed.evictions == evictions + 2


class TestThreadedEviction:
    """Misses that file entries in the index race the evictions of edits."""

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
        # Warm: whenever the edits land, they find entries to evict.
        for pair in pairs:
            cache.dominance_factors(*pair)
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

        def editor() -> None:
            # Each edit is caught up by whichever reader looks up next.
            barrier.wait()
            try:
                for round_ in range(20):
                    for variable in variables:
                        model.set_preference(*variable, 0.1 + round_ / 40)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=editor))
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
        assert cache.counters()["evictions"] > 0
        # Every memoised factor entry is filed under its target, the index
        # names no entry the table has lost, and no entry is stale.
        filed = {
            (q, target)
            for target, competitors in cache._index.items()
            for q in competitors
        }
        assert filed == set(cache._factors)
        for (q, o), factors in cache._factors.items():
            assert factors == tuple(dominance_factors(model, q, o))


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

    def test_block_zipf_with_absorption(self, monkeypatch):
        import repro.core.engine as engine_module

        dataset = block_zipf_dataset(48, 3, blocks=6, seed=17)
        preferences = HashedPreferenceModel(3, seed=18)
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        assert sum(
            len(report.preprocessing.absorbed_by) for report in result.reports
        ) == 68
        # The chunk is planned by the tile pass, which counts one lookup
        # per preference probability its factor rows read.
        assert (result.cache_hits, result.cache_misses) == (4170, 2218)
        # Planned one target at a time, each (target, survivor) pair adds
        # one factor-tuple miss (zero filter) and one hit (its component's
        # factor list): 48 * 47 pairs less the 68 absorbed.
        monkeypatch.setattr(engine_module, "_TILE_CROSSOVER", float("inf"))
        alone = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences)
        )
        assert (alone.cache_hits, alone.cache_misses) == (6358, 4406)
        pairs = 48 * 47 - 68
        assert (alone.cache_hits - pairs, alone.cache_misses - pairs) == (
            result.cache_hits,
            result.cache_misses,
        )
        assert [repr(r) for r in alone.reports] == [repr(r) for r in result.reports]
