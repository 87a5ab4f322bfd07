"""Preferences stored in rows, and the tile pass's grouped bulk read.

``PreferenceModel`` keeps ``Pr(a ≺ b)`` in one row per ``(dimension, b)``
and ``DominanceCache`` memoises preferences the same way, so the tile
pass reads each ``(dimension, target value)`` group of pairs from one
memo row, and its misses from one model row
(``DominanceCache._resolve_many``).  These tests hold that bulk read to
per-pair ``DominanceCache.prob_prefers`` calls on a twin cache — values,
errors, counters and the model calls made — and the row-stored model to
a dict-of-tuples reference.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro import SkylineProbabilityEngine, batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.preferences import PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel, LazyRankedPreferenceModel
from repro.data.prefgen import random_preferences
from repro.errors import UnknownPreferenceError
from repro.robustness.faults import UnpicklableModel

D = 2
VALUES = [f"v{k}" for k in range(4)]
PAIRS = [
    (j, a, b) for j in range(D) for a in VALUES for b in VALUES if a < b
]


def _strict():
    """Strict, with every third unordered pair never set."""
    model = PreferenceModel(D)
    for k, (j, a, b) in enumerate(PAIRS):
        if k % 3:
            model.set_preference(j, a, b, 0.25 * (k % 4), 0.1)
    return model


def _deleted():
    """``default=0.4``, every pair set, then every third deleted."""
    model = PreferenceModel(D, default=0.4)
    for k, (j, a, b) in enumerate(PAIRS):
        model.set_preference(j, a, b, 0.2 + 0.1 * (k % 5))
    for k, (j, a, b) in enumerate(PAIRS):
        if k % 3 == 0:
            model.delete_preference(j, a, b)
    return model


def _hashed():
    model = HashedPreferenceModel(D, seed=5, incomparable_fraction=0.2)
    model.set_preference(0, "v0", "v1", 0.0, 1.0)
    model.set_preference(1, "v3", "v2", 0.3, 0.6)
    return model


def _ranked():
    return LazyRankedPreferenceModel(D, 0.7, flip_dimensions=[1])


def _wrapped():
    return UnpicklableModel(_strict())


class _Recorded:
    """A plain model whose ``prob_prefers`` is replaced on the instance."""

    def __init__(self):
        self.model = PreferenceModel(D, default=0.4)
        for k, (j, a, b) in enumerate(PAIRS):
            if k % 2:
                self.model.set_preference(j, a, b, 0.1 * (k % 7))
        self.calls = []
        read = self.model.prob_prefers

        def recorded(dimension, a, b):
            self.calls.append((dimension, a, b))
            return read(dimension, a, b)

        self.model.prob_prefers = recorded


MODELS = {
    "strict": _strict,
    "deleted": _deleted,
    "hashed": _hashed,
    "ranked": _ranked,
    "wrapped": _wrapped,
}

# Out-of-range dimensions (one draw in nine) fail in every model.
_dimension = st.integers(0, 4 * D).map(lambda j: min(j // 4, D))
_pair = st.tuples(_dimension, st.sampled_from(VALUES), st.sampled_from(VALUES))
_read = st.tuples(
    st.just("read"),
    st.lists(
        st.tuples(_pair, st.integers(1, 3)),
        max_size=24,
        unique_by=lambda item: item[0],
    ),
    st.none() | st.randoms(use_true_random=False),
)
_edit = st.tuples(
    st.just("edit"),
    st.integers(0, D - 1),
    st.sampled_from(VALUES),
    st.sampled_from(VALUES),
    st.none() | st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
SCRIPTS = st.lists(st.one_of(_read, _read, _edit), min_size=1, max_size=8)


def _grouped(items):
    """The items' pairs grouped by ``(dimension, b)``, as the tile groups
    them, and the flat (pair, reads) order the groups imply."""
    groups = {}
    for (j, a, b), reads in items:
        groups.setdefault((j, b), []).append((a, reads))
    flat = [
        ((j, a, b), reads)
        for (j, b), members in groups.items()
        for a, reads in members
    ]
    return [
        (j, b, [a for a, _ in members]) for (j, b), members in groups.items()
    ], flat


def _point_reads(cache, flat, key):
    """What the bulk read must return, by per-pair ``prob_prefers`` calls:
    pairs in ascending ``key``, a failing pair read once, every other
    pair once per read."""
    resolved = [None] * len(flat)
    errors = {}
    for position in sorted(range(len(flat)), key=key.__getitem__):
        pair, reads = flat[position]
        try:
            resolved[position] = cache.prob_prefers(*pair)
        except Exception as error:
            errors[position] = (type(error), str(error))
            resolved[position] = math.nan
            continue
        for _ in range(reads - 1):
            assert cache.prob_prefers(*pair) == resolved[position]
    return resolved, errors


def _play(model, script, calls=None):
    bulk, twin = DominanceCache(model), DominanceCache(model)
    for step in script:
        if step[0] == "edit":
            _, j, a, b, forward = step
            if a == b:
                continue
            if forward is None:
                model.delete_preference(j, a, b)
            else:
                model.set_preference(j, a, b, forward)
            continue
        _, items, shuffle = step
        groups, flat = _grouped(items)
        key = list(range(len(flat)))
        if shuffle is not None:
            shuffle.shuffle(key)
        order = None if shuffle is None else (lambda: key)
        made = len(calls) if calls is not None else 0
        resolved, errors = bulk._resolve_many(
            groups, [reads for _, reads in flat], order
        )
        bulk_calls = calls[made:] if calls is not None else None
        made = len(calls) if calls is not None else 0
        expected, expected_errors = _point_reads(twin, flat, key)
        assert list(map(repr, resolved)) == list(map(repr, expected))
        assert {
            position: (type(error), str(error))
            for position, error in errors.items()
        } == expected_errors
        if calls is not None:
            # The replacement sees every miss, in the same order.
            assert bulk_calls == calls[made:]
        # Counters catch up with the model first: an empty read still
        # evicted what an edit touched.
        assert bulk.counters() == twin.counters()
    assert set(bulk._preference_cells()) == set(twin._preference_cells())


class TestBulkReadEqualsPointReads:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(script=SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_models(self, name, script):
        _play(MODELS[name](), script)

    @given(script=SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_prob_prefers_replaced_on_the_instance(self, script):
        recorded = _Recorded()
        _play(recorded.model, script, recorded.calls)

    def test_only_the_base_method_is_read_in_rows(self):
        assert DominanceCache(_strict())._model_rows() is not None
        for model in (_hashed(), _ranked(), _wrapped(), _Recorded().model):
            assert DominanceCache(model)._model_rows() is None


class TestTileRows:
    def test_one_target_fills_one_row_per_dimension(self, monkeypatch):
        dataset = block_zipf_dataset(40, 3, blocks=4, seed=31)
        preferences = random_preferences(dataset, seed=32)
        cache = DominanceCache(preferences)
        monkeypatch.setattr(engine_module, "_TILE_CROSSOVER", 0)
        batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences),
            indices=[0],
            method="det",
            cache=cache,
        )
        target = dataset[0]
        assert {
            j: list(rows) for j, rows in cache._prefers.items()
        } == {j: [target[j]] for j in range(3)}
        # The tile's bulk read: preference cells only, no factor tuples.
        assert not cache._factors
        assert cache.entries == cache.misses > 0

    def test_model_calls_keep_the_point_read_order(self, monkeypatch):
        """A model read pair by pair sees each of the tile's misses once,
        by dimension, then competitor value, then target value (values
        in their first-seen order)."""
        dataset = block_zipf_dataset(30, 3, blocks=3, seed=33)
        preferences = random_preferences(dataset, seed=34)
        calls = []
        read = preferences.prob_prefers

        def recorded(dimension, a, b):
            calls.append((dimension, a, b))
            return read(dimension, a, b)

        preferences.prob_prefers = recorded
        monkeypatch.setattr(engine_module, "_TILE_CROSSOVER", 0)
        batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences),
            method="det",
            cache=DominanceCache(preferences),
        )
        code = [{} for _ in range(3)]
        for values in dataset:
            for j, value in enumerate(values):
                code[j].setdefault(value, len(code[j]))
        assert len(set(calls)) == len(calls) > 0
        assert calls == sorted(
            calls, key=lambda call: (call[0], code[call[0]][call[1]], code[call[0]][call[2]])
        )


class _TupleReference:
    """The model's former layout: ``Pr(a ≺ b)`` keyed by ``(a, b)``."""

    def __init__(self, default):
        self.default = default
        self.forward = [{} for _ in range(D)]
        self.pairs = [{} for _ in range(D)]

    def set(self, j, a, b, forward, backward):
        self.forward[j][(a, b)] = forward
        self.forward[j][(b, a)] = backward
        self.pairs[j][frozenset((a, b))] = [a, b, forward, backward]

    def delete(self, j, a, b):
        if self.pairs[j].pop(frozenset((a, b)), None) is None:
            return False
        del self.forward[j][(a, b)], self.forward[j][(b, a)]
        return True

    def prob_prefers(self, j, a, b):
        if a == b:
            return 0.0
        try:
            return self.forward[j][(a, b)]
        except KeyError:
            if self.default is None:
                raise UnknownPreferenceError(j, a, b) from None
            return self.default


_model_edit = st.tuples(
    st.integers(0, D - 1),
    st.sampled_from(VALUES),
    st.sampled_from(VALUES),
    st.none() | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.none() | st.sampled_from([0.0, 0.25, 0.5]),
)


class TestRowsEqualTuples:
    @pytest.mark.parametrize("default", [None, 0.4])
    @given(edits=st.lists(_model_edit, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_reads_after_sets_overwrites_and_deletes(self, default, edits):
        model, reference = PreferenceModel(D, default=default), _TupleReference(default)
        for j, a, b, forward, backward in edits:
            if a == b:
                continue
            if forward is None:
                assert model.delete_preference(j, a, b) == reference.delete(j, a, b)
                continue
            if backward is None or forward + backward > 1:
                backward = 1.0 - forward
            model.set_preference(j, a, b, forward, backward)
            reference.set(j, a, b, forward, backward)
        for j in range(D):
            for a in VALUES:
                for b in VALUES:
                    try:
                        expected = reference.prob_prefers(j, a, b)
                    except UnknownPreferenceError:
                        with pytest.raises(UnknownPreferenceError):
                            model.prob_prefers(j, a, b)
                    else:
                        assert model.prob_prefers(j, a, b) == expected
                    assert model.has_preference(j, a, b) == (
                        (a, b) in reference.forward[j]
                    )
            for b in VALUES:
                row = {a: p for (a, b2), p in reference.forward[j].items() if b2 == b}
                assert model._row(j, b) == (row or None)
            assert [
                [pair.a, pair.b, pair.forward, pair.backward]
                for pair in model.pairs(j)
            ] == list(reference.pairs[j].values())
        assert model.to_dict()["preferences"] == [
            list(reference.pairs[j].values()) for j in range(D)
        ]
        assert model.pair_count() == sum(map(len, reference.pairs))
