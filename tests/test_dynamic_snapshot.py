"""Warm-view snapshot/restore of the incremental engine.

``save_view``/``load_view`` exist for the serving tier: a server restart
should not pay the full O(n · view) warm-up again, and — stronger — a
restored engine must be indistinguishable from the one that saved the
snapshot.  Indistinguishable means bit-identical: the same skyline
probabilities, and the same answers *after further edits*, because the
snapshot round-trips the partition factors the incremental repairs
reuse.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Dataset, DynamicSkylineEngine, PreferenceModel
from repro.core.dynamic import VIEW_SNAPSHOT_FORMAT
from repro.errors import DatasetError


def _space():
    objects = [
        ("a", "x"),
        ("a", "y"),
        ("b", "x"),
        ("b", "z"),
        ("c", "y"),
    ]
    preferences = PreferenceModel(2, default=0.5)
    preferences.set_preference(0, "a", "b", 0.7, 0.2)
    preferences.set_preference(0, "a", "c", 0.6, 0.3)
    preferences.set_preference(0, "b", "c", 0.4, 0.4)
    preferences.set_preference(1, "x", "y", 0.55, 0.35)
    preferences.set_preference(1, "x", "z", 0.8, 0.1)
    preferences.set_preference(1, "y", "z", 0.3, 0.6)
    return Dataset(objects), preferences


@pytest.fixture
def engine():
    dataset, preferences = _space()
    return DynamicSkylineEngine(dataset, preferences)


@pytest.fixture
def snapshot_path(tmp_path):
    return tmp_path / "view.json"


class TestRoundTrip:
    def test_probabilities_bit_identical(self, engine, snapshot_path):
        engine.insert_object(("c", "z"))
        engine.update_preference(0, "a", "b", 0.65, 0.25)
        before = engine.skyline_probabilities()
        engine.save_view(snapshot_path)
        restored = DynamicSkylineEngine.load_view(snapshot_path)
        assert restored.skyline_probabilities() == before
        assert restored.cardinality == engine.cardinality
        assert list(restored.dataset) == list(engine.dataset)

    def test_labels_and_counter_survive(self, engine, snapshot_path):
        engine.insert_object(("c", "z"))  # auto-labelled
        labels = [
            engine.dataset.label_of(index)
            for index in range(engine.cardinality)
        ]
        engine.save_view(snapshot_path)
        restored = DynamicSkylineEngine.load_view(snapshot_path)
        assert [
            restored.dataset.label_of(index)
            for index in range(restored.cardinality)
        ] == labels
        # Auto-label continuity: the next insert on both engines picks
        # the same fresh label instead of reusing an existing one.
        original_report = engine.insert_object(("b", "y"))
        restored_report = restored.insert_object(("b", "y"))
        assert original_report == restored_report
        assert engine.dataset.label_of(engine.cardinality - 1) == (
            restored.dataset.label_of(restored.cardinality - 1)
        )

    def test_edits_after_restore_bit_identical(self, engine, snapshot_path):
        engine.save_view(snapshot_path)
        restored = DynamicSkylineEngine.load_view(snapshot_path)
        # The dominance cache is deliberately not part of the snapshot
        # (a restored engine starts cold); level the caches so the
        # eviction counts in the edit reports are comparable too.
        engine.cache.clear()
        for apply in (
            lambda e: e.insert_object(("c", "z")),
            lambda e: e.update_preference(1, "x", "y", 0.5, 0.4),
            lambda e: e.remove_object(0),
        ):
            original_report = apply(engine)
            restored_report = apply(restored)
            assert original_report == restored_report
            assert (
                restored.skyline_probabilities()
                == engine.skyline_probabilities()
            )

    def test_save_returns_the_payload_written(self, engine, snapshot_path):
        payload = engine.save_view(snapshot_path)
        assert payload == json.loads(snapshot_path.read_text())
        assert payload["format"] == VIEW_SNAPSHOT_FORMAT
        assert len(payload["objects"]) == engine.cardinality
        assert len(payload["views"]) == engine.cardinality

    def test_restored_cache_starts_cold(self, engine, snapshot_path):
        engine.skyline_probabilities()
        engine.save_view(snapshot_path)
        restored = DynamicSkylineEngine.load_view(snapshot_path)
        assert restored.cache.hits + restored.cache.misses == 0

    def test_edit_counter_survives(self, engine, snapshot_path):
        engine.insert_object(("c", "z"))
        engine.remove_object(engine.cardinality - 1)
        engine.save_view(snapshot_path)
        restored = DynamicSkylineEngine.load_view(snapshot_path)
        assert restored.edits == engine.edits


def _set_result(payload, field, value):
    payload["views"][0]["factors"][0]["result"][field] = value


class TestMalformedSnapshots:
    def test_unknown_format_is_rejected(self, engine, snapshot_path):
        payload = engine.save_view(snapshot_path)
        payload["format"] = VIEW_SNAPSHOT_FORMAT + 1
        snapshot_path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="format"):
            DynamicSkylineEngine.load_view(snapshot_path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: payload.pop("views"),
            lambda payload: payload.pop("preferences"),
            lambda payload: payload["views"].pop(),
            lambda payload: payload["views"][0]["factors"][0].pop("result"),
            lambda payload: payload.__setitem__("objects", []),
            # Values no engine could have saved.
            lambda payload: _set_result(payload, "probability", 7.0),
            lambda payload: _set_result(payload, "probability", float("nan")),
            lambda payload: _set_result(payload, "terms_evaluated", -1),
            lambda payload: payload.__setitem__("max_exact_objects", -1),
            lambda payload: payload.__setitem__("dimensionality", 3),
        ],
    )
    def test_structurally_broken_payloads_are_rejected(
        self, engine, snapshot_path, corrupt
    ):
        payload = engine.save_view(snapshot_path)
        corrupt(payload)
        snapshot_path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError):
            DynamicSkylineEngine.load_view(snapshot_path)

    def test_truncated_file_is_rejected(self, engine, snapshot_path):
        engine.save_view(snapshot_path)
        text = snapshot_path.read_text()
        snapshot_path.write_text(text[: len(text) // 2])
        with pytest.raises(DatasetError):
            DynamicSkylineEngine.load_view(snapshot_path)


class TestCommittedSnapshot:
    """A format-1 snapshot written by an earlier release still loads.

    ``data/view_snapshot_v1.json`` was written by the release that built
    every view one target at a time: ``DynamicSkylineEngine`` over
    ``block_zipf_dataset(24, 3, seed=31)`` and
    ``random_preferences(dataset, seed=32)``, then the update, insert
    and remove listed in ``data/view_snapshot_v1.probabilities.json``,
    which also records the engine's ``skyline_probabilities()``.  Its
    24 objects make 1,656 (target, competitor, dimension) cells, so a
    rebuild plans them through the tile pass.
    """

    DATA = Path(__file__).parent / "data"

    def _restored(self):
        return DynamicSkylineEngine.load_view(self.DATA / "view_snapshot_v1.json")

    @staticmethod
    def _rebuild(engine):
        return DynamicSkylineEngine(
            Dataset(list(engine.dataset)), engine.preferences.copy()
        )

    def _assert_equals_rebuild(self, engine):
        rebuilt = self._rebuild(engine)
        assert engine.skyline_probabilities() == rebuilt.skyline_probabilities()
        for index in range(engine.cardinality):
            assert engine.view(index).factors == rebuilt.view(index).factors

    def test_probabilities_are_the_recorded_ones(self):
        recorded = json.loads(
            (self.DATA / "view_snapshot_v1.probabilities.json").read_text()
        )["probabilities"]
        restored = self._restored()
        assert restored.cardinality == 24
        assert restored.skyline_probabilities() == recorded

    def test_views_equal_a_fresh_engine(self):
        self._assert_equals_rebuild(self._restored())

    def test_edits_after_loading_equal_a_rebuild(self):
        engine = self._restored()
        engine.update_preference(1, "b001_d1_v0000", "b001_d1_v0006", 0.3, 0.6)
        self._assert_equals_rebuild(engine)
        engine.insert_object(("b002_d0_v0003", "b002_d1_v0001", "b002_d2_v0000"))
        self._assert_equals_rebuild(engine)
        engine.remove_object(6)
        self._assert_equals_rebuild(engine)
