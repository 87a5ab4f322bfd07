"""Checkpoint/resume: crash atomicity, strict loading, bit-identity.

The contract under test: a coordinator killed after *any* number of
checkpointed shards resumes into a :class:`~repro.core.batch.BatchResult`
**equal** to the uninterrupted run's — same reports, same failure
records, same cache counters — and a checkpoint that cannot be trusted
(torn tail, tampered payload, different computation) raises a structured
error instead of merging garbage.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicSkylineEngine
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel
from repro.distrib import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    DistribConfig,
    ShardCoordinator,
    ShardPayload,
)
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    CoordinatorAbortedError,
)
from repro.robustness import FaultInjector, InjectedFault

pytestmark = pytest.mark.chaos

FAST = dict(backoff=0.001, stall_timeout=30.0, run_timeout=120.0)


def _engine(n=12, d=3, *, seed=21, preference_seed=22):
    dataset = block_zipf_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return SkylineProbabilityEngine(dataset, preferences)


def _coordinator(checkpoint, *, resume=True, workers=2):
    return ShardCoordinator(
        _engine(),
        DistribConfig(
            workers=workers, checkpoint=str(checkpoint), resume=resume, **FAST
        ),
    )


@functools.lru_cache(maxsize=None)
def _uninterrupted():
    """The reference run: no checkpoint, no faults, no interruptions."""
    return ShardCoordinator(
        _engine(), DistribConfig(workers=2, **FAST)
    ).run(method="det+")


def _payload(shard_id, *, cache_hits=0):
    return ShardPayload(
        shard_id=shard_id,
        reports=(),
        failures=(),
        retries=0,
        cache_hits=cache_hits,
        cache_misses=0,
    )


class TestStoreRoundtrip:
    def test_header_and_payloads_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        assert not store.exists()
        store.write_header("feed", {"method": "det+"})
        store.append_shard(0, 1, _payload(0, cache_hits=3))
        store.append_shard(2, 2, _payload(2))
        header, payloads = store.load(expected_fingerprint="feed")
        assert header["version"] == CHECKPOINT_VERSION
        assert header["meta"] == {"method": "det+"}
        assert sorted(payloads) == [0, 2]
        assert payloads[0].cache_hits == 3

    def test_duplicate_shard_records_keep_the_first(self, tmp_path):
        # a hedge twin's result racing a crash can duplicate a record;
        # both are bit-identical by construction, but resume must trust
        # the one it already merged
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.write_header("feed", {})
        store.append_shard(1, 1, _payload(1, cache_hits=7))
        store.append_shard(1, 2, _payload(1, cache_hits=9))
        _, payloads = store.load()
        assert payloads[1].cache_hits == 7

    def test_rewriting_the_header_truncates_old_records(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.write_header("old", {})
        store.append_shard(0, 1, _payload(0))
        store.write_header("new", {})
        _, payloads = store.load(expected_fingerprint="new")
        assert payloads == {}


def _valid_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path / "run.ckpt")
    store.write_header("feed", {})
    store.append_shard(0, 1, _payload(0))
    store.append_shard(1, 1, _payload(1))
    return store


def _tamper_digest(lines):
    record = json.loads(lines[1])
    record["sha256"] = "0" * 64
    lines[1] = json.dumps(record)
    return lines


def _tamper_base64(lines):
    record = json.loads(lines[1])
    record["payload"] = "!!not base64!!"
    lines[1] = json.dumps(record)
    return lines


def _tamper_shard_id(lines):
    record = json.loads(lines[1])
    record["shard_id"] = "zero"
    lines[1] = json.dumps(record)
    return lines


class TestCorruption:
    @pytest.mark.parametrize(
        ("mutate", "match"),
        [
            (lambda lines: lines[:1] + ["{not json"], "not valid JSON"),
            (lambda lines: lines[:1] + ['"a string"'], "expected an object"),
            (lambda lines: lines[1:], "missing header"),
            (lambda lines: [], "empty"),
            (
                lambda lines: lines[:1] + ['{"kind": "mystery"}'],
                "unknown record kind",
            ),
            (_tamper_digest, "digest mismatch"),
            (_tamper_base64, "undecodable"),
            (_tamper_shard_id, "not an integer"),
        ],
        ids=[
            "bad-json",
            "non-object",
            "missing-header",
            "empty-file",
            "unknown-kind",
            "tampered-digest",
            "bad-base64",
            "bad-shard-id",
        ],
    )
    def test_corrupted_records_raise_with_line_numbers(
        self, tmp_path, mutate, match
    ):
        store = _valid_checkpoint(tmp_path)
        lines = store.path.read_text().splitlines()
        body = "".join(line + "\n" for line in mutate(lines))
        store.path.write_text(body)
        with pytest.raises(CheckpointCorruptionError, match=match):
            store.load()

    def test_torn_final_line_is_reported_as_truncation(self, tmp_path):
        # simulate the coordinator dying mid-append: chop the file in
        # the middle of the last record, leaving no trailing newline
        store = _valid_checkpoint(tmp_path)
        text = store.path.read_text()
        store.path.write_text(text[: len(text) - 20])
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            store.load()

    def test_missing_file_is_corruption_not_a_crash(self, tmp_path):
        with pytest.raises(CheckpointCorruptionError, match="cannot be read"):
            CheckpointStore(tmp_path / "never-written.ckpt").load()

    def test_coordinator_surfaces_corruption_on_resume(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint).run(method="det+", abort_after_shards=1)
        text = checkpoint.read_text()
        checkpoint.write_text(text[: len(text) - 15])
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            _coordinator(checkpoint).run(method="det+")


class TestMismatch:
    def test_version_mismatch(self, tmp_path):
        store = _valid_checkpoint(tmp_path)
        lines = store.path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = CHECKPOINT_VERSION + 1
        lines[0] = json.dumps(header)
        store.path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CheckpointMismatchError, match="format version"):
            store.load()

    def test_fingerprint_mismatch(self, tmp_path):
        store = _valid_checkpoint(tmp_path)
        with pytest.raises(
            CheckpointMismatchError, match="different computation"
        ):
            store.load(expected_fingerprint="something-else")

    def test_coordinator_refuses_a_checkpoint_from_another_run(
        self, tmp_path
    ):
        # same file, but the resumed run queries a different method — the
        # fingerprint covers it, so resume must refuse rather than merge
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint).run(method="det+", abort_after_shards=1)
        with pytest.raises(
            CheckpointMismatchError, match="different computation"
        ):
            _coordinator(checkpoint).run(method="naive")

    def test_resume_false_overwrites_instead_of_refusing(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint).run(method="det+", abort_after_shards=1)
        result = _coordinator(checkpoint, resume=False).run(method="naive")
        assert result.supervision.resumed == 0
        assert len(result.batch.reports) == 12


class TestFingerprintPins:
    """The fingerprint hashes a digest of the preference model's content,
    so a checkpoint never resumes under another model.  The pins record
    the fingerprints of checkpoint format 2; a checkpoint written before
    it fails on its format version instead of resuming.  A restriction
    changes the fingerprint."""

    @staticmethod
    def _fingerprint(engine, path, **options):
        ShardCoordinator(
            engine, DistribConfig(workers=1, checkpoint=str(path))
        ).run(**options)
        return json.loads(path.read_text().splitlines()[0])["fingerprint"]

    def test_running_example_fingerprint_is_pinned(self, tmp_path):
        from repro.data.examples import running_example

        engine = SkylineProbabilityEngine(*running_example())
        assert self._fingerprint(engine, tmp_path / "run.ckpt", method="det+") == (
            "6baa35b97945f00fb60f99f969c356fd17302dbe2c48c8ffb73278220ad8c4bf"
        )

    def test_block_zipf_fingerprint_is_pinned(self, tmp_path):
        engine = _engine(24)
        fingerprint = self._fingerprint(
            engine, tmp_path / "run.ckpt",
            method="sam+", seed=7, epsilon=0.05, deadline=30.0,
        )
        assert fingerprint == (
            "68148c1e5b25b7bdc8faec3747f22b9fecd02d471030668b4cf73d23350ad7e0"
        )

    def test_a_checkpoint_does_not_resume_under_another_model(self, tmp_path):
        # Both models are at version 0: only their content tells them apart.
        checkpoint = tmp_path / "run.ckpt"
        dataset = block_zipf_dataset(24, 3, seed=21)

        def run(preference_seed, **options):
            engine = SkylineProbabilityEngine(
                dataset, HashedPreferenceModel(3, seed=preference_seed)
            )
            config = DistribConfig(workers=1, checkpoint=str(checkpoint), **FAST)
            return ShardCoordinator(engine, config).run(method="det+", **options)

        with pytest.raises(CoordinatorAbortedError):
            run(22, abort_after_shards=3)
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            run(23)

    def test_a_rolled_back_edit_still_resumes(self, tmp_path):
        # The rollback restores a pair set as (b, a) through (a, b): the
        # model equals the one the checkpoint was written under, though
        # its to_dict() form does not, and the run resumes.
        checkpoint = tmp_path / "run.ckpt"
        dataset = block_zipf_dataset(24, 3, seed=21)
        preferences = HashedPreferenceModel(3, seed=22)
        a, b = sorted(dataset.values_on(0), key=repr)[:2]
        preferences.set_preference(0, b, a, 0.7, 0.2)
        before = preferences.copy()
        dynamic = DynamicSkylineEngine(
            dataset, preferences, fault_injector=FaultInjector(poison=frozenset({0}))
        )
        with pytest.raises(InjectedFault):
            dynamic.update_preference(0, a, b, 0.1, 0.8)
        assert preferences == before
        assert preferences.to_dict() != before.to_dict()

        def run(model, **options):
            engine = SkylineProbabilityEngine(dataset, model)
            config = DistribConfig(workers=1, checkpoint=str(checkpoint), **FAST)
            return ShardCoordinator(engine, config).run(method="det+", **options)

        with pytest.raises(CoordinatorAbortedError):
            run(before, abort_after_shards=3)
        resumed = run(preferences)
        assert resumed.supervision.resumed == 3
        assert list(resumed.batch.probabilities) == SkylineProbabilityEngine(
            dataset, before
        ).skyline_probabilities(method="det+")

    def test_a_restriction_changes_the_fingerprint(self, tmp_path):
        full = self._fingerprint(_engine(), tmp_path / "full.ckpt", method="det+")
        fingerprints = {
            self._fingerprint(
                _engine(), tmp_path / f"{name}.ckpt", method="det+", **restriction
            )
            for name, restriction in (
                ("dims", dict(dims=[0, 2])),
                ("competitors", dict(competitors=[1, 3, 5, 7])),
                ("both", dict(competitors=[1, 3, 5, 7], dims=[0, 2])),
            )
        }
        assert full not in fingerprints
        assert len(fingerprints) == 3

    def test_a_restricted_checkpoint_resumes(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        restriction = dict(competitors=[0, 2, 4, 6, 8, 10], dims=[1, 2])
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint).run(
                method="det+", abort_after_shards=1, **restriction
            )
        resumed = _coordinator(checkpoint).run(method="det+", **restriction)
        assert resumed.supervision.resumed == 1
        clean = ShardCoordinator(
            _engine(), DistribConfig(workers=2, **FAST)
        ).run(method="det+", **restriction)
        assert resumed.batch == clean.batch


class TestKillAndResume:
    @settings(max_examples=6, deadline=None)
    @given(kill_after=st.integers(min_value=1, max_value=5))
    def test_resume_is_bit_identical_for_every_kill_point(self, kill_after):
        # kill the coordinator after each possible number of durable
        # shards; the resumed merge must equal the uninterrupted run's
        # BatchResult field for field — reports, failures, cache counters
        reference = _uninterrupted()
        with tempfile.TemporaryDirectory() as scratch:
            checkpoint = Path(scratch) / "run.ckpt"
            with pytest.raises(CoordinatorAbortedError, match="aborted"):
                _coordinator(checkpoint).run(
                    method="det+", abort_after_shards=kill_after
                )
            resumed = _coordinator(checkpoint).run(method="det+")
        assert resumed.batch == reference.batch
        assert resumed.supervision.resumed == min(
            kill_after, reference.supervision.shards
        )

    def test_resume_may_change_the_worker_count(self, tmp_path):
        # the shard plan ignores the pool size precisely so that this
        # works: interrupt at 2 workers, finish at 3, merge identically
        reference = _uninterrupted()
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint, workers=2).run(
                method="det+", abort_after_shards=2
            )
        resumed = _coordinator(checkpoint, workers=3).run(method="det+")
        assert resumed.batch.reports == reference.batch.reports
        assert resumed.batch.cache_hits == reference.batch.cache_hits
        assert resumed.batch.cache_misses == reference.batch.cache_misses

    def test_fully_checkpointed_run_resumes_without_workers(self, tmp_path):
        reference = _uninterrupted()
        checkpoint = tmp_path / "run.ckpt"
        first = _coordinator(checkpoint).run(method="det+")
        again = _coordinator(checkpoint).run(method="det+")
        assert first.batch == reference.batch
        assert again.batch == reference.batch
        assert again.supervision.resumed == first.supervision.shards
        assert again.supervision.respawns == 0
        assert again.supervision.heartbeats == 0

    def test_abort_after_zero_shards_leaves_a_resumable_header(
        self, tmp_path
    ):
        reference = _uninterrupted()
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(CoordinatorAbortedError):
            _coordinator(checkpoint).run(method="det+", abort_after_shards=0)
        assert checkpoint.exists()
        resumed = _coordinator(checkpoint).run(method="det+")
        assert resumed.batch == reference.batch
        assert resumed.supervision.resumed == 0
