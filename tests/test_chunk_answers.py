"""Chunk answers equal per-object answers where structure groups form.

A batch chunk (or a shard) is planned object by object, solved in one
exact call that evaluates the ``"vec"`` components sharing a key
structure together, and finished object by object.  On an instance
whose chunk really forms such groups, every report must equal the
per-object query's bit for bit, whatever the chunking, the workers,
the supervision, the injected faults or an armed deadline.
"""

from __future__ import annotations

import pytest

from repro.core.batch import batch_skyline_probabilities
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel


def _grouping_instance():
    """Block-zipf data whose targets repeat vec-sized key structures:
    one exact call over all objects groups up to 32 components of 8 or
    more dominators."""
    dataset = block_zipf_dataset(40, 3, blocks=4, seed=1)
    return dataset, HashedPreferenceModel(3, seed=101)


def _assert_same_reports(reports, expected):
    """Whole reports equal, floats bit for bit (repr tells -0.0 apart)."""
    assert len(reports) == len(expected)
    for mine, theirs in zip(reports, expected):
        assert mine == theirs
        assert repr(mine) == repr(theirs)


class TestChunkAnswersEqualPerObject:
    """A chunk is planned, solved in one exact call and finished; every
    report still equals the per-object query's, whatever the grouping."""

    @pytest.fixture(scope="class")
    def per_object(self):
        dataset, preferences = _grouping_instance()
        engine = SkylineProbabilityEngine(dataset, preferences)
        return [engine.skyline_probability(i) for i in range(len(dataset))]

    @pytest.fixture
    def groups(self, monkeypatch):
        """(dominators, rows) of every grouped vec evaluation."""
        import repro.core.exact_vec as exact_vec

        seen = []
        original = exact_vec.det_shared_vec_rows

        def recording(structure, rows, deadline_at=None):
            seen.append((len(structure), len(rows)))
            return original(structure, rows, deadline_at)

        monkeypatch.setattr(exact_vec, "det_shared_vec_rows", recording)
        return seen

    def _engine(self):
        return SkylineProbabilityEngine(*_grouping_instance())

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_inprocess_chunks(self, per_object, groups, chunk_size):
        result = batch_skyline_probabilities(
            self._engine(), workers=1, chunk_size=chunk_size
        )
        _assert_same_reports(result.reports, per_object)
        assert result.retries == 0 and result.failures == ()
        largest = max(rows for dominators, rows in groups if dominators >= 8)
        if chunk_size == 1:
            assert largest == 1
        else:
            # the instance really shares evaluations between objects
            assert largest >= 2

    def test_process_pool(self, per_object):
        result = batch_skyline_probabilities(self._engine(), workers=2)
        _assert_same_reports(result.reports, per_object)
        assert result.retries == 0 and result.failures == ()

    def test_shard_coordinator(self, per_object):
        from repro.distrib import DistribConfig, ShardCoordinator

        result = ShardCoordinator(self._engine(), DistribConfig(workers=2)).run()
        _assert_same_reports(result.batch.reports, per_object)
        # every object answered on its first attempt in its shard's chunk
        assert result.batch.retries == 0 and result.batch.failures == ()

    def test_crashing_injector_salvages_like_chunk_size_one(self, per_object):
        from repro.robustness import FaultInjector

        injector = FaultInjector(
            seed=3, crash_rate=0.3, crash_attempts=2, poison=frozenset({5, 17})
        )
        options = dict(
            workers=1, on_error="salvage", fault_injector=injector, backoff=0.0
        )
        alone = batch_skyline_probabilities(self._engine(), chunk_size=1, **options)
        together = batch_skyline_probabilities(self._engine(), **options)
        assert together.failures == alone.failures
        assert {f.index for f in together.failures} == {5, 17}
        assert together.retries == alone.retries > 0
        assert together.indices == alone.indices
        _assert_same_reports(together.reports, alone.reports)
        _assert_same_reports(
            together.reports, [per_object[i] for i in together.indices]
        )

    def test_armed_deadline_answers_one_target_at_a_time(self, monkeypatch):
        import repro.core.engine as engine_module

        dataset, preferences = _grouping_instance()
        engine = SkylineProbabilityEngine(dataset, preferences)
        expected = [
            engine.skyline_probability(i, deadline=3600.0)
            for i in range(len(dataset))
        ]
        calls = []
        original = engine_module._solve

        def counting(components, **options):
            calls.append(len(components))
            return original(components, **options)

        monkeypatch.setattr(engine_module, "_solve", counting)
        result = batch_skyline_probabilities(
            self._engine(), workers=1, deadline=3600.0
        )
        _assert_same_reports(result.reports, expected)
        assert not any(report.degraded for report in result.reports)
        # one exact call per target, each deadline its own query's ...
        assert len(calls) == len(dataset)
        # ... where an unarmed chunk makes one call for every target
        calls.clear()
        batch_skyline_probabilities(self._engine(), workers=1)
        assert calls == [sum(len(r.partition_results) for r in expected)]

    def test_repeated_target_is_a_memo_hit(self):
        engine = self._engine()
        result = batch_skyline_probabilities(engine, indices=[3, 3])
        assert result.reports[0] is result.reports[1]
        assert engine.cache_info()["hits"] == 1
        assert engine.cache_info()["misses"] == 1


# The shard and pool-chunk options the coordinator and batch planner pass.
_QUERY_OPTIONS = dict(
    epsilon=0.01,
    delta=0.01,
    samples=None,
    use_absorption=True,
    use_partition=True,
    deadline=None,
    on_deadline="degrade",
    max_overrun=None,
)


class _RecordingInjector:
    """Logs each ``before_task(index, attempt)`` before delegating."""

    def __init__(self, events, inner=None):
        self.events = events
        self.inner = inner

    def before_task(self, index, attempt):
        self.events.append(("task", index, attempt))
        if self.inner is not None:
            self.inner.before_task(index, attempt)


class TestShardHeartbeats:
    """A shard answered as one chunk still beats at least once per object,
    and a heartbeat that cannot be delivered aborts the shard at once."""

    N = 12

    def _run(self, kernel, injector, beat, *, salvage=False, retries=2):
        from repro.core.options import QueryOptions
        from repro.data.uniform import uniform_dataset
        from repro.distrib.protocol import ShardTask
        from repro.distrib.worker import execute_shard

        task = ShardTask(
            shard_id=0,
            dispatch=1,
            attempt_offset=0,
            salvage=salvage,
            tasks=tuple((i, i, None) for i in range(self.N)),
        )
        return execute_shard(
            task,
            dataset=uniform_dataset(self.N, 3, seed=7),
            preferences=HashedPreferenceModel(3, seed=71),
            max_exact_objects=25,
            options=QueryOptions(method="det", det_kernel=kernel, **_QUERY_OPTIONS),
            fault_injector=injector,
            task_retries=retries,
            backoff=0.0,
            beat=beat,
        )

    @pytest.fixture
    def events(self, monkeypatch):
        """Beats, injector calls and recursive Det solves, in order."""
        import repro.core.exact as exact

        log = []
        for name in ("_det_shared_fast", "_det_shared_reference"):
            kernel = getattr(exact, name)

            def recording(*args, _kernel=kernel, **kwargs):
                log.append(("solve",))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(exact, name, recording)
        return log

    @staticmethod
    def _gaps(events):
        """The events between consecutive beats (and before the first)."""
        gaps = [[]]
        for event in events:
            if event == ("beat",):
                gaps.append([])
            else:
                gaps[-1].append(event)
        return gaps

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    @pytest.mark.parametrize("crashing", [False, True])
    def test_no_silence_spans_two_objects(self, events, kernel, crashing):
        from repro.robustness import FaultInjector

        inner = None
        if crashing:
            inner = FaultInjector(
                seed=3, crash_rate=0.4, crash_attempts=2, poison=frozenset({4})
            )
        payload = self._run(
            kernel,
            _RecordingInjector(events, inner),
            lambda done, total: events.append(("beat",)),
            salvage=True,
        )
        answered = len(payload.reports)
        assert answered + len(payload.failures) == self.N
        if crashing:
            assert payload.retries > 0
            assert [position for position, _ in payload.failures] == [4]
        # `det` solves each object as one recursive component
        assert events.count(("solve",)) == answered
        gaps = self._gaps(events)
        assert gaps[0] == []  # the shard beats before any work
        for gap in gaps:
            assert sum(1 for event in gap if event == ("solve",)) <= 1
            assert len({event[1] for event in gap if event[0] == "task"}) <= 1

    @pytest.mark.parametrize("fail_at", [1, N + 1, 2 * N + 1])
    def test_undeliverable_beat_aborts_without_retries(self, events, fail_at):
        beats = []

        def beat(done, total):
            beats.append(done)
            if len(beats) == fail_at:
                raise BrokenPipeError("coordinator gone")

        with pytest.raises(BrokenPipeError):
            self._run("fast", _RecordingInjector(events), beat)
        assert len(beats) == fail_at  # nothing ran on after the failed beat
        # every task was consulted at most once, on its first attempt
        consulted = [event for event in events if event[0] == "task"]
        assert all(attempt == 1 for _, _, attempt in consulted)
        assert len(consulted) == min(fail_at - 1, self.N)

    def test_worker_sends_at_most_one_beat_per_interval(self, monkeypatch):
        from types import SimpleNamespace

        import repro.distrib.worker as worker

        interval = worker._BEAT_INTERVAL
        clock = iter([0.0, 0.4, 1.0, 1.1, 5.0, 5.0])
        monkeypatch.setattr(
            worker, "time", SimpleNamespace(monotonic=lambda: interval * next(clock))
        )
        sent = []
        beat = worker._throttled(lambda done, total: sent.append(done))
        for done in range(6):
            beat(done, 6)
        # the first beat goes out; later ones only a full interval after
        # the last one sent
        assert sent == [0, 2, 4]


def test_pool_chunk_plans_nothing_after_its_first_failure():
    from repro.core.options import QueryOptions
    from repro.distrib import ShardTask, execute_shard

    class Failing:
        def __init__(self):
            self.seen = []

        def before_task(self, index, attempt):
            self.seen.append((index, attempt))
            if index == 5:
                raise RuntimeError("injected")

    dataset, preferences = _grouping_instance()
    injector = Failing()
    tasks = [(position, position, None) for position in range(len(dataset))]
    with pytest.raises(RuntimeError, match="injected"):
        execute_shard(
            ShardTask(0, 1, 0, salvage=False, tasks=tuple(tasks)),
            dataset=dataset,
            preferences=preferences,
            max_exact_objects=25,
            options=QueryOptions(method="auto", det_kernel="auto", **_QUERY_OPTIONS),
            fault_injector=injector,
            task_retries=0,
            backoff=0.0,
        )
    assert injector.seen == [(index, 1) for index in range(6)]
