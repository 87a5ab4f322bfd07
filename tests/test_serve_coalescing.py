"""Differential tests of the serving tier's request coalescer.

The headline contract (ISSUE: serving tentpole): an answer served out
of a coalesced batch is **bit-identical** to the answer the same request
would get from a direct ``batch_skyline_probabilities`` call — same
probability, same sample count — because the coalescer derives each
request's stream from the request's own seed instead of its accidental
batch position.  The rest of the suite pins the mechanics: bucketing by
option compatibility, the ``max_batch`` fast path, admission control,
and failure isolation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Dataset, DynamicSkylineEngine, PreferenceModel
from repro.core.batch import batch_skyline_probabilities
from repro.errors import (
    AdmissionRejectedError,
    DatasetError,
    EstimationError,
    ServingError,
)
from repro.serve import QueryCoalescer, spawn_request_seed


def _engine() -> DynamicSkylineEngine:
    objects = [
        ("a", "x"),
        ("a", "y"),
        ("b", "x"),
        ("b", "z"),
        ("c", "y"),
        ("c", "z"),
    ]
    preferences = PreferenceModel(2, default=0.5)
    preferences.set_preference(0, "a", "b", 0.7, 0.2)
    preferences.set_preference(0, "a", "c", 0.6, 0.3)
    preferences.set_preference(0, "b", "c", 0.4, 0.4)
    preferences.set_preference(1, "x", "y", 0.55, 0.35)
    preferences.set_preference(1, "x", "z", 0.8, 0.1)
    preferences.set_preference(1, "y", "z", 0.3, 0.6)
    return DynamicSkylineEngine(Dataset(objects), preferences)


def _run(coroutine):
    return asyncio.run(coroutine)


class TestSeedSpawning:
    def test_none_spawns_none(self):
        assert spawn_request_seed(None) is None

    def test_spawn_matches_direct_single_query_stream(self):
        engine = _engine()
        direct = batch_skyline_probabilities(
            engine, indices=[2], seed=77, method="sam", samples=150,
            workers=1,
        ).probabilities[0]
        via_spawn = batch_skyline_probabilities(
            engine, indices=[2], seeds=[spawn_request_seed(77)],
            method="sam", samples=150, workers=1,
        ).probabilities[0]
        assert via_spawn == direct


class TestBitIdentity:
    def test_coalesced_answers_equal_direct_queries(self):
        engine = _engine()
        request_seeds = [501, 502, 503, 504]
        indices = [0, 2, 4, 5]

        async def serve():
            trace: list = []
            coalescer = QueryCoalescer(engine, window=0.05, trace=trace)
            answers = await asyncio.gather(
                *(
                    coalescer.submit(
                        index, seed=seed, method="sam", samples=150
                    )
                    for index, seed in zip(indices, request_seeds)
                )
            )
            await coalescer.drain()
            return answers, trace

        answers, trace = _run(serve())
        # One batch served all four requests...
        assert [entry["kind"] for entry in trace] == ["query"]
        assert all(answer.batch_size == 4 for answer in answers)
        assert all(answer.coalesced for answer in answers)
        # ...and every answer is bit-identical to the one a direct
        # single-object call with the same seed produces.
        for index, seed, answer in zip(indices, request_seeds, answers):
            direct = batch_skyline_probabilities(
                engine, indices=[index], seed=seed, method="sam",
                samples=150, workers=1, cache=engine.cache,
            ).reports[0]
            assert answer.report.probability == direct.probability
            assert answer.report.samples == direct.samples

    def test_exact_queries_coalesce_too(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.05)
            answers = await asyncio.gather(
                *(coalescer.submit(index) for index in range(4))
            )
            await coalescer.drain()
            return answers

        answers = _run(serve())
        expected = engine.skyline_probabilities()
        assert [a.report.probability for a in answers] == expected[:4]
        assert all(a.report.exact for a in answers)


class TestBucketing:
    def test_incompatible_options_get_separate_batches(self):
        engine = _engine()

        async def serve():
            trace: list = []
            coalescer = QueryCoalescer(engine, window=0.05, trace=trace)
            await asyncio.gather(
                coalescer.submit(0, seed=1, method="sam", samples=100),
                coalescer.submit(1, seed=2, method="sam", samples=100),
                coalescer.submit(2, seed=3, method="sam", samples=200),
            )
            await coalescer.drain()
            return trace

        trace = _run(serve())
        assert len(trace) == 2
        assert sorted(len(entry["indices"]) for entry in trace) == [1, 2]

    def test_explicit_default_kernel_shares_the_bucket(self):
        # the bucket key fills omitted options from the same default the
        # engine's memo key uses, so naming it changes nothing
        engine = _engine()

        async def serve():
            trace: list = []
            coalescer = QueryCoalescer(engine, window=0.05, trace=trace)
            answers = await asyncio.gather(
                coalescer.submit(0, det_kernel="auto"),
                coalescer.submit(1),
            )
            await coalescer.drain()
            return answers, trace

        answers, trace = _run(serve())
        assert len(trace) == 1
        assert sorted(trace[0]["indices"]) == [0, 1]
        assert all(answer.batch_size == 2 for answer in answers)

    def test_max_batch_flushes_immediately(self):
        engine = _engine()

        async def serve():
            trace: list = []
            # A window long enough that only the max_batch fast path can
            # explain a batch executing.
            coalescer = QueryCoalescer(
                engine, window=5.0, max_batch=2, trace=trace
            )
            answers = await asyncio.gather(
                *(
                    coalescer.submit(index, seed=index, method="sam",
                                     samples=100)
                    for index in range(4)
                )
            )
            await coalescer.drain()
            return answers, trace

        answers, trace = _run(serve())
        assert len(trace) == 2
        assert all(answer.batch_size == 2 for answer in answers)

    def test_unknown_option_is_rejected_up_front(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.01)
            with pytest.raises(ServingError, match="unknown query option"):
                await coalescer.submit(0, typo_option=3)
            await coalescer.drain()

        _run(serve())


class TestAdmissionAndFailure:
    def test_admission_control_rejects_over_the_bound(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(
                engine, window=5.0, max_pending=2
            )
            first = asyncio.ensure_future(
                coalescer.submit(0, seed=1, method="sam", samples=100)
            )
            second = asyncio.ensure_future(
                coalescer.submit(1, seed=2, method="sam", samples=100)
            )
            await asyncio.sleep(0)
            assert coalescer.pending == 2
            with pytest.raises(AdmissionRejectedError):
                await coalescer.submit(2, seed=3, method="sam", samples=100)
            coalescer.flush()
            answers = await asyncio.gather(first, second)
            await coalescer.drain()
            return answers

        answers = _run(serve())
        assert all(answer.report.samples == 100 for answer in answers)

    def test_stale_index_fails_alone(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.05)
            good = asyncio.ensure_future(
                coalescer.submit(0, seed=1, method="sam", samples=100)
            )
            bad = asyncio.ensure_future(
                coalescer.submit(99, seed=2, method="sam", samples=100)
            )
            results = await asyncio.gather(good, bad, return_exceptions=True)
            await coalescer.drain()
            return results

        good, bad = _run(serve())
        assert good.report.samples == 100
        assert isinstance(bad, DatasetError)
        assert "99" in str(bad)

    def test_deterministic_option_error_reaches_every_request(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.05)
            results = await asyncio.gather(
                coalescer.submit(0, method="sam", epsilon=-1.0),
                coalescer.submit(1, method="sam", epsilon=-1.0),
                return_exceptions=True,
            )
            await coalescer.drain()
            return results

        results = _run(serve())
        assert all(isinstance(r, EstimationError) for r in results)

    def test_draining_coalescer_refuses_new_queries(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.01)
            await coalescer.drain()
            with pytest.raises(ServingError, match="draining"):
                await coalescer.submit(0)

        _run(serve())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": -1.0},
            {"window": "soon"},
            {"max_batch": 0},
            {"max_pending": 0},
            {"max_batch": 2.5},
        ],
    )
    def test_bad_construction_parameters(self, kwargs):
        with pytest.raises(ServingError):
            QueryCoalescer(_engine(), **kwargs)

    def test_non_integer_target_is_rejected(self):
        engine = _engine()

        async def serve():
            coalescer = QueryCoalescer(engine, window=0.01)
            with pytest.raises(ServingError, match="object index"):
                await coalescer.submit("zero")
            await coalescer.drain()

        _run(serve())
