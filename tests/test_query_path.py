"""Entry points that share the per-target solve agree on its edges.

The engine, the restriction planner, the dynamic engine, the batch
planner and the shard coordinator resolve targets through one resolver
and solve through one per-target path, so an out-of-range or
non-integer target, a NumPy integer target and an over-budget
component get the same outcome at each of them.  They, and the serving
tier's coalescer, check their query options through one value
(``QueryOptions``), so a bad option raises the same error at each of
them, before any work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DynamicSkylineEngine,
    SkylineProbabilityEngine,
    batch_skyline_probabilities,
    restricted_skyline_probabilities,
)
from repro.data.prefgen import random_preferences
from repro.data.uniform import uniform_dataset
from repro.distrib import DistribConfig, ShardCoordinator
from repro.errors import (
    ComputationBudgetError,
    DatasetError,
    DimensionalityError,
    ReproError,
)


def _engine() -> SkylineProbabilityEngine:
    dataset = uniform_dataset(6, 3, values_per_dimension=3, seed=1)
    return SkylineProbabilityEngine(
        dataset, random_preferences(dataset, seed=2)
    )


#: Each entry point's probability for one target, on a given engine.
ENTRY_POINTS = {
    "engine": lambda engine, target: engine.skyline_probability(
        target
    ).probability,
    "engine restricted": lambda engine, target: engine.skyline_probability(
        target, dims=[0]
    ).probability,
    "planner": lambda engine, target: restricted_skyline_probabilities(
        engine, [target]
    ).probabilities[0][0],
    "dynamic restricted": lambda engine, target: DynamicSkylineEngine(
        engine.dataset, engine.preferences
    ).restricted_skyline_probability(target, dims=[0]).probability,
    "batch": lambda engine, target: batch_skyline_probabilities(
        engine, indices=[target]
    ).probabilities[0],
    "skyline_probabilities": lambda engine, target: (
        engine.skyline_probabilities(indices=[target])[0]
    ),
    "shard coordinator": lambda engine, target: ShardCoordinator(
        engine, DistribConfig(workers=1)
    ).run(indices=[target]).probabilities[0],
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("offset", [-1, 0], ids=["minus-one", "n"])
def test_out_of_range_index_target_is_rejected(entry_point, offset):
    engine = _engine()
    target = -1 if offset < 0 else len(engine.dataset)
    with pytest.raises(DatasetError, match="out of range"):
        ENTRY_POINTS[entry_point](engine, target)


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_non_integer_index_target_is_rejected(entry_point):
    # 2.7 is neither an index nor an object: no entry point truncates it
    # to object 2.
    with pytest.raises(DatasetError, match="integer"):
        ENTRY_POINTS[entry_point](_engine(), 2.7)


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_numpy_integer_index_target_is_an_index(entry_point):
    answer = ENTRY_POINTS[entry_point](_engine(), np.int64(2))
    assert answer == ENTRY_POINTS[entry_point](_engine(), 2)


@pytest.mark.parametrize("share_pass", [True, False])
def test_planner_uses_dynamic_engines_exact_budget(share_pass):
    # The external target has a 3-member component: over a budget of 2.
    dataset = uniform_dataset(14, 3, values_per_dimension=3, seed=1)
    engine = DynamicSkylineEngine(
        dataset, random_preferences(dataset, seed=2), max_exact_objects=2
    )
    with pytest.raises(ComputationBudgetError):
        restricted_skyline_probabilities(
            engine,
            [("d0_v0001", "d1_v0000", "d2_v0000")],
            method="det+",
            share_pass=share_pass,
        )


#: Each entry point that takes a restriction: its probability for one
#: target under ``restriction`` (``competitors``/``dims`` keywords).
RESTRICTED_ENTRY_POINTS = {
    "engine": lambda engine, target, restriction: engine.skyline_probability(
        target, **restriction
    ).probability,
    "planner": lambda engine, target, restriction: (
        restricted_skyline_probabilities(engine, [target], **restriction)
    ).probabilities[0][0],
    "dynamic restricted": lambda engine, target, restriction: (
        DynamicSkylineEngine(engine.dataset, engine.preferences)
        .restricted_skyline_probability(target, **restriction)
        .probability
    ),
    "batch": lambda engine, target, restriction: batch_skyline_probabilities(
        engine, indices=[target], **restriction
    ).probabilities[0],
    "skyline_probabilities": lambda engine, target, restriction: (
        engine.skyline_probabilities(indices=[target], **restriction)[0]
    ),
}


@pytest.mark.parametrize("entry_point", sorted(RESTRICTED_ENTRY_POINTS))
@pytest.mark.parametrize("index", [2.5, "a"], ids=["float", "string"])
def test_non_integer_competitor_index_is_rejected(entry_point, index):
    # 2.5 used to be truncated to object 2, "a" to raise a bare ValueError.
    with pytest.raises(DatasetError, match="integer"):
        RESTRICTED_ENTRY_POINTS[entry_point](
            _engine(), 0, dict(competitors=[index])
        )


@pytest.mark.parametrize("entry_point", sorted(RESTRICTED_ENTRY_POINTS))
def test_non_integer_dimension_is_rejected(entry_point):
    # 1.9 used to be truncated to dimension 1.
    with pytest.raises(DimensionalityError, match="integer"):
        RESTRICTED_ENTRY_POINTS[entry_point](_engine(), 0, dict(dims=[1.9]))


@pytest.mark.parametrize("entry_point", sorted(RESTRICTED_ENTRY_POINTS))
def test_numpy_integer_restriction_is_accepted(entry_point):
    answer = RESTRICTED_ENTRY_POINTS[entry_point](
        _engine(), 0, dict(competitors=[np.int64(2), np.int64(4)], dims=[np.int64(1)])
    )
    assert answer == RESTRICTED_ENTRY_POINTS[entry_point](
        _engine(), 0, dict(competitors=[2, 4], dims=[1])
    )


# ----------------------------------------------------------------------
# The dynamic engine's index targets follow the engine's one index rule.


def _running_dynamic() -> DynamicSkylineEngine:
    from repro.data.examples import running_example

    return DynamicSkylineEngine(*running_example())


def test_dynamic_remove_accepts_a_numpy_integer_index():
    expected = _running_dynamic()
    expected.remove_object(1)
    engine = _running_dynamic()
    engine.remove_object(np.int64(1))
    assert engine.skyline_probabilities() == expected.skyline_probabilities()


@pytest.mark.parametrize("target", [1.5, "a"], ids=["float", "string"])
def test_dynamic_remove_rejects_a_non_integer_index(target):
    engine = _running_dynamic()
    with pytest.raises(DatasetError, match="integer"):
        engine.remove_object(target)
    assert engine.cardinality == 5


def test_dynamic_remove_still_takes_an_objects_values():
    expected = _running_dynamic()
    expected.remove_object(2)
    engine = _running_dynamic()
    engine.remove_object(list(engine.dataset[2]))
    assert engine.skyline_probabilities() == expected.skyline_probabilities()


@pytest.mark.parametrize("index", [1.0, "a"], ids=["float", "string"])
def test_dynamic_view_rejects_a_non_integer_index(index):
    with pytest.raises(DatasetError, match="integer"):
        _running_dynamic().view(index)


def test_dynamic_view_accepts_a_numpy_integer_index():
    engine = _running_dynamic()
    assert engine.view(np.int64(3)) is engine.view(3)
    with pytest.raises(DatasetError, match="out of range"):
        engine.view(5)


# ----------------------------------------------------------------------
# One option contract: every entry point taking an option checks it the
# same way (QueryOptions), before any work.

#: Each invalid option value, as keyword arguments.
BAD_OPTIONS = {
    "method": dict(method="nope"),
    "det_kernel": dict(det_kernel="nope"),
    "epsilon": dict(epsilon=0),
    "samples": dict(samples=2.5),
    "deadline": dict(deadline=-1),
    "on_deadline": dict(on_deadline="nope"),
    "use_absorption": dict(use_absorption="no"),
    "use_partition": dict(use_partition=1),
}

#: The options each entry point that takes only some of them accepts.
PARTIAL_OPTIONS = {
    "planner": {"method", "det_kernel", "epsilon", "delta", "samples"},
    "dynamic restricted": {"method", "det_kernel", "epsilon", "delta", "samples"},
}


def _expected_error(options):
    from repro.core.options import QueryOptions

    with pytest.raises(Exception) as raised:
        QueryOptions(**options)
    return type(raised.value), str(raised.value)


def _engine_attempt(options):
    engine = _engine()
    try:
        engine.skyline_probability(0, **options)
    finally:
        assert engine.cache_info() == {"entries": 0, "hits": 0, "misses": 0}


def _batch_attempt(options):
    engine = _engine()
    try:
        batch_skyline_probabilities(engine, workers=2, **options)
    finally:
        assert engine.cache_info() == {"entries": 0, "hits": 0, "misses": 0}


def _coordinator_attempt(options, monkeypatch):
    import repro.distrib.coordinator as coordinator

    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(coordinator, "_SupervisedRun", no_workers)
    ShardCoordinator(_engine(), DistribConfig(workers=1)).run(**options)


def _planner_attempt(options):
    from repro.core.dominance import DominanceCache

    engine = _engine()
    cache = DominanceCache(engine.preferences)
    try:
        restricted_skyline_probabilities(engine, [0, 1], cache=cache, **options)
    finally:
        assert cache.hits == cache.misses == 0


def _dynamic_attempt(options):
    engine = _engine()
    dynamic = DynamicSkylineEngine(engine.dataset, engine.preferences)
    try:
        dynamic.restricted_skyline_probability(0, dims=[0], **options)
    finally:
        assert dynamic.restricted_cache_info() == {
            "entries": 0, "hits": 0, "misses": 0,
        }


def _coalescer_attempt(options):
    import asyncio

    from repro.serve import QueryCoalescer

    async def submit():
        # A request that joined a bucket would wait out the long window.
        coalescer = QueryCoalescer(_engine(), window=30.0)
        try:
            await asyncio.wait_for(coalescer.submit(0, **options), timeout=5.0)
        finally:
            assert coalescer.pending == 0
            await coalescer.drain()

    asyncio.run(submit())


OPTION_ENTRY_POINTS = {
    "engine": lambda options, monkeypatch: _engine_attempt(options),
    "batch": lambda options, monkeypatch: _batch_attempt(options),
    "shard coordinator": _coordinator_attempt,
    "planner": lambda options, monkeypatch: _planner_attempt(options),
    "dynamic restricted": lambda options, monkeypatch: _dynamic_attempt(options),
    "coalescer": lambda options, monkeypatch: _coalescer_attempt(options),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
@pytest.mark.parametrize("entry_point", sorted(OPTION_ENTRY_POINTS))
def test_bad_option_raises_the_same_error_before_any_work(
    entry_point, case, monkeypatch
):
    options = BAD_OPTIONS[case]
    accepted = PARTIAL_OPTIONS.get(entry_point)
    if accepted is not None and not set(options) <= accepted:
        pytest.skip(f"{entry_point} does not take {case}")
    error_type, message = _expected_error(options)
    with pytest.raises(Exception) as raised:
        OPTION_ENTRY_POINTS[entry_point](options, monkeypatch)
    assert type(raised.value) is error_type
    assert str(raised.value) == message


#: Restrictions that are not sequences, as keyword arguments.
BAD_RESTRICTIONS = {
    "competitors": dict(competitors=3),
    "dims": dict(dims=3),
}


def _dynamic_restriction_attempt(options):
    engine = _engine()
    dynamic = DynamicSkylineEngine(engine.dataset, engine.preferences)
    try:
        dynamic.restricted_skyline_probability(0, **options)
    finally:
        assert dynamic.restricted_cache_info() == {
            "entries": 0, "hits": 0, "misses": 0,
        }


@pytest.mark.parametrize("case", sorted(BAD_RESTRICTIONS))
@pytest.mark.parametrize("entry_point", sorted(OPTION_ENTRY_POINTS))
def test_restriction_that_is_not_a_sequence_raises_before_any_work(
    entry_point, case, monkeypatch
):
    # It used to be a bare TypeError everywhere but the coalescer.
    from repro.errors import ServingError

    options = BAD_RESTRICTIONS[case]
    error_type, message = _expected_error(options)
    assert error_type is (DatasetError if case == "competitors" else DimensionalityError)
    assert message == f"{case} must be a sequence of integers or None, got 3"
    attempt = OPTION_ENTRY_POINTS[entry_point]
    if entry_point == "dynamic restricted":
        attempt = lambda options, monkeypatch: _dynamic_restriction_attempt(options)
    if entry_point == "coalescer":
        error_type = ServingError
    with pytest.raises(Exception) as raised:
        attempt(options, monkeypatch)
    assert type(raised.value) is error_type
    assert str(raised.value) == message


@pytest.mark.parametrize("entry_point", sorted(PARTIAL_OPTIONS))
def test_partial_entry_points_refuse_the_options_they_do_not_take(entry_point):
    with pytest.raises(TypeError, match="deadline"):
        OPTION_ENTRY_POINTS[entry_point](dict(deadline=1.0), None)


def test_boolean_switches_are_checked():
    # "no" used to read as true, and absorption ran.
    engine = _engine()
    for switch in ("use_absorption", "use_partition"):
        for value in ("no", 1, 0, None):
            with pytest.raises(ReproError, match=f"{switch} must be True or False"):
                engine.skyline_probability(0, method="det+", **{switch: value})


def test_restricted_coordinator_run_equals_the_restricted_batch():
    engine = _engine()
    restriction = dict(competitors=[0, 2, 3, 5], dims=[0, 2])
    batch = batch_skyline_probabilities(
        engine, method="sam+", seed=3, samples=200, **restriction
    )
    sharded = ShardCoordinator(
        SkylineProbabilityEngine(engine.dataset, engine.preferences),
        DistribConfig(workers=1, max_shard_objects=2),
    ).run(method="sam+", seed=3, samples=200, **restriction)
    assert len(sharded.shards) > 1
    for name in ("indices", "reports", "method", "workers", "failures", "retries"):
        assert getattr(sharded.batch, name) == getattr(batch, name), name
    exact = batch_skyline_probabilities(engine, method="det+", **restriction)
    assert exact.probabilities != batch_skyline_probabilities(
        engine, method="det+"
    ).probabilities
    assert ShardCoordinator(engine, DistribConfig(workers=1)).run(
        method="det+", **restriction
    ).batch.reports == exact.reports


def test_coordinator_checks_the_restriction_before_any_worker(monkeypatch):
    with pytest.raises(DimensionalityError, match="outside the space"):
        _coordinator_attempt(dict(dims=[7]), monkeypatch)
    with pytest.raises(DatasetError, match="out of range"):
        _coordinator_attempt(dict(competitors=[99]), monkeypatch)


def test_one_options_value_declares_the_twelve_options():
    from repro import QueryOptions
    from repro.serve import COALESCE_OPTION_FIELDS

    assert COALESCE_OPTION_FIELDS == tuple(QueryOptions().as_kwargs())
    assert len(COALESCE_OPTION_FIELDS) == 12
    # Restrictions are held sorted and de-duplicated, NumPy integers as
    # ints, so two spellings of one restriction are one coalescing key.
    spelled = QueryOptions(competitors=[3, 1, np.int64(1)], dims=(np.int64(2),))
    assert spelled.competitors == (1, 3) and spelled.dims == (2,)
    assert spelled.key == QueryOptions(competitors=(1, 3), dims=[2]).key
    assert QueryOptions(**spelled.as_kwargs()) == spelled
