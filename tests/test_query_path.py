"""Entry points that share the per-target solve agree on its edges.

The engine, the restriction planner, the dynamic engine, the batch
planner and the shard coordinator resolve targets through one resolver
and solve through one per-target path, so an out-of-range or
non-integer target, a NumPy integer target and an over-budget
component get the same outcome at each of them.
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
from repro.errors import ComputationBudgetError, DatasetError, DimensionalityError


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
