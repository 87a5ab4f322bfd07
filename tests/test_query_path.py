"""Entry points that share the per-target solve agree on its edges.

The engine, the restriction planner and the dynamic engine resolve
targets through one resolver and solve through one per-target path, so
an out-of-range target and an over-budget component get the same
outcome at each of them.
"""

from __future__ import annotations

import pytest

from repro import (
    DynamicSkylineEngine,
    SkylineProbabilityEngine,
    restricted_skyline_probabilities,
)
from repro.data.prefgen import random_preferences
from repro.data.uniform import uniform_dataset
from repro.errors import ComputationBudgetError, DatasetError


def _engine() -> SkylineProbabilityEngine:
    dataset = uniform_dataset(6, 3, values_per_dimension=3, seed=1)
    return SkylineProbabilityEngine(
        dataset, random_preferences(dataset, seed=2)
    )


ENTRY_POINTS = {
    "engine": lambda engine, target: engine.skyline_probability(target),
    "engine restricted": lambda engine, target: engine.skyline_probability(
        target, dims=[0]
    ),
    "planner": lambda engine, target: restricted_skyline_probabilities(
        engine, [target]
    ),
    "dynamic restricted": lambda engine, target: DynamicSkylineEngine(
        engine.dataset, engine.preferences
    ).restricted_skyline_probability(target, dims=[0]),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("offset", [-1, 0], ids=["minus-one", "n"])
def test_out_of_range_index_target_is_rejected(entry_point, offset):
    engine = _engine()
    target = -1 if offset < 0 else len(engine.dataset)
    with pytest.raises(DatasetError, match="out of range"):
        ENTRY_POINTS[entry_point](engine, target)


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
