"""The dynamic engine's views on instances large enough to be tiled.

``DynamicSkylineEngine`` builds and repairs its views through the
engine's planning step, which plans targets with the tile pass once
their ``(target, competitor, dimension)`` cells reach
``_TILE_CROSSOVER``.  The state-machine suite draws instances far below
that, so this module covers the tiled route: each warm view against an
oracle built one target at a time (``preprocess`` partitions, the
members' differing keys, one ``det_from_factor_lists`` call per
component), against a ``det+`` query, and after random edits against a
rebuild, under every Det kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, DynamicSkylineEngine
from repro.core.dominance import dominance_factors
from repro.core.dynamic import PartitionFactor
from repro.core.engine import _TILE_CROSSOVER
from repro.core.exact import DET_KERNELS, det_from_factor_lists
from repro.core.preprocess import _differing_keys, preprocess
from repro.data.blockzipf import block_zipf_dataset
from repro.data.prefgen import random_preferences
from repro.errors import ComputationBudgetError

D = 3


def _oracle_factors(engine, index, kernel):
    """Target ``index``'s factors, built one target at a time."""
    objects = list(engine.dataset)
    target = objects[index]
    competitors = objects[:index] + objects[index + 1 :]
    preferences = engine.preferences
    prep = preprocess(competitors, target, preferences=preferences)
    factors = []
    for part in prep.partitions:
        members = tuple(competitors[position] for position in part)
        keys = frozenset(
            key for member in members for key in _differing_keys(member, target)
        )
        result = det_from_factor_lists(
            [dominance_factors(preferences, member, target) for member in members],
            max_objects=engine.engine.max_exact_objects,
            kernel=kernel,
        )
        factors.append(PartitionFactor(members, keys, result))
    return tuple(factors)


def _rebuild(engine, kernel):
    return DynamicSkylineEngine(
        Dataset(list(engine.dataset)), engine.preferences.copy(), det_kernel=kernel
    )


def _assert_equals_rebuild(engine, kernel):
    rebuilt = _rebuild(engine, kernel)
    assert engine.skyline_probabilities() == rebuilt.skyline_probabilities()
    for index in range(engine.cardinality):
        assert engine.view(index).factors == rebuilt.view(index).factors


def _apply(engine, edit):
    """Apply one drawn edit; picks that would be invalid become no-ops."""
    kind, first, second, third = edit
    objects = list(engine.dataset)
    if kind == "update":
        dimension = first % D
        values = sorted({obj[dimension] for obj in objects})
        a = values[second % len(values)]
        b = values[third % len(values)]
        if a != b:
            engine.update_preference(dimension, a, b, 0.7, 0.2)
    elif kind == "insert":
        # Values of one block: an object bridging blocks would merge
        # their components for every target, past any feasible size.
        block = objects[first % len(objects)][0].split("_")[0]
        mates = [obj for obj in objects if obj[0].startswith(block)]
        candidate = (
            mates[first % len(mates)][0],
            mates[second % len(mates)][1],
            mates[third % len(mates)][2],
        )
        if candidate not in objects:
            engine.insert_object(candidate)
    elif len(objects) > 1:
        engine.remove_object(first % len(objects))


_edits = st.lists(
    st.tuples(
        st.sampled_from(["update", "insert", "remove"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("kernel", DET_KERNELS)
@given(
    n=st.integers(min_value=16, max_value=40),
    seed=st.integers(min_value=0, max_value=10**4),
    edits=_edits,
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tiled_views_match_the_oracle_and_survive_edits(kernel, n, seed, edits):
    dataset = block_zipf_dataset(n, D, seed=seed)
    assert n * (n - 1) * D >= _TILE_CROSSOVER
    engine = DynamicSkylineEngine(
        dataset, random_preferences(dataset, seed=seed + 1), det_kernel=kernel
    )
    for index in range(n):
        view = engine.view(index)
        assert view.factors == _oracle_factors(engine, index, kernel)
        report = engine.skyline_probability(
            index, method="det+", det_kernel=kernel
        )
        assert view.probability == report.probability
    for edit in edits:
        _apply(engine, edit)
    _assert_equals_rebuild(engine, kernel)


def _pinned_engine(kernel="auto", **options):
    dataset = block_zipf_dataset(32, D, seed=41)
    return DynamicSkylineEngine(
        dataset, random_preferences(dataset, seed=42), det_kernel=kernel, **options
    )


def _counts(report):
    return (
        report.targets_refreshed,
        report.targets_skipped,
        report.partitions_recomputed,
        report.partitions_reused,
    )


@pytest.mark.parametrize("kernel", DET_KERNELS)
def test_pinned_edit_reports(kernel):
    # Recorded when every view was built one target at a time.
    engine = _pinned_engine(kernel)
    update = engine.update_preference(0, "b002_d0_v0007", "b002_d0_v0000", 0.85, 0.1)
    assert _counts(update) == (4, 28, 4, 21)
    insert = engine.insert_object(("b002_d0_v0007", "b002_d1_v0000", "b002_d2_v0006"))
    assert _counts(insert) == (29, 3, 40, 140)
    remove = engine.remove_object(5)
    assert _counts(remove) == (32, 0, 31, 160)
    _assert_equals_rebuild(engine, kernel)


def test_component_over_budget_fails_construction():
    largest = max(
        len(factor.members)
        for view in (_pinned_engine().view(i) for i in range(32))
        for factor in view.factors
    )
    assert largest >= 2
    _pinned_engine(max_exact_objects=largest)
    with pytest.raises(ComputationBudgetError, match="exceeds max_exact_objects"):
        _pinned_engine(max_exact_objects=largest - 1)
