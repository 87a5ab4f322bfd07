"""Preference edits repaired in place, and the zero crossings that re-plan.

A preference edit changes no ``Γ`` set, so a refreshed target keeps its
absorption and partition: each component that reads the edited pair
gets a new factor row from its own members, and every other factor is
kept.  Only a read pair that crosses 0 (or becomes unreadable) moves the
kept set, and only then is the target re-planned.  Every case below is
checked by ``repr`` against a fresh rebuild of the final state, and the
route each refreshed target took is read from the obs registry.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.obs as obs
from repro import Dataset, DynamicSkylineEngine, PreferenceModel
from repro.core.engine import _TILE_CROSSOVER, SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.prefgen import random_preferences
from repro.data.procedural import HashedPreferenceModel
from repro.errors import UnknownPreferenceError
from repro.robustness import FaultInjector, InjectedFault

_ROUTES = "repro_dynamic_targets_refreshed_total"


def _engine(preferences=None, n=36, seed=3, **options):
    dataset = block_zipf_dataset(n, 3, seed=seed)
    if preferences is None:
        preferences = random_preferences(dataset, seed=seed + 1)
    return DynamicSkylineEngine(dataset, preferences, **options)


def _dump(engine):
    return [repr(engine.view(index)) for index in range(engine.cardinality)]


def _assert_equals_rebuild(engine):
    rebuilt = DynamicSkylineEngine(
        Dataset(list(engine.dataset)), engine.preferences.copy()
    )
    assert _dump(engine) == _dump(rebuilt)
    assert engine.skyline_probabilities() == rebuilt.skyline_probabilities()


def _read_pair(engine, target=0):
    """A pair ``target`` reads through a member of a multi-member factor.

    Returns ``(dimension, member value, target value, member)``.
    """
    view = engine.view(target)
    for factor in sorted(view.factors, key=lambda factor: -len(factor.members)):
        for member in factor.members:
            for dimension, value in enumerate(member):
                if value != view.target[dimension]:
                    return dimension, value, view.target[dimension], member
    raise AssertionError("the target reads no pair")


@contextmanager
def _counting():
    """Obs on, with the global registry zeroed before and after."""
    with obs.enabled() as registry:
        registry.reset()
        try:
            yield registry
        finally:
            registry.reset()


def _routes(registry):
    counter = registry.counter(_ROUTES)
    return counter.value(route="local"), counter.value(route="replan")


def test_a_read_pair_set_to_zero_drops_its_holders():
    engine = _engine()
    dimension, value, own, member = _read_pair(engine)
    assert member in engine.view(0).member_union
    with _counting() as registry:
        engine.update_preference(dimension, value, own, 0.0, 0.6)
        local, replan = _routes(registry)
    assert replan >= 1 and local >= 1  # the other orientation stays nonzero
    assert member not in engine.view(0).member_union
    _assert_equals_rebuild(engine)


def test_a_pair_set_from_zero_back_lets_an_impossible_competitor_rejoin():
    engine = _engine()
    dimension, value, own, member = _read_pair(engine)
    engine.update_preference(dimension, value, own, 0.0, 0.6)
    assert member not in engine.view(0).member_union
    with _counting() as registry:
        engine.update_preference(dimension, value, own, 0.35, 0.6)
        _, replan = _routes(registry)
    assert replan >= 1
    assert member in engine.view(0).member_union
    _assert_equals_rebuild(engine)


def test_direct_edits_through_zero_inside_one_gap():
    engine = _engine()
    dimension, value, own, _ = _read_pair(engine)
    before = engine.view(0)
    with _counting() as registry:
        for forward in (0.3, 0.0, 0.4):
            engine.preferences.set_preference(dimension, value, own, forward, 0.5)
        assert _routes(registry) == (0, 0)  # caught up at the next read
        after = engine.view(0)
        local, replan = _routes(registry)
    # Both ends of the gap are nonzero: the kept set did not move.
    assert local >= 1 and replan == 0
    assert after.member_union == before.member_union
    assert after.probability != before.probability
    _assert_equals_rebuild(engine)


def test_delete_back_to_a_nonzero_default():
    dataset = block_zipf_dataset(36, 3, seed=3)
    strict = random_preferences(dataset, seed=4)
    preferences = PreferenceModel(3, default=0.3)
    for dimension in range(3):
        for pair in strict.pairs(dimension):
            preferences.set_preference(
                dimension, pair.a, pair.b, pair.forward, pair.backward
            )
    engine = DynamicSkylineEngine(dataset, preferences)
    dimension, value, own, member = _read_pair(engine)
    with _counting() as registry:
        assert preferences.delete_preference(dimension, value, own)
        engine.skyline_probabilities()
        _, replan = _routes(registry)
    assert replan == 0
    assert member in engine.view(0).member_union
    _assert_equals_rebuild(engine)


def test_delete_to_no_default_raises_as_a_rebuild_would():
    engine = _engine()
    dimension, value, own, _ = _read_pair(engine)
    pair = next(
        pair
        for pair in engine.preferences.pairs(dimension)
        if {pair.a, pair.b} == {value, own}
    )
    engine.preferences.delete_preference(dimension, value, own)
    for _ in range(2):  # nothing was committed: the next read raises too
        with pytest.raises(UnknownPreferenceError):
            engine.skyline_probabilities()
    with pytest.raises(UnknownPreferenceError):
        DynamicSkylineEngine(
            Dataset(list(engine.dataset)), engine.preferences.copy()
        )
    engine.preferences.set_preference(
        dimension, pair.a, pair.b, pair.forward, pair.backward
    )
    _assert_equals_rebuild(engine)


def test_an_overridden_pair_on_a_hashed_model():
    dataset = block_zipf_dataset(30, 3, seed=9)
    engine = DynamicSkylineEngine(dataset, HashedPreferenceModel(3, seed=10))
    dimension, value, own, member = _read_pair(engine)
    assert not engine.preferences.has_preference(dimension, value, own)
    with _counting() as registry:
        engine.update_preference(dimension, value, own, 0.9, 0.05)
        local, replan = _routes(registry)
    assert local >= 1 and replan == 0
    assert member in engine.view(0).member_union
    _assert_equals_rebuild(engine)
    # A direct override, then its removal back to the generator's value.
    engine.preferences.set_preference(dimension, value, own, 0.2, 0.7)
    _assert_equals_rebuild(engine)
    engine.preferences.delete_preference(dimension, value, own)
    _assert_equals_rebuild(engine)


def test_a_rolled_back_update_leaves_the_views_untouched():
    engine = _engine(fault_injector=FaultInjector(poison=frozenset({0})))
    dimension, value, own, _ = _read_pair(engine)
    before = _dump(engine)
    with pytest.raises(InjectedFault):
        engine.update_preference(dimension, value, own, 0.0, 0.6)
    assert _dump(engine) == before
    _assert_equals_rebuild(engine)


def _widest_pair(engine):
    """The dimension-0 pair of the two values most objects hold."""
    held = {}
    for values in engine.dataset:
        held[values[0]] = held.get(values[0], 0) + 1
    a, b = sorted(held, key=lambda value: (-held[value], value))[:2]
    return a, b, held[a] + held[b]


def test_an_update_without_a_zero_crossing_plans_no_tile(monkeypatch):
    engine = _engine(n=60)
    a, b, refreshed = _widest_pair(engine)
    cells = refreshed * (engine.cardinality - 1) * 3
    assert cells >= _TILE_CROSSOVER  # a re-plan of them all would tile

    def no_tile(*args, **kwargs):
        raise AssertionError("a preference edit re-planned its targets")

    monkeypatch.setattr(SkylineProbabilityEngine, "_plan_tile", no_tile)
    with _counting() as registry:
        report = engine.update_preference(0, a, b, 0.6, 0.3)
        local, replan = _routes(registry)
    assert report.targets_refreshed == refreshed == local
    assert replan == 0
    assert report.partitions_recomputed >= 1
    monkeypatch.undo()
    _assert_equals_rebuild(engine)
