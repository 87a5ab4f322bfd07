"""The restriction planner's shared pass on grids the tile pass plans.

:func:`repro.restricted_skyline_probabilities` opens every cell of a
``targets × restrictions`` grid as an engine query, plans each
restriction's cells through the engine's planning step (the tile pass
once they reach ``_TILE_CROSSOVER`` cells) and solves every component
in one exact call.  On a :class:`repro.DynamicSkylineEngine` each cell
first reads the engine's restricted memo.  The differential suite's
instances never reach the tile, so this module draws block-zipf grids
above the crossover and holds the shared pass to ``share_pass=False``
by ``repr``, on static engines and on dynamic engines after every step
of an edit script; it also pins the plan's structure (one exact call,
no planning for memo-served cells) and its error order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    DominanceCache,
    DynamicSkylineEngine,
    SkylineProbabilityEngine,
    restricted_skyline_probabilities,
)
import repro.core.engine as engine_module
from repro.core.engine import _TILE_CROSSOVER
from repro.core.exact import DET_KERNELS
from repro.data.blockzipf import block_zipf_dataset
from repro.data.prefgen import ordered_values, random_preferences
from repro.errors import ComputationBudgetError, PreferenceError, ReproError
from strategies import strict_block_zipf

#: The crossover the hypothesis suites plan with.  A column of the grid
#: holds at most ``5 * 39 * 4`` cells here, and a one-target column at
#: most ``39 * 4``, so at the real crossover few drawn grids would tile;
#: at this one most columns of the larger instances do, and the smallest
#: are still planned one target at a time.
CROSSOVER = 100
assert CROSSOVER < _TILE_CROSSOVER


@pytest.fixture
def crossover(monkeypatch):
    monkeypatch.setattr(engine_module, "_TILE_CROSSOVER", CROSSOVER)


def _preferences(dataset, seed, sparse):
    """Random preferences; ``sparse`` makes most pairs certain.

    A certain pair gives a zero factor to every competitor beating the
    target only through it, so a ``det`` cell keeps few dominators.
    """
    preferences = random_preferences(dataset, seed=seed)
    if sparse:
        rng = random.Random(seed)
        for dimension, values in enumerate(ordered_values(dataset)):
            for position, a in enumerate(values):
                for b in values[position + 1 :]:
                    if rng.random() < 0.85:
                        certain = float(rng.random() < 0.5)
                        preferences.set_preference(
                            dimension, a, b, certain, 1.0 - certain
                        )
    return preferences


@st.composite
def grid_instance(draw, max_targets=5):
    """``(dataset, preferences seed, targets, restrictions)`` on block-zipf."""
    n = draw(st.integers(min_value=16, max_value=40))
    d = draw(st.integers(min_value=3, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10**4))
    dataset = block_zipf_dataset(n, d, seed=seed)
    objects = list(dataset)
    targets = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_targets))):
        if draw(st.booleans()):
            targets.append(draw(st.integers(min_value=0, max_value=n - 1)))
        else:
            # Values of existing objects: sometimes a new object,
            # sometimes equal to one (the duplicate convention).
            targets.append(
                tuple(
                    objects[draw(st.integers(min_value=0, max_value=n - 1))][j]
                    for j in range(d)
                )
            )
    subsets = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=0, max_size=n
    )
    dims = st.lists(
        st.integers(min_value=0, max_value=d - 1), min_size=1, max_size=d
    )
    restriction = st.one_of(
        st.just((None, None)),
        st.tuples(subsets, st.none()),
        st.tuples(st.none(), dims),
        st.tuples(subsets, dims),
        st.just(([], None)),
    )
    restrictions = draw(st.lists(restriction, min_size=2, max_size=4))
    return dataset, seed, targets, restrictions


def _outcome(call):
    """The grid's reports by ``repr``, or the error it raised."""
    try:
        return repr(call().reports)
    except ReproError as error:
        return type(error), str(error)


def _both(engine, targets, restrictions, **options):
    shared, oracle = (
        _outcome(
            lambda: restricted_skyline_probabilities(
                engine, targets, restrictions=restrictions,
                share_pass=share_pass, **options,
            )
        )
        for share_pass in (True, False)
    )
    return shared, oracle


@pytest.mark.parametrize("kernel", DET_KERNELS)
@pytest.mark.parametrize("method", ["det", "det+", "auto"])
@given(instance=grid_instance(), sparse=st.booleans())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_shared_pass_equals_one_query_per_cell(
    crossover, kernel, method, instance, sparse
):
    dataset, seed, targets, restrictions = instance
    # A det cell solves its whole pool: certain pairs and a tight budget
    # keep the cells that do answer cheap under the reference kernel.
    det = method == "det"
    engine = SkylineProbabilityEngine(
        dataset,
        _preferences(dataset, seed, sparse or det),
        max_exact_objects=12 if det else 25,
    )
    shared, oracle = _both(
        engine, targets, restrictions, method=method, det_kernel=kernel, seed=7
    )
    assert shared == oracle


# ----------------------------------------------------------------------
# Dynamic engines: the grid reads and fills the restricted memo.

D = 3


def _apply(engine, edit):
    """Apply one drawn edit; picks that would be invalid become no-ops."""
    kind, first, second, third = edit
    objects = list(engine.dataset)
    if kind == "update":
        dimension = first % D
        values = sorted({obj[dimension] for obj in objects})
        a, b = values[second % len(values)], values[third % len(values)]
        if a != b:
            engine.update_preference(dimension, a, b, 0.7, 0.2)
    elif kind == "insert":
        # Values of one block: an object bridging blocks would merge
        # components past any feasible size.
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


def _fresh_grid(dynamic, targets, restrictions, **options):
    """The grid a fresh static engine over ``dynamic``'s state answers."""
    fresh = SkylineProbabilityEngine(
        Dataset(list(dynamic.dataset)), dynamic.preferences.copy()
    )
    return restricted_skyline_probabilities(
        fresh, targets, restrictions=restrictions, share_pass=False, **options
    )


@pytest.mark.parametrize("kernel", DET_KERNELS)
@given(
    n=st.integers(min_value=16, max_value=40),
    seed=st.integers(min_value=0, max_value=10**4),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=8),
    edits=_edits,
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_dynamic_grid_equals_a_fresh_engine_after_every_edit(
    crossover, kernel, n, seed, picks, edits
):
    dataset = block_zipf_dataset(n, D, seed=seed)
    dynamic = DynamicSkylineEngine(
        dataset, random_preferences(dataset, seed=seed + 1), det_kernel=kernel
    )
    external = tuple(dataset[picks[j] % n][j] for j in range(D))
    options = dict(method="det+", det_kernel=kernel)
    for step in range(len(edits) + 1):
        count = dynamic.cardinality
        targets = [picks[3] % count, picks[-1] % count, external]
        restrictions = [
            (None, None),
            (None, [picks[0] % D, picks[1] % D]),
            (sorted({pick % count for pick in picks}), None),
            ([], [picks[2] % D]),
        ]
        for _ in range(2):  # the second grid is served from the memo
            grid = restricted_skyline_probabilities(
                dynamic, targets, restrictions=restrictions,
                cache=dynamic.cache, **options,
            )
            fresh = _fresh_grid(dynamic, targets, restrictions, **options)
            assert repr(grid.reports) == repr(fresh.reports)
        if step < len(edits):
            _apply(dynamic, edits[step])


# ----------------------------------------------------------------------
# Structure: one exact call, and no planning for memo-served cells.


def _pinned(kernel="auto", **options):
    dataset = block_zipf_dataset(32, D, seed=41)
    return DynamicSkylineEngine(
        dataset, random_preferences(dataset, seed=42), det_kernel=kernel, **options
    )


#: Four targets and three subspaces through dimensions 0 and 1: an edit
#: on dimension 2 touches none of the grid's cells.
TARGETS = [0, 5, 9, 30]
SUBSPACES = [(None, [0, 1]), (None, [0]), ([1, 2, 3, 4, 5, 6, 7], [1])]


@pytest.fixture
def counted(monkeypatch):
    """Counts of the engine's planning and exact calls."""
    calls = {"_plan_queries": 0, "_exact": 0}
    for name in calls:
        original = getattr(SkylineProbabilityEngine, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SkylineProbabilityEngine, name, counting)
    return calls


def test_a_grid_untouched_by_an_edit_is_served_without_planning(counted):
    dynamic = _pinned()
    first = restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    info = dynamic.restricted_cache_info()
    assert info == {"entries": 12, "hits": 0, "misses": 12}
    values = sorted({obj[2] for obj in dynamic.dataset})
    report = dynamic.update_preference(2, values[0], values[1], 0.9, 0.05)
    assert report.restricted_evictions == 0
    counted.update(dict.fromkeys(counted, 0))  # the edit's own calls
    again = restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    assert counted == {"_plan_queries": 0, "_exact": 0}
    assert dynamic.restricted_cache_info() == {"entries": 12, "hits": 12, "misses": 12}
    assert again.reports == first.reports
    assert (again.factor_passes, again.component_solves, again.component_hits) == (0, 0, 0)
    assert repr(again.reports) == repr(
        _fresh_grid(dynamic, TARGETS, SUBSPACES).reports
    )


def test_an_edit_re_plans_only_the_cells_it_touches():
    dynamic = _pinned()
    restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    target = dynamic.dataset[TARGETS[0]]
    others = sorted({obj[0] for obj in dynamic.dataset} - {target[0]})
    report = dynamic.update_preference(0, target[0], others[0], 0.9, 0.05)
    assert 0 < report.restricted_evictions < 12
    grid = restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    info = dynamic.restricted_cache_info()
    assert info["hits"] == 12 - report.restricted_evictions
    assert info["entries"] == 12
    assert repr(grid.reports) == repr(_fresh_grid(dynamic, TARGETS, SUBSPACES).reports)


@pytest.mark.parametrize("grid_first", [True, False])
def test_grid_cells_and_single_queries_share_one_memo(grid_first):
    dynamic = _pinned()
    competitors, dims = SUBSPACES[2]

    def single():
        return dynamic.restricted_skyline_probability(
            TARGETS[1], competitors=competitors, dims=dims, det_kernel="auto"
        )

    def cell():
        grid = restricted_skyline_probabilities(
            dynamic, [TARGETS[1]], competitors=competitors, dims=dims
        )
        return grid.report(0, 0)

    first, second = (cell, single) if grid_first else (single, cell)
    answer = first()
    assert dynamic.restricted_cache_info() == {"entries": 1, "hits": 0, "misses": 1}
    assert second() is answer
    assert dynamic.restricted_cache_info() == {"entries": 1, "hits": 1, "misses": 1}
    assert repr(answer) == repr(
        dynamic.engine.skyline_probability(
            TARGETS[1], competitors=competitors, dims=dims
        )
    )


def test_each_grid_makes_one_exact_call_and_tiles(counted, monkeypatch):
    import repro.core.engine as engine_module

    dataset = block_zipf_dataset(40, 4, seed=3)
    engine = SkylineProbabilityEngine(dataset, random_preferences(dataset, seed=4))
    tiles = []
    original = SkylineProbabilityEngine._plan_tile

    def tiling(self, tile):
        tiles.append(len(tile))
        return original(self, tile)

    monkeypatch.setattr(SkylineProbabilityEngine, "_plan_tile", tiling)

    def no_preprocess(*args, **kwargs):
        raise AssertionError("a tiled cell was planned alone")

    monkeypatch.setattr(engine_module, "preprocess", no_preprocess)
    targets = [0, 7, 19, 33, dataset[5][:2] + dataset[6][2:]]
    # Every column reaches the crossover; target 19 is a projected
    # duplicate in the second, answered 0 without planning.
    restrictions = [(None, None), (None, [0, 1, 2]), (list(range(30)), None)]
    result = restricted_skyline_probabilities(engine, targets, restrictions=restrictions)
    assert counted == {"_plan_queries": 3, "_exact": 1}
    assert tiles == [5, 4, 5]
    assert result.report(2, 1).duplicate_target
    monkeypatch.undo()
    oracle = restricted_skyline_probabilities(
        engine, targets, restrictions=restrictions, share_pass=False
    )
    assert repr(result.reports) == repr(oracle.reports)
    assert result.component_solves > 0


def test_counters_describe_the_plan(counted):
    dataset = block_zipf_dataset(24, 3, seed=8)
    engine = SkylineProbabilityEngine(dataset, random_preferences(dataset, seed=9))
    restrictions = [([1, 2, 3, 4], None), ([1, 2, 3, 4], None), ([5, 6], None)]
    result = restricted_skyline_probabilities(
        engine, [0, 2], restrictions=restrictions, method="det"
    )
    # Target 0 faces 1-6, target 2 faces 1 and 3-6.
    assert result.factor_passes == 6 + 5
    # One det component per cell; the repeated restriction's are solved once.
    assert (result.component_solves, result.component_hits) == (4, 2)
    assert counted == {"_plan_queries": 3, "_exact": 1}


# ----------------------------------------------------------------------
# Errors.


def test_the_first_failing_cell_in_row_major_order_raises():
    dataset = block_zipf_dataset(32, D, seed=41)
    engine = SkylineProbabilityEngine(
        dataset, random_preferences(dataset, seed=42), max_exact_objects=2
    )
    # Cell (0, 1) fails its det+ budget before row 1's bad index.
    restrictions = [([1, 2], [0]), (None, None)]
    with pytest.raises(ComputationBudgetError) as shared:
        restricted_skyline_probabilities(
            engine, [0, 10**6], restrictions=restrictions, method="det+"
        )
    with pytest.raises(ComputationBudgetError) as oracle:
        restricted_skyline_probabilities(
            engine, [0, 10**6], restrictions=restrictions, method="det+",
            share_pass=False,
        )
    assert str(shared.value) == str(oracle.value)
    with pytest.raises(ReproError, match="out of range"):
        restricted_skyline_probabilities(
            engine, [10**6, 0], restrictions=restrictions, method="det+"
        )


@pytest.mark.parametrize("method", ["det", "det+", "auto"])
def test_failing_preference_reads_raise_in_row_major_order(method):
    dataset, preferences = strict_block_zipf()
    engine = SkylineProbabilityEngine(dataset, preferences, max_exact_objects=12)
    targets = list(range(0, 40, 3))
    restrictions = [(None, [1, 2]), (None, None), (list(range(20)), [0])]
    shared, oracle = _both(engine, targets, restrictions, method=method)
    assert shared == oracle
    assert isinstance(shared, tuple)  # some target reads a missing pair


def test_a_cache_of_another_model_raises_before_any_work():
    dynamic = _pinned()
    other = random_preferences(dynamic.dataset, seed=1)
    cache = DominanceCache(other)
    with pytest.raises(PreferenceError):
        restricted_skyline_probabilities(
            dynamic, TARGETS, restrictions=SUBSPACES, cache=cache
        )
    assert cache.hits == cache.misses == 0
    assert dynamic.restricted_cache_info() == {"entries": 0, "hits": 0, "misses": 0}


# ----------------------------------------------------------------------
# The restricted memo's version guard.


def _edited_directly(dynamic, target, dims):
    """Make every competitor beat ``target`` on ``dims[0]`` almost surely,
    through the model itself rather than ``update_preference``."""
    dimension = dims[0]
    own = dynamic.dataset[target][dimension]
    for value in sorted({obj[dimension] for obj in dynamic.dataset} - {own}):
        dynamic.preferences.set_preference(dimension, value, own, 0.99, 0.0)


@pytest.mark.parametrize("grid_first", [False, True])
def test_a_direct_model_edit_turns_the_memo_into_misses(grid_first):
    dataset = block_zipf_dataset(20, 3, seed=4)
    dynamic = DynamicSkylineEngine(dataset, random_preferences(dataset, seed=5))
    before = dynamic.restricted_skyline_probability(0, dims=[0, 1])
    restricted_skyline_probabilities(dynamic, [0, 3], dims=[0, 1])
    assert dynamic.restricted_cache_info() == {"entries": 2, "hits": 1, "misses": 2}
    _edited_directly(dynamic, 0, [0, 1])
    if grid_first:
        grid = restricted_skyline_probabilities(dynamic, [0, 3], dims=[0, 1])
        assert repr(grid.reports) == repr(
            _fresh_grid(dynamic, [0, 3], [(None, [0, 1])]).reports
        )
        after = grid.report(0, 0)
    else:
        after = dynamic.restricted_skyline_probability(0, dims=[0, 1])
        fresh = SkylineProbabilityEngine(
            Dataset(list(dataset)), dynamic.preferences.copy()
        )
        assert repr(after) == repr(fresh.skyline_probability(0, dims=[0, 1]))
    assert after.probability < before.probability
    # Every lookup after the edit missed.
    assert dynamic.restricted_cache_info() == {
        "entries": 2 if grid_first else 1,
        "hits": 1,
        "misses": 4 if grid_first else 3,
    }


def test_a_direct_edit_before_update_preference_still_clears_the_memo():
    dataset = block_zipf_dataset(20, 3, seed=4)
    dynamic = DynamicSkylineEngine(dataset, random_preferences(dataset, seed=5))
    dynamic.restricted_skyline_probability(0, dims=[0, 1])
    _edited_directly(dynamic, 0, [0, 1])
    values = sorted({obj[2] for obj in dataset})
    report = dynamic.update_preference(2, values[0], values[1], 0.6, 0.3)
    # The edit found the model changed behind its back and kept nothing.
    assert report.restricted_evictions == 0
    assert dynamic.restricted_cache_info()["entries"] == 0
    dynamic.restricted_skyline_probability(0, dims=[0, 1])
    assert dynamic.restricted_cache_info() == {"entries": 1, "hits": 0, "misses": 2}


class _FailingRefresh:
    """A fault injector that fails the next refresh when armed."""

    armed = False

    def before_task(self, step, attempt):
        if self.armed:
            raise RuntimeError("injected refresh failure")


def test_a_rolled_back_edit_keeps_the_memo():
    injector = _FailingRefresh()
    dynamic = _pinned(fault_injector=injector)
    first = restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    target = dynamic.dataset[TARGETS[0]]
    others = sorted({obj[0] for obj in dynamic.dataset} - {target[0]})
    injector.armed = True
    with pytest.raises(RuntimeError, match="injected"):
        dynamic.update_preference(0, target[0], others[0], 0.9, 0.05)
    injector.armed = False
    again = restricted_skyline_probabilities(dynamic, TARGETS, restrictions=SUBSPACES)
    assert dynamic.restricted_cache_info()["hits"] == 12
    assert again.reports == first.reports
    assert repr(again.reports) == repr(
        _fresh_grid(dynamic, TARGETS, SUBSPACES).reports
    )
