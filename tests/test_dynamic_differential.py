"""Stateful differential tests for the incremental update engine.

The contract of :class:`repro.DynamicSkylineEngine` is *bit-identity*: no
matter which edit script was applied, the maintained view must equal —
float for float — what a fresh engine rebuilt from the final state
computes.  A hypothesis ``RuleBasedStateMachine`` drives random edit
scripts against a shadow copy of the state and asserts that invariant
after every step; the script includes edits made directly on the
engine's preference model, which every read and edit catches up with
first.  A script-based differential test covers the same space with
longer scripts, and a chaos section proves a mid-edit crash never leaves
a torn view.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    Dataset,
    DynamicSkylineEngine,
    PreferenceModel,
    SkylineProbabilityEngine,
    restricted_skyline_probabilities,
)
from repro.core.preferences import _EDIT_LOG_LENGTH
from repro.data.blockzipf import block_zipf_dataset
from repro.data.prefgen import random_preferences
from repro.errors import DatasetError, DuplicateObjectError
from repro.robustness import FaultInjector, InjectedFault
from strategies import apply_edit, edit_script

#: The value universe of the state machine: 2 dimensions, 3 values each.
_D = 2
_UNIVERSE = [[f"v{j}_{k}" for k in range(3)] for j in range(_D)]
#: Probability grid; pairs are the coherent (forward, backward) choices.
_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
_PAIRS = [(f, b) for f in _GRID for b in _GRID if f + b <= 1.0]

_objects = st.tuples(
    *[st.sampled_from(_UNIVERSE[j]) for j in range(_D)]
)
#: One edit made directly on the model: ``(dimension, x, offset, probs,
#: held)`` sets the pair of values ``x`` and ``x + offset``, or deletes it
#: when ``probs`` is None. With ``held`` the values are those the current
#: objects hold on that dimension, when they hold two or more, so a view
#: reads the pair; otherwise they are the dimension's whole universe.
_direct_edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=_D - 1),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.one_of(st.none(), st.sampled_from(_PAIRS)),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
)
#: Restrictions of the grid rule: pools and subspaces, alone and together.
_RESTRICTIONS = [(None, [0]), (None, [1]), ([0, 1], None), ([1, 2], [0]), (None, None)]


class _OneShot:
    """A failpoint that fails the next per-target refresh once armed."""

    def __init__(self):
        self.armed = False

    def before_task(self, step, attempts):
        if self.armed:
            self.armed = False
            raise InjectedFault(f"one-shot failpoint at refresh {step}")


def _rebuild(engine: DynamicSkylineEngine) -> DynamicSkylineEngine:
    """A fresh engine over a copy of the dynamic engine's current state."""
    return DynamicSkylineEngine(
        Dataset(list(engine.dataset)), engine.preferences.copy()
    )


class DynamicEditMachine(RuleBasedStateMachine):
    """Random edit scripts with a full differential check at every step."""

    @initialize(
        initial=st.lists(_objects, min_size=1, max_size=4, unique=True),
        pair_probs=st.lists(st.sampled_from(_PAIRS), min_size=6, max_size=6),
    )
    def setup(self, initial, pair_probs):
        preferences = PreferenceModel(_D, default=0.5)
        draws = iter(pair_probs)
        for j in range(_D):
            for x in range(3):
                for y in range(x + 1, 3):
                    forward, backward = next(draws)
                    preferences.set_preference(
                        j, _UNIVERSE[j][x], _UNIVERSE[j][y], forward, backward
                    )
        self.objects = list(initial)
        self.failpoint = _OneShot()
        self.engine = DynamicSkylineEngine(
            Dataset(initial), preferences, fault_injector=self.failpoint
        )

    # -- edits ---------------------------------------------------------
    @rule(candidate=_objects)
    def insert(self, candidate):
        if candidate in self.objects:
            with pytest.raises(DuplicateObjectError):
                self.engine.insert_object(candidate)
            return
        report = self.engine.insert_object(candidate)
        self.objects.append(candidate)
        assert report.operation == "insert"
        assert (
            report.targets_refreshed + report.targets_skipped
            == len(self.objects) - 1
        )

    @precondition(lambda self: len(self.objects) > 1)
    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def remove(self, raw):
        index = raw % len(self.objects)
        report = self.engine.remove_object(index)
        del self.objects[index]
        assert report.operation == "remove"
        assert (
            report.targets_refreshed + report.targets_skipped
            == len(self.objects)
        )

    @rule(
        dimension=st.integers(min_value=0, max_value=_D - 1),
        x=st.integers(min_value=0, max_value=2),
        offset=st.integers(min_value=1, max_value=2),
        probs=st.sampled_from(_PAIRS),
    )
    def update_preference(self, dimension, x, offset, probs):
        y = (x + offset) % 3
        a, b = _UNIVERSE[dimension][x], _UNIVERSE[dimension][y]
        report = self.engine.update_preference(dimension, a, b, *probs)
        assert report.operation == "update_preference"
        assert self.engine.preferences.prob_prefers(dimension, a, b) == probs[0]
        # Partition-scoped invalidation never recomputes more components
        # than the engine maintains.
        assert report.partitions_recomputed <= self.engine.total_partitions

    @rule(
        dimension=st.integers(min_value=0, max_value=_D - 1),
        x=st.integers(min_value=0, max_value=2),
        offset=st.integers(min_value=1, max_value=2),
        probs=st.sampled_from(_PAIRS),
    )
    def update_preference_rolled_back(self, dimension, x, offset, probs):
        # A failpoint in the first refresh rolls the edit back: the pair,
        # the views and the restricted memo are as they were.
        a, b = _UNIVERSE[dimension][x], _UNIVERSE[dimension][(x + offset) % 3]
        model = self.engine.preferences
        before = model.copy()
        views = [self.engine.view(i) for i in range(len(self.objects))]
        memo = self.engine.restricted_cache_info()["entries"]
        self.failpoint.armed = True
        try:
            self.engine.update_preference(dimension, a, b, *probs)
        except InjectedFault:
            assert model == before
            assert [self.engine.view(i) for i in range(len(self.objects))] == views
            assert self.engine.restricted_cache_info()["entries"] == memo
        finally:
            # When no target reads the pair, the edit lands unrefreshed.
            self.failpoint.armed = False

    @rule(
        edits=_direct_edits,
        # A read that skips its catch-up shows only when it comes first
        # after the edit; half the draws make that read one of the
        # maintained view's own, the rest a memo or planner read or an edit.
        then=st.one_of(
            st.sampled_from(["nothing", "view", "probabilities", "index"]),
            st.sampled_from(
                ["restricted", "skyline", "top_k", "grid", "update", "insert",
                 "remove", "save_load"]
            ),
        ),
        raw=st.integers(min_value=0, max_value=10**6),
    )
    def edit_model_directly(self, edits, then, raw):
        # Code that does not own the engine edits its model; the next
        # read or edit, whichever it is, must catch up first.
        model = self.engine.preferences
        for dimension, x, offset, probs, held in edits:
            values = _UNIVERSE[dimension]
            present = sorted({obj[dimension] for obj in self.objects})
            if held and len(present) > 1:
                values = present
            # ``offset`` steps on, cyclically, but never back to ``x``.
            x %= len(values)
            a = values[x]
            b = values[(x + 1 + (offset - 1) % (len(values) - 1)) % len(values)]
            if probs is None:
                model.delete_preference(dimension, a, b)
            else:
                model.set_preference(dimension, a, b, *probs)
        if then == "view":
            self.read_view(raw)
        elif then == "probabilities":
            self.view_matches_fresh_rebuild()
        elif then == "index":
            self.query_index_matches_view(raw)
        elif then == "restricted":
            self.query_restricted_matches_fresh_rebuild(
                raw, raw // 7, 1 + raw % (2**_D - 1), raw % 2 == 0, raw % 3 == 0
            )
        elif then == "skyline":
            self.read_probabilistic_skyline(raw)
        elif then == "top_k":
            self.read_top_k(raw)
        elif then == "grid":
            self.query_grid_matches_fresh_rebuild(raw)
        elif then == "update":
            self.update_preference(raw % _D, raw % 3, 1 + raw % 2, _PAIRS[raw % len(_PAIRS)])
        elif then == "insert":
            self.insert(tuple(_UNIVERSE[j][raw // 3**j % 3] for j in range(_D)))
        elif then == "remove" and len(self.objects) > 1:
            self.remove(raw)
        elif then == "save_load":
            self.save_and_load()

    # -- queries -------------------------------------------------------
    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def read_view(self, raw):
        index = raw % len(self.objects)
        assert self.engine.view(index) == _rebuild(self.engine).view(index)

    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def read_probabilistic_skyline(self, raw):
        tau = [0.05, 0.25, 0.5, 1.0][raw % 4]
        assert self.engine.probabilistic_skyline(tau) == (
            _rebuild(self.engine).probabilistic_skyline(tau)
        )

    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def read_top_k(self, raw):
        k = 1 + raw % (len(self.objects) + 1)
        assert self.engine.top_k(k) == _rebuild(self.engine).top_k(k)

    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def query_grid_matches_fresh_rebuild(self, raw):
        # The shared pass serves cells from the restricted memo; every
        # cell must equal a fresh engine's, report for report.
        targets = sorted({raw % len(self.objects), raw // 7 % len(self.objects)})
        restrictions = [
            (
                None if pool is None else [i for i in pool if i < len(self.objects)],
                dims,
            )
            for pool, dims in _RESTRICTIONS[raw % 3 : raw % 3 + 3]
        ]
        warm = restricted_skyline_probabilities(
            self.engine, targets, restrictions=restrictions
        )
        fresh = restricted_skyline_probabilities(
            _rebuild(self.engine), targets, restrictions=restrictions
        )
        # The planner counters differ by design: memo-served cells plan nothing.
        assert repr(warm.reports) == repr(fresh.reports)

    @rule()
    def save_and_load(self):
        # The snapshot holds the current views; the restored engine
        # carries on in place of the saved one.
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "view.json"
            self.engine.save_view(path)
            restored = DynamicSkylineEngine.load_view(
                path, fault_injector=self.failpoint
            )
        assert restored.preferences == self.engine.preferences
        for index in range(len(self.objects)):
            assert restored.view(index) == self.engine.view(index)
        self.engine = restored

    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def query_duplicate_target(self, raw):
        # Querying the *values* of a dataset member takes the
        # duplicate-target short circuit: sky = 0 without running Det.
        values = self.objects[raw % len(self.objects)]
        report = self.engine.skyline_probability(list(values))
        assert report.duplicate_target
        assert report.probability == 0.0

    @rule(raw=st.integers(min_value=0, max_value=10**6))
    def query_index_matches_view(self, raw):
        index = raw % len(self.objects)
        report = self.engine.skyline_probability(index, method="det+")
        assert report.probability == self.engine.view(index).probability

    @rule(
        raw=st.integers(min_value=0, max_value=10**6),
        subset_mask=st.integers(min_value=0, max_value=10**6),
        dims_mask=st.integers(min_value=1, max_value=2**_D - 1),
        restrict_pool=st.booleans(),
        restrict_dims=st.booleans(),
    )
    def query_restricted_matches_fresh_rebuild(
        self, raw, subset_mask, dims_mask, restrict_pool, restrict_dims
    ):
        # Post-edit restricted answers must match what a fresh engine
        # rebuilt from the current state computes for the same
        # restriction — the memo's invalidation rules on trial.
        target = raw % len(self.objects)
        competitors = None
        if restrict_pool:
            competitors = [
                index
                for index in range(len(self.objects))
                if subset_mask >> index & 1
            ]
        dims = None
        if restrict_dims:
            dims = [j for j in range(_D) if dims_mask >> j & 1]
        warm = self.engine.restricted_skyline_probability(
            target, competitors=competitors, dims=dims, method="det+"
        )
        fresh = _rebuild(self.engine).restricted_skyline_probability(
            target, competitors=competitors, dims=dims, method="det+"
        )
        assert warm.probability == fresh.probability
        assert warm.exact == fresh.exact
        # And the warm memo must serve the same answer back.
        again = self.engine.restricted_skyline_probability(
            target, competitors=competitors, dims=dims, method="det+"
        )
        assert again.probability == warm.probability
        assert repr(again) == repr(fresh)

    # -- the differential invariant ------------------------------------
    @invariant()
    def view_matches_fresh_rebuild(self):
        assert list(self.engine.dataset) == self.objects
        assert self.engine.cardinality == len(self.objects)
        warm = self.engine.skyline_probabilities()
        assert _rebuild(self.engine).skyline_probabilities() == warm

    @invariant()
    def view_matches_static_engine(self):
        for index, probability in enumerate(
            self.engine.skyline_probabilities()
        ):
            report = self.engine.engine.skyline_probability(
                index, method="det+"
            )
            assert report.probability == probability


TestDynamicEditMachine = DynamicEditMachine.TestCase
TestDynamicEditMachine.settings = settings(
    # The explain phase traces every shrinking run and keeps the traces;
    # the read rules fail at distinct lines, each failure is shrunk, and
    # a failing run then grew past a gigabyte over minutes.
    phases=[phase for phase in Phase if phase is not Phase.explain],
    max_examples=100,
    stateful_step_count=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(edit_script(max_edits=8))
@settings(max_examples=150, deadline=None)
def test_edit_script_differential(script):
    """Replaying any valid edit script keeps the view bit-identical to a
    rebuild — the long-script complement of the state machine."""
    preferences, objects, edits = script
    engine = DynamicSkylineEngine(Dataset(objects), preferences.copy())
    for edit in edits:
        apply_edit(engine, edit)
    rebuilt = _rebuild(engine)
    assert engine.skyline_probabilities() == rebuilt.skyline_probabilities()
    assert engine.total_partitions == rebuilt.total_partitions
    for index in range(engine.cardinality):
        assert engine.view(index).factors == rebuilt.view(index).factors


def test_remove_then_reinsert_roundtrip():
    """Removing and re-inserting the same object restores the exact view."""
    objects = [("a", "x"), ("b", "y"), ("a", "y"), ("b", "x")]
    preferences = PreferenceModel(2, default=0.5)
    preferences.set_preference(0, "a", "b", 0.6, 0.4)
    preferences.set_preference(1, "x", "y", 0.7, 0.3)
    engine = DynamicSkylineEngine(Dataset(objects), preferences)
    before = engine.skyline_probabilities()
    engine.remove_object(1)
    engine.insert_object(("b", "y"))
    after = engine.skyline_probabilities()
    # Object 1 moved to the end of the dataset; realign before comparing.
    assert after[-1] == before[1]
    assert after[:-1] == before[:1] + before[2:]


def _fixture_engine():
    objects = [("a", "x"), ("b", "y"), ("a", "y"), ("b", "x")]
    preferences = PreferenceModel(2, default=0.5)
    preferences.set_preference(0, "a", "b", 0.6, 0.4)
    preferences.set_preference(1, "x", "y", 0.7, 0.3)
    return DynamicSkylineEngine(Dataset(objects), preferences)


def test_warm_read_helpers_match_probabilities():
    engine = _fixture_engine()
    probabilities = engine.skyline_probabilities()
    assert engine.edits == 0
    assert engine.probabilistic_skyline(0.3) == [
        index for index, p in enumerate(probabilities) if p >= 0.3
    ]
    ranked = engine.top_k(2)
    assert len(ranked) == 2
    assert ranked[0][1] == max(probabilities)
    assert engine.top_k(100) == sorted(
        enumerate(probabilities), key=lambda pair: (-pair[1], pair[0])
    )
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        engine.probabilistic_skyline(0.0)
    with pytest.raises(ReproError):
        engine.top_k(0)
    engine.update_preference(0, "a", "b", 0.8, 0.2)
    assert engine.edits == 1


def test_batch_planner_consumes_dynamic_engine():
    engine = _fixture_engine()
    # both through the wrapper method and by handing the dynamic engine
    # itself to the planner (which unwraps .engine)
    from repro.core.batch import batch_skyline_probabilities

    via_method = engine.batch(method="det+")
    via_planner = batch_skyline_probabilities(engine, method="det+")
    assert list(via_method.probabilities) == engine.skyline_probabilities()
    assert list(via_planner.probabilities) == engine.skyline_probabilities()


def test_insert_validates_dimensionality():
    from repro.errors import DimensionalityError

    engine = _fixture_engine()
    with pytest.raises(DimensionalityError):
        engine.insert_object(("a",))


def test_update_of_previously_unset_pair_rolls_back_to_absence():
    # The rollback path must *delete* the pair when it did not exist
    # before the failed edit, not re-set it to some value.
    preferences = PreferenceModel(1, default=0.5)
    engine = DynamicSkylineEngine(
        Dataset([("a",), ("b",)]),
        preferences,
        fault_injector=FaultInjector(poison=frozenset({0})),
    )
    assert not preferences.has_preference(0, "a", "b")
    with pytest.raises(InjectedFault):
        engine.update_preference(0, "a", "b", 0.9, 0.1)
    assert not preferences.has_preference(0, "a", "b")
    assert engine.skyline_probabilities() == _rebuild(engine).skyline_probabilities()


def test_edit_counters_reach_the_obs_registry():
    import repro.obs as obs

    engine = _fixture_engine()
    with obs.enabled() as registry:
        engine.update_preference(0, "a", "b", 0.9, 0.1)
        engine.insert_object(("c", "y"))
        engine.remove_object(("c", "y"))
        edits = registry.counter("repro_dynamic_edits_total")
        assert edits.value(operation="update_preference") == 1
        assert edits.value(operation="insert") == 1
        assert edits.value(operation="remove") == 1
        assert (
            registry.counter("repro_dynamic_partitions_recomputed_total").total()
            > 0
        )
        assert (
            registry.counter("repro_dynamic_cache_evictions_total").total() > 0
        )


def test_remove_errors():
    preferences = PreferenceModel(1, default=0.5)
    engine = DynamicSkylineEngine(Dataset([("a",), ("b",)]), preferences)
    with pytest.raises(DatasetError):
        engine.remove_object(5)
    with pytest.raises(DatasetError):
        engine.remove_object(("z",))
    engine.remove_object(("b",))
    with pytest.raises(DatasetError):
        engine.remove_object(0)  # cannot empty the dataset


# ---------------------------------------------------------------------------
# Edits made directly on the engine's model.
# ---------------------------------------------------------------------------
def _block_zipf_engine():
    dataset = block_zipf_dataset(20, 3, seed=4)
    preferences = random_preferences(dataset, seed=5)
    return dataset, preferences, DynamicSkylineEngine(dataset, preferences)


def _prefer_every_value_to_target_zero(dataset, preferences):
    """Ten direct edits: every other dimension-0 value beats object 0's."""
    own = dataset[0][0]
    for value in sorted({obj[0] for obj in dataset} - {own}, key=repr):
        preferences.set_preference(0, value, own, 0.99, 0.0)


def test_views_catch_up_with_direct_model_edits():
    dataset, preferences, engine = _block_zipf_engine()
    _prefer_every_value_to_target_zero(dataset, preferences)
    fresh = SkylineProbabilityEngine(dataset, preferences)
    expected = fresh.skyline_probability(0, method="det+").probability
    assert expected == 5.099201911042299e-06
    assert engine.view(0).probability == expected
    assert engine.skyline_probabilities()[0] == expected
    assert engine.skyline_probability(0, method="det+").probability == expected
    assert 0 not in engine.probabilistic_skyline(0.01)


def test_cache_catches_up_with_direct_edits_before_an_engine_edit():
    dataset, preferences, engine = _block_zipf_engine()
    warm = engine.restricted_skyline_probability(0, dims=[0, 1])
    assert warm.probability == 0.003650406174166832
    _prefer_every_value_to_target_zero(dataset, preferences)
    first, second = sorted({obj[2] for obj in dataset}, key=repr)[:2]
    engine.update_preference(2, first, second, 0.3, 0.6)
    fresh = DynamicSkylineEngine(dataset, preferences.copy())
    expected = fresh.restricted_skyline_probability(0, dims=[0, 1])
    assert expected.probability == 8.074621719128584e-11
    answer = engine.restricted_skyline_probability(0, dims=[0, 1])
    assert repr(answer) == repr(expected)


def test_more_direct_edits_than_the_log_holds_rebuild_the_views():
    dataset, preferences, engine = _block_zipf_engine()
    engine.restricted_skyline_probability(0, dims=[0, 1])
    since = preferences.version
    values = sorted({obj[1] for obj in dataset}, key=repr)
    for step in range(_EDIT_LOG_LENGTH + 1):
        a, b = values[step % 3], values[3 + step % 4]
        preferences.set_preference(1, a, b, 0.1 + step % 8 / 10, 0.0)
    assert preferences._edits_since(since) is None
    fresh = DynamicSkylineEngine(dataset, preferences.copy())
    assert engine.skyline_probabilities() == fresh.skyline_probabilities()
    assert engine.restricted_cache_info()["entries"] == 0
    assert repr(engine.restricted_skyline_probability(0, dims=[0, 1])) == repr(
        fresh.restricted_skyline_probability(0, dims=[0, 1])
    )


@pytest.mark.parametrize("read_each", [True, False])
def test_direct_edits_are_repaired_like_engine_edits(read_each):
    # The same pairs set directly, then read after each edit or once
    # after all three (a gap the log covers), or set through the engine
    # leave identical views and memo entries.
    objects = [("a", "x"), ("b", "y"), ("a", "y"), ("b", "x"), ("c", "y")]
    engines = []
    for direct in (False, True):
        preferences = PreferenceModel(2, default=0.5)
        engine = DynamicSkylineEngine(Dataset(objects), preferences)
        for target in range(len(objects)):
            engine.restricted_skyline_probability(target, dims=[0])
            # Three of these read no edited pair and must stay memoised.
            pool = [(target + 2) % len(objects)]
            engine.restricted_skyline_probability(target, competitors=pool, dims=[0])
        for dimension, a, b in [(0, "a", "b"), (1, "x", "y"), (0, "b", "c")]:
            if direct:
                preferences.set_preference(dimension, a, b, 0.8, 0.1)
                if read_each:
                    engine.view(0)
            else:
                engine.update_preference(dimension, a, b, 0.8, 0.1)
        engines.append(engine)
    through, direct = engines
    assert [through.view(i) for i in range(5)] == [direct.view(i) for i in range(5)]
    assert len(through._restricted_memo) == 3
    assert set(through._restricted_memo) == set(direct._restricted_memo)


# ---------------------------------------------------------------------------
# Chaos: a crash in the middle of an edit must not tear the view.
# ---------------------------------------------------------------------------
pytest_chaos = pytest.mark.chaos


@pytest_chaos
class TestDynamicEditAtomicity:
    def _snapshot(self, engine):
        return (
            list(engine.dataset),
            engine.skyline_probabilities(),
            [engine.view(i).factors for i in range(engine.cardinality)],
        )

    def test_update_preference_rolls_back(self):
        objects = [("a", "x"), ("b", "y"), ("a", "y")]
        preferences = PreferenceModel(2, default=0.5)
        preferences.set_preference(0, "a", "b", 0.6, 0.4)
        preferences.set_preference(1, "x", "y", 0.7, 0.3)
        engine = DynamicSkylineEngine(
            Dataset(objects),
            preferences,
            fault_injector=FaultInjector(poison=frozenset({1})),
        )
        before = self._snapshot(engine)
        prefs_before = preferences.prob_prefers(0, "a", "b")
        with pytest.raises(InjectedFault):
            engine.update_preference(0, "a", "b", 0.9, 0.1)
        assert self._snapshot(engine) == before
        assert preferences.prob_prefers(0, "a", "b") == prefs_before
        # The rolled-back engine still answers, identically to a rebuild.
        assert (
            engine.skyline_probabilities()
            == _rebuild(engine).skyline_probabilities()
        )

    @given(edit_script(max_edits=5), st.integers(min_value=0, max_value=3))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_no_torn_state_under_random_faults(self, script, poison_step):
        """Apply a script through a poisoned injector; edits either land
        completely (shadow applied) or not at all (shadow untouched), and
        the final view matches a rebuild of the shadow state."""
        preferences, objects, edits = script
        shadow_prefs = preferences.copy()
        shadow_objects = list(objects)
        engine = DynamicSkylineEngine(
            Dataset(objects),
            preferences.copy(),
            fault_injector=FaultInjector(poison=frozenset({poison_step})),
        )
        for edit in edits:
            try:
                apply_edit(engine, edit)
            except InjectedFault:
                continue  # crashed mid-edit: shadow must NOT see it
            except (DatasetError, DuplicateObjectError):
                # An earlier injected crash made this edit invalid against
                # the actual state (the script was drawn against the
                # crash-free trajectory); validation errors also leave the
                # engine untouched.
                continue
            kind = edit[0]
            if kind == "insert":
                shadow_objects.append(edit[1])
            elif kind == "remove":
                del shadow_objects[edit[1]]
            else:
                shadow_prefs.set_preference(*edit[1:])
        rebuilt = DynamicSkylineEngine(
            Dataset(shadow_objects), shadow_prefs
        )
        assert list(engine.dataset) == shadow_objects
        assert (
            engine.skyline_probabilities() == rebuilt.skyline_probabilities()
        )
