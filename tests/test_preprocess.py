"""Unit tests for absorption (Algorithm 3) and partition (Theorem 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import skyline_probability_det
from repro.core.preferences import PreferenceModel
from repro.core.preprocess import (
    absorb,
    absorb_keys,
    drop_never_dominators,
    partition,
    preprocess,
)
from repro.data.examples import running_example
from repro.errors import DatasetError, DimensionalityError

from strategies import uncertain_instance


@pytest.fixture
def running_parts():
    dataset, preferences = running_example()
    return preferences, list(dataset.others(0)), dataset[0]


class TestAbsorb:
    def test_running_example_absorbs_q1(self, running_parts):
        _, competitors, target = running_parts
        result = absorb(competitors, target)
        # Q1 = (x1, y1) is at position 0 of the competitor list
        assert 0 in result.absorbed_by
        assert result.kept_indices == (1, 2, 3)
        assert result.removed_count == 1

    def test_absorber_is_a_survivor(self, running_parts):
        _, competitors, target = running_parts
        result = absorb(competitors, target)
        for absorber in result.absorbed_by.values():
            assert absorber in result.kept_indices

    def test_theorem3_subset_direction(self):
        # B carries all of A's differing values -> B absorbed, A kept
        target = ("o0", "o1", "o2")
        a = ("v", "o1", "o2")          # differs on dim 0 only
        b = ("v", "w", "o2")           # differs on dims 0 and 1, matches A
        result = absorb([a, b], target)
        assert result.kept_indices == (0,)
        assert result.absorbed_by == {1: 0}

    def test_no_absorption_without_value_match(self):
        target = ("o0", "o1")
        result = absorb([("a", "o1"), ("b", "c")], target)
        assert result.kept_indices == (0, 1)
        assert result.removed_count == 0

    def test_differing_value_must_match_not_just_dimension(self):
        target = ("o0", "o1")
        # both differ on dim 0, but with different values: no absorption
        result = absorb([("a", "o1"), ("b", "o1")], target)
        assert result.kept_indices == (0, 1)

    def test_absorption_chain_resolves_to_survivor(self):
        # Γ(Y) ⊆ Γ(X) ⊆ Γ(Z) with Y positioned after X: X's scan removes
        # Z, then Y's scan removes X.  The raw pass would leave Z mapped
        # to the non-survivor X; the provenance must follow the chain to
        # Y.  (Regression: absorbed_by values pointed at removed
        # competitors.)
        target = ("o0", "o1", "o2")
        x = ("v", "w", "o2")   # Γ(X) = {(0,v), (1,w)}
        z = ("v", "w", "u")    # Γ(Z) = {(0,v), (1,w), (2,u)}
        y = ("v", "o1", "o2")  # Γ(Y) = {(0,v)}
        result = absorb([x, z, y], target)
        assert result.kept_indices == (2,)
        assert result.absorbed_by == {0: 2, 1: 2}

    @given(uncertain_instance())
    @settings(max_examples=60, deadline=None)
    def test_absorbers_always_survive(self, instance):
        # the provenance invariant behind the chain fix, on random spaces
        _, competitors, target = instance
        result = absorb(competitors, target)
        kept = set(result.kept_indices)
        for removed, absorber in result.absorbed_by.items():
            assert removed not in kept
            assert absorber in kept

    def test_transitive_chain_single_pass(self):
        # A (1 diff) absorbs B (2 diffs) absorbs C (3 diffs); one pass must
        # remove both B and C whatever the processing order
        target = ("o0", "o1", "o2")
        a = ("v0", "o1", "o2")
        b = ("v0", "v1", "o2")
        c = ("v0", "v1", "v2")
        for ordering in ([a, b, c], [c, b, a], [b, c, a]):
            result = absorb(ordering, target)
            kept_objects = [ordering[i] for i in result.kept_indices]
            assert kept_objects == [a]

    def test_absorption_preserves_exact_probability(self, running_parts):
        preferences, competitors, target = running_parts
        full = skyline_probability_det(preferences, competitors, target)
        result = absorb(competitors, target)
        reduced = skyline_probability_det(
            preferences,
            [competitors[i] for i in result.kept_indices],
            target,
        )
        assert reduced.probability == pytest.approx(full.probability)

    def test_empty_competitors(self):
        result = absorb([], ("o",))
        assert result.kept_indices == ()
        assert result.removed_count == 0

    def test_duplicate_of_target_kept_untouched(self):
        # Γ = ∅ objects are skipped (handled upstream by the engine)
        result = absorb([("o",)], ("o",))
        assert result.kept_indices == (0,)


def _scan_every_competitor(keys):
    """Absorption as one pass in which every alive competitor scans.

    The reference for :func:`absorb_keys`, which lets only the
    competitors that can absorb something scan.
    """
    alive = [True] * len(keys)
    absorbed_by = {}
    for position, gamma in enumerate(keys):
        if not alive[position] or not gamma:
            continue
        for candidate, other in enumerate(keys):
            if (
                candidate != position
                and alive[candidate]
                and set(gamma) <= set(other)
            ):
                alive[candidate] = False
                absorbed_by[candidate] = position
    for removed in list(absorbed_by):
        absorber = absorbed_by[removed]
        while absorber in absorbed_by:
            absorber = absorbed_by[absorber]
        absorbed_by[removed] = absorber
    kept = tuple(position for position, ok in enumerate(alive) if ok)
    return kept, absorbed_by


def _gamma_minimal(keys):
    """Positions no other ``Γ`` absorbs: an empty ``Γ``, or one with no
    non-empty strict subset present and no equal ``Γ`` before it."""
    return tuple(
        position
        for position, gamma in enumerate(keys)
        if not gamma
        or not any(
            other
            and (
                set(other) < set(gamma)
                or (set(other) == set(gamma) and earlier < position)
            )
            for earlier, other in enumerate(keys)
        )
    )


@st.composite
def gamma_keys(draw):
    """Γ tuples of a random target, full or sliced to a subspace.

    Small value pools make equal Γs, the widest ones included, common; a
    drawn subspace slices every Γ to its dimensions, as the restriction
    planner does, so some Γs are partial or empty.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    pool = draw(st.integers(min_value=1, max_value=3))
    target = tuple(f"o{j}" for j in range(d))
    keys = []
    for _ in range(n):
        competitor = tuple(
            draw(st.sampled_from([f"o{j}"] + [f"v{j}_{k}" for k in range(pool)]))
            for j in range(d)
        )
        keys.append(
            tuple(
                (j, value)
                for j, (value, own) in enumerate(zip(competitor, target))
                if value != own
            )
        )
    if draw(st.booleans()):
        dims = set(draw(st.lists(st.integers(0, d - 1), max_size=d)))
        keys = [tuple(key for key in gamma if key[0] in dims) for gamma in keys]
    return keys


class TestAbsorbKeys:
    @given(gamma_keys())
    @settings(max_examples=300, deadline=None)
    def test_equals_scanning_every_competitor(self, keys):
        result = absorb_keys(keys)
        kept, absorbed_by = _scan_every_competitor(keys)
        assert result.kept_indices == kept
        assert result.absorbed_by == absorbed_by

    @given(gamma_keys())
    @settings(max_examples=300, deadline=None)
    def test_kept_set_is_gamma_minimal(self, keys):
        assert absorb_keys(keys).kept_indices == _gamma_minimal(keys)

    def test_equal_widest_gammas_absorb_each_other(self):
        # Every Γ is as wide as the widest, so only the copy of Γ(0) can
        # be absorbed: by the first holder of that Γ.
        keys = [((0, "a"), (1, "b")), ((0, "c"), (1, "d")), ((0, "a"), (1, "b"))]
        result = absorb_keys(keys)
        assert result.kept_indices == (0, 1)
        assert result.absorbed_by == {2: 0}


class TestPartition:
    def test_running_example_three_singletons(self, running_parts):
        _, competitors, target = running_parts
        kept = absorb(competitors, target).kept_indices
        groups = partition(competitors, target, kept)
        assert sorted(map(tuple, groups)) == [(1,), (2,), (3,)]

    def test_shared_value_groups_together(self):
        target = ("o0", "o1")
        competitors = [("a", "x"), ("a", "y"), ("b", "y"), ("c", "o1")]
        groups = partition(competitors, target)
        # a links 0-1, y links 1-2; 3 is alone
        assert sorted(map(tuple, groups)) == [(0, 1, 2), (3,)]

    def test_values_equal_to_target_do_not_link(self):
        target = ("o0", "o1")
        competitors = [("a", "o1"), ("b", "o1")]
        groups = partition(competitors, target)
        assert sorted(map(tuple, groups)) == [(0,), (1,)]

    def test_indices_restriction(self):
        target = ("o0",)
        competitors = [("a",), ("a",), ("b",)]
        groups = partition(competitors, target, indices=[0, 2])
        assert sorted(map(tuple, groups)) == [(0,), (2,)]

    def test_partition_product_equals_whole(self, running_parts):
        preferences, competitors, target = running_parts
        groups = partition(competitors, target)
        product = 1.0
        for group in groups:
            product *= skyline_probability_det(
                preferences, [competitors[i] for i in group], target
            ).probability
        whole = skyline_probability_det(
            preferences, competitors, target
        ).probability
        assert product == pytest.approx(whole)

    def test_empty(self):
        assert partition([], ("o",)) == []


class TestDropNeverDominators:
    def test_splits_on_zero_factor(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "o", 0.0)
        model.set_preference(0, "b", "o", 0.4)
        possible, impossible = drop_never_dominators(
            model, [("a",), ("b",)], ("o",)
        )
        assert possible == [1]
        assert impossible == [0]

    def test_respects_indices(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "o", 0.0)
        model.set_preference(0, "b", "o", 0.4)
        possible, impossible = drop_never_dominators(
            model, [("a",), ("b",)], ("o",), indices=[1]
        )
        assert possible == [1]
        assert impossible == []


class TestPreprocessPipeline:
    def test_running_example_end_to_end(self, running_parts):
        preferences, competitors, target = running_parts
        prep = preprocess(competitors, target, preferences=preferences)
        assert prep.kept_indices == (1, 2, 3)
        assert prep.absorbed_by == {0: 1}
        assert prep.partitions == ((1,), (2,), (3,))
        assert prep.kept_count == 3
        assert prep.largest_partition == 1

    def test_partition_objects_materialisation(self, running_parts):
        preferences, competitors, target = running_parts
        prep = preprocess(competitors, target, preferences=preferences)
        groups = prep.partition_objects(competitors)
        assert [len(group) for group in groups] == [1, 1, 1]
        assert groups[0][0] == competitors[1]

    def test_stages_can_be_disabled(self, running_parts):
        preferences, competitors, target = running_parts
        prep = preprocess(
            competitors, target, preferences=preferences,
            use_absorption=False, use_partition=False,
        )
        assert prep.kept_indices == (0, 1, 2, 3)
        assert prep.partitions == ((0, 1, 2, 3),)

    def test_without_preferences_no_impossible_filter(self, running_parts):
        _, competitors, target = running_parts
        prep = preprocess(competitors, target)
        assert prep.dropped_impossible == ()

    def test_impossible_dropped_with_preferences(self):
        model = PreferenceModel(1)
        model.set_preference(0, "a", "o", 0.0)
        model.set_preference(0, "b", "o", 0.4)
        prep = preprocess([("a",), ("b",)], ("o",), preferences=model)
        assert prep.dropped_impossible == (0,)
        assert prep.kept_indices == (1,)

    def test_duplicate_target_rejected(self):
        with pytest.raises(DatasetError):
            preprocess([("o",)], ("o",))

    def test_empty_competitors(self):
        prep = preprocess([], ("o",))
        assert prep.partitions == ()
        assert prep.largest_partition == 0


class TestDimensionality:
    """A competitor of another dimensionality is rejected up front, never
    compared on the shorter prefix."""

    TARGET = ("o0", "o1")
    # Competitor 1 is too long; compared on its prefix, competitor 0 would
    # absorb it, so it would never reach the zero-probability filter.
    COMPETITORS = [("a", "o1"), ("a", "b", "c")]

    def test_absorb_rejects(self):
        with pytest.raises(DimensionalityError):
            absorb(self.COMPETITORS, self.TARGET)

    def test_partition_rejects(self):
        with pytest.raises(DimensionalityError):
            partition(self.COMPETITORS, self.TARGET)

    def test_partition_rejects_outside_indices(self):
        with pytest.raises(DimensionalityError):
            partition(self.COMPETITORS, self.TARGET, indices=[0])

    def test_preprocess_without_preferences_rejects(self):
        with pytest.raises(DimensionalityError):
            preprocess(self.COMPETITORS, self.TARGET)

    def test_preprocess_rejects_an_absorbable_competitor(self):
        model = PreferenceModel(2, default=0.5)
        with pytest.raises(DimensionalityError):
            preprocess(self.COMPETITORS, self.TARGET, preferences=model)

    def test_short_prefix_match_is_not_called_a_duplicate(self):
        with pytest.raises(DimensionalityError):
            preprocess([("o0",)], self.TARGET)
