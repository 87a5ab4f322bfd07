"""Numerics contract of the ``vec`` kernel, pinned explicitly.

The vec kernel (:mod:`repro.core.exact_vec`) evaluates the same
inclusion-exclusion sum as the recursive kernels but in a different —
equally valid — order: NumPy's pairwise summation over the dense subset
array instead of the DFS accumulation, and per-level factor grouping
instead of per-term chains.  This module makes the resulting equality
contract explicit rather than accidental:

**Bit-identical** (exact float equality is guaranteed):

* duplicate targets — every kernel returns exactly ``0.0``;
* empty partitions (all competitors filtered) — exactly ``1.0``;
* singleton partitions (n = 1) — the whole computation is one
  multiplication chain over the object's factors in list order followed
  by ``1.0 - p``; vec performs the identical IEEE operation sequence;
* determinism — vec twice on the same input is bit-identical (the
  evaluation order is fixed; no threading, no hashing).

**Tolerance-only** (n ≥ 2): the summation order differs, so results
agree within 1e-12 — *relative* in the common case, falling back to
*absolute* when inclusion-exclusion cancellation leaves ``sky`` orders
of magnitude below the summed terms (there the relative error of every
summation order is amplified by the condition number ``Σ|t| / |Σt|``,
so no kernel's answer is privileged).  Observed deviations are ~1e-15
relative; 1e-12 is the documented safety margin.

Integer provenance (``terms_evaluated``, ``objects_used``) is exactly
equal in *all* cases — pruning decisions compare against exact zeros,
which summation order cannot perturb.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import exact_vec
from repro.core.exact import _det_shared_reference, skyline_probability_det
from repro.core.exact_vec import _structure, det_shared_vec, det_shared_vec_rows
from repro.core.preferences import PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import running_example
from repro.data.procedural import HashedPreferenceModel
from repro.data.uniform import uniform_dataset

from strategies import shared_value_instance, structure_rows, uncertain_instance

TOLERANCE = 1e-12


def _kernel(preferences, competitors, target, kernel, **options):
    return skyline_probability_det(
        preferences, competitors, target, kernel=kernel, **options
    )


class TestBitIdenticalClasses:
    def test_duplicate_target_exact_zero(self):
        dataset, preferences = running_example()
        result = _kernel(preferences, [dataset[0]], dataset[0], "vec")
        assert result.probability == 0.0
        assert (result.terms_evaluated, result.objects_used) == (0, 0)

    def test_empty_partition_exact_one(self):
        preferences = PreferenceModel(1)
        preferences.set_preference(0, "a", "o", 0.0)
        result = _kernel(preferences, [("a",)], ("o",), "vec")
        assert result.probability == 1.0
        assert result.terms_evaluated == 0

    def test_no_competitors_exact_one(self):
        preferences = PreferenceModel(1)
        result = _kernel(preferences, [], ("o",), "vec")
        assert result.probability == 1.0
        assert (result.terms_evaluated, result.objects_used) == (0, 0)

    @pytest.mark.parametrize(
        "factors", [(0.3,), (0.3, 0.7), (0.125, 0.5, 0.875)]
    )
    def test_singleton_partition_bit_identical(self, factors):
        # n = 1: both kernels multiply the factors in list order and
        # compute 1.0 - product — the identical IEEE operation sequence
        d = len(factors)
        preferences = PreferenceModel(d)
        competitor = []
        for j, probability in enumerate(factors):
            preferences.set_preference(j, f"x{j}", f"o{j}", probability)
            competitor.append(f"x{j}")
        target = tuple(f"o{j}" for j in range(d))
        vec = _kernel(preferences, [tuple(competitor)], target, "vec")
        reference = _kernel(
            preferences, [tuple(competitor)], target, "reference"
        )
        assert vec == reference  # full dataclass equality, bitwise floats

    @given(uncertain_instance())
    @settings(max_examples=30, deadline=None)
    def test_vec_is_deterministic(self, instance):
        preferences, competitors, target = instance
        first = _kernel(preferences, competitors, target, "vec")
        second = _kernel(preferences, competitors, target, "vec")
        assert first == second


class TestToleranceClasses:
    @given(shared_value_instance())
    @settings(max_examples=40, deadline=None)
    def test_general_spaces_within_tolerance(self, instance):
        preferences, competitors, target = instance
        vec = _kernel(preferences, competitors, target, "vec")
        reference = _kernel(preferences, competitors, target, "reference")
        assert vec.probability == pytest.approx(
            reference.probability, rel=TOLERANCE, abs=TOLERANCE
        )
        # integer provenance is exempt from any tolerance
        assert vec.terms_evaluated == reference.terms_evaluated
        assert vec.objects_used == reference.objects_used

    def test_large_shared_instance_within_tolerance(self):
        # a 16-dominator uniform instance: 65535 terms, heavy key
        # sharing, deep cancellation — the worst case for summation-order
        # divergence that is still fast enough for the tier-1 suite
        dataset = uniform_dataset(17, 5, seed=301)
        preferences = HashedPreferenceModel(5, seed=302)
        competitors, target = list(dataset.others(0)), dataset[0]
        vec = _kernel(preferences, competitors, target, "vec")
        reference = _kernel(preferences, competitors, target, "reference")
        assert vec.objects_used == 16
        assert vec.terms_evaluated == reference.terms_evaluated
        assert vec.probability == pytest.approx(
            reference.probability, rel=TOLERANCE, abs=TOLERANCE
        )

    def test_blockzipf_partitions_within_tolerance(self):
        from repro.core.engine import SkylineProbabilityEngine

        dataset = block_zipf_dataset(60, 4, seed=71)
        preferences = HashedPreferenceModel(4, seed=72)
        engine = SkylineProbabilityEngine(dataset, preferences)
        for index in range(0, 60, 7):
            prep = engine.skyline_probability(
                index, method="det+"
            ).preprocessing
            competitors, target = list(dataset.others(index)), dataset[index]
            for part in prep.partitions:
                group = [competitors[i] for i in part]
                vec = _kernel(preferences, group, target, "vec")
                reference = _kernel(preferences, group, target, "reference")
                assert vec.terms_evaluated == reference.terms_evaluated
                assert vec.probability == pytest.approx(
                    reference.probability, rel=TOLERANCE, abs=TOLERANCE
                )

    def test_cancellation_dominated_instance_absolute_only(self):
        # near-certain dominators drive sky towards 0: the summed terms
        # are O(1) while the result is ~1e-5, so only the absolute arm
        # of the contract is meaningful — this documents *why* the
        # contract is rel-or-abs instead of purely relative
        d = 3
        preferences = PreferenceModel(d)
        competitors = []
        for i in range(10):
            values = []
            for j in range(d):
                value = f"q{i}_{j}"
                preferences.set_preference(j, value, f"o{j}", 0.9)
                values.append(value)
            competitors.append(tuple(values))
        target = tuple(f"o{j}" for j in range(d))
        vec = _kernel(preferences, competitors, target, "vec")
        reference = _kernel(preferences, competitors, target, "reference")
        assert reference.probability < 1e-4  # cancellation really occurs
        assert vec.probability == pytest.approx(
            reference.probability, rel=TOLERANCE, abs=TOLERANCE
        )

    def test_underflow_pruning_is_order_independent(self):
        # exact zeros (underflow) prune identically in every kernel:
        # pruning compares against 0.0, which no reordering can perturb
        preferences = PreferenceModel(1)
        for value in ("a", "b", "c", "d"):
            preferences.set_preference(0, value, "o", 1e-200)
        competitors = [("a",), ("b",), ("c",), ("d",)]
        vec = _kernel(preferences, competitors, ("o",), "vec")
        reference = _kernel(preferences, competitors, ("o",), "reference")
        assert vec.terms_evaluated == reference.terms_evaluated
        assert vec.probability == reference.probability == 1.0


def _grouped(components):
    """One grouped kernel call over components of one structure."""
    pairs = [_structure(component) for component in components]
    structure = pairs[0][0]
    assert all(other == structure for other, _ in pairs)
    return det_shared_vec_rows(structure, [row for _, row in pairs])


class TestGroupedRows:
    """Rows of one key structure, evaluated together, equal lone rows.

    Each row of a grouped call sees its lone evaluation's float
    operations in the same order and is summed alone, so the grouped
    result is bit-identical to the one-row call — zero-pruning counts
    included — and inherits its tolerance against ``reference``.
    """

    @given(structure_rows())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_row_calls_bit_for_bit(self, components):
        for component, grouped in zip(components, _grouped(components)):
            alone = det_shared_vec(component)
            assert grouped == alone
            assert repr(grouped.probability) == repr(alone.probability)
            reference = _det_shared_reference(component, None)
            assert grouped.terms_evaluated == reference.terms_evaluated
            assert grouped.objects_used == reference.objects_used
            assert grouped.probability == pytest.approx(
                reference.probability, rel=TOLERANCE, abs=TOLERANCE
            )

    def test_more_rows_than_one_slice(self):
        # 16 objects fill 2^16 floats per row, so a slice holds 4 rows
        # and 11 rows run in three slices.
        n, rows = 16, 11
        assert rows > exact_vec.SLICE_FLOATS >> n
        keys = [((i % 4, i % 5), (4, i % 3)) for i in range(n)]

        def factor(row, dim, value):
            return 0.05 + 0.9 * ((31 * row + 7 * dim + 13 * value) % 97) / 97

        components = [
            [
                tuple((dim, value, factor(row, dim, value)) for dim, value in obj)
                for obj in keys
            ]
            for row in range(rows)
        ]
        grouped = _grouped(components)
        assert len(grouped) == rows
        for component, result in zip(components, grouped):
            assert result == det_shared_vec(component)
            assert result.objects_used == n
