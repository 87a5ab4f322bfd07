"""Differential tests for the Algorithm 1 evaluation kernels.

``skyline_probability_det`` ships three kernels for the shared-computation
traversal:

* ``"reference"`` — the original recursive transcription, the oracle;
* ``"fast"`` — an interpreter-lean rewrite performing the same float
  operations in the same order, so every result (probability,
  visited-term count, objects used) must be **bit-for-bit** equal;
* ``"vec"`` — a NumPy subset-doubling evaluation
  (:mod:`repro.core.exact_vec`): identical ``terms_evaluated``/
  ``objects_used`` provenance, probability equal within a ≤1e-12
  tolerance — relative, or absolute under inclusion-exclusion
  cancellation (different but equally valid summation order; the exact
  equality classes are pinned in ``tests/test_numerics_vec.py``).

The dispatcher also evaluates many small components of one key
structure in lockstep (``det_shared_lockstep_rows``), which must equal
``"fast"`` and ``"reference"`` bit for bit, row by row.

The tri-kernel suite drives all three over the same inputs — paper
examples, preprocessed partitions, raw datasets, hypothesis-generated
spaces — and over the budget/deadline/duplicate edge cases.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import dominance_factors as engine_factors
from repro.core.dynamic import DynamicSkylineEngine
from repro.core.exact import (
    DET_KERNELS,
    VEC_CROSSOVER,
    _LOCKSTEP_MIN_ROWS,
    Component,
    _det_shared_fast,
    _det_shared_reference,
    _solve,
    det_from_factor_lists,
    skyline_probability_det,
)
from repro.core.exact_vec import (
    VEC_MAX_OBJECTS,
    _structure,
    det_shared_lockstep_rows,
    det_shared_vec_rows,
)
from repro.core.engine import SkylineProbabilityEngine
from repro.core.preferences import PreferenceModel
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import observation_example, running_example
from repro.data.procedural import HashedPreferenceModel
from repro.errors import (
    ComputationBudgetError,
    DeadlineExceededError,
    ReproError,
)

from strategies import (
    disjoint_instance,
    shared_value_instance,
    structure_rows,
    uncertain_instance,
)

#: Relative tolerance of the vec-vs-recursive probability contract.
VEC_REL_TOL = 1e-12


def _both_kernels(preferences, competitors, target, **options):
    return (
        skyline_probability_det(
            preferences, competitors, target, kernel="fast", **options
        ),
        skyline_probability_det(
            preferences, competitors, target, kernel="reference", **options
        ),
    )


def _all_kernels(preferences, competitors, target, **options):
    return {
        kernel: skyline_probability_det(
            preferences, competitors, target, kernel=kernel, **options
        )
        for kernel in DET_KERNELS
    }


def assert_tri_kernel_agreement(results):
    """The cross-kernel contract, in one place.

    ``fast`` vs ``reference``: bit-for-bit.  ``vec`` vs ``reference``:
    integer provenance exactly equal, probability within
    :data:`VEC_REL_TOL` — relative, or absolute when inclusion-exclusion
    cancellation leaves a result much smaller than the summed terms
    (relative error is amplified there for *both* summation orders; see
    ``tests/test_numerics_vec.py``).  ``auto``: bit-for-bit the kernel
    its dominator count routes to.
    """
    reference = results["reference"]
    assert results["fast"] == reference
    vec = results["vec"]
    assert vec.terms_evaluated == reference.terms_evaluated
    assert vec.objects_used == reference.objects_used
    assert vec.probability == pytest.approx(
        reference.probability, rel=VEC_REL_TOL, abs=VEC_REL_TOL
    )
    routed_to_vec = VEC_CROSSOVER <= vec.objects_used <= VEC_MAX_OBJECTS
    assert results["auto"] == results["vec" if routed_to_vec else "fast"]


class TestBitForBitEquality:
    """The original two-kernel contract: fast == reference exactly."""

    @pytest.mark.parametrize("example", [running_example, observation_example])
    def test_paper_examples(self, example):
        dataset, preferences = example()
        for index in range(len(dataset)):
            fast, reference = _both_kernels(
                preferences, list(dataset.others(index)), dataset[index]
            )
            assert fast == reference

    def test_blockzipf_partitions(self):
        dataset = block_zipf_dataset(40, 3, seed=20)
        preferences = HashedPreferenceModel(3, seed=21)
        engine = SkylineProbabilityEngine(dataset, preferences)
        for index in range(0, 40, 5):
            report = engine.skyline_probability(index, method="det+")
            prep = report.preprocessing
            competitors = list(dataset.others(index))
            for part in prep.partitions:
                group = [competitors[i] for i in part]
                fast, reference = _both_kernels(
                    preferences, group, dataset[index]
                )
                assert fast == reference

    @given(uncertain_instance())
    @settings(max_examples=40, deadline=None)
    def test_random_spaces(self, instance):
        preferences, competitors, target = instance
        fast, reference = _both_kernels(preferences, competitors, target)
        assert fast == reference

    @given(disjoint_instance())
    @settings(max_examples=30, deadline=None)
    def test_random_disjoint_spaces_with_zero_pruning(self, instance):
        # disjoint instances draw 0.0 preference probabilities, which
        # exercises both the never-dominator filter and zero-subtree
        # pruning (the analytic term count must match the visited count)
        preferences, competitors, target = instance
        fast, reference = _both_kernels(preferences, competitors, target)
        assert fast == reference

    def test_all_competitors_filtered(self):
        # a single competitor that can never dominate: n drops to 0 and
        # both kernels must report the certain skyline
        preferences = PreferenceModel(1)
        preferences.set_preference(0, "a", "o", 0.0)
        fast, reference = _both_kernels(preferences, [("a",)], ("o",))
        assert fast == reference
        assert fast.probability == 1.0
        assert fast.terms_evaluated == 0

    def test_engine_kernels_agree_end_to_end(self):
        dataset = block_zipf_dataset(25, 3, seed=22)
        preferences = HashedPreferenceModel(3, seed=23)
        fast = SkylineProbabilityEngine(dataset, preferences)
        pinned = SkylineProbabilityEngine(dataset, preferences)
        for index in range(len(dataset)):
            assert fast.skyline_probability(
                index, method="det+", det_kernel="fast"
            ) == pinned.skyline_probability(
                index, method="det+", det_kernel="reference"
            )


class TestTriKernelDifferential:
    """vec vs fast vs reference over the same inputs."""

    @pytest.mark.parametrize("example", [running_example, observation_example])
    def test_paper_examples(self, example):
        dataset, preferences = example()
        for index in range(len(dataset)):
            assert_tri_kernel_agreement(
                _all_kernels(
                    preferences, list(dataset.others(index)), dataset[index]
                )
            )

    def test_preprocessed_blockzipf_partitions(self):
        dataset = block_zipf_dataset(40, 3, seed=20)
        preferences = HashedPreferenceModel(3, seed=21)
        engine = SkylineProbabilityEngine(dataset, preferences)
        for index in range(0, 40, 5):
            prep = engine.skyline_probability(
                index, method="det+"
            ).preprocessing
            competitors = list(dataset.others(index))
            for part in prep.partitions:
                group = [competitors[i] for i in part]
                assert_tri_kernel_agreement(
                    _all_kernels(preferences, group, dataset[index])
                )

    def test_raw_unpreprocessed_dataset(self):
        # the whole dataset as competitors, no absorption/partition —
        # one big shared-key instance per target
        dataset = block_zipf_dataset(14, 3, seed=26)
        preferences = HashedPreferenceModel(3, seed=27)
        for index in range(0, 14, 3):
            assert_tri_kernel_agreement(
                _all_kernels(
                    preferences, list(dataset.others(index)), dataset[index]
                )
            )

    @given(uncertain_instance())
    @settings(max_examples=40, deadline=None)
    def test_random_spaces(self, instance):
        preferences, competitors, target = instance
        assert_tri_kernel_agreement(
            _all_kernels(preferences, competitors, target)
        )

    @given(disjoint_instance())
    @settings(max_examples=30, deadline=None)
    def test_random_disjoint_spaces(self, instance):
        # pairwise-disjoint keys: the vec kernel's scalar (never-shared)
        # path end to end — the mask index array is never even built
        preferences, competitors, target = instance
        assert_tri_kernel_agreement(
            _all_kernels(preferences, competitors, target)
        )

    @given(shared_value_instance())
    @settings(max_examples=40, deadline=None)
    def test_random_shared_key_spaces(self, instance):
        # up to 8 doubling levels with heavy key sharing: the vec
        # kernel's masked-multiply path under load
        preferences, competitors, target = instance
        assert_tri_kernel_agreement(
            _all_kernels(preferences, competitors, target)
        )

    def test_duplicate_target_is_exact_zero(self):
        dataset, preferences = running_example()
        competitors = [dataset[0], dataset[1]]
        for kernel, result in _all_kernels(
            preferences, competitors, dataset[0]
        ).items():
            assert result.probability == 0.0, kernel
            assert result.terms_evaluated == 0
            assert result.objects_used == 0

    def test_empty_partition_is_exact_one(self):
        # all competitors filtered (never dominate): the certain skyline
        preferences = PreferenceModel(1)
        preferences.set_preference(0, "a", "o", 0.0)
        for kernel, result in _all_kernels(
            preferences, [("a",)], ("o",)
        ).items():
            assert result.probability == 1.0, kernel
            assert result.terms_evaluated == 0

    def test_singleton_partition(self):
        preferences = PreferenceModel(2)
        preferences.set_preference(0, "x", "o0", 0.3)
        preferences.set_preference(1, "y", "o1", 0.7)
        results = _all_kernels(preferences, [("x", "y")], ("o0", "o1"))
        # one competitor: a single multiplication chain, so even vec is
        # bit-identical (pinned in test_numerics_vec.py)
        assert results["vec"] == results["reference"] == results["fast"]

    def test_underflow_pruning_parity(self):
        # factors of 1e-300 make every pairwise product underflow to
        # exactly 0.0, triggering zero-subtree pruning mid-lattice; the
        # visited-term count must agree across all three kernels
        preferences = PreferenceModel(1)
        for value in ("a", "b", "c"):
            preferences.set_preference(0, value, "o", 1e-300)
        results = _all_kernels(
            preferences, [("a",), ("b",), ("c",)], ("o",)
        )
        reference = results["reference"]
        # singles visited (3), pairs visited but zero (3), the triple
        # is pruned below the zero pairs
        assert reference.terms_evaluated == 6
        assert_tri_kernel_agreement(results)

    def test_max_terms_truncation_raises_on_every_kernel(self):
        dataset, preferences = running_example()
        for kernel in DET_KERNELS:
            with pytest.raises(ComputationBudgetError, match="max_terms"):
                skyline_probability_det(
                    preferences,
                    list(dataset.others(0)),
                    dataset[0],
                    max_terms=2,
                    kernel=kernel,
                )

    def test_deadline_expiry_mid_walk_raises_on_every_kernel(self):
        dataset = block_zipf_dataset(14, 3, seed=26)
        preferences = HashedPreferenceModel(3, seed=27)
        expired = time.monotonic() - 0.001
        for kernel in DET_KERNELS:
            with pytest.raises(DeadlineExceededError):
                skyline_probability_det(
                    preferences,
                    list(dataset.others(0)),
                    dataset[0],
                    kernel=kernel,
                    deadline_at=expired,
                )

    def test_engine_degrades_vec_on_deadline(self):
        # an impossible deadline forces the engine's Det→Sam degradation
        # with the vec kernel selected, same as the recursive kernels
        dataset = block_zipf_dataset(30, 3, seed=28)
        preferences = HashedPreferenceModel(3, seed=29)
        engine = SkylineProbabilityEngine(dataset, preferences)
        report = engine.skyline_probability(
            0, method="det+", det_kernel="vec", deadline=1e-9, seed=7
        )
        assert report.degraded
        assert report.method.startswith("sam")

    def test_engine_end_to_end_vec(self):
        dataset = block_zipf_dataset(25, 3, seed=22)
        preferences = HashedPreferenceModel(3, seed=23)
        vec_engine = SkylineProbabilityEngine(dataset, preferences)
        ref_engine = SkylineProbabilityEngine(dataset, preferences)
        for index in range(len(dataset)):
            vec = vec_engine.skyline_probability(
                index, method="det+", det_kernel="vec"
            )
            reference = ref_engine.skyline_probability(
                index, method="det+", det_kernel="reference"
            )
            assert vec.probability == pytest.approx(
                reference.probability, rel=VEC_REL_TOL, abs=VEC_REL_TOL
            )

    def test_engine_memo_never_crosses_kernels(self):
        # one engine queried with both kernels: the second query must be
        # answered by its own kernel, not the other kernel's memo entry
        dataset = block_zipf_dataset(25, 3, seed=22)
        preferences = HashedPreferenceModel(3, seed=23)
        mixed = SkylineProbabilityEngine(dataset, preferences)
        pinned = SkylineProbabilityEngine(dataset, preferences)
        for index in range(len(dataset)):
            mixed.skyline_probability(index, method="det+")  # fast, memoised
            mixed_vec = mixed.skyline_probability(
                index, method="det+", det_kernel="vec"
            )
            assert mixed_vec == pinned.skyline_probability(
                index, method="det+", det_kernel="vec"
            )

    def test_batch_planner_routes_vec(self):
        dataset = block_zipf_dataset(30, 3, seed=60)
        preferences = HashedPreferenceModel(3, seed=61)
        from repro.core.batch import batch_skyline_probabilities

        serial = [
            SkylineProbabilityEngine(dataset, preferences)
            .skyline_probability(i, method="det+", det_kernel="vec")
            .probability
            for i in range(len(dataset))
        ]
        result = batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences),
            method="det+",
            det_kernel="vec",
            workers=2,
        )
        assert list(result.probabilities) == serial

    def test_dynamic_engine_warm_views_match_cold_rebuild(self):
        # the dynamic engine's warm recompute must stay bit-identical to
        # a cold rebuild under the same kernel — for vec too
        dataset = block_zipf_dataset(30, 3, seed=40)
        preferences = HashedPreferenceModel(3, seed=41)
        dynamic = DynamicSkylineEngine(
            dataset, preferences.copy(), det_kernel="vec"
        )
        dynamic.insert_object(tuple(f"new{j}" for j in range(3)))
        dynamic.remove_object(0)
        cold = DynamicSkylineEngine(
            dynamic.dataset, preferences.copy(), det_kernel="vec"
        )
        for index in range(dynamic.cardinality):
            assert (
                dynamic.skyline_probability(index).probability
                == cold.skyline_probability(index).probability
            )

    def test_dynamic_engine_rejects_unknown_kernel(self):
        dataset, preferences = running_example()
        with pytest.raises(ReproError, match="det_kernel"):
            DynamicSkylineEngine(dataset, preferences, det_kernel="gpu")


def _shared_key_component(n, *, seed=2):
    """``n`` competitors that all survive the filter and share keys.

    Competitor ``i`` is ``(a{i % 3}, b{i % 4})`` against target
    ``(o, o)``, so values repeat across competitors and the vec kernel's
    masked-multiply path runs; with ``seed=2`` its probability differs
    from the recursive kernels' in the last ulps at n = 7 and n = 8.
    """
    rng = random.Random(seed)
    preferences = PreferenceModel(2)
    for k in range(3):
        preferences.set_preference(0, f"a{k}", "o", rng.uniform(0.05, 0.95))
    for k in range(4):
        preferences.set_preference(1, f"b{k}", "o", rng.uniform(0.05, 0.95))
    competitors = [(f"a{i % 3}", f"b{i % 4}") for i in range(n)]
    return preferences, competitors, ("o", "o")


class TestRoutedDefault:
    """The ``"auto"`` default: fast below VEC_CROSSOVER, vec from it up."""

    def test_below_crossover_is_fast_bit_for_bit(self):
        instance = _shared_key_component(VEC_CROSSOVER - 1)
        results = _all_kernels(*instance)
        assert results["fast"].objects_used == VEC_CROSSOVER - 1
        # the instance tells the two kernels apart ...
        assert results["vec"].probability != results["fast"].probability
        # ... and the default picks fast, armed deadline or not (an armed
        # one runs the bit-identical reference walk)
        assert skyline_probability_det(*instance) == results["fast"]
        assert skyline_probability_det(
            *instance, deadline_at=time.monotonic() + 3600
        ) == results["fast"]

    def test_at_crossover_is_vec_bit_for_bit(self):
        instance = _shared_key_component(VEC_CROSSOVER)
        results = _all_kernels(*instance)
        assert results["vec"].objects_used == VEC_CROSSOVER
        assert results["vec"].probability != results["fast"].probability
        # vec checks an armed deadline natively, so it stays on vec
        assert skyline_probability_det(*instance) == results["vec"]
        assert skyline_probability_det(
            *instance, deadline_at=time.monotonic() + 3600
        ) == results["vec"]

    def test_engine_default_matches_reference_per_partition(self):
        dataset = block_zipf_dataset(25, 3, seed=22)
        preferences = HashedPreferenceModel(3, seed=23)
        default = SkylineProbabilityEngine(dataset, preferences)
        pinned = SkylineProbabilityEngine(dataset, preferences)
        sizes = set()
        for index in range(len(dataset)):
            routed = default.skyline_probability(index, method="det+")
            reference = pinned.skyline_probability(
                index, method="det+", det_kernel="reference"
            )
            assert len(routed.partition_results) == len(
                reference.partition_results
            )
            for mine, theirs in zip(
                routed.partition_results, reference.partition_results
            ):
                assert mine.terms_evaluated == theirs.terms_evaluated
                assert mine.objects_used == theirs.objects_used
                sizes.add(mine.objects_used)
            assert routed.probability == pytest.approx(
                reference.probability, rel=VEC_REL_TOL, abs=VEC_REL_TOL
            )
        # components on both sides of the crossover were solved
        assert min(sizes) < VEC_CROSSOVER <= max(sizes)

    def test_above_vec_ceiling_stays_on_fast(self):
        # VEC_MAX_OBJECTS + 2 dominators, each factor 1e-300: every pair
        # underflows to 0, so the recursive walk is O(n^2) terms while
        # vec would refuse the 2^28 array.  The default must route the
        # component to fast (no ComputationBudgetError) and answer
        # exactly what the reference kernel does.
        preferences = PreferenceModel(1)
        competitors = []
        for index in range(VEC_MAX_OBJECTS + 2):
            value = f"v{index}"
            preferences.set_preference(0, value, "o", 1e-300)
            competitors.append((value,))
        options = dict(max_objects=VEC_MAX_OBJECTS + 10)
        routed = skyline_probability_det(
            preferences, competitors, ("o",), **options
        )
        reference = skyline_probability_det(
            preferences, competitors, ("o",), kernel="reference", **options
        )
        assert routed == reference
        assert routed.objects_used == VEC_MAX_OBJECTS + 2


class TestGroupedDispatch:
    """Many components in one exact call: grouped vec, isolated failures."""

    def _components(self):
        # The components of every fourth target under block-zipf (sizes
        # on both sides of the crossover), plus copies of the largest
        # with scaled factors: the same key structure, other values.
        dataset = block_zipf_dataset(40, 3, seed=20)
        preferences = HashedPreferenceModel(3, seed=21)
        engine = SkylineProbabilityEngine(dataset, preferences)
        components = []
        for index in range(0, 40, 4):
            competitors = list(dataset.others(index))
            prep = engine.skyline_probability(index, method="det+").preprocessing
            for part in prep.partitions:
                components.append(
                    [
                        engine_factors(preferences, competitors[m], dataset[index])
                        for m in part
                    ]
                )
        large = max(components, key=len)
        assert len(large) >= VEC_CROSSOVER
        for scale in (0.5, 0.75, 0.9):
            components.append(
                [
                    tuple((j, v, f * scale) for j, v, f in factors)
                    for factors in large
                ]
            )
        return components

    def test_outcomes_equal_one_component_calls(self):
        components = self._components()
        solves = []
        outcomes = _solve(
            components,
            max_objects=25,
            kernel="auto",
            deadline_at=None,
            progress=solves.append,
        )
        assert len(outcomes) == len(components)
        for component, outcome in zip(components, outcomes):
            assert outcome == det_from_factor_lists(component)
        vec = {
            _structure(c)[0]
            for c in components
            if VEC_CROSSOVER <= len(c) <= VEC_MAX_OBJECTS
        }
        small = [_structure(c)[0] for c in components if len(c) < VEC_CROSSOVER]
        lockstep = {s for s in small if small.count(s) >= _LOCKSTEP_MIN_ROWS}
        # every recursive solve is announced with its position, in order,
        # then each group: one call per structure (small structures with
        # enough rows run in lockstep), and the scaled copies shared one
        alone = [
            p
            for p, c in enumerate(components)
            if len(c) < VEC_CROSSOVER and _structure(c)[0] not in lockstep
        ]
        assert lockstep
        assert solves == alone + [None] * (len(lockstep) + len(vec))
        assert len(vec) < sum(1 for c in components if VEC_CROSSOVER <= len(c))

    def test_failing_component_fails_only_itself(self):
        components = self._components()
        small, large = min(components, key=len), max(components, key=len)
        outcomes = _solve(
            [small, large, [(), *large], large],
            max_objects=len(large) - 1,
            kernel="auto",
            deadline_at=None,
        )
        assert outcomes[0] == det_from_factor_lists(small)
        # over budget: each copy carries its own error
        for position in (1, 3):
            assert isinstance(outcomes[position], ComputationBudgetError)
        assert outcomes[1] is not outcomes[3]
        # a duplicate competitor answers 0 before any budget applies
        assert outcomes[2].probability == 0.0

    def test_grouped_call_with_expired_deadline_raises(self):
        components = self._components()
        large = max(components, key=len)
        structure, row = _structure(large)
        with pytest.raises(DeadlineExceededError):
            det_shared_vec_rows(
                structure, [row, row], deadline_at=time.monotonic() - 0.001
            )
        outcomes = _solve(
            [large, large],
            max_objects=25,
            kernel="vec",
            deadline_at=time.monotonic() - 0.001,
        )
        assert all(isinstance(o, DeadlineExceededError) for o in outcomes)


class TestInstrumentationNeutrality:
    """Enabling ``repro.obs`` must never change an answer.

    The hooks only read results after the fact; no probability, RNG
    stream or kernel evaluation order may depend on the switch.
    """

    def test_kernels_bit_identical_with_obs_enabled(self):
        import repro.obs as obs

        dataset, preferences = running_example()
        competitors, target = list(dataset.others(0)), dataset[0]
        plain = _all_kernels(preferences, competitors, target)
        with obs.enabled():
            instrumented = _all_kernels(preferences, competitors, target)
        assert instrumented == plain

    @pytest.mark.parametrize(
        "method", ["det", "det+", "sam", "sam+", "naive", "auto"]
    )
    def test_engine_reports_identical_up_to_stats(self, method):
        import dataclasses

        import repro.obs as obs

        dataset, preferences = running_example()
        baseline_engine = SkylineProbabilityEngine(dataset, preferences)
        observed_engine = SkylineProbabilityEngine(dataset, preferences)
        options = dict(method=method, samples=500, seed=13)
        baseline = baseline_engine.skyline_probability(0, **options)
        with obs.enabled():
            observed = observed_engine.skyline_probability(0, **options)
        assert baseline.stats is None
        assert observed.stats is not None
        for field in dataclasses.fields(baseline):
            if field.name == "stats":
                continue
            assert getattr(observed, field.name) == getattr(
                baseline, field.name
            ), field.name


class TestBudgetsAndValidation:
    def test_max_terms_guard_applies_to_both(self):
        dataset, preferences = running_example()
        for kernel in DET_KERNELS:
            with pytest.raises(ComputationBudgetError, match="max_terms"):
                skyline_probability_det(
                    preferences,
                    list(dataset.others(0)),
                    dataset[0],
                    max_terms=2,
                    kernel=kernel,
                )

    def test_max_objects_guard_applies_to_both(self):
        dataset = block_zipf_dataset(40, 3, seed=24)
        preferences = HashedPreferenceModel(3, seed=25)
        for kernel in DET_KERNELS:
            with pytest.raises(ComputationBudgetError, match="max_objects"):
                skyline_probability_det(
                    preferences,
                    list(dataset.others(0)),
                    dataset[0],
                    max_objects=5,
                    kernel=kernel,
                )

    def test_vec_memory_ceiling_guard(self):
        # the dense subset array is O(2^n) floats, so the vec kernel
        # refuses beyond VEC_MAX_OBJECTS even when max_objects allows it
        preferences = PreferenceModel(1)
        competitors = []
        for index in range(VEC_MAX_OBJECTS + 2):
            value = f"v{index}"
            preferences.set_preference(0, value, "o", 0.5)
            competitors.append((value,))
        with pytest.raises(ComputationBudgetError, match="vec"):
            skyline_probability_det(
                preferences,
                competitors,
                ("o",),
                kernel="vec",
                max_objects=VEC_MAX_OBJECTS + 10,
            )

    def test_unknown_kernel_rejected(self):
        dataset, preferences = running_example()
        with pytest.raises(ValueError, match="kernel"):
            skyline_probability_det(
                preferences, list(dataset.others(0)), dataset[0], kernel="gpu"
            )

    def test_engine_rejects_unknown_kernel(self):
        dataset, preferences = running_example()
        engine = SkylineProbabilityEngine(dataset, preferences)
        with pytest.raises(ReproError, match="det_kernel"):
            engine.skyline_probability(0, det_kernel="gpu")

    def test_sharing_ablation_unaffected(self):
        # share_computation=False bypasses the kernels entirely; the
        # ablation baseline must still agree on the probability
        dataset, preferences = running_example()
        unshared = skyline_probability_det(
            preferences,
            list(dataset.others(0)),
            dataset[0],
            share_computation=False,
        )
        fast, reference = _both_kernels(
            preferences, list(dataset.others(0)), dataset[0]
        )
        assert unshared.probability == pytest.approx(fast.probability, abs=1e-12)
        assert fast == reference


#: Factors whose products underflow: 1e-160 squared is 1e-320 (a
#: subnormal), cubed exactly 0; 5e-324 is the smallest subnormal, so
#: any factor below 0.5 takes it to exactly 0.
_TINY_FACTORS = (1e-160, 5e-324)


@st.composite
def lockstep_group(draw):
    """Rows of one key structure of 1-7 dominators, as ``(structure,
    rows)``; about a third of the rows hold underflowing factors."""
    components = draw(structure_rows(max_objects=VEC_CROSSOVER - 1, max_rows=24))
    structure = _structure(components[0]).structure
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for component in components:
        row = list(_structure(component).row)
        if rng.random() < 0.35:
            for position in range(len(row)):
                if rng.random() < 0.4:
                    row[position] = rng.choice(_TINY_FACTORS)
        rows.append(tuple(row))
    return structure, rows


def _assert_rows_equal_recursive_kernels(structure, rows, results):
    assert len(results) == len(rows)
    for row, result in zip(rows, results):
        component = Component(structure, row)
        for alone in (
            _det_shared_fast(component),
            _det_shared_reference(component, None),
        ):
            assert repr(result.probability) == repr(alone.probability)
            assert result.terms_evaluated == alone.terms_evaluated
            assert result.objects_used == alone.objects_used


class TestLockstep:
    """Small components of one key structure, evaluated in lockstep."""

    @given(lockstep_group())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_fast_and_reference_bit_for_bit(self, group):
        structure, rows = group
        results = det_shared_lockstep_rows(structure, rows)
        _assert_rows_equal_recursive_kernels(structure, rows, results)

    def test_underflow_rows_prune_like_fast(self):
        # Three objects of disjoint keys: a row of 1e-160 factors keeps
        # its pairs (1e-320, a subnormal) and zeros its triple; 5e-324
        # times 0.4 is exactly 0, so that row prunes below its pairs.
        structure = ((0,), (1,), (2,))
        rows = [
            (0.5, 0.25, 0.75),
            (1e-160, 1e-160, 1e-160),
            (5e-324, 0.4, 0.9),
            (1e-160, 5e-324, 1.0),
        ]
        results = det_shared_lockstep_rows(structure, rows)
        _assert_rows_equal_recursive_kernels(structure, rows, results)
        assert [r.terms_evaluated for r in results] == [7, 7, 6, 6]

    def test_every_dominator_count_below_the_crossover(self):
        rng = random.Random(24)
        for n in range(1, VEC_CROSSOVER):
            # Each object holds one key of its own and one of three
            # shared keys, so later objects meet covered keys.
            structure = tuple((2 * t, 1 + 2 * (t % 3)) for t in range(n))
            ids = sorted({i for ids in structure for i in ids})
            renumber = {old: new for new, old in enumerate(ids)}
            structure = tuple(tuple(renumber[i] for i in ids) for ids in structure)
            rows = [
                tuple(
                    rng.choice(_TINY_FACTORS) if rng.random() < 0.1 else rng.random()
                    for _ in range(2 * n)
                )
                for _ in range(40)
            ]
            results = det_shared_lockstep_rows(structure, rows)
            _assert_rows_equal_recursive_kernels(structure, rows, results)

    def test_rows_run_in_slices(self, monkeypatch):
        from repro.core import exact_vec

        structure = ((0, 1), (1, 2), (0, 3))
        rng = random.Random(5)
        rows = [tuple(rng.random() for _ in range(6)) for _ in range(11)]
        whole = det_shared_lockstep_rows(structure, rows)
        # 2^3 products and 6 factors per row: a 28-float slice holds 2.
        monkeypatch.setattr(exact_vec, "SLICE_FLOATS", 28)
        assert [repr(r) for r in det_shared_lockstep_rows(structure, rows)] == [
            repr(r) for r in whole
        ]

    def test_empty_structure(self):
        assert det_shared_lockstep_rows((), [(), ()]) == [
            det_from_factor_lists([])
        ] * 2


class TestLockstepDispatch:
    """Which components ``_solve`` evaluates in lockstep, and in what order."""

    @staticmethod
    def _copies(factor_lists, count, start=0):
        return [
            [
                tuple((j, v, f * (1.0 - (start + r) / 64)) for j, v, f in factors)
                for factors in factor_lists
            ]
            for r in range(count)
        ]

    @pytest.fixture
    def calls(self, monkeypatch):
        """(evaluator, rows) of every grouped evaluation."""
        import repro.core.exact_vec as exact_vec

        seen = []
        lockstep = exact_vec.det_shared_lockstep_rows
        vec = exact_vec.det_shared_vec_rows

        def recording_lockstep(structure, rows):
            seen.append(("lockstep", len(rows)))
            return lockstep(structure, rows)

        def recording_vec(structure, rows, deadline_at=None):
            seen.append(("vec", len(rows)))
            return vec(structure, rows, deadline_at)

        monkeypatch.setattr(exact_vec, "det_shared_lockstep_rows", recording_lockstep)
        monkeypatch.setattr(exact_vec, "det_shared_vec_rows", recording_vec)
        return seen

    @pytest.fixture(scope="class")
    def dominators(self):
        dataset = block_zipf_dataset(60, 4, blocks=1, seed=230)
        preferences = HashedPreferenceModel(4, seed=231)
        lists = [
            engine_factors(preferences, competitor, dataset[0])
            for competitor in dataset.others(0)
        ]
        return [f for f in lists if f and all(p != 0.0 for _, _, p in f)]

    def test_large_small_groups_run_in_lockstep(self, calls, dominators):
        grouped = self._copies(dominators[:3], _LOCKSTEP_MIN_ROWS)
        lone = self._copies(dominators[3:5], _LOCKSTEP_MIN_ROWS - 1)
        large = self._copies(dominators[:VEC_CROSSOVER], 2)
        # Interleaved, with an underflowing row in the lockstep group.
        components = []
        for index in range(_LOCKSTEP_MIN_ROWS):
            components.append(grouped[index])
            if index < len(lone):
                components.append(lone[index])
        components[2] = [
            tuple((j, v, 1e-160) for j, v, _ in factors) for factors in components[2]
        ]
        components += large
        solves = []
        outcomes = _solve(
            components, max_objects=25, kernel="auto", deadline_at=None,
            progress=solves.append,
        )
        assert calls == [("lockstep", _LOCKSTEP_MIN_ROWS), ("vec", 2)]
        for component, outcome in zip(components, outcomes):
            alone = det_from_factor_lists(component)
            assert repr(outcome) == repr(alone)
            if len(component) < VEC_CROSSOVER:
                assert outcome == det_from_factor_lists(component, kernel="reference")
        assert outcomes[2].terms_evaluated < 7
        # The lone components are announced by position, in order, then
        # one None before each group.
        lone_positions = [p for p, c in enumerate(components) if len(c) == 2]
        assert solves == lone_positions + [None, None]

    def test_explicit_fast_kernel_uses_lockstep(self, calls, dominators):
        components = self._copies(dominators[:4], _LOCKSTEP_MIN_ROWS)
        outcomes = _solve(
            components, max_objects=25, kernel="fast", deadline_at=None
        )
        assert calls == [("lockstep", _LOCKSTEP_MIN_ROWS)]
        for component, outcome in zip(components, outcomes):
            assert repr(outcome) == repr(
                det_from_factor_lists(component, kernel="fast")
            )

    @pytest.mark.parametrize(
        "options",
        [
            dict(kernel="auto", deadline_at=time.monotonic() + 3600),
            dict(kernel="auto", deadline_at=None, max_terms=10**6),
            dict(kernel="auto", deadline_at=None, share_computation=False),
            dict(kernel="reference", deadline_at=None),
        ],
        ids=["deadline", "max_terms", "no_sharing", "reference"],
    )
    def test_routes_that_keep_their_kernel(self, calls, dominators, options):
        components = self._copies(dominators[:3], _LOCKSTEP_MIN_ROWS)
        outcomes = _solve(components, max_objects=25, **options)
        assert calls == []
        for component, outcome in zip(components, outcomes):
            if options.get("share_computation", True):
                expected = det_from_factor_lists(component, kernel="reference")
            else:
                expected = _solve(
                    [component], max_objects=25, kernel="auto",
                    deadline_at=None, share_computation=False,
                )[0]
            assert repr(outcome) == repr(expected)

    def test_vec_kernel_and_large_fast_components_skip_lockstep(
        self, calls, dominators
    ):
        small = self._copies(dominators[:3], _LOCKSTEP_MIN_ROWS)
        _solve(small, max_objects=25, kernel="vec", deadline_at=None)
        assert calls == [("vec", _LOCKSTEP_MIN_ROWS)]
        large = self._copies(dominators[:VEC_CROSSOVER], _LOCKSTEP_MIN_ROWS)
        outcomes = _solve(large, max_objects=25, kernel="fast", deadline_at=None)
        assert calls == [("vec", _LOCKSTEP_MIN_ROWS)]
        assert outcomes[0] == det_from_factor_lists(large[0], kernel="reference")

    def test_obs_counters_equal_one_component_calls(self, dominators):
        import repro.obs as obs

        components = self._copies(dominators[:5], _LOCKSTEP_MIN_ROWS)
        components[0] = [
            tuple((j, v, 5e-324) for j, v, _ in factors) for factors in components[0]
        ]
        names = (
            "repro_exact_runs_total",
            "repro_ie_terms_evaluated_total",
            "repro_ie_terms_zero_pruned_total",
        )

        def counters(run):
            with obs.enabled():
                registry = obs.registry()
                before = [registry.counter(name).value() for name in names]
                run()
                return [
                    registry.counter(name).value() - start
                    for name, start in zip(names, before)
                ]

        grouped = counters(
            lambda: _solve(components, max_objects=25, kernel="auto", deadline_at=None)
        )
        alone = counters(
            lambda: [det_from_factor_lists(c) for c in components]
        )
        assert grouped == alone
        assert grouped[2] > 0  # the underflowing row pruned terms
