"""Core algorithms of the paper: the data model, the exact and
Monte-Carlo skyline-probability algorithms, the absorption/partition
preprocessing, and the baselines they are compared against."""

from repro.core.baselines import (
    skyline_probability_a1,
    skyline_probability_a2,
    skyline_probability_sac,
)
from repro.core.bounds import (
    hoeffding_confidence,
    hoeffding_error,
    hoeffding_sample_size,
    validate_accuracy,
    validate_robustness,
)
from repro.core.dominance import (
    DominanceCache,
    dominance_factors,
    dominance_probability,
    dominates_under,
    joint_dominance_probability,
)
from repro.core.engine import SkylineProbabilityEngine, SkylineReport
from repro.core.options import DEADLINE_POLICIES, METHODS, QueryOptions
from repro.core.dynamic import (
    DynamicSkylineEngine,
    EditReport,
    PartitionFactor,
    TargetView,
)
from repro.core.batch import (
    ON_ERROR_POLICIES,
    BatchFailure,
    BatchResult,
    batch_skyline_probabilities,
)
from repro.core.exact import (
    DEFAULT_DET_KERNEL,
    DEFAULT_MAX_OBJECTS,
    DET_KERNELS,
    ExactResult,
    bonferroni_bounds,
    det_from_factor_lists,
    inclusion_exclusion_layer_sums,
    skyline_probability_det,
)
from repro.core.naive import (
    enumerate_worlds,
    restricted_skyline_probability_naive,
    skyline_probabilities_naive,
    skyline_probability_naive,
)
from repro.core.restricted import (
    RestrictedResult,
    Restriction,
    materialize_competitor,
    normalize_restriction,
    restricted_skyline_probabilities,
    slice_factors,
)
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.preferences import PreferenceModel, PreferencePair
from repro.core.operators import (
    ThresholdClassification,
    ThresholdDecision,
    classify_against_threshold,
)
from repro.core.sensitivity import (
    PreferenceSensitivity,
    preference_sensitivity,
    sky_profile,
)
from repro.core.pruning import (
    TopKResult,
    skyline_probability_bounds,
    top_k_pruned,
)
from repro.core.validate import missing_preference_pairs, validate_coverage
from repro.core.preprocess import (
    AbsorptionResult,
    PreprocessResult,
    absorb,
    absorb_keys,
    drop_never_dominators,
    partition,
    partition_keys,
    preprocess,
)
from repro.core.sampling import (
    SamplingResult,
    skyline_probability_sampled,
    skyline_probability_sequential,
)
from repro.core.skyline import (
    deterministic_skyline,
    expected_skyline_size,
    is_skyline_point_under_oracle,
    skyline_under_oracle,
)
from repro.core.topk import (
    AllObjectsEstimate,
    estimate_all_skyline_probabilities,
    top_k_shared_worlds,
)

__all__ = [
    "Dataset",
    "ObjectValues",
    "Value",
    "as_object",
    "PreferenceModel",
    "PreferencePair",
    "dominance_factors",
    "dominance_probability",
    "dominates_under",
    "joint_dominance_probability",
    "DEFAULT_DET_KERNEL",
    "DEFAULT_MAX_OBJECTS",
    "DET_KERNELS",
    "ExactResult",
    "skyline_probability_det",
    "det_from_factor_lists",
    "inclusion_exclusion_layer_sums",
    "bonferroni_bounds",
    "skyline_probability_naive",
    "skyline_probabilities_naive",
    "restricted_skyline_probability_naive",
    "enumerate_worlds",
    "Restriction",
    "RestrictedResult",
    "normalize_restriction",
    "materialize_competitor",
    "slice_factors",
    "restricted_skyline_probabilities",
    "SamplingResult",
    "skyline_probability_sampled",
    "skyline_probability_sequential",
    "hoeffding_sample_size",
    "hoeffding_error",
    "hoeffding_confidence",
    "AbsorptionResult",
    "PreprocessResult",
    "absorb",
    "absorb_keys",
    "partition",
    "partition_keys",
    "drop_never_dominators",
    "preprocess",
    "SkylineProbabilityEngine",
    "SkylineReport",
    "METHODS",
    "DEADLINE_POLICIES",
    "QueryOptions",
    "DynamicSkylineEngine",
    "EditReport",
    "PartitionFactor",
    "TargetView",
    "DominanceCache",
    "BatchFailure",
    "BatchResult",
    "batch_skyline_probabilities",
    "ON_ERROR_POLICIES",
    "validate_accuracy",
    "validate_robustness",
    "skyline_probability_sac",
    "skyline_probability_a1",
    "skyline_probability_a2",
    "deterministic_skyline",
    "skyline_under_oracle",
    "is_skyline_point_under_oracle",
    "expected_skyline_size",
    "AllObjectsEstimate",
    "estimate_all_skyline_probabilities",
    "top_k_shared_worlds",
    "TopKResult",
    "skyline_probability_bounds",
    "top_k_pruned",
    "missing_preference_pairs",
    "validate_coverage",
    "ThresholdDecision",
    "ThresholdClassification",
    "classify_against_threshold",
    "PreferenceSensitivity",
    "preference_sensitivity",
    "sky_profile",
]
