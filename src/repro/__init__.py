"""repro — Skyline probability over uncertain preferences (EDBT 2013).

A complete, from-scratch implementation of Zhang, Ye, Lin & Zhang,
*"Skyline Probability over Uncertain Preferences"* (EDBT 2013):

* the uncertain-preference data model (fixed categorical values,
  probabilistic pairwise preferences);
* the exact algorithm ``Det`` (inclusion-exclusion with O(d)-per-term
  shared computation) and the #P-completeness machinery;
* the Monte-Carlo algorithm ``Sam`` with Hoeffding (ε, δ) guarantees;
* the absorption and partition preprocessing (``Det+`` / ``Sam+``);
* the prior-art baseline ``Sac`` and the dismissed approximations A1/A2;
* synthetic (uniform, block-zipf) and real (Nursery) workloads plus the
  full benchmark harness regenerating every figure of the paper.

Quickstart::

    from repro import Dataset, PreferenceModel, SkylineProbabilityEngine

    data = Dataset([("a", "x"), ("b", "y"), ("a", "y")])
    prefs = PreferenceModel.equal(2)          # every pair 50/50
    engine = SkylineProbabilityEngine(data, prefs)
    report = engine.skyline_probability(0)    # sky(Q1), exact
    print(report.probability)
"""

from repro.core import (
    METHODS,
    AbsorptionResult,
    AllObjectsEstimate,
    BatchFailure,
    BatchResult,
    Dataset,
    DominanceCache,
    DynamicSkylineEngine,
    EditReport,
    ExactResult,
    PreferenceModel,
    PreferencePair,
    PreprocessResult,
    QueryOptions,
    RestrictedResult,
    Restriction,
    SamplingResult,
    SkylineProbabilityEngine,
    SkylineReport,
    absorb,
    batch_skyline_probabilities,
    bonferroni_bounds,
    deterministic_skyline,
    dominance_probability,
    estimate_all_skyline_probabilities,
    expected_skyline_size,
    hoeffding_sample_size,
    joint_dominance_probability,
    normalize_restriction,
    partition,
    preprocess,
    restricted_skyline_probabilities,
    restricted_skyline_probability_naive,
    skyline_probabilities_naive,
    skyline_probability_det,
    skyline_probability_naive,
    skyline_probability_sac,
    skyline_probability_sampled,
    top_k_shared_worlds,
)
from repro.core import (
    ThresholdDecision,
    classify_against_threshold,
    missing_preference_pairs,
    preference_sensitivity,
    skyline_probability_bounds,
    top_k_pruned,
    validate_coverage,
)
from repro.errors import ReproError
from repro.obs import BatchStats, QueryStats
from repro.robustness import FaultInjector, InjectedFault, UnpicklableModel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Dataset",
    "PreferenceModel",
    "PreferencePair",
    "SkylineProbabilityEngine",
    "SkylineReport",
    "METHODS",
    "QueryOptions",
    "DominanceCache",
    "DynamicSkylineEngine",
    "EditReport",
    "BatchFailure",
    "BatchResult",
    "batch_skyline_probabilities",
    "FaultInjector",
    "InjectedFault",
    "UnpicklableModel",
    "QueryStats",
    "BatchStats",
    "ExactResult",
    "SamplingResult",
    "AbsorptionResult",
    "PreprocessResult",
    "AllObjectsEstimate",
    "dominance_probability",
    "joint_dominance_probability",
    "skyline_probability_det",
    "skyline_probability_sampled",
    "skyline_probability_naive",
    "skyline_probabilities_naive",
    "skyline_probability_sac",
    "Restriction",
    "RestrictedResult",
    "normalize_restriction",
    "restricted_skyline_probabilities",
    "restricted_skyline_probability_naive",
    "bonferroni_bounds",
    "hoeffding_sample_size",
    "absorb",
    "partition",
    "preprocess",
    "deterministic_skyline",
    "expected_skyline_size",
    "estimate_all_skyline_probabilities",
    "top_k_shared_worlds",
    "skyline_probability_bounds",
    "top_k_pruned",
    "missing_preference_pairs",
    "validate_coverage",
    "ThresholdDecision",
    "classify_against_threshold",
    "preference_sensitivity",
]
