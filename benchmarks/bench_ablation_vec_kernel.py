"""Benchmark: the Det kernels on one raw inclusion-exclusion query.

``repro.core.exact`` registers three kernels for Algorithm 1's sum over
the 2^n dominator subsets, plus the default ``"auto"``, which routes each
component to ``"fast"`` or ``"vec"`` by its dominator count:

* ``"reference"`` — the seed's recursive transcription with per-term
  provenance accounting (the oracle, and the only kernel honouring
  ``max_terms``);
* ``"fast"`` — the same recursion with the bookkeeping stripped,
  bit-for-bit equal to the reference;
* ``"vec"`` — the vectorised kernel (``repro.core.exact_vec``): the
  signed terms of all 2^n subsets live in one NumPy array grown by
  subset doubling, so the per-term cost is a handful of vectorised
  multiplies instead of an interpreted recursion step.

The workload is a single uniform-data query at d=5, where nearly every
competitor survives dominance filtering — the regime where the term
space is largest and kernel overhead dominates.  The registered
``ablation_vec_kernel`` experiment (``python -m repro.bench
ablation_vec_kernel``) records the full per-size sweep that sets the
routing crossover in ``results/ablation_vec_kernel.{json,md}``; this
module is its pytest-benchmark twin at a CI-friendly size.
"""

from __future__ import annotations

import pytest

from repro.core.exact import DET_KERNELS, skyline_probability_det
from repro.data.procedural import HashedPreferenceModel
from repro.data.uniform import uniform_dataset


def make_query(n=14, d=5, *, seed=205, preference_seed=191):
    """One raw-Det query whose dominator count is close to n - 1."""
    dataset = uniform_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return preferences, list(dataset.others(0)), dataset[0]


@pytest.mark.parametrize("kernel", list(DET_KERNELS))
def test_det_kernel(benchmark, kernel):
    preferences, competitors, target = make_query()
    result = benchmark.pedantic(
        skyline_probability_det,
        args=(preferences, competitors, target),
        kwargs={"kernel": kernel},
        rounds=3,
        iterations=1,
    )
    # every kernel answers the same query within the documented contract
    oracle = skyline_probability_det(
        preferences, competitors, target, kernel="reference"
    )
    assert result.objects_used == oracle.objects_used
    assert result.terms_evaluated == oracle.terms_evaluated
    assert result.probability == pytest.approx(
        oracle.probability, rel=1e-12, abs=1e-12
    )
