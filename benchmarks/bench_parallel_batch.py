"""Benchmark: batch planner vs the serial per-object loop.

The batch planner (``repro.core.batch``) answers every object's ``sky``
in one pass: a shared :class:`DominanceCache` resolves each preference
pair once per batch, and the ``"fast"`` Det kernel sheds the interpreter
overhead of the original recursive transcription while performing
bit-for-bit the same float operations.  The planner's default kernel is
``"auto"``, which hands components of 8 or more dominators to ``"vec"``
(equal to the recursive kernels only within 1e-12), so the batch helper
pins ``"fast"`` to keep its answers bit-for-bit equal to the seed loop.

The serial baseline below is the seed's answer path — a fresh engine per
measurement (engines memoise exact answers internally), the
``"reference"`` kernel, and no cache — so the measured ratio is an honest
batch-vs-seed speedup, not cache-warming noise.  ``results/
parallel_batch.{json,md}`` records the ratio on the acceptance workload
(``python -m repro.bench run parallel_batch``).
"""

from __future__ import annotations

import pytest

from repro.core.batch import batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.engine import SkylineProbabilityEngine
from repro.data.blockzipf import block_zipf_dataset
from repro.data.procedural import HashedPreferenceModel


def make_workload(n=60, d=4, *, seed=5, preference_seed=6):
    """The Fig. 9/13 block-zipf shape at a benchmark-friendly scale."""
    dataset = block_zipf_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return dataset, preferences


def serial_seed_loop(dataset, preferences, *, method="det+"):
    """The seed's per-object loop: fresh engine, reference kernel, no cache."""
    engine = SkylineProbabilityEngine(dataset, preferences)
    return [
        engine.skyline_probability(
            index, method=method, det_kernel="reference"
        ).probability
        for index in range(len(dataset))
    ]


def batch_with_cache(dataset, preferences, *, workers=1, method="det+"):
    """The planner's pass: fresh engine, fresh shared cache, fast kernel."""
    engine = SkylineProbabilityEngine(dataset, preferences)
    cache = DominanceCache(preferences)
    result = batch_skyline_probabilities(
        engine, method=method, workers=workers, cache=cache, det_kernel="fast"
    )
    return list(result.probabilities)


def test_serial_seed_loop(benchmark):
    dataset, preferences = make_workload()
    answers = benchmark.pedantic(
        serial_seed_loop, args=(dataset, preferences), rounds=3, iterations=1
    )
    assert len(answers) == len(dataset)


@pytest.mark.parametrize("workers", [1, 4])
def test_batch_with_shared_cache(benchmark, workers):
    dataset, preferences = make_workload()
    answers = benchmark.pedantic(
        batch_with_cache,
        args=(dataset, preferences),
        kwargs={"workers": workers},
        rounds=3,
        iterations=1,
    )
    # the planner must return exactly what the seed loop returns
    assert answers == serial_seed_loop(dataset, preferences)
