"""``allobjects_det`` and ``allobjects_sharded``: the paper's operator.

One operation is one all-objects pass, ``sky`` for every object of the
relabelled base instance, answered either in-process by
``SkylineProbabilityEngine(...).skyline_probabilities()`` or by a
``ShardCoordinator`` with one worker per core.  Both use default options
and a fresh engine (so cold caches) per pass.  Every pass starts with
its own set-ups (instance and engine), timed apart from the pass, so
``setup_s`` is the median of set-ups spread over the whole run.  Timed
set-ups and passes are scaled to a reference host speed by the gauge of
``speed.py``, read around them and sampled inside an in-process pass.
Every answer of every pass is checked against the stored reference
answers.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path

from common import Checks, Stopwatch, median, metric, peak_rss_mb
from instances import ALLOBJECTS, fingerprint, make_instance
from layer_metrics import summarize
from speed import Gauge, scaled, scaled_span
from tracer import LAYERS, Tracer, install

REFERENCE = Path(__file__).resolve().parent / "reference" / "allobjects.json"
#: Set-ups timed before each pass; the pass runs on the last one's engine.
SETUPS_PER_PASS = 3

def load_reference(instance) -> list:
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if stored["fingerprint"] != fingerprint(instance.base_objects):
        raise RuntimeError(
            "allobjects base instance no longer matches reference/allobjects.json; "
            "regenerate it with perfbench/make_reference.py"
        )
    return stored["probabilities"]


def _setup(seed: int):
    from repro import SkylineProbabilityEngine

    started = time.perf_counter()
    instance = make_instance(ALLOBJECTS, seed)
    dataset, preferences = instance.dataset(), instance.preferences()
    engine = SkylineProbabilityEngine(dataset, preferences)
    return time.perf_counter() - started, instance, engine


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.distrib import DistribConfig, ShardCoordinator

    setups = []
    reference = load_reference(make_instance(ALLOBJECTS, seed))
    sharded = workload == "allobjects_sharded"
    workers = os.cpu_count() or 1
    checks = Checks()
    gauge = Gauge()
    raw = {"setup_s": [], "pass_s": []}

    def one_pass(gauged: bool) -> float:
        """One pass; with ``gauged``, its set-up and pass times are scaled."""
        before = gauge.read() if gauged else None
        for _ in range(SETUPS_PER_PASS):
            setup_s, instance, engine = _setup(seed)
            raw["setup_s"].append(setup_s)
            if gauged:
                opened, before = before, gauge.read()
                setup_s = scaled(setup_s, opened, before)
            setups.append(setup_s)
        dataset = engine.dataset
        # The pass of allobjects_sharded runs in worker processes, where a
        # sampled unit would compete with the program: it is only bracketed.
        sampler = gauge.sampling() if gauged and not sharded else nullcontext([])
        started = time.perf_counter()
        with sampler as inside:
            if sharded:
                probabilities = ShardCoordinator(engine, DistribConfig(workers=workers)).run().probabilities
            else:
                probabilities = engine.skyline_probabilities()
        ended = time.perf_counter()
        elapsed = ended - started - sum(end - start for start, end, _ in inside)
        raw["pass_s"].append(elapsed)
        if gauged:
            elapsed = scaled_span(started, ended, inside, before, gauge.read())
        if len(probabilities) != len(dataset):
            checks.wrong.append(f"{len(probabilities)} answers for {len(dataset)} objects")
        for index, probability in enumerate(probabilities):
            want = reference[instance.base_index[index]]
            checks.exact(f"object {index}", probability, want)
        return elapsed

    def passes_until(watch: Stopwatch, gauged: bool = False) -> list:
        times = [one_pass(gauged)]
        while not watch.expired():
            times.append(one_pass(gauged))
        return times

    result = {"attempted": 0, "checks": checks}
    if not trace:
        times = passes_until(Stopwatch(seconds), gauged=True)
        result["attempted"] = len(times) * ALLOBJECTS.n
        result["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "ops_per_s": metric(len(times) * ALLOBJECTS.n / sum(times), "1/s"),
            "op_p50_ms": metric(1000.0 * median(times), "ms"),
            "op_mean_ms": metric(1000.0 * sum(times) / len(times), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(include_children=sharded), "MB"),
        }
        result["detail"] = {
            "passes": len(times), "pass_s": times, "setup_s": setups,
            "raw_pass_s": raw["pass_s"], "raw_setup_s": raw["setup_s"], "gauge_s": gauge.readings,
        }
        return result

    untraced = passes_until(Stopwatch(seconds / 2))
    tracer = Tracer()
    uninstall = install(tracer, ["distrib"] if sharded else [l for l in LAYERS if l != "distrib"])
    try:
        traced = passes_until(Stopwatch(seconds / 2))
    finally:
        uninstall()
    merged = tracer.merged()
    wall = sum(traced)
    result["attempted"] = (len(untraced) + len(traced)) * ALLOBJECTS.n
    result["metrics"] = summarize(
        merged,
        ops=len(traced),
        extra={
            "unattributed_share": max(0.0, wall - merged["root_s"]) / wall,
            "trace_overhead": median(traced) / median(untraced),
        },
    )
    result["detail"] = {"untraced_pass_s": untraced, "traced_pass_s": traced}
    result["tracer"] = tracer
    return result
