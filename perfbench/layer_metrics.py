"""The per-layer metrics of a traced run, derived from the tracer's totals.

Times (``*_ms``) and work counts are per workload operation: per
all-objects pass, per HTTP request or per elicitation round, so that
the layer times of a workload add up, with ``unattributed_share``, to
the time of one operation.  Every workload reports every metric; a
layer the workload does not use reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence

from common import metric, percentile
from tracer import SIZE_BUCKETS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics declared."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def summarize(merged: dict, *, ops: int, extra: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric from ``Tracer.merged()`` totals.

    ``extra`` supplies what only the workload can measure (cache-info
    deltas, ``unattributed_share``, ``trace_overhead``, ...) and
    overrides the values derived here.
    """
    self_s = merged["self_s"]
    counts = merged["counts"]
    samples = merged["samples"]

    def per_op_ms(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / ops

    def per_op(name: str) -> float:
        return counts.get(name, 0.0) / ops

    def p50_ms(values: Sequence[float]) -> float:
        return 1000.0 * percentile(values, 0.5) if values else 0.0

    edits = counts.get("dynamic.edits", 0.0)
    grids = counts.get("restricted.grids", 0.0)
    shard_s = samples.get("distrib.shard_s", [])
    values = {
        "batch.self_ms": per_op_ms("batch"),
        "batch.retries": per_op("batch.retries"),
        "engine.self_ms": per_op_ms("engine"),
        "engine.memo_hit_ratio": _ratio(
            counts.get("engine.memo_hits", 0.0),
            counts.get("engine.memo_hits", 0.0) + counts.get("engine.memo_misses", 0.0),
        ),
        "dominance.factors_ms": per_op_ms("dominance"),
        "dominance.hit_ratio": _ratio(
            counts.get("batch.cache_hits", 0.0),
            counts.get("batch.cache_hits", 0.0) + counts.get("batch.cache_misses", 0.0),
        ),
        "preprocess.self_ms": per_op_ms("preprocess"),
        "preprocess.filter_ms": per_op_ms("preprocess.filter"),
        "preprocess.absorb_ms": per_op_ms("preprocess.absorb"),
        "preprocess.partition_ms": per_op_ms("preprocess.partition"),
        "preprocess.absorbed": per_op("preprocess.absorbed"),
        "preprocess.components": per_op("preprocess.components"),
        "exact.det_ms": per_op_ms("exact"),
        "exact.solves": per_op("exact.solves"),
        "exact.terms": per_op("exact.terms"),
        "sampling.sam_ms": per_op_ms("sampling"),
        "sampling.draws": per_op("sampling.draws"),
        "dynamic.self_ms": per_op_ms("dynamic"),
        "dynamic.partitions_recomputed": _ratio(counts.get("dynamic.partitions_recomputed", 0.0), edits),
        "dynamic.targets_refreshed": _ratio(counts.get("dynamic.targets_refreshed", 0.0), edits),
        "restricted.self_ms": per_op_ms("restricted"),
        "restricted.grid_ms": 1000.0 * _ratio(counts.get("restricted.grid_s", 0.0), grids),
        "restricted.cells": _ratio(counts.get("restricted.cells", 0.0), grids),
        "distrib.self_ms": per_op_ms("distrib"),
        "distrib.shard_ms.p50": p50_ms(shard_s),
        "distrib.shard_ms.max": 1000.0 * max(shard_s) if shard_s else 0.0,
        "distrib.pool_busy_share": _ratio(sum(shard_s), counts.get("distrib.worker_s", 0.0)),
        "distrib.dispatches": per_op("distrib.dispatches"),
        "distrib.hedges": per_op("distrib.hedges"),
        "distrib.respawns": per_op("distrib.respawns"),
        "coalescer.rejected": counts.get("coalescer.rejected", 0.0),
    }
    for _, _, label in SIZE_BUCKETS:
        values[f"exact.solves_by_size.{label}"] = per_op(f"exact.solves.{label}")
        values[f"exact.det_ms_by_size.{label}"] = 1000.0 * counts.get(f"exact.det_s.{label}", 0.0) / ops
    for kind in ("insert", "remove", "update"):
        values[f"dynamic.edit_ms.{kind}"] = p50_ms(samples.get(f"dynamic.edit_s.{kind}", []))
    values.update(extra)
    for name in ("http.self_ms", "coalescer.wait_ms.p50", "coalescer.wait_ms.p99",
                 "coalescer.batch_size", "dominance.evictions",
                 "dynamic.restricted_hit_ratio", "generator.lag_ms"):
        values.setdefault(name, 0.0)  # measured only where the workload has the layer
    units = declared("per_layer")
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics declared but not computed: {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit in units.items()}
