"""Per-query and per-batch provenance records.

:class:`QueryStats` rides on :class:`~repro.core.engine.SkylineReport`
and :class:`BatchStats` on :class:`~repro.core.batch.BatchResult` when
instrumentation is enabled (see :mod:`repro.obs`); both are ``None``
otherwise, so the disabled path allocates nothing.  The records are
frozen and built from plain ints/floats/strings only — they pickle
cleanly across the shard coordinator's worker pipes.

The counters deliberately mirror the numbers the sub-results already
carry (``ExactResult.terms_evaluated``, ``SamplingResult.checks``,
``DominanceCache.hits`` …): a stats record is an *aggregated view* of the
query's provenance, never a second source of truth, and the test suite
pins the two against each other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Tuple

__all__ = [
    "QueryStats",
    "BatchStats",
    "DistribStats",
    "query_stats_from_report",
]


@dataclass(frozen=True)
class QueryStats:
    """Where one skyline-probability query spent its budget.

    ``outcome`` is one of ``"answered"`` (the normal path),
    ``"duplicate_target"`` (an external target equal to a dataset object:
    ``sky = 0`` by the duplicate convention, nothing computed) or
    ``"degraded"`` (the exact method blew its deadline and fell back to
    ``Sam``).  ``terms_zero_pruned`` counts inclusion-exclusion subsets
    skipped by zero pruning — ``(2^objects_used - 1) - terms_evaluated``
    summed over the exact partitions.  ``cache_hits``/``cache_misses``
    are the :class:`~repro.core.dominance.DominanceCache` deltas observed
    during this query (zero when no cache was supplied).
    ``stage_seconds`` maps pipeline stages (``preprocess``/``exact``/
    ``sampling``/``query``) to wall-clock spent, as sorted pairs.
    """

    method: str
    outcome: str
    exact: bool
    duplicate_target: bool = False
    competitors: int = 0
    objects_used: int = 0
    terms_evaluated: int = 0
    terms_zero_pruned: int = 0
    absorbed: int = 0
    dropped_impossible: int = 0
    partitions: int = 0
    largest_partition: int = 0
    exact_partitions: int = 0
    sampled_partitions: int = 0
    samples: int = 0
    sampler_checks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    degraded: bool = False
    wall_seconds: float = 0.0
    stage_seconds: Tuple[Tuple[str, float], ...] = ()

    def as_dict(self) -> dict:
        """JSON-friendly view (``stage_seconds`` becomes a mapping)."""
        payload = asdict(self)
        payload["stage_seconds"] = dict(self.stage_seconds)
        return payload


def _tally_partition_results(results: Iterable[object]) -> Dict[str, int]:
    """Sum the exact/sampling sub-result counters of one report.

    Duck-typed on purpose: an exact partition result carries
    ``terms_evaluated``/``objects_used``, a sampling one carries
    ``samples``/``checks`` — importing the concrete classes here would
    cycle back into :mod:`repro.core`.
    """
    tally = dict(
        objects_used=0,
        terms_evaluated=0,
        terms_zero_pruned=0,
        exact_partitions=0,
        samples=0,
        sampler_checks=0,
        sampled_partitions=0,
    )
    for result in results:
        terms = getattr(result, "terms_evaluated", None)
        if terms is not None:
            used = result.objects_used
            tally["terms_evaluated"] += terms
            tally["objects_used"] += used
            tally["terms_zero_pruned"] += (1 << used) - 1 - terms
            tally["exact_partitions"] += 1
        else:
            tally["samples"] += result.samples
            tally["sampler_checks"] += result.checks
            tally["sampled_partitions"] += 1
    return tally


@dataclass(frozen=True)
class DistribStats:
    """Supervision provenance of one coordinator run.

    Rides on :class:`repro.distrib.DistribResult.supervision`.  The
    counters describe the *supervision layer*, never the answers (which
    stay bit-identical to the unsupervised batch): ``shards`` planned,
    of which ``resumed`` came from a checkpoint and ``salvaged``
    degraded to failure records; ``hedges`` speculative re-dispatches;
    ``respawns`` workers replaced after a death or a stall (``deaths``
    and ``stalls`` split the causes); ``heartbeats`` liveness messages
    received; ``duplicates`` late results dropped after another dispatch
    already won.
    """

    shards: int = 0
    resumed: int = 0
    salvaged: int = 0
    hedges: int = 0
    respawns: int = 0
    stalls: int = 0
    deaths: int = 0
    heartbeats: int = 0
    duplicates: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly view of the counters."""
        return asdict(self)


def query_stats_from_report(
    report: object,
    *,
    outcome: str,
    competitors: int,
    cache_hits: int = 0,
    cache_misses: int = 0,
    wall_seconds: float = 0.0,
    stage_seconds: Dict[str, float] | None = None,
) -> QueryStats:
    """Build a :class:`QueryStats` from a finished ``SkylineReport``.

    Every counter is derived from the report's own sub-results, so the
    record can never disagree with the provenance the report already
    exposes.
    """
    tally = _tally_partition_results(report.partition_results)
    prep = report.preprocessing
    return QueryStats(
        method=report.method,
        outcome=outcome,
        exact=report.exact,
        duplicate_target=getattr(report, "duplicate_target", False),
        competitors=competitors,
        absorbed=len(prep.absorbed_by) if prep is not None else 0,
        dropped_impossible=(
            len(prep.dropped_impossible) if prep is not None else 0
        ),
        partitions=len(prep.partitions) if prep is not None else 0,
        largest_partition=prep.largest_partition if prep is not None else 0,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        degraded=report.degraded,
        wall_seconds=wall_seconds,
        stage_seconds=tuple(sorted((stage_seconds or {}).items())),
        **tally,
    )


@dataclass(frozen=True)
class BatchStats:
    """Batch-wide aggregation of the per-query provenance.

    The counters are summed from the batch's *reports* (not from the
    optional per-report :class:`QueryStats`), so they are exact even when
    a coordinator worker answered a shard; ``stage_seconds`` is the one
    field aggregated from per-report stats, since timings never travel
    inside the reports themselves.  ``cache_hits``/``cache_misses``/
    ``retries`` mirror the same-named :class:`BatchResult` fields.
    """

    queries: int
    answered: int
    failed: int
    retries: int
    degraded: int
    duplicate_targets: int
    exact_answers: int
    cache_hits: int
    cache_misses: int
    objects_used: int
    terms_evaluated: int
    terms_zero_pruned: int
    samples: int
    sampler_checks: int
    absorbed: int
    dropped_impossible: int
    partitions: int
    wall_seconds: float = 0.0
    stage_seconds: Tuple[Tuple[str, float], ...] = ()

    def as_dict(self) -> dict:
        """JSON-friendly view (``stage_seconds`` becomes a mapping)."""
        payload = asdict(self)
        payload["stage_seconds"] = dict(self.stage_seconds)
        return payload

    @classmethod
    def from_reports(
        cls,
        reports: Iterable[object],
        *,
        queries: int,
        failed: int = 0,
        retries: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        wall_seconds: float = 0.0,
    ) -> "BatchStats":
        """Aggregate the answered reports plus batch-level counters."""
        reports = list(reports)
        totals = dict(
            objects_used=0,
            terms_evaluated=0,
            terms_zero_pruned=0,
            samples=0,
            sampler_checks=0,
        )
        absorbed = dropped = partitions = 0
        degraded = duplicates = exact_answers = 0
        stage_totals: Dict[str, float] = {}
        for report in reports:
            tally = _tally_partition_results(report.partition_results)
            for key in totals:
                totals[key] += tally[key]
            prep = report.preprocessing
            if prep is not None:
                absorbed += len(prep.absorbed_by)
                dropped += len(prep.dropped_impossible)
                partitions += len(prep.partitions)
            degraded += bool(report.degraded)
            duplicates += bool(getattr(report, "duplicate_target", False))
            exact_answers += bool(report.exact)
            stats = getattr(report, "stats", None)
            if stats is not None:
                for stage, seconds in stats.stage_seconds:
                    stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
        return cls(
            queries=queries,
            answered=len(reports),
            failed=failed,
            retries=retries,
            degraded=degraded,
            duplicate_targets=duplicates,
            exact_answers=exact_answers,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            absorbed=absorbed,
            dropped_impossible=dropped,
            partitions=partitions,
            wall_seconds=wall_seconds,
            stage_seconds=tuple(sorted(stage_totals.items())),
            **totals,
        )
