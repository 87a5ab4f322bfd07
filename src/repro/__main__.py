"""Command-line interface for skyline-probability queries.

Usage::

    python -m repro query   --dataset d.json --preferences p.json --target 0
    python -m repro query   --dataset d.csv  --preferences p.csv --target 3 \
                            --method sam --epsilon 0.01 --delta 0.01 --seed 7
    python -m repro skyline --dataset d.json --preferences p.json --tau 0.3
    python -m repro topk    --dataset d.json --preferences p.json -k 5 --pruned
    python -m repro info    --dataset d.json --preferences p.json
    python -m repro stats   --dataset d.json --preferences p.json --prometheus
    python -m repro restricted --dataset d.json --preferences p.json \
                            --targets 0,4 --competitors 1,2,3 --dims 0,2
    python -m repro dynamic --dataset d.json --preferences p.json \
                            --edits edits.json --verify
    python -m repro serve   --dataset d.json --preferences p.json --port 8642
    python -m repro distrib --dataset d.json --preferences p.json \
                            --workers 4 --checkpoint run.ckpt

Datasets and preference models load from the JSON formats written by
:mod:`repro.io` (``.csv`` inputs are also accepted: objects one-per-row,
preferences as ``dimension,a,b,prob_a_over_b[,prob_b_over_a]`` rows).
Pass ``--json`` for machine-readable output.

The experiment harness has its own entry point: ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.core.engine import SkylineProbabilityEngine
from repro.core.options import DEADLINE_POLICIES, METHODS, QueryOptions
from repro.core.pruning import top_k_pruned
from repro.core.validate import missing_preference_pairs
from repro.errors import ReproError
from repro.io import (
    dataset_from_csv,
    load_dataset,
    load_preferences,
    preferences_from_csv,
)


def _load_inputs(arguments: argparse.Namespace):
    dataset_path = Path(arguments.dataset)
    if dataset_path.suffix.lower() == ".csv":
        dataset = dataset_from_csv(dataset_path)
    else:
        dataset = load_dataset(dataset_path)
    preferences_path = Path(arguments.preferences)
    if preferences_path.suffix.lower() == ".csv":
        preferences = preferences_from_csv(
            preferences_path, dataset.dimensionality,
            default=arguments.default,
        )
    else:
        preferences = load_preferences(preferences_path)
    return dataset, preferences


def _query_options(arguments: argparse.Namespace) -> dict:
    options: dict = {
        "method": arguments.method,
        "epsilon": arguments.epsilon,
        "delta": arguments.delta,
        "seed": arguments.seed,
    }
    if arguments.samples is not None:
        options["samples"] = arguments.samples
    return options


def _emit(payload: dict, as_json: bool, lines: List[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _cmd_query(arguments: argparse.Namespace) -> int:
    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    report = engine.skyline_probability(
        arguments.target, **_query_options(arguments)
    )
    label = dataset.label_of(arguments.target)
    payload = {
        "target": arguments.target,
        "label": label,
        "probability": report.probability,
        "method": report.method,
        "exact": report.exact,
        "samples": report.samples,
    }
    _emit(
        payload,
        arguments.json,
        [
            f"sky({label}) = {report.probability:.6f} "
            f"[method={report.method}, exact={report.exact}"
            + (f", samples={report.samples}" if report.samples else "")
            + "]"
        ],
    )
    return 0


def _cmd_skyline(arguments: argparse.Namespace) -> int:
    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    options = _query_options(arguments)
    probabilities = engine.skyline_probabilities(**options)
    members = [
        index
        for index, probability in enumerate(probabilities)
        if probability >= arguments.tau
    ]
    payload = {
        "tau": arguments.tau,
        "skyline": [
            {
                "index": index,
                "label": dataset.label_of(index),
                "probability": probabilities[index],
            }
            for index in members
        ],
    }
    lines = [f"probabilistic skyline (tau={arguments.tau}): {len(members)} objects"]
    lines += [
        f"  {dataset.label_of(index):20s} sky = {probabilities[index]:.6f}"
        for index in members
    ]
    _emit(payload, arguments.json, lines)
    return 0


def _cmd_topk(arguments: argparse.Namespace) -> int:
    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    options = _query_options(arguments)
    if arguments.pruned:
        result = top_k_pruned(
            dataset, preferences, arguments.k, engine=engine, **options
        )
        ranking = list(result.ranking)
        note = f" (refined {result.refined}, pruned {result.pruned})"
    else:
        ranking = engine.top_k(arguments.k, **options)
        note = ""
    payload = {
        "k": arguments.k,
        "ranking": [
            {
                "index": index,
                "label": dataset.label_of(index),
                "probability": probability,
            }
            for index, probability in ranking
        ],
    }
    lines = [f"top-{arguments.k}{note}:"]
    lines += [
        f"  {rank}. {dataset.label_of(index):20s} sky = {probability:.6f}"
        for rank, (index, probability) in enumerate(ranking, start=1)
    ]
    _emit(payload, arguments.json, lines)
    return 0


def _cmd_info(arguments: argparse.Namespace) -> int:
    dataset, preferences = _load_inputs(arguments)
    missing = missing_preference_pairs(preferences, dataset)
    payload = {
        "objects": dataset.cardinality,
        "dimensions": dataset.dimensionality,
        "distinct_values": [
            len(dataset.values_on(j)) for j in range(dataset.dimensionality)
        ],
        "explicit_pairs": preferences.pair_count(),
        "missing_pairs": len(missing),
        "deterministic": preferences.is_deterministic(),
    }
    lines = [
        f"objects:         {payload['objects']}",
        f"dimensions:      {payload['dimensions']}",
        f"values per dim:  {payload['distinct_values']}",
        f"explicit pairs:  {payload['explicit_pairs']}",
        f"missing pairs:   {payload['missing_pairs']}",
        f"deterministic:   {payload['deterministic']}",
    ]
    _emit(payload, arguments.json, lines)
    return 0 if not missing else 3


def _cmd_stats(arguments: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.core.batch import batch_skyline_probabilities

    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    with obs.enabled() as registry:
        registry.reset()
        if arguments.target is not None:
            report = engine.skyline_probability(
                arguments.target, **_query_options(arguments)
            )
            record = report.stats.as_dict() if report.stats else {}
            probability: object = report.probability
        else:
            result = batch_skyline_probabilities(
                engine, workers=1, **_query_options(arguments)
            )
            record = result.stats.as_dict() if result.stats else {}
            probability = list(result.probabilities)
        exposition = registry.to_prometheus()
        snapshot = registry.to_dict()
    if arguments.prometheus:
        print(exposition, end="")
        return 0
    payload = {
        "probability": probability,
        "stats": record,
        "registry": snapshot,
    }
    lines = [
        f"{name}: {value}"
        for name, value in record.items()
        if name != "stage_seconds"
    ]
    for stage, seconds in record.get("stage_seconds", {}).items():
        lines.append(f"stage_seconds[{stage}]: {seconds:.6f}")
    _emit(payload, arguments.json, lines)
    return 0


def _parse_edit(position: int, op: dict) -> tuple:
    """Validate one edit-script entry into ``(kind, args)``."""
    if not isinstance(op, dict) or "op" not in op:
        raise ReproError(
            f"edit {position}: expected an object with an 'op' field, got {op!r}"
        )
    kind = op["op"]
    try:
        if kind == "insert":
            return "insert", (op["values"],)
        if kind == "remove":
            return "remove", (op["target"] if "target" in op else op["values"],)
        if kind in ("update_preference", "set_preference"):
            return "update_preference", (
                op["dimension"],
                op["a"],
                op["b"],
                op["forward"],
                op.get("backward"),
            )
    except KeyError as missing:
        raise ReproError(
            f"edit {position}: op {kind!r} is missing field {missing}"
        ) from None
    raise ReproError(
        f"edit {position}: unknown op {kind!r}; expected insert, remove "
        f"or update_preference"
    )


def _cmd_dynamic(arguments: argparse.Namespace) -> int:
    from repro.core.dynamic import DynamicSkylineEngine

    dataset, preferences = _load_inputs(arguments)
    try:
        script = json.loads(Path(arguments.edits).read_text())
    except ValueError as error:
        raise ReproError(f"malformed edit script: {error}") from error
    if not isinstance(script, list):
        raise ReproError("edit script must be a JSON list of edit objects")
    engine = DynamicSkylineEngine(dataset, preferences)
    applied = []
    for position, op in enumerate(script):
        kind, args = _parse_edit(position, op)
        if kind == "insert":
            report = engine.insert_object(args[0])
        elif kind == "remove":
            report = engine.remove_object(args[0])
        else:
            report = engine.update_preference(*args)
        applied.append(
            {
                "op": report.operation,
                "targets_refreshed": report.targets_refreshed,
                "targets_skipped": report.targets_skipped,
                "partitions_recomputed": report.partitions_recomputed,
                "partitions_reused": report.partitions_reused,
                "cache_evictions": report.cache_evictions,
            }
        )
    probabilities = engine.skyline_probabilities()
    payload = {
        "edits": applied,
        "objects": engine.cardinality,
        "total_partitions": engine.total_partitions,
        "probabilities": [
            {
                "index": index,
                "label": engine.dataset.label_of(index),
                "probability": probability,
            }
            for index, probability in enumerate(probabilities)
        ],
    }
    exit_code = 0
    if arguments.verify:
        rebuilt = DynamicSkylineEngine(engine.dataset, engine.preferences.copy())
        identical = rebuilt.skyline_probabilities() == probabilities
        payload["verified_identical"] = identical
        if not identical:
            exit_code = 3
    lines = [
        f"applied {len(applied)} edits over {engine.cardinality} objects "
        f"({engine.total_partitions} cached partitions)"
    ]
    lines += [
        f"  {entry['op']:18s} refreshed={entry['targets_refreshed']} "
        f"recomputed={entry['partitions_recomputed']} "
        f"reused={entry['partitions_reused']} "
        f"evicted={entry['cache_evictions']}"
        for entry in applied
    ]
    lines += [
        f"  {engine.dataset.label_of(index):20s} sky = {probability:.6f}"
        for index, probability in enumerate(probabilities)
    ]
    if arguments.verify:
        lines.append(
            "verified: incremental view bit-identical to full rebuild"
            if payload["verified_identical"]
            else "VERIFICATION FAILED: view differs from full rebuild"
        )
    _emit(payload, arguments.json, lines)
    return exit_code


def _parse_index_list(text: str, what: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ReproError(
            f"{what} must be a comma-separated list of integers, got {text!r}"
        ) from None


def _cmd_restricted(arguments: argparse.Namespace) -> int:
    from repro.core.restricted import restricted_skyline_probabilities

    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    targets = _parse_index_list(arguments.targets, "--targets")
    competitors = (
        None
        if arguments.competitors is None
        else _parse_index_list(arguments.competitors, "--competitors")
    )
    dims = (
        None
        if arguments.dims is None
        else _parse_index_list(arguments.dims, "--dims")
    )
    result = restricted_skyline_probabilities(
        engine,
        targets,
        competitors=competitors,
        dims=dims,
        share_pass=not arguments.no_share,
        **_query_options(arguments),
    )
    restriction = result.restrictions[0]
    payload = {
        "competitors": None
        if restriction.competitors is None
        else list(restriction.competitors),
        "dims": None if restriction.dims is None else list(restriction.dims),
        "shared_pass": result.shared_pass,
        "factor_passes": result.factor_passes,
        "component_solves": result.component_solves,
        "component_hits": result.component_hits,
        "answers": [
            {
                "target": target,
                "label": dataset.label_of(target)
                if isinstance(target, int)
                else None,
                "probability": report.probability,
                "method": report.method,
                "exact": report.exact,
                "duplicate": report.duplicate_target,
            }
            for target, (report,) in zip(targets, result.reports)
        ],
    }
    subset = (
        "all competitors"
        if restriction.competitors is None
        else f"competitors {list(restriction.competitors)}"
    )
    subspace = (
        "all dimensions"
        if restriction.dims is None
        else f"dimensions {list(restriction.dims)}"
    )
    lines = [
        f"restricted skyline over {subset}, {subspace} "
        f"(shared pass: {result.shared_pass}, "
        f"factor passes: {result.factor_passes}, "
        f"component solves: {result.component_solves}, "
        f"hits: {result.component_hits})"
    ]
    lines += [
        f"  {dataset.label_of(entry['target']):20s} "
        f"sky = {entry['probability']:.6f} "
        f"[method={entry['method']}, exact={entry['exact']}"
        + (", projected duplicate" if entry["duplicate"] else "")
        + "]"
        for entry in payload["answers"]
    ]
    _emit(payload, arguments.json, lines)
    return 0


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.core.dynamic import DynamicSkylineEngine
    from repro.serve import ServeConfig, SkylineServer

    view_path = Path(arguments.view) if arguments.view else None
    if view_path is not None and view_path.exists():
        engine = DynamicSkylineEngine.load_view(view_path)
    else:
        if not arguments.dataset or not arguments.preferences:
            raise ReproError(
                "serve needs --dataset and --preferences (or --view "
                "pointing at an existing warm-view snapshot)"
            )
        dataset, preferences = _load_inputs(arguments)
        engine = DynamicSkylineEngine(dataset, preferences)
    default_query = {
        name: getattr(arguments, name)
        for name in (
            "method", "epsilon", "delta", "samples", "deadline",
            "on_deadline", "max_overrun",
        )
    }
    config = ServeConfig(
        host=arguments.host,
        port=arguments.port,
        window=arguments.window,
        max_batch=arguments.max_batch,
        max_pending=arguments.max_pending,
        default_query=default_query,
    )

    async def run() -> None:
        server = SkylineServer(engine, config)
        await server.start()
        print(
            f"serving on {config.host}:{server.port} "
            f"({engine.cardinality} objects warm)",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signal_number,
                    lambda: asyncio.ensure_future(server.drain()),
                )
            except (NotImplementedError, RuntimeError, OSError):
                pass  # platforms without loop signal support (e.g. Windows)
        await server.serve_forever()

    asyncio.run(run())
    if view_path is not None:
        engine.save_view(view_path)
        print(f"warm view saved to {view_path}", flush=True)
    print("drained cleanly", flush=True)
    return 0


def _cmd_distrib(arguments: argparse.Namespace) -> int:
    from repro.distrib import DistribConfig, ShardCoordinator

    dataset, preferences = _load_inputs(arguments)
    engine = SkylineProbabilityEngine(dataset, preferences)
    config = DistribConfig(
        workers=arguments.workers,
        max_shard_objects=arguments.max_shard_objects,
        stall_timeout=arguments.stall_timeout,
        hedge_multiplier=None if arguments.no_hedge else arguments.hedge_multiplier,
        max_shard_retries=arguments.max_shard_retries,
        on_error=arguments.on_error,
        checkpoint=arguments.checkpoint,
        resume=not arguments.no_resume,
        run_timeout=arguments.run_timeout,
    )
    coordinator = ShardCoordinator(engine, config)
    result = coordinator.run(**_query_options(arguments))
    batch = result.batch
    supervision = result.supervision
    payload = {
        "objects": dataset.cardinality,
        "workers": result.workers,
        "method": batch.method,
        "checkpoint": result.checkpoint,
        "supervision": supervision.as_dict(),
        "failures": [
            {
                "index": failure.index,
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
            }
            for failure in batch.failures
        ],
        "probabilities": [
            {
                "index": index,
                "label": dataset.label_of(index),
                "probability": probability,
            }
            for index, probability in zip(batch.indices, batch.probabilities)
        ],
    }
    lines = [
        f"supervised batch over {dataset.cardinality} objects: "
        f"{supervision.shards} shards on {result.workers} workers "
        f"({supervision.resumed} resumed, {supervision.salvaged} salvaged, "
        f"{supervision.hedges} hedged, {supervision.respawns} respawns)"
    ]
    lines += [
        f"  {dataset.label_of(index):20s} sky = {probability:.6f}"
        for index, probability in zip(batch.indices, batch.probabilities)
    ]
    lines += [
        f"  FAILED {failure.index}: {failure.error_type}: {failure.message} "
        f"({failure.attempts} attempts)"
        for failure in batch.failures
    ]
    _emit(payload, arguments.json, lines)
    return 3 if batch.failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Skyline probability queries over uncertain preferences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_query_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--method", choices=METHODS, default=QueryOptions.method)
        sub.add_argument("--epsilon", type=float, default=QueryOptions.epsilon)
        sub.add_argument("--delta", type=float, default=QueryOptions.delta)
        sub.add_argument("--samples", type=int, default=QueryOptions.samples)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", required=True, help="dataset .json/.csv")
        sub.add_argument(
            "--preferences", required=True, help="preference model .json/.csv"
        )
        sub.add_argument(
            "--default", type=float, default=None,
            help="symmetric default probability for unset pairs (CSV input)",
        )
        add_query_options(sub)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--json", action="store_true", help="JSON output")

    query = commands.add_parser("query", help="sky() of one object")
    add_common(query)
    query.add_argument("--target", type=int, required=True, help="object index")
    query.set_defaults(handler=_cmd_query)

    skyline = commands.add_parser(
        "skyline", help="all objects with sky >= tau"
    )
    add_common(skyline)
    skyline.add_argument("--tau", type=float, required=True)
    skyline.set_defaults(handler=_cmd_skyline)

    topk = commands.add_parser("topk", help="k most probable skyline objects")
    add_common(topk)
    topk.add_argument("-k", type=int, required=True)
    topk.add_argument(
        "--pruned", action="store_true",
        help="use the bound-and-prune evaluation (refines fewer objects)",
    )
    topk.set_defaults(handler=_cmd_topk)

    info = commands.add_parser("info", help="dataset/preference statistics")
    add_common(info)
    info.set_defaults(handler=_cmd_info)

    stats = commands.add_parser(
        "stats",
        help="run queries with repro.obs instrumentation enabled and "
        "report the provenance record plus the metric registry",
    )
    add_common(stats)
    stats.add_argument(
        "--target", type=int, default=None,
        help="object index for a single query (default: whole-dataset batch)",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="emit the Prometheus text exposition instead of the record",
    )
    stats.set_defaults(handler=_cmd_stats)

    dynamic = commands.add_parser(
        "dynamic",
        help="apply an edit script through the incremental engine and "
        "report per-edit invalidation statistics",
    )
    add_common(dynamic)
    dynamic.add_argument(
        "--edits", required=True,
        help="JSON list of edits: {'op': 'insert', 'values': [...]}, "
        "{'op': 'remove', 'target': i}, or {'op': 'update_preference', "
        "'dimension': d, 'a': ..., 'b': ..., 'forward': p, 'backward': q}",
    )
    dynamic.add_argument(
        "--verify", action="store_true",
        help="rebuild from scratch after the script and require the "
        "incremental view to match bit-for-bit (exit 3 on mismatch)",
    )
    dynamic.set_defaults(handler=_cmd_dynamic)

    restricted = commands.add_parser(
        "restricted",
        help="restricted/subspace sky() of one or more objects against a "
        "competitor subset and/or dimension subspace, factor pass shared "
        "across targets",
    )
    add_common(restricted)
    restricted.add_argument(
        "--targets", required=True,
        help="comma-separated object indices to query",
    )
    restricted.add_argument(
        "--competitors", default=None,
        help="comma-separated competitor indices (default: all objects)",
    )
    restricted.add_argument(
        "--dims", default=None,
        help="comma-separated dimension indices (default: all dimensions)",
    )
    restricted.add_argument(
        "--no-share", action="store_true",
        help="recompute each restriction independently through the engine "
        "instead of sharing the dominance pass (differential baseline)",
    )
    restricted.set_defaults(handler=_cmd_restricted)

    serve = commands.add_parser(
        "serve",
        help="serve coalesced skyline queries over HTTP from a warm "
        "dynamic engine (POST /query, POST /edit, GET /metrics)",
    )
    serve.add_argument("--dataset", help="dataset .json/.csv")
    serve.add_argument(
        "--preferences", help="preference model .json/.csv"
    )
    serve.add_argument(
        "--default", type=float, default=None,
        help="symmetric default probability for unset pairs (CSV input)",
    )
    serve.add_argument(
        "--view", default=None,
        help="warm-view snapshot path: loaded instead of "
        "--dataset/--preferences when it exists, written back on drain",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--window", type=float, default=0.002,
        help="coalescing window in seconds",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="coalesced queries that trigger an immediate batch",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="admission bound on queued queries (429 beyond it)",
    )
    add_query_options(serve)
    serve.add_argument(
        "--deadline", type=float, default=QueryOptions.deadline,
        help="per-query wall-clock deadline in seconds",
    )
    serve.add_argument(
        "--on-deadline", choices=DEADLINE_POLICIES,
        default=QueryOptions.on_deadline,
        help="deadline policy: degrade to Sam (default) or fail with 504",
    )
    serve.add_argument(
        "--max-overrun", type=float, default=QueryOptions.max_overrun,
        help="cap (seconds past the deadline) on the degraded Sam "
        "fallback; it truncates at a chunk boundary when the cap expires",
    )
    serve.set_defaults(handler=_cmd_serve)

    distrib = commands.add_parser(
        "distrib",
        help="all-objects skyline probabilities on supervised worker "
        "processes: heartbeats, hedged re-dispatch, checkpoint/resume "
        "(exit 3 if any object was salvaged as a failure record)",
    )
    add_common(distrib)
    distrib.add_argument(
        "--workers", type=int, default=2,
        help="supervised worker processes (respawns keep the pool full)",
    )
    distrib.add_argument(
        "--checkpoint", default=None,
        help="JSONL checkpoint path: completed shards are appended "
        "durably, and an interrupted run restarted with the same "
        "arguments resumes from it",
    )
    distrib.add_argument(
        "--no-resume", action="store_true",
        help="overwrite an existing checkpoint instead of resuming",
    )
    distrib.add_argument(
        "--max-shard-objects", type=int, default=None,
        help="largest shard size (default: ceil(n / 8), independent of "
        "--workers so a resumed run may change the pool size)",
    )
    distrib.add_argument(
        "--stall-timeout", type=float, default=10.0,
        help="heartbeat staleness (seconds) after which a worker is "
        "declared hung, killed and respawned",
    )
    distrib.add_argument(
        "--hedge-multiplier", type=float, default=3.0,
        help="straggler threshold as a multiple of the p95 shard time",
    )
    distrib.add_argument(
        "--no-hedge", action="store_true",
        help="disable speculative re-dispatch of stragglers",
    )
    distrib.add_argument(
        "--max-shard-retries", type=int, default=2,
        help="shard re-dispatches before the circuit breaker trips",
    )
    distrib.add_argument(
        "--on-error", choices=("salvage", "raise"), default="salvage",
        help="circuit-breaker policy: salvage per-object failure "
        "records (default) or fail the whole run",
    )
    distrib.add_argument(
        "--run-timeout", type=float, default=None,
        help="hard wall-clock bound on the whole run, seconds",
    )
    distrib.set_defaults(handler=_cmd_distrib)
    return parser


def main(argv: List[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = _build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
