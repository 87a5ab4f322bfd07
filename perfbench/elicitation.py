"""``elicitation``: preference edits beside restricted reads on one engine.

The run is a sequence of *epochs*.  Each epoch warms a fresh
``DynamicSkylineEngine`` on the seeded elicitation instance (the
warm-view build is one ``setup_s`` sample) and plays the same
``EPOCH_ROUNDS`` rounds of one session on it.  Every run therefore
measures the same rounds whatever its speed, a faster program never runs
out of rounds, and the set-up samples are spread over the run like the
rounds.  The session comes from
``repro.data.elicitation.elicitation_session(seed=SESSION_SEED)`` on the
base instance and is carried to the run's instance by its relabelling,
as are the shortlist and the subspaces (see ``instances.py``): seeds
differ in labels and object order, not in the work a round asks for.
One operation is one round, timed from its sharpening edit to the last
answer of its queries; untraced set-ups and rounds are scaled to a
reference host speed by the gauge of ``speed.py``, read around every set-up
and every ``GAUGE_ROUNDS`` rounds:

1. the session's ``update_preference`` sharpening;
2. the session's restricted queries plus one restricted query per
   shortlist member against the rest of the shortlist, all through
   ``restricted_skyline_probability``.  The shortlist recurs across
   rounds, so memo hits and surgical evictions both occur;
3. one shortlist x subspace grid through
   ``restricted_skyline_probabilities`` with the engine's shared cache.

Answers of the rounds listed by :func:`checked_round`, in every epoch,
are checked against a fresh static engine (``det+`` on the reference
kernel) over the same preference state, rebuilt by replaying the
session's edits.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from itertools import combinations

from common import Checks, Stopwatch, median, metric, peak_rss_mb
from instances import ELICITATION, make_instance
from layer_metrics import summarize
from speed import Gauge, scaled
from tracer import LAYERS, Tracer, install

#: Rounds of one epoch, all played on one warm engine.
EPOCH_ROUNDS = 96
QUERIES_PER_ROUND = 2
SHORTLIST = 4
#: Subspaces of the grid (pairs of dimensions).
SUBSPACES = 3
#: Rounds between two gauge readings of an untraced epoch.
GAUGE_ROUNDS = 32
#: Seed of the base session, shortlist and subspaces.
SESSION_SEED = 5


def checked_round(position: int) -> bool:
    """Rounds whose answers are checked: the first three, then every 32nd."""
    return position < 3 or position % 32 == 0


def _setup(seed: int):
    from repro import DynamicSkylineEngine

    started = time.perf_counter()
    instance = make_instance(ELICITATION, seed)
    engine = DynamicSkylineEngine(instance.dataset(), instance.preferences())
    return time.perf_counter() - started, engine


def _rounds(session, instance):
    """The session's steps as (edit, queries) rounds, in the run's labels."""
    position = {base: run for run, base in enumerate(instance.base_index)}
    rename = instance.rename
    rounds = []
    for step in session.steps:
        if step["op"] == "update_preference":
            edit = dict(step, a=rename[step["a"]], b=rename[step["b"]])
            rounds.append((edit, []))
            continue
        competitors = step["competitors"]
        rounds[-1][1].append(
            {
                "target": position[step["target"]],
                "competitors": None if competitors is None else sorted(position[c] for c in competitors),
                "dims": step["dims"],
            }
        )
    return rounds, position


def _counters(engine) -> dict:
    return {"dominance": engine.cache.counters(), "restricted": engine.restricted_cache_info()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import repro
    from repro.data.elicitation import elicitation_session

    instance = make_instance(ELICITATION, seed)
    base = make_instance(ELICITATION, None)
    session = elicitation_session(
        base.dataset(), base.preferences(), rounds=EPOCH_ROUNDS,
        queries_per_round=QUERIES_PER_ROUND, seed=SESSION_SEED,
    )
    session_rounds, position = _rounds(session, instance)
    rng = random.Random(SESSION_SEED)
    shortlist = sorted(position[b] for b in rng.sample(range(ELICITATION.n), SHORTLIST))
    subspaces = rng.sample(list(combinations(range(ELICITATION.d), 2)), SUBSPACES)
    grid = [(None, list(dims)) for dims in subspaces]
    recurring = [
        {"target": t, "competitors": [o for o in shortlist if o != t], "dims": None}
        for t in shortlist
    ]
    answered = []  # (round, query, probability, exact) of checked rounds
    setups = []
    gauge = Gauge()
    raw = {"setup_s": [], "round_s": []}
    # Cache counter deltas of the traced epochs: table -> counter -> total.
    deltas = defaultdict(lambda: defaultdict(float))

    def one_round(engine, number: int) -> float:
        edit, queries = session_rounds[number]
        started = time.perf_counter()
        engine.update_preference(edit["dimension"], edit["a"], edit["b"], edit["forward"], edit["backward"])
        reports = [
            (q, engine.restricted_skyline_probability(q["target"], competitors=q["competitors"], dims=q["dims"]))
            for q in queries + recurring
        ]
        # Looked up at call time, so a traced run reaches the wrapper.
        result = repro.restricted_skyline_probabilities(
            engine, shortlist, restrictions=grid, cache=engine.cache
        )
        elapsed = time.perf_counter() - started
        if checked_round(number):
            for q, report in reports:
                answered.append((number, q, report.probability, report.exact))
            for row, target in enumerate(shortlist):
                for column, (competitors, dims) in enumerate(grid):
                    report = result.report(row, column)
                    query = {"target": target, "competitors": competitors, "dims": dims}
                    answered.append((number, query, report.probability, report.exact))
        return elapsed

    def epoch(tracer, gauged: bool) -> list:
        """One set-up and the session's rounds on it; only the rounds are traced.

        With ``gauged``, the set-up and round times are scaled.
        """
        if gauged:
            before = gauge.read()
            setup_s, engine = _setup(seed)
            raw["setup_s"].append(setup_s)
            reading = gauge.read()
            setups.append(scaled(setup_s, before, reading))
            times = []
            for start in range(0, EPOCH_ROUNDS, GAUGE_ROUNDS):
                block = [one_round(engine, number) for number in range(start, min(start + GAUGE_ROUNDS, EPOCH_ROUNDS))]
                raw["round_s"] += block
                before, reading = reading, gauge.read()
                times += [scaled(t, before, reading) for t in block]
            return times
        setup_s, engine = _setup(seed)
        setups.append(setup_s)
        if tracer is None:
            return [one_round(engine, number) for number in range(EPOCH_ROUNDS)]
        before = _counters(engine)
        uninstall = install(tracer, [layer for layer in LAYERS if layer != "distrib"])
        try:
            times = [one_round(engine, number) for number in range(EPOCH_ROUNDS)]
        finally:
            uninstall()
        after = _counters(engine)
        for table, counts in after.items():
            for key in ("hits", "misses", "evictions"):
                if key in counts:
                    deltas[table][key] += counts[key] - before[table][key]
        return times

    def epochs_until(watch: Stopwatch, tracer=None, gauged: bool = False) -> list:
        times = epoch(tracer, gauged)
        while not watch.expired():
            times += epoch(tracer, gauged)
        return times

    result = {"checks": Checks()}
    if trace:
        untraced = epochs_until(Stopwatch(seconds / 2))
        tracer = Tracer()
        times = epochs_until(Stopwatch(seconds / 2), tracer)
        merged = tracer.merged()

        def ratio(table: str) -> float:
            lookups = deltas[table]["hits"] + deltas[table]["misses"]
            return deltas[table]["hits"] / lookups if lookups else 0.0

        wall = sum(times)
        result["metrics"] = summarize(
            merged,
            ops=len(times),
            extra={
                "dominance.hit_ratio": ratio("dominance"),
                "dominance.evictions": deltas["dominance"]["evictions"] / len(times),
                "dynamic.restricted_hit_ratio": ratio("restricted"),
                "unattributed_share": max(0.0, wall - merged["root_s"]) / wall,
                "trace_overhead": median(times) / median(untraced),
            },
        )
        result["tracer"] = tracer
        all_times = untraced + times
    else:
        times = all_times = epochs_until(Stopwatch(seconds), gauged=True)
        result["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_p50_ms": metric(1000.0 * median(times), "ms"),
            "op_mean_ms": metric(1000.0 * sum(times) / len(times), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
    answered.sort(key=lambda answer: answer[0])
    _check(instance, session_rounds, answered, result["checks"])
    result["attempted"] = len(all_times)
    result["detail"] = {
        "rounds": len(all_times), "epochs": len(setups),
        "round_p50_ms": 1000.0 * median(all_times), "setup_s": setups,
        "raw_setup_s": raw["setup_s"], "gauge_s": gauge.readings,
        "raw_epoch_p50_ms": [
            1000.0 * median(raw["round_s"][start:start + EPOCH_ROUNDS])
            for start in range(0, len(raw["round_s"]), EPOCH_ROUNDS)
        ],
        "epoch_p50_ms": [
            1000.0 * median(all_times[start:start + EPOCH_ROUNDS])
            for start in range(0, len(all_times), EPOCH_ROUNDS)
        ],
    }
    return result


def _check(instance, session_rounds, answered, checks: Checks) -> None:
    """Re-answer the checked rounds on fresh static engines (the oracle)."""
    from repro import SkylineProbabilityEngine

    dataset = instance.dataset()
    preferences = instance.preferences()
    applied = 0
    oracle = None
    for position, query, probability, exact in answered:
        while applied <= position:
            edit = session_rounds[applied][0]
            preferences.set_preference(edit["dimension"], edit["a"], edit["b"], edit["forward"], edit["backward"])
            applied += 1
            oracle = None
        if oracle is None:
            oracle = SkylineProbabilityEngine(dataset, preferences)
        want = oracle.skyline_probability(
            query["target"], competitors=query["competitors"], dims=query["dims"],
            method="det+", det_kernel="reference",
        ).probability
        what = f"round {position} target {query['target']}"
        if exact:
            checks.exact(what, probability, want)
        else:
            checks.wrong.append(f"{what}: answer not exact")
