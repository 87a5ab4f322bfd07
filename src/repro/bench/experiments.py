"""One registered experiment per figure/table of the paper.

Each runner regenerates the corresponding figure's rows/series with the
algorithms of this library.  Absolute numbers differ from the paper (the
authors measured C++ on a 2007 Xeon; we run pure Python), so every range
is scaled down as recorded in DESIGN.md — the *shapes* (who wins, by what
growth rate, where crossovers fall) are the reproduction target and are
stated in each table's ``expectation`` field.

Scales: ``full`` for the EXPERIMENTS.md numbers, ``quick`` for CI.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.harness import ExperimentTable, register, time_call
from repro.complexity.dnf import PositiveDNF
from repro.complexity.reduction import count_models_via_skyline
from repro.core.baselines import (
    skyline_probability_a1,
    skyline_probability_a2,
    skyline_probability_sac,
)
from repro.core.batch import batch_skyline_probabilities
from repro.core.dominance import DominanceCache, dominance_factors
from repro.core.engine import SkylineProbabilityEngine
from repro.core.exact import (
    VEC_CROSSOVER,
    _solve,
    det_from_factor_lists,
    skyline_probability_det,
)
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.core.preprocess import preprocess
from repro.core.sampling import (
    skyline_probability_sampled,
    skyline_probability_sequential,
)
from repro.core.topk import estimate_all_skyline_probabilities
from repro.data.blockzipf import block_zipf_dataset
from repro.data.examples import observation_example, running_example
from repro.data.nursery import nursery_dataset, nursery_preferences
from repro.data.prefgen import random_preferences
from repro.data.procedural import HashedPreferenceModel, LazyRankedPreferenceModel
from repro.data.uniform import uniform_dataset
from repro.errors import ComputationBudgetError
from repro.util.rng import as_rng

__all__: List[str] = []  # experiments are reached through the registry

#: Sample size the paper uses throughout its accuracy experiments.
PAPER_SAMPLE_SIZE = 3000


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _pick_targets(dataset: Dataset, count: int, seed: int) -> List[int]:
    """Random target objects, mirroring the paper's 'pick 1000 objects'."""
    rng = as_rng(seed)
    count = min(count, len(dataset))
    return sorted(
        int(i) for i in rng.choice(len(dataset), size=count, replace=False)
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _interesting_targets(
    engine: SkylineProbabilityEngine,
    count: int,
    seed: int,
    *,
    low: float = 0.02,
    high: float = 0.98,
) -> List[int]:
    """Targets whose exact sky is not ~0 or ~1.

    On large workloads most objects have skyline probability
    indistinguishable from 0, which would make error-vs-samples plots
    trivially flat; accuracy figures therefore sample targets whose
    probability is informative (falling back to arbitrary ones when the
    workload has too few).
    """
    from repro.core.pruning import skyline_probability_bounds

    rng = as_rng(seed)
    order = rng.permutation(len(engine.dataset)).tolist()
    # Cheap O(n·d) bounds rank candidates so the exact verification scan
    # starts where non-trivial probabilities actually live.
    ranked = sorted(
        order,
        key=lambda index: -skyline_probability_bounds(
            engine.preferences,
            engine.dataset.others(int(index)),
            engine.dataset[int(index)],
        )[1],
    )
    scan_budget = max(4 * count, 24)  # bound the exact-solve scan cost
    chosen: List[int] = []
    fallback: List[int] = []
    for index in ranked[:scan_budget]:
        if len(chosen) >= count:
            break
        probability = engine.skyline_probability(
            int(index), method="det+"
        ).probability
        if low <= probability <= high:
            chosen.append(int(index))
        elif len(fallback) < count:
            fallback.append(int(index))
    chosen += fallback[: count - len(chosen)]
    return sorted(chosen)


def _average_query_time(
    engine: SkylineProbabilityEngine,
    targets: Sequence[int],
    method: str,
    **options: object,
) -> Dict[str, float]:
    """Mean wall-clock seconds and mean probability over the targets."""
    times: List[float] = []
    probabilities: List[float] = []
    for index in targets:
        report, elapsed = time_call(
            engine.skyline_probability, index, method=method, **options
        )
        times.append(elapsed)
        probabilities.append(report.probability)
    return {"seconds": _mean(times), "probability": _mean(probabilities)}


def _blockzipf_engine(
    n: int, d: int, *, seed: int, preference_seed: int
) -> SkylineProbabilityEngine:
    dataset = block_zipf_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return SkylineProbabilityEngine(dataset, preferences)


def _uniform_engine(
    n: int, d: int, *, seed: int, preference_seed: int
) -> SkylineProbabilityEngine:
    dataset = uniform_dataset(n, d, seed=seed)
    preferences = HashedPreferenceModel(d, seed=preference_seed)
    return SkylineProbabilityEngine(dataset, preferences)


# ----------------------------------------------------------------------
# Worked examples (Figures 1, 2, 4, 5, 7)
# ----------------------------------------------------------------------
@register(
    "examples",
    "Worked examples: exact vs independent-dominance (Sac)",
    "Figures 1-2 (observation) and 4-7 (running example)",
)
def run_examples(scale: str) -> List[ExperimentTable]:
    table = ExperimentTable(
        "examples",
        "Paper worked examples, all algorithms",
        columns=("object", "exact (Det)", "naive worlds", "Sac", "paper exact"),
        paper_reference="Figures 1-2 and 4-7",
        expectation=(
            "Det and world enumeration agree with the paper's hand "
            "calculations; Sac is wrong whenever competitors share values"
        ),
    )
    observation, observation_prefs = observation_example()
    engine = SkylineProbabilityEngine(observation, observation_prefs)
    paper_values = {"P1": "1/2", "P2": "1/4", "P3": "1/2"}
    for index, label in enumerate(observation.labels):
        table.add_row(
            **{
                "object": label,
                "exact (Det)": engine.skyline_probability(index, method="det").probability,
                "naive worlds": engine.skyline_probability(index, method="naive").probability,
                "Sac": skyline_probability_sac(
                    observation_prefs, observation.others(index), observation[index]
                ),
                "paper exact": paper_values[label],
            }
        )
    running, running_prefs = running_example()
    engine = SkylineProbabilityEngine(running, running_prefs)
    table.add_row(
        **{
            "object": "O (running example)",
            "exact (Det)": engine.skyline_probability(0, method="det").probability,
            "naive worlds": engine.skyline_probability(0, method="naive").probability,
            "Sac": skyline_probability_sac(
                running_prefs, running.others(0), running[0]
            ),
            "paper exact": "3/16 (Sac: 9/64)",
        }
    )
    return [table]


# ----------------------------------------------------------------------
# Table 1: workloads
# ----------------------------------------------------------------------
@register(
    "table1",
    "Synthetic workload inventory and preprocessing structure",
    "Table 1 (parameters) and Figure 8 (correlated/anti-correlated)",
)
def run_table1(scale: str) -> List[ExperimentTable]:
    sizes = [10, 100, 1000, 10000] if scale == "full" else [10, 100]
    uniform_sizes = [10, 20, 40, 50] if scale == "full" else [10, 20]
    table = ExperimentTable(
        "table1",
        "Workloads: generation cost and preprocessing structure",
        columns=(
            "workload", "n", "d", "generate (s)",
            "kept after absorb", "partitions", "largest partition",
        ),
        paper_reference="Table 1",
        expectation=(
            "block-zipf keeps partitions block-sized; uniform data "
            "collapses into one large partition"
        ),
    )
    for n in uniform_sizes:
        dataset, generation = time_call(uniform_dataset, n, 5, seed=n)
        prep = preprocess(
            list(dataset.others(0)), dataset[0],
            preferences=HashedPreferenceModel(5, seed=1),
        )
        table.add_row(
            workload="uniform", n=n, d=5, **{"generate (s)": generation},
            **{
                "kept after absorb": prep.kept_count,
                "partitions": len(prep.partitions),
                "largest partition": prep.largest_partition,
            },
        )
    for n in sizes:
        dataset, generation = time_call(block_zipf_dataset, n, 5, seed=n)
        prep = preprocess(
            list(dataset.others(0)), dataset[0],
            preferences=HashedPreferenceModel(5, seed=1),
        )
        table.add_row(
            workload="block-zipf", n=n, d=5, **{"generate (s)": generation},
            **{
                "kept after absorb": prep.kept_count,
                "partitions": len(prep.partitions),
                "largest partition": prep.largest_partition,
            },
        )

    figure8 = ExperimentTable(
        "table1",
        "Figure 8: preference-induced correlation on one block-zipf set",
        columns=("preferences", "expected skyline size", "samples"),
        paper_reference="Figure 8",
        expectation=(
            "anti-correlated preferences yield a much larger expected "
            "skyline than correlated ones on the *same* objects"
        ),
    )
    n = 60 if scale == "full" else 24
    samples = 600 if scale == "full" else 150
    # One block: rankings then live in a single value domain, giving the
    # clean correlated/anti-correlated semantics Figure 8 illustrates.
    dataset = block_zipf_dataset(n, 2, seed=8, blocks=1, values_per_block=12)
    for name, strength_model in (
        ("correlated", LazyRankedPreferenceModel(2, 0.9)),
        ("anti-correlated", LazyRankedPreferenceModel(2, 0.9, flip_dimensions=(1,))),
    ):
        estimate = estimate_all_skyline_probabilities(
            strength_model, dataset, samples=samples, seed=42
        )
        figure8.add_row(
            preferences=name,
            **{"expected skyline size": sum(estimate.probabilities)},
            samples=samples,
        )
    return [table, figure8]


# ----------------------------------------------------------------------
# Table 2: the algorithm suite
# ----------------------------------------------------------------------
@register(
    "table2",
    "Algorithm suite on a reference workload",
    "Table 2 (Det / Det+ / Sam / Sam+), plus the Sac baseline",
)
def run_table2(scale: str) -> List[ExperimentTable]:
    n = 128 if scale == "full" else 48
    target_count = 8 if scale == "full" else 3
    engine = _blockzipf_engine(n, 5, seed=21, preference_seed=22)
    targets = _pick_targets(engine.dataset, target_count, seed=23)
    table = ExperimentTable(
        "table2",
        f"All algorithms, block-zipf n={n} d=5 (mean over {len(targets)} targets)",
        columns=("algorithm", "mean sky", "mean seconds", "exact"),
        paper_reference="Table 2",
        expectation=(
            "Det+ / Sam / Sam+ agree (Sam within epsilon); Det exceeds its "
            "budget without preprocessing; Sac is biased"
        ),
    )
    for method in ("det+", "sam", "sam+", "auto"):
        stats = _average_query_time(
            engine, targets, method, samples=PAPER_SAMPLE_SIZE, seed=7
        )
        table.add_row(
            algorithm=method,
            **{"mean sky": stats["probability"], "mean seconds": stats["seconds"]},
            exact="yes" if method in ("det+", "auto") else "no",
        )
    try:
        stats = _average_query_time(engine, targets, "det")
        table.add_row(
            algorithm="det",
            **{"mean sky": stats["probability"], "mean seconds": stats["seconds"]},
            exact="yes",
        )
    except ComputationBudgetError:
        table.add_row(
            algorithm="det",
            **{"mean sky": "budget exceeded", "mean seconds": "> budget"},
            exact="yes",
        )
    sac_values = [
        skyline_probability_sac(
            engine.preferences, engine.dataset.others(i), engine.dataset[i]
        )
        for i in targets
    ]
    table.add_row(
        algorithm="sac (baseline)",
        **{"mean sky": _mean(sac_values), "mean seconds": ""},
        exact="no (biased)",
    )
    return [table]


# ----------------------------------------------------------------------
# Figure 6: the two tentative approximations
# ----------------------------------------------------------------------
@register(
    "fig6",
    "Tentative approximations A1 (top objects) and A2 (truncated terms)",
    "Figure 6",
)
def run_fig6(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        n, reference_samples = 300, 200_000
        a1_tops = [1, 2, 5, 10, 15, 18, 20]
        a2_budgets = [300, 3_000, 30_000, 300_000, 1_000_000]
    else:
        n, reference_samples = 60, 30_000
        a1_tops = [1, 3, 6, 10]
        a2_budgets = [60, 600, 6_000]
    dataset = uniform_dataset(n, 5, seed=61)
    preferences = HashedPreferenceModel(5, seed=62)
    target = dataset[0]
    competitors = list(dataset.others(0))
    reference = skyline_probability_sampled(
        preferences, competitors, target,
        samples=reference_samples, seed=63, method="vectorized",
    ).estimate

    a1_table = ExperimentTable(
        "fig6",
        f"A1: exact over the top-t likeliest dominators (uniform n={n}, d=5)",
        columns=("top objects", "A1 value", "absolute error", "seconds"),
        paper_reference="Figure 6 (a)",
        expectation=(
            "error decreases very slowly with t and each step costs "
            "exponentially more — not a usable approximation"
        ),
    )
    for top in a1_tops:
        value, elapsed = time_call(
            skyline_probability_a1, preferences, competitors, target, top,
        )
        a1_table.add_row(
            **{
                "top objects": top,
                "A1 value": value,
                "absolute error": abs(value - reference),
                "seconds": elapsed,
            }
        )

    a2_table = ExperimentTable(
        "fig6",
        f"A2: truncated inclusion-exclusion (uniform n={n}, d=5)",
        columns=("terms computed", "A2 value", "absolute error", "seconds"),
        paper_reference="Figure 6 (b)",
        expectation=(
            "absolute errors stay >= 1 (worse than guessing) regardless of "
            "how many joint probabilities are computed"
        ),
    )
    for budget in a2_budgets:
        value, elapsed = time_call(
            skyline_probability_a2, preferences, competitors, target, budget
        )
        a2_table.add_row(
            **{
                "terms computed": budget,
                "A2 value": value,
                "absolute error": abs(value - reference),
                "seconds": elapsed,
            }
        )
    return [a1_table, a2_table]


# ----------------------------------------------------------------------
# Figures 9 and 10: exact algorithms
# ----------------------------------------------------------------------
def _exact_comparison_row(
    table: ExperimentTable,
    engine: SkylineProbabilityEngine,
    targets: Sequence[int],
    label_value: object,
    label_column: str,
    *,
    include_det: bool,
    include_det_vec: bool = True,
) -> None:
    # ``include_det`` gates the recursive raw-Det column (interpreter
    # cost is ~2^n, so large n is skipped outright); the vec kernel
    # raises its own ComputationBudgetError past its object ceiling.
    cells: Dict[str, object] = {label_column: label_value}
    if include_det:
        try:
            cells["Det (s)"] = _average_query_time(engine, targets, "det")["seconds"]
        except ComputationBudgetError:
            cells["Det (s)"] = "> budget"
    else:
        cells["Det (s)"] = "> budget"
    if include_det_vec:
        try:
            cells["Det vec (s)"] = _average_query_time(
                engine, targets, "det", det_kernel="vec"
            )["seconds"]
        except ComputationBudgetError:
            cells["Det vec (s)"] = "> budget"
    else:
        cells["Det vec (s)"] = "> budget"
    stats = _average_query_time(engine, targets, "det+")
    cells["Det+ (s)"] = stats["seconds"]
    cells["Det+ vec (s)"] = _average_query_time(
        engine, targets, "det+", det_kernel="vec"
    )["seconds"]
    cells["mean sky"] = stats["probability"]
    table.add_row(**cells)


@register(
    "fig9",
    "Exact algorithms Det vs Det+, varying cardinality",
    "Figure 9",
)
def run_fig9(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        # n = 24 raises the exact ceiling past what the recursive
        # kernels can answer interactively — only the vec kernel runs
        # raw Det there.
        uniform_sizes = [8, 12, 16, 20, 24]
        zipf_sizes = [10, 100, 1000, 10000]
        target_count = 3
    else:
        uniform_sizes = [6, 10]
        zipf_sizes = [10, 100]
        target_count = 2

    uniform_table = ExperimentTable(
        "fig9",
        "Det vs Det+ on uniform data (d=5), varying n",
        columns=(
            "n", "Det (s)", "Det vec (s)", "Det+ (s)", "Det+ vec (s)",
            "mean sky",
        ),
        paper_reference="Figure 9 (a)",
        expectation=(
            "both exponential in n; Det+ consistently faster thanks to "
            "absorption removing objects; the vec kernel extends the "
            "feasible raw-Det ceiling (n=24 runs only there) and wins "
            "by >10x at n=20"
        ),
    )
    for n in uniform_sizes:
        engine = _uniform_engine(n, 5, seed=91 + n, preference_seed=92)
        targets = _pick_targets(engine.dataset, target_count, seed=93)
        _exact_comparison_row(
            uniform_table, engine, targets, n, "n", include_det=(n <= 20)
        )

    zipf_table = ExperimentTable(
        "fig9",
        "Det vs Det+ on block-zipf data (d=5), varying n",
        columns=(
            "n", "Det (s)", "Det vec (s)", "Det+ (s)", "Det+ vec (s)",
            "mean sky",
        ),
        paper_reference="Figure 9 (b)",
        expectation=(
            "Det exceeds its budget beyond tiny n; Det+ scales to 10^4 "
            "objects because partitions stay block-sized, and the vec "
            "kernel shaves the per-partition constant too (~2-3x at "
            "n=10^4) even though each component's term space is small"
        ),
    )
    for n in zipf_sizes:
        engine = _blockzipf_engine(n, 5, seed=94 + n, preference_seed=95)
        targets = _pick_targets(engine.dataset, target_count, seed=96)
        _exact_comparison_row(
            zipf_table, engine, targets, n, "n", include_det=(n <= 20)
        )
    return [uniform_table, zipf_table]


@register(
    "fig10",
    "Exact algorithms Det vs Det+, varying dimensionality",
    "Figure 10",
)
def run_fig10(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        # n raised 16 -> 20: the vec kernel keeps raw Det interactive
        # at this cardinality, so the exact sweep covers a harder point.
        uniform_n, zipf_n, target_count = 20, 1000, 3
    else:
        uniform_n, zipf_n, target_count = 8, 100, 2
    dimensions = [2, 3, 4, 5]

    uniform_table = ExperimentTable(
        "fig10",
        f"Det vs Det+ on uniform data (n={uniform_n}), varying d",
        columns=(
            "d", "Det (s)", "Det vec (s)", "Det+ (s)", "Det+ vec (s)",
            "mean sky",
        ),
        paper_reference="Figure 10 (a)",
        expectation=(
            "Det+ especially strong at low d where absorption removes "
            "most objects; the vec columns show the kernel gap widening "
            "with d as surviving dominator counts grow"
        ),
    )
    for d in dimensions:
        engine = _uniform_engine(uniform_n, d, seed=101 + d, preference_seed=102)
        targets = _pick_targets(engine.dataset, target_count, seed=103)
        _exact_comparison_row(
            uniform_table, engine, targets, d, "d", include_det=True
        )

    zipf_table = ExperimentTable(
        "fig10",
        f"Det+ on block-zipf data (n={zipf_n}), varying d",
        columns=(
            "d", "Det (s)", "Det vec (s)", "Det+ (s)", "Det+ vec (s)",
            "mean sky",
        ),
        paper_reference="Figure 10 (b)",
        expectation="Det cannot run at all; Det+ grows mildly with d",
    )
    for d in dimensions:
        engine = _blockzipf_engine(zipf_n, d, seed=104 + d, preference_seed=105)
        targets = _pick_targets(engine.dataset, target_count, seed=106)
        _exact_comparison_row(
            zipf_table, engine, targets, d, "d", include_det=False
        )
    return [uniform_table, zipf_table]


# ----------------------------------------------------------------------
# Figures 11 and 12: approximation accuracy
# ----------------------------------------------------------------------
def _accuracy_errors(
    engine: SkylineProbabilityEngine,
    targets: Sequence[int],
    samples: int,
    seed: int,
) -> Dict[str, float]:
    """Mean |estimate - exact| for Sam and Sam+ over the targets."""
    sam_errors: List[float] = []
    samplus_errors: List[float] = []
    rng = as_rng(seed)
    for index in targets:
        exact = engine.skyline_probability(index, method="det+").probability
        sam = engine.skyline_probability(
            index, method="sam", samples=samples, seed=rng
        ).probability
        samplus = engine.skyline_probability(
            index, method="sam+", samples=samples, seed=rng
        ).probability
        sam_errors.append(abs(sam - exact))
        samplus_errors.append(abs(samplus - exact))
    return {"sam": _mean(sam_errors), "sam+": _mean(samplus_errors)}


@register(
    "fig11",
    "Approximation error vs sample size",
    "Figure 11",
)
def run_fig11(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        n, target_count = 300, 12
        sample_sizes = [100, 300, 1000, 3000, 10000]
    else:
        n, target_count = 60, 4
        sample_sizes = [100, 1000]
    engine = _blockzipf_engine(n, 5, seed=111, preference_seed=112)
    # Error-vs-samples is only visible on targets whose sky is not ~0.
    targets = _interesting_targets(engine, target_count, seed=113)
    table = ExperimentTable(
        "fig11",
        f"Sam / Sam+ absolute error vs sample size (block-zipf n={n}, d=5)",
        columns=("samples", "Sam mean abs error", "Sam+ mean abs error"),
        paper_reference="Figure 11",
        expectation=(
            "error shrinks roughly as 1/sqrt(m); ~3000 samples already "
            "beat the epsilon=0.01 bound in practice"
        ),
    )
    for samples in sample_sizes:
        errors = _accuracy_errors(engine, targets, samples, seed=114)
        table.add_row(
            samples=samples,
            **{
                "Sam mean abs error": errors["sam"],
                "Sam+ mean abs error": errors["sam+"],
            },
        )
    return [table]


@register(
    "fig12",
    "Approximation accuracy at the paper's settings (m=3000)",
    "Figure 12",
)
def run_fig12(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        vary_n = [10, 100, 1000, 2000]
        fixed_n, target_count = 1000, 10
    else:
        vary_n = [10, 50]
        fixed_n, target_count = 50, 3
    dimensions = [2, 3, 4, 5]

    by_n = ExperimentTable(
        "fig12",
        "Mean absolute error, block-zipf d=5, varying n (m=3000)",
        columns=("n", "Sam mean abs error", "Sam+ mean abs error"),
        paper_reference="Figure 12 (a)",
        expectation="errors stay well below epsilon=0.01 at every n",
    )
    for n in vary_n:
        engine = _blockzipf_engine(n, 5, seed=121 + n, preference_seed=122)
        targets = _pick_targets(engine.dataset, target_count, seed=123)
        errors = _accuracy_errors(engine, targets, PAPER_SAMPLE_SIZE, seed=124)
        by_n.add_row(
            n=n,
            **{
                "Sam mean abs error": errors["sam"],
                "Sam+ mean abs error": errors["sam+"],
            },
        )

    by_d = ExperimentTable(
        "fig12",
        f"Mean absolute error, block-zipf n={fixed_n}, varying d (m=3000)",
        columns=("d", "Sam mean abs error", "Sam+ mean abs error"),
        paper_reference="Figure 12 (b)",
        expectation="errors stay well below epsilon=0.01 at every d",
    )
    for d in dimensions:
        engine = _blockzipf_engine(fixed_n, d, seed=125 + d, preference_seed=126)
        targets = _pick_targets(engine.dataset, target_count, seed=127)
        errors = _accuracy_errors(engine, targets, PAPER_SAMPLE_SIZE, seed=128)
        by_d.add_row(
            d=d,
            **{
                "Sam mean abs error": errors["sam"],
                "Sam+ mean abs error": errors["sam+"],
            },
        )
    return [by_n, by_d]


# ----------------------------------------------------------------------
# Figures 13 and 14: approximate-algorithm efficiency
# ----------------------------------------------------------------------
def _approx_time_row(
    table: ExperimentTable,
    engine: SkylineProbabilityEngine,
    targets: Sequence[int],
    label_value: object,
    label_column: str,
    *,
    include_detplus: bool = True,
) -> None:
    cells: Dict[str, object] = {label_column: label_value}
    if include_detplus:
        try:
            cells["Det+ (s)"] = _average_query_time(engine, targets, "det+")["seconds"]
        except ComputationBudgetError:
            cells["Det+ (s)"] = "> budget"
    else:
        cells["Det+ (s)"] = "> budget"
    cells["Sam (s)"] = _average_query_time(
        engine, targets, "sam", samples=PAPER_SAMPLE_SIZE, seed=5
    )["seconds"]
    cells["Sam+ (s)"] = _average_query_time(
        engine, targets, "sam+", samples=PAPER_SAMPLE_SIZE, seed=5
    )["seconds"]
    table.add_row(**cells)


@register(
    "fig13",
    "Approximate algorithms vs Det+, varying cardinality",
    "Figure 13",
)
def run_fig13(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        uniform_sizes = [8, 12, 16, 20]
        zipf_sizes = [100, 1000, 10000]
        target_count = 3
    else:
        uniform_sizes = [6, 10]
        zipf_sizes = [50, 200]
        target_count = 2

    uniform_table = ExperimentTable(
        "fig13",
        "Det+ vs Sam vs Sam+ on uniform data (d=5), varying n",
        columns=("n", "Det+ (s)", "Sam (s)", "Sam+ (s)"),
        paper_reference="Figure 13 (a)",
        expectation=(
            "Det+ explodes exponentially while the samplers stay flat; "
            "crossover within the plotted range"
        ),
    )
    for n in uniform_sizes:
        engine = _uniform_engine(n, 5, seed=131 + n, preference_seed=132)
        targets = _pick_targets(engine.dataset, target_count, seed=133)
        _approx_time_row(uniform_table, engine, targets, n, "n")

    zipf_table = ExperimentTable(
        "fig13",
        "Det+ vs Sam vs Sam+ on block-zipf data (d=5), varying n",
        columns=("n", "Det+ (s)", "Sam (s)", "Sam+ (s)"),
        paper_reference="Figure 13 (b)",
        expectation=(
            "on block-zipf, Det+ stays competitive (small partitions); "
            "samplers grow mildly with n"
        ),
    )
    for n in zipf_sizes:
        engine = _blockzipf_engine(n, 5, seed=134 + n, preference_seed=135)
        targets = _pick_targets(engine.dataset, target_count, seed=136)
        _approx_time_row(zipf_table, engine, targets, n, "n")
    return [uniform_table, zipf_table]


@register(
    "fig14",
    "Approximate algorithms vs Det+, varying dimensionality",
    "Figure 14",
)
def run_fig14(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        uniform_n, zipf_n, target_count = 16, 2000, 3
    else:
        uniform_n, zipf_n, target_count = 8, 100, 2
    dimensions = [2, 3, 4, 5]

    uniform_table = ExperimentTable(
        "fig14",
        f"Det+ vs Sam vs Sam+ on uniform data (n={uniform_n}), varying d",
        columns=("d", "Det+ (s)", "Sam (s)", "Sam+ (s)"),
        paper_reference="Figure 14 (a)",
        expectation="sampler times grow linearly in d, Det+ faster than exponentially",
    )
    for d in dimensions:
        engine = _uniform_engine(uniform_n, d, seed=141 + d, preference_seed=142)
        targets = _pick_targets(engine.dataset, target_count, seed=143)
        _approx_time_row(uniform_table, engine, targets, d, "d")

    zipf_table = ExperimentTable(
        "fig14",
        f"Det+ vs Sam vs Sam+ on block-zipf data (n={zipf_n}), varying d",
        columns=("d", "Det+ (s)", "Sam (s)", "Sam+ (s)"),
        paper_reference="Figure 14 (b)",
        expectation="all three grow mildly with d on block-zipf",
    )
    for d in dimensions:
        engine = _blockzipf_engine(zipf_n, d, seed=144 + d, preference_seed=145)
        targets = _pick_targets(engine.dataset, target_count, seed=146)
        _approx_time_row(zipf_table, engine, targets, d, "d")
    return [uniform_table, zipf_table]


# ----------------------------------------------------------------------
# Figure 15: the Nursery data set
# ----------------------------------------------------------------------
@register(
    "fig15",
    "Real data: the Nursery data set at d=4 and d=8",
    "Figure 15",
)
def run_fig15(scale: str) -> List[ExperimentTable]:
    target_count = 10 if scale == "full" else 3
    time_table = ExperimentTable(
        "fig15",
        "Nursery: mean per-object runtime",
        columns=("d", "n", "Det+ (s)", "Sam (s)", "Sam+ (s)"),
        paper_reference="Figure 15 (a)",
        expectation=(
            "Det+ remains efficient despite its exponential worst case "
            "because absorption collapses the full-factorial data"
        ),
    )
    error_table = ExperimentTable(
        "fig15",
        "Nursery: mean absolute error of the samplers (m=3000)",
        columns=("d", "Sam mean abs error", "Sam+ mean abs error"),
        paper_reference="Figure 15 (b)",
        expectation="errors comfortably below epsilon=0.01 at both d",
    )
    configurations = [(4, [0, 1, 2, 3]), (8, None)]
    if scale == "quick":
        configurations = [(4, [0, 1, 2, 3])]
    for d, dims in configurations:
        dataset = nursery_dataset(dims)
        preferences = nursery_preferences(dims, seed=151)
        engine = SkylineProbabilityEngine(dataset, preferences)
        targets = _pick_targets(dataset, target_count, seed=152)
        _approx_time_row(time_table, engine, targets, d, "d")
        # _approx_time_row does not know n; patch the row it just added.
        time_table.rows[-1]["n"] = len(dataset)
        errors = _accuracy_errors(engine, targets, PAPER_SAMPLE_SIZE, seed=153)
        error_table.add_row(
            d=d,
            **{
                "Sam mean abs error": errors["sam"],
                "Sam+ mean abs error": errors["sam+"],
            },
        )
    return [time_table, error_table]


# ----------------------------------------------------------------------
# Theorem 1: the reduction, executed
# ----------------------------------------------------------------------
@register(
    "thm1",
    "#P-completeness reduction: #DNF via the skyline oracle",
    "Theorem 1",
)
def run_thm1(scale: str) -> List[ExperimentTable]:
    if scale == "full":
        configurations = [(8, 6), (10, 10), (12, 14), (14, 18)]
    else:
        configurations = [(6, 4), (8, 6)]
    table = ExperimentTable(
        "thm1",
        "Counting positive-DNF models with the skyline algorithm",
        columns=(
            "variables", "clauses", "brute-force count",
            "via skyline", "agree", "skyline seconds",
        ),
        paper_reference="Theorem 1",
        expectation="the skyline oracle reproduces every model count exactly",
    )
    for variables, clauses in configurations:
        formula = PositiveDNF.random(
            variables, clauses, min_clause_size=2,
            max_clause_size=max(2, variables // 2), seed=variables * 31 + clauses,
        )
        brute = formula.count_satisfying()
        via_skyline, elapsed = time_call(count_models_via_skyline, formula)
        table.add_row(
            variables=variables,
            clauses=formula.num_clauses,
            **{
                "brute-force count": brute,
                "via skyline": via_skyline,
                "agree": "yes" if brute == via_skyline else "NO",
                "skyline seconds": elapsed,
            },
        )
    return [table]


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
@register(
    "ablation_sharing",
    "Ablation: Algorithm 1's shared computation on vs off",
    "Section 3 (the O(d)-per-term sharing technique)",
)
def run_ablation_sharing(scale: str) -> List[ExperimentTable]:
    sizes = [10, 12, 14, 16] if scale == "full" else [8, 10]
    table = ExperimentTable(
        "ablation_sharing",
        "Det with vs without shared computation (uniform d=5)",
        columns=("n", "shared (s)", "naive per-term (s)", "speedup"),
        paper_reference="Section 3",
        expectation="sharing wins by a growing factor as subsets get larger",
    )
    for n in sizes:
        dataset = uniform_dataset(n, 5, seed=170 + n)
        preferences = HashedPreferenceModel(5, seed=171)
        competitors = list(dataset.others(0))
        target = dataset[0]
        shared_result, shared = time_call(
            skyline_probability_det, preferences, competitors, target,
        )
        naive_result, naive = time_call(
            skyline_probability_det, preferences, competitors, target,
            share_computation=False,
        )
        assert abs(shared_result.probability - naive_result.probability) < 1e-9
        table.add_row(
            n=n,
            **{
                "shared (s)": shared,
                "naive per-term (s)": naive,
                "speedup": naive / shared if shared > 0 else float("inf"),
            },
        )
    return [table]


#: Rounds of :func:`_interleaved_median_seconds`.
_TIMING_ROUNDS = 5


def _interleaved_median_seconds(
    calls: Dict[object, Callable[[], object]],
    *,
    budget: float,
    rounds: int = _TIMING_ROUNDS,
) -> Tuple[Dict[object, object], Dict[object, float]]:
    """``(results, median seconds per call)`` for each named call.

    One untimed warm-up call each, then ``rounds`` rounds; a round runs
    a block of timed calls per name (at least one, about
    ``budget / (rounds * len(calls))`` seconds).  A single timing of a
    microsecond-scale call is mostly noise; blocks keep each name's
    calls back to back, as in steady use, and the rounds let a change
    in host speed hit every name alike instead of whichever ran
    during it.  Calls of tens of milliseconds on a shared host need
    more rounds of one call each: the host's speed can change within a
    few calls, and with five rounds one name's median can land in a
    slow spell and another's in a fast one.
    """
    results = {name: call() for name, call in calls.items()}
    times: Dict[object, List[float]] = {name: [] for name in calls}
    block = budget / (rounds * len(calls))
    for _ in range(rounds):
        for name, call in calls.items():
            spent = 0.0
            while spent < block:
                start = time.perf_counter()
                call()
                elapsed = time.perf_counter() - start
                times[name].append(elapsed)
                spent += elapsed
    return results, {name: statistics.median(t) for name, t in times.items()}


#: Rows of the "vec grouped" column, and each row's factor scale.
_GROUPED_ROWS = 64
_GROUPED_SCALES = tuple(
    1.0 - row / (4 * _GROUPED_ROWS) for row in range(_GROUPED_ROWS)
)


def _dominator_factor_lists(dataset: Dataset, preferences) -> List[tuple]:
    """Factor lists of object 0's competitors that survive the Det filter."""
    target = dataset[0]
    lists = [
        dominance_factors(preferences, competitor, target)
        for competitor in dataset.others(0)
    ]
    assert all(lists), "the ablation instances hold no duplicates"
    return [
        factors
        for factors in lists
        if all(probability != 0.0 for _, _, probability in factors)
    ]


@register(
    "ablation_vec_kernel",
    "Ablation: Det kernels by component size, and the routed default",
    "Section 3 (Algorithm 1's inclusion-exclusion loop)",
)
def run_ablation_vec_kernel(scale: str) -> List[ExperimentTable]:
    # A component of k dominators is the first k surviving competitors of
    # object 0, solved through det_from_factor_lists with its factors
    # computed up front, so each timing is the kernel alone.  The
    # recursive kernels stop at 20 dominators (seconds per call beyond);
    # vec and the routed default go on to 24.  "vec grouped" solves
    # _GROUPED_ROWS copies of the component, each row's factors scaled
    # by its own fixed factor, in one exact call — the structure group
    # an all-objects pass forms — and reports the time per component;
    # it stops at 20 too (rows that large run one per slice).
    if scale == "full":
        largest_recursive, largest, budget = 20, 24, 0.8
    else:
        largest_recursive, largest, budget = 10, 10, 0.008
    instances = (
        (
            "uniform d=5",
            uniform_dataset(40, 5, seed=195),
            HashedPreferenceModel(5, seed=191),
        ),
        (
            "block-zipf d=4",
            block_zipf_dataset(60, 4, blocks=1, seed=230),
            HashedPreferenceModel(4, seed=231),
        ),
    )
    table = ExperimentTable(
        "ablation_vec_kernel",
        "Det kernel time per component size (median µs per call)",
        columns=(
            "data", "dominators", "reference (µs)", "fast (µs)", "vec (µs)",
            "auto (µs)", "vec grouped (µs)", "fast / vec", "auto / best",
            "overhead (grouped / vec)", "identical", "max |Δ| vs reference",
        ),
        paper_reference="Section 3 (Algorithm 1)",
        expectation=(
            f"fast beats vec below {VEC_CROSSOVER} dominators (vec pays a "
            f"fixed NumPy cost per call) and vec wins from {VEC_CROSSOVER} "
            "up, by a factor that grows with the component; the default "
            "'auto' routes each component to the faster of the two (auto / "
            "best ≈ 1); every kernel agrees with reference within 1e-12; "
            f"solved {_GROUPED_ROWS} rows of one key structure at a time, "
            "vec costs a fraction of its per-call time per component "
            "(grouped / vec well below 1 up to mid-sized components), and "
            "every grouped row equals its one-row call bit for bit"
        ),
    )
    for label, dataset, preferences in instances:
        dominators = _dominator_factor_lists(dataset, preferences)
        for size in range(1, largest + 1):
            kernels = ("vec", "auto")
            if size <= largest_recursive:
                kernels = ("reference", "fast") + kernels
            calls = {
                kernel: functools.partial(
                    det_from_factor_lists, dominators[:size],
                    kernel=kernel, max_objects=size,
                )
                for kernel in kernels
            }
            if size <= largest_recursive:
                group = [
                    [
                        tuple((j, v, f * scale) for j, v, f in factors)
                        for factors in dominators[:size]
                    ]
                    for scale in _GROUPED_SCALES
                ]
                calls["grouped"] = functools.partial(
                    _solve, group, max_objects=size, kernel="vec",
                    deadline_at=None,
                )
            results, seconds = _interleaved_median_seconds(
                calls, budget=budget
            )
            row: Dict[str, object] = {
                f"{kernel} (µs)": 1e6 * seconds[kernel] for kernel in kernels
            }
            best = min(seconds.get("fast", math.inf), seconds["vec"])
            row["auto / best"] = seconds["auto"] / best
            if "grouped" in results:
                per_component = seconds["grouped"] / len(group)
                row["vec grouped (µs)"] = 1e6 * per_component
                row["overhead (grouped / vec)"] = per_component / seconds["vec"]
                row["identical"] = all(
                    repr(grouped) == repr(
                        det_from_factor_lists(
                            component, kernel="vec", max_objects=size
                        )
                    )
                    for component, grouped in zip(group, results["grouped"])
                )
            if "reference" in results:
                row["fast / vec"] = seconds["fast"] / seconds["vec"]
                row["max |Δ| vs reference"] = max(
                    abs(results[kernel].probability - results["reference"].probability)
                    for kernel in kernels
                )
            table.add_row(
                data=label, dominators=results["vec"].objects_used, **row
            )
    return [table]


@register(
    "ablation_sorting",
    "Ablation: Algorithm 2's sorted checking sequence on vs off",
    "Section 4.1 (sort by dominance probability)",
)
def run_ablation_sorting(scale: str) -> List[ExperimentTable]:
    n = 1000 if scale == "full" else 100
    samples = PAPER_SAMPLE_SIZE if scale == "full" else 500
    table = ExperimentTable(
        "ablation_sorting",
        f"Lazy sampler with vs without sorting (block-zipf n={n}, d=5)",
        columns=("ordering", "dominance checks", "seconds", "estimate"),
        paper_reference="Section 4.1",
        expectation=(
            "sorting cuts the number of dominance checks per world "
            "(dominated worlds rejected earlier)"
        ),
    )
    dataset = block_zipf_dataset(n, 5, seed=181)
    preferences = HashedPreferenceModel(5, seed=182)
    competitors = list(dataset.others(0))
    target = dataset[0]
    for label, sort in (("sorted", True), ("unsorted", False)):
        result, elapsed = time_call(
            skyline_probability_sampled, preferences, competitors, target,
            samples=samples, seed=183, method="lazy", sort_by_dominance=sort,
        )
        table.add_row(
            ordering=label,
            **{
                "dominance checks": result.checks,
                "seconds": elapsed,
                "estimate": result.estimate,
            },
        )
    return [table]


@register(
    "ablation_preprocess",
    "Ablation: absorption-only vs partition-only vs both",
    "Section 5",
)
def run_ablation_preprocess(scale: str) -> List[ExperimentTable]:
    n, budget = (1000, 4.0) if scale == "full" else (100, 0.04)
    table = ExperimentTable(
        "ablation_preprocess",
        f"Preprocessing variants (block-zipf n={n}, d=5)",
        columns=(
            "variant", "kept objects", "partitions",
            "largest partition", "preprocess (ms)",
        ),
        paper_reference="Section 5",
        expectation=(
            "absorption shrinks the object set, partition splits it; only "
            "their combination guarantees small exact sub-problems here"
        ),
    )
    dataset = block_zipf_dataset(n, 5, seed=191)
    preferences = HashedPreferenceModel(5, seed=192)
    competitors = list(dataset.others(0))
    target = dataset[0]
    variants = {
        "none": (False, False),
        "absorption only": (True, False),
        "partition only": (False, True),
        "both": (True, True),
    }
    results, seconds = _interleaved_median_seconds(
        {
            label: functools.partial(
                preprocess, competitors, target, preferences=preferences,
                use_absorption=use_absorption, use_partition=use_partition,
            )
            for label, (use_absorption, use_partition) in variants.items()
        },
        budget=budget,
    )
    for label, prep in results.items():
        table.add_row(
            variant=label,
            **{
                "kept objects": prep.kept_count,
                "partitions": len(prep.partitions),
                "largest partition": prep.largest_partition,
                "preprocess (ms)": 1e3 * seconds[label],
            },
        )
    return [table]


@register(
    "ablation_blocksize",
    "Ablation: block size vs Det+ feasibility",
    "Figures 9b/10b (why partition-bounded components matter)",
)
def run_ablation_blocksize(scale: str) -> List[ExperimentTable]:
    # At quick scale block 8's Det+ costs only ~10% more than block 4's,
    # so its cheap calls get many single-call rounds.
    if scale == "full":
        n, block_sizes, budget, rounds = 256, [4, 8, 12], 8.0, _TIMING_ROUNDS
    else:
        n, block_sizes, budget, rounds = 64, [4, 8], 0.2, 61
    table = ExperimentTable(
        "ablation_blocksize",
        f"Det+ cost vs block size (block-zipf n={n}, d=5)",
        columns=(
            "objects per block", "largest partition",
            "Det+ (s)", "Sam+ (s)",
        ),
        paper_reference="Figures 9b/10b",
        expectation=(
            "Det+ cost grows exponentially with the block size (each "
            "partition is a 2^size enumeration) while sampling barely moves"
        ),
    )

    def queries(
        block_size: int, method: str, **options: object
    ) -> Callable[[], list]:
        dataset = block_zipf_dataset(
            n, 5, blocks=max(1, n // block_size),
            values_per_block=max(10, 2 * block_size), seed=211 + block_size,
        )
        preferences = HashedPreferenceModel(5, seed=212)
        targets = _pick_targets(dataset, 3, seed=213)

        # A fresh engine per call: engines memoise exact answers.
        def call() -> list:
            engine = SkylineProbabilityEngine(
                dataset, preferences, max_exact_objects=26
            )
            return [
                engine.skyline_probability(index, method=method, **options)
                for index in targets
            ]

        return call

    # Every block size's calls in one interleaved timing, so a change in
    # host speed cannot land on one block size only.
    detplus, detplus_seconds = _interleaved_median_seconds(
        {size: queries(size, "det+") for size in block_sizes},
        budget=budget,
        rounds=rounds,
    )
    _, samplus_seconds = _interleaved_median_seconds(
        {
            size: queries(size, "sam+", samples=PAPER_SAMPLE_SIZE, seed=214)
            for size in block_sizes
        },
        budget=budget,
    )
    for size in block_sizes:
        table.add_row(
            **{
                "objects per block": size,
                "largest partition": max(
                    report.preprocessing.largest_partition
                    for report in detplus[size]
                ),
                "Det+ (s)": detplus_seconds[size] / len(detplus[size]),
                "Sam+ (s)": samplus_seconds[size] / len(detplus[size]),
            }
        )
    return [table]


@register(
    "ablation_sampler",
    "Ablation: lazy vs vectorized vs sequential sampler",
    "Section 4 (implementation strategies for Algorithm 2)",
)
def run_ablation_sampler(scale: str) -> List[ExperimentTable]:
    # n where targets with non-trivial sky exist (at n >= 1000 every
    # object is dominated w.h.p. and all samplers trivially answer 0).
    n = 300 if scale == "full" else 100
    samples = PAPER_SAMPLE_SIZE if scale == "full" else 500
    table = ExperimentTable(
        "ablation_sampler",
        f"Sampler implementations (block-zipf n={n}, d=5, m={samples})",
        columns=("sampler", "estimate", "samples used", "seconds"),
        paper_reference="Section 4",
        expectation=(
            "all agree within epsilon; the sequential variant stops early "
            "when the CI tightens"
        ),
    )
    dataset = block_zipf_dataset(n, 5, seed=201)
    preferences = HashedPreferenceModel(5, seed=202)
    engine = SkylineProbabilityEngine(dataset, preferences)
    target_index = _interesting_targets(engine, 1, seed=204)[0]
    competitors = list(dataset.others(target_index))
    target = dataset[target_index]
    for label, runner in (
        (
            "lazy",
            lambda: skyline_probability_sampled(
                preferences, competitors, target,
                samples=samples, seed=203, method="lazy",
            ),
        ),
        (
            "vectorized",
            lambda: skyline_probability_sampled(
                preferences, competitors, target,
                samples=samples, seed=203, method="vectorized",
            ),
        ),
        (
            "antithetic",
            lambda: skyline_probability_sampled(
                preferences, competitors, target,
                samples=samples, seed=203, method="antithetic",
            ),
        ),
        (
            "sequential",
            lambda: skyline_probability_sequential(
                preferences, competitors, target,
                epsilon=0.02, delta=0.01, seed=203,
            ),
        ),
    ):
        result, elapsed = time_call(runner)
        table.add_row(
            sampler=label,
            estimate=result.estimate,
            **{"samples used": result.samples, "seconds": elapsed},
        )
    return [table]


@register(
    "parallel_batch",
    "Batch planner with shared dominance cache vs the serial loop",
    "Section 1 (the all-objects sky operator)",
)
def run_parallel_batch(scale: str) -> List[ExperimentTable]:
    n, d = (200, 4) if scale == "full" else (40, 3)

    # Fresh engine per measurement: engines memoise exact answers, so a
    # reused instance would time cache hits rather than the algorithms.
    def fresh() -> SkylineProbabilityEngine:
        return _blockzipf_engine(n, d, seed=221, preference_seed=222)

    def serial_seed_loop() -> List[float]:
        # the seed's answer path: per-object queries on the original
        # recursive kernel, no shared cache
        engine = fresh()
        return [
            engine.skyline_probability(
                index, method="det+", det_kernel="reference"
            ).probability
            for index in range(n)
        ]

    def serial_vec_loop() -> List[float]:
        engine = fresh()
        return [
            engine.skyline_probability(
                index, method="det+", det_kernel="vec"
            ).probability
            for index in range(n)
        ]

    def batch(workers: int, det_kernel: str = "fast") -> List[float]:
        engine = fresh()
        cache = DominanceCache(engine.preferences)
        return list(
            batch_skyline_probabilities(
                engine,
                method="det+",
                workers=workers,
                cache=cache,
                det_kernel=det_kernel,
            ).probabilities
        )

    serial_answers, serial_seconds = time_call(serial_seed_loop)
    table = ExperimentTable(
        "parallel_batch",
        f"Serial per-object loop vs batch planner "
        f"(block-zipf n={n}, d={d}, Det+)",
        columns=(
            "configuration", "seconds", "speedup vs serial",
            "max |Δ| vs serial",
        ),
        paper_reference="Section 1 (Figures 9/13 workload shape)",
        expectation=(
            "the batch planner (shared dominance cache) answers the whole "
            "dataset at least 2x faster than the seed's serial loop; the "
            "fast-kernel rows match the serial answers exactly (max |Δ| = "
            "0) and the vec-kernel rows within 1e-12; the vec kernel "
            "compounds with the planner (batch+vec is the fastest "
            "configuration), and on one core workers=4 falls back to the "
            "sequential path instead of losing time to GIL-bound threads"
        ),
    )

    def add_row(configuration: str, answers: List[float], seconds: float):
        deviation = max(
            (abs(a - b) for a, b in zip(answers, serial_answers)),
            default=0.0,
        )
        table.add_row(
            configuration=configuration,
            seconds=seconds,
            **{
                "speedup vs serial": serial_seconds / seconds,
                "max |Δ| vs serial": deviation,
            },
        )

    add_row("serial loop (seed)", serial_answers, serial_seconds)
    for workers in (1, 4):
        answers, seconds = time_call(batch, workers)
        add_row(f"batch, workers={workers}", answers, seconds)
    vec_serial_answers, vec_serial_seconds = time_call(serial_vec_loop)
    add_row("serial loop (vec kernel)", vec_serial_answers, vec_serial_seconds)
    vec_batch_answers, vec_batch_seconds = time_call(batch, 1, "vec")
    add_row("batch, workers=1 (vec kernel)", vec_batch_answers, vec_batch_seconds)
    return [table]


@register(
    "dynamic_updates",
    "Incremental view maintenance vs full rebuild after single edits",
    "Theorems 3 and 4 (the units of invalidation)",
)
def run_dynamic_updates(scale: str) -> List[ExperimentTable]:
    from repro.core.dynamic import DynamicSkylineEngine

    n, d = (600, 4) if scale == "full" else (48, 3)
    dataset = block_zipf_dataset(n, d, seed=321)
    preferences = HashedPreferenceModel(d, seed=322)
    engine, build_seconds = time_call(
        DynamicSkylineEngine, dataset, preferences
    )

    def rebuild() -> DynamicSkylineEngine:
        return DynamicSkylineEngine(
            Dataset(list(engine.dataset)), engine.preferences.copy()
        )

    def fresh_insert_values() -> tuple:
        # A new value combination from within one block: it perturbs that
        # block's components without bridging value-disjoint blocks (a
        # cross-block object would merge their components for every
        # target and defeat the partition structure being measured).
        current = set(engine.dataset)
        by_block: Dict[str, List[tuple]] = {}
        for obj in engine.dataset:
            by_block.setdefault(obj[0].split("_")[0], []).append(obj)
        for members in by_block.values():
            for first in members:
                for second in members:
                    candidate = (first[0],) + second[1:]
                    if candidate not in current:
                        return candidate
        raise RuntimeError("no fresh value combination found")

    table = ExperimentTable(
        "dynamic_updates",
        f"Single-edit incremental maintenance vs rebuild "
        f"(block-zipf n={n}, d={d}, Det-exact views)",
        columns=(
            "workload", "incremental seconds", "rebuild seconds",
            "speedup", "targets refreshed", "partitions recomputed",
            "total partitions", "identical",
        ),
        paper_reference="Theorems 3 and 4 (the units of invalidation)",
        expectation=(
            "every single-edit workload repairs only the Theorem-4 "
            "components whose (dimension, value) keys the edit touches, "
            "so incremental maintenance beats rebuilding the all-objects "
            "view by well over 3x — with bit-identical probabilities and "
            "partitions_recomputed far below the maintained total"
        ),
    )
    table.add_row(
        workload="initial build (baseline state)",
        **{
            "incremental seconds": build_seconds,
            "rebuild seconds": build_seconds,
            "speedup": 1.0,
            "targets refreshed": n,
            "partitions recomputed": engine.total_partitions,
            "total partitions": engine.total_partitions,
            "identical": True,
        },
    )
    edits = (
        (
            "update one preference pair",
            lambda: engine.update_preference(
                0, engine.dataset[0][0], engine.dataset[n // 2][0], 0.9, 0.05
            ),
        ),
        ("insert one object", lambda: engine.insert_object(fresh_insert_values())),
        ("remove one object", lambda: engine.remove_object(n // 3)),
    )
    for workload, edit in edits:
        report, incremental_seconds = time_call(edit)
        rebuilt, rebuild_seconds = time_call(rebuild)
        table.add_row(
            workload=workload,
            **{
                "incremental seconds": incremental_seconds,
                "rebuild seconds": rebuild_seconds,
                "speedup": rebuild_seconds / incremental_seconds,
                "targets refreshed": report.targets_refreshed,
                "partitions recomputed": report.partitions_recomputed,
                "total partitions": engine.total_partitions,
                "identical": engine.skyline_probabilities()
                == rebuilt.skyline_probabilities(),
            },
        )
    return [table]


@register(
    "robustness_overhead",
    "Happy-path cost of the batch planner's fault-tolerance layer",
    "Section 1 (the all-objects sky operator)",
)
def run_robustness_overhead(scale: str) -> List[ExperimentTable]:
    from repro.robustness import FaultInjector

    if scale == "full":
        n, d, budget, rounds = 200, 4, 40.0, _TIMING_ROUNDS
    else:
        n, d, budget, rounds = 40, 3, 1.0, 21

    # Fresh engine per measurement: engines memoise exact answers, so a
    # reused instance would time cache hits rather than the algorithms.
    def fresh() -> SkylineProbabilityEngine:
        return _blockzipf_engine(n, d, seed=221, preference_seed=222)

    def planner_loop() -> List[float]:
        # the pre-robustness planner path: shared dominance cache, fast
        # kernel, no retry wrapper — what PR 1's batch executed per task
        engine = fresh()
        cache = DominanceCache(engine.preferences)
        return [
            engine.skyline_probability(
                index, method="det+", cache=cache
            ).probability
            for index in range(n)
        ]

    def robust_batch(**options) -> List[float]:
        engine = fresh()
        cache = DominanceCache(engine.preferences)
        return list(
            batch_skyline_probabilities(
                engine, method="det+", cache=cache, **options
            ).probabilities
        )

    configurations = {
        "planner loop (no fault tolerance)": planner_loop,
        "robust batch, defaults": robust_batch,
        "robust batch, idle injector": functools.partial(
            robust_batch, fault_injector=FaultInjector(seed=0)
        ),
        "robust batch, armed deadline (1h)": functools.partial(
            robust_batch, deadline=3600.0
        ),
    }
    answers, seconds = _interleaved_median_seconds(
        configurations, budget=budget, rounds=rounds
    )
    table = ExperimentTable(
        "robustness_overhead",
        f"Fault-tolerance overhead on the happy path "
        f"(block-zipf n={n}, d={d}, Det+)",
        columns=(
            "configuration", "seconds", "overhead vs planner", "identical",
        ),
        paper_reference="Section 1 (Figures 9/13 workload shape)",
        expectation=(
            "with nothing failing, the retry/salvage machinery and an "
            "idle fault injector cost under 5% over the pre-robustness "
            "planner loop; only an armed deadline pays more, because "
            "interruptible exact work runs on the per-term accounting "
            "kernel (same answers bit-for-bit in every row)"
        ),
    )
    baseline = "planner loop (no fault tolerance)"
    for label in configurations:
        table.add_row(
            configuration=label,
            seconds=seconds[label],
            **{
                "overhead vs planner": seconds[label] / seconds[baseline],
                "identical": answers[label] == answers[baseline],
            },
        )
    return [table]


@register(
    "restricted_sharing",
    "Shared dominance pass vs per-restriction recompute",
    "Section 3 (Theorem 4's partition factors, re-sliced per subspace)",
)
def run_restricted_sharing(scale: str) -> List[ExperimentTable]:
    from repro.core.restricted import restricted_skyline_probabilities

    n, d, target_count, variants, divisor = (
        (120, 4, 16, 4, 3) if scale == "full" else (30, 3, 6, 3, 2)
    )
    # Near-distinct values (the continuous-attribute regime): subspace
    # partitions stay tiny, so the per-restriction cost an elicitation
    # session actually pays is dominated by recomputing dominance
    # factors — exactly the work the shared pass performs once.
    values_per_dimension = 2 * n

    def fresh() -> SkylineProbabilityEngine:
        dataset = uniform_dataset(
            n, d, values_per_dimension=values_per_dimension, seed=231
        )
        return SkylineProbabilityEngine(
            dataset, HashedPreferenceModel(d, seed=232)
        )

    targets = _pick_targets(fresh().dataset, target_count, seed=233)
    # Every restriction retains dimension 0 — the sharing regime the
    # planner's slice cache and component memo exist for: the single-dim
    # and pairwise subspaces through dim 0, each with several
    # competitor-subset variants (shrinking shortlists) on top.
    subspaces = [[0]] + [[0, j] for j in range(1, d)]
    rng = as_rng(234)
    restrictions = [(None, dims) for dims in subspaces]
    for dims in subspaces:
        for _ in range(variants):
            subset = sorted(
                int(i)
                for i in rng.choice(
                    n, size=max(2, n // divisor), replace=False
                )
            )
            restrictions.append((subset, dims))

    def recompute() -> List[List[float]]:
        return restricted_skyline_probabilities(
            fresh(),
            targets,
            restrictions=restrictions,
            method="det+",
            share_pass=False,
        ).probabilities

    def shared() -> List[List[float]]:
        return restricted_skyline_probabilities(
            fresh(),
            targets,
            restrictions=restrictions,
            method="det+",
        ).probabilities

    baseline_answers, baseline_seconds = time_call(recompute)
    shared_answers, shared_seconds = time_call(shared)
    table = ExperimentTable(
        "restricted_sharing",
        f"Restricted skylines: shared dominance pass vs per-restriction "
        f"recompute (uniform n={n}, d={d}, {len(targets)} targets x "
        f"{len(restrictions)} restrictions sharing dimension 0, Det+)",
        columns=(
            "configuration",
            "seconds",
            "overhead shared vs recompute",
            "identical",
        ),
        paper_reference="Section 3 (Theorem 4 partition factors)",
        expectation=(
            "computing each target's per-dimension dominance factors once "
            "and re-slicing them per restriction — with exact component "
            "solves memoised across restrictions that share dimensions — "
            "beats recomputing every restriction through the engine by at "
            "least 2x (ratio <= 0.5) once 8+ restrictions share a "
            "dimension, with bit-identical answers"
        ),
    )
    table.add_row(
        configuration="per-restriction recompute (baseline)",
        seconds=baseline_seconds,
        **{"overhead shared vs recompute": 1.0, "identical": True},
    )
    table.add_row(
        configuration="shared dominance pass",
        seconds=shared_seconds,
        **{
            "overhead shared vs recompute": shared_seconds / baseline_seconds,
            "identical": shared_answers == baseline_answers,
        },
    )
    return [table]


@register(
    "obs_overhead",
    "Cost of the repro.obs instrumentation hooks, disabled and enabled",
    "Section 1 (the all-objects sky operator)",
)
def run_obs_overhead(scale: str) -> List[ExperimentTable]:
    import repro.obs as obs
    from repro.core.exact import ExactResult

    n, d = (200, 4) if scale == "full" else (40, 3)

    # Fresh engine per measurement: engines memoise exact answers, so a
    # reused instance would time cache hits rather than the algorithms.
    def fresh() -> SkylineProbabilityEngine:
        return _blockzipf_engine(n, d, seed=221, preference_seed=222)

    def core_loop() -> List[float]:
        # the raw algorithm: preprocess + per-partition Det with the
        # Theorem 4 product and early break, shared dominance cache —
        # everything the engine does minus its bookkeeping (validation,
        # memo keys, report/stats construction)
        engine = fresh()
        preferences = engine.preferences
        dataset = engine.dataset
        cache = DominanceCache(preferences)
        answers: List[float] = []
        for index in range(n):
            competitors = list(dataset.others(index))
            prep = preprocess(
                competitors, dataset[index],
                preferences=preferences, cache=cache,
            )
            probability = 1.0
            for part in prep.partitions:
                group = [competitors[i] for i in part]
                result = skyline_probability_det(
                    preferences, group, dataset[index], cache=cache
                )
                probability *= result.probability
                if probability == 0.0:
                    break
            answers.append(probability)
        return answers

    def engine_loop() -> List[float]:
        engine = fresh()
        cache = DominanceCache(engine.preferences)
        return [
            engine.skyline_probability(
                index, method="det+", cache=cache
            ).probability
            for index in range(n)
        ]

    def observed_batch():
        engine = fresh()
        cache = DominanceCache(engine.preferences)
        with obs.enabled() as registry:
            registry.reset()
            result = batch_skyline_probabilities(
                engine, method="det+", workers=1, cache=cache
            )
            counters = registry.to_dict()
        return result, counters

    def stats_consistent(result, counters) -> bool:
        # acceptance check: the aggregated stats and the registry agree
        # with the provenance the sub-results already carry
        stats = result.stats
        terms = sum(
            part.terms_evaluated
            for report in result.reports
            for part in report.partition_results
            if isinstance(part, ExactResult)
        )
        recorded = counters["repro_ie_terms_evaluated_total"]["series"]
        return (
            stats is not None
            and stats.terms_evaluated == terms
            and stats.cache_hits == result.cache_hits
            and stats.cache_misses == result.cache_misses
            and stats.queries == n
            and recorded[0]["value"] == terms
            and all(
                report.stats.terms_evaluated
                == sum(
                    part.terms_evaluated
                    for part in report.partition_results
                    if isinstance(part, ExactResult)
                )
                for report in result.reports
            )
        )

    # Interleaved best-of-3: the loops take seconds each, so a single
    # shot is at the mercy of CPU frequency drift; cycling the three
    # configurations and keeping each one's fastest run cancels it.
    obs.disable()
    core_seconds = disabled_seconds = enabled_seconds = float("inf")
    for _ in range(3):
        core_answers, seconds = time_call(core_loop)
        core_seconds = min(core_seconds, seconds)
        disabled_answers, seconds = time_call(engine_loop)
        disabled_seconds = min(disabled_seconds, seconds)
        (observed, counters), seconds = time_call(observed_batch)
        enabled_seconds = min(enabled_seconds, seconds)

    # the disabled guard itself, amortised: one boolean check per hook
    def guard_microbenchmark(calls: int = 200_000) -> float:
        _, seconds = time_call(
            lambda: [obs.stage("exact") for _ in range(calls)]
        )
        return seconds / calls  # seconds per disabled hook

    table = ExperimentTable(
        "obs_overhead",
        f"Instrumentation overhead (block-zipf n={n}, d={d}, Det+)",
        columns=(
            "configuration", "seconds", "overhead vs core",
            "identical", "counters match",
        ),
        paper_reference="Section 1 (Figures 9/13 workload shape)",
        expectation=(
            "with instrumentation disabled (the default) the fully "
            "hooked engine loop stays within 3% of the raw algorithm "
            "core — the hooks cost one module-global boolean each; "
            "enabling instrumentation pays for timers and registry "
            "writes but never changes an answer, and every recorded "
            "counter matches the provenance the results already carry"
        ),
    )
    table.add_row(
        configuration="algorithm core loop (no engine)",
        seconds=core_seconds,
        **{
            "overhead vs core": 1.0,
            "identical": True,
            "counters match": "n/a",
        },
    )
    table.add_row(
        configuration="engine loop, obs disabled",
        seconds=disabled_seconds,
        **{
            "overhead vs core": disabled_seconds / core_seconds,
            "identical": disabled_answers == core_answers,
            "counters match": "n/a",
        },
    )
    table.add_row(
        configuration="engine batch, obs enabled",
        seconds=enabled_seconds,
        **{
            "overhead vs core": enabled_seconds / core_seconds,
            "identical": list(observed.probabilities) == core_answers,
            "counters match": stats_consistent(observed, counters),
        },
    )
    table.add_row(
        configuration="disabled hook guard (seconds/call)",
        seconds=guard_microbenchmark(),
        **{
            "overhead vs core": 0.0,
            "identical": True,
            "counters match": "n/a",
        },
    )
    return [table]


@register(
    "serving_load",
    "Serving tier under concurrent load: latency, throughput, coalescing",
    "Section 1 (interactive skyline queries; serving-tier extension)",
)
def run_serving_load(scale: str) -> List[ExperimentTable]:
    import asyncio

    from repro.core.dynamic import DynamicSkylineEngine
    from repro.serve import ServeClient, ServeConfig, SkylineServer

    n, d, clients, requests = (
        (64, 3, 8, 40) if scale == "full" else (24, 3, 4, 6)
    )
    dataset = block_zipf_dataset(n, d, seed=421)

    def fresh_engine() -> DynamicSkylineEngine:
        return DynamicSkylineEngine(
            Dataset(list(dataset)), HashedPreferenceModel(d, seed=422)
        )

    def edit_values(engine: DynamicSkylineEngine) -> list:
        # A new value combination from within one block (the same rule
        # the dynamic_updates experiment uses): it perturbs only that
        # block's components, so the edit cost measured is the
        # incremental repair, not a worst-case component merge.
        current = set(engine.dataset)
        by_block: Dict[str, List[tuple]] = {}
        for obj in engine.dataset:
            by_block.setdefault(obj[0].split("_")[0], []).append(obj)
        for members in by_block.values():
            for first in members:
                for second in members:
                    candidate = (first[0],) + second[1:]
                    if candidate not in current:
                        return list(candidate)
        raise RuntimeError("no fresh value combination found")

    def percentile(sorted_values: List[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        position = min(
            len(sorted_values) - 1, round(q * (len(sorted_values) - 1))
        )
        return sorted_values[position]

    def run_scenario(with_edits: bool) -> Dict[str, object]:
        async def scenario() -> Dict[str, object]:
            engine = fresh_engine()
            values = edit_values(engine)
            trace: list = []
            server = SkylineServer(
                engine,
                ServeConfig(port=0, window=0.002, observe=False),
                trace=trace,
            )
            await server.start()
            loop = asyncio.get_running_loop()
            latencies: List[float] = []
            edits = rejected = 0

            async def client_task(worker: int) -> None:
                nonlocal edits, rejected
                async with ServeClient("127.0.0.1", server.port) as client:
                    for request in range(requests):
                        token = worker * 1000 + request
                        if with_edits and worker == 0 and request % 3 == 1:
                            inserted = await client.edit(
                                "insert_object", values=values
                            )
                            removed = await client.edit(
                                "remove_object", target=values
                            )
                            assert inserted.status == 200, inserted.text
                            assert removed.status == 200, removed.text
                            edits += 2
                            continue
                        started = loop.time()
                        response = await client.query(
                            token % n, seed=token,
                            method="sam", samples=200,
                        )
                        elapsed = loop.time() - started
                        if response.status == 429:
                            rejected += 1
                            continue
                        assert response.status == 200, response.text
                        latencies.append(elapsed)

            wall_started = loop.time()
            await asyncio.gather(
                *(client_task(worker) for worker in range(clients))
            )
            wall = loop.time() - wall_started
            await server.drain()
            batches = [
                entry for entry in trace if entry["kind"] == "query"
            ]
            served = sum(len(entry["indices"]) for entry in batches)
            latencies.sort()
            return {
                "served": len(latencies),
                "edits": edits,
                "rejected": rejected,
                "p50": percentile(latencies, 0.50),
                "p99": percentile(latencies, 0.99),
                "throughput": (
                    (len(latencies) + edits) / wall if wall else 0.0
                ),
                "mean_batch": served / len(batches) if batches else 0.0,
            }

        return asyncio.run(scenario())

    table = ExperimentTable(
        "serving_load",
        f"Serving tier load (block-zipf n={n}, d={d}, {clients} clients "
        f"x {requests} requests, window=2ms)",
        columns=(
            "scenario", "clients", "requests", "edits", "rejected",
            "p50 ms", "p99 ms", "throughput rps", "mean batch",
        ),
        paper_reference="Section 1 (interactive skyline queries)",
        expectation=(
            "the coalescer merges concurrent compatible queries (mean "
            "batch > 1) so tail latency stays near the batch cost; "
            "interleaved edits serialise through the engine thread and "
            "raise p99 without rejections or wrong answers (the chaos "
            "suite asserts bit-identical replays of exactly this traffic)"
        ),
    )
    for scenario_name, with_edits in (
        ("read-only", False),
        ("mixed read/edit", True),
    ):
        outcome = run_scenario(with_edits)
        table.add_row(
            scenario=scenario_name,
            clients=clients,
            requests=outcome["served"],
            edits=outcome["edits"],
            rejected=outcome["rejected"],
            **{
                "p50 ms": outcome["p50"] * 1000.0,
                "p99 ms": outcome["p99"] * 1000.0,
                "throughput rps": outcome["throughput"],
                "mean batch": outcome["mean_batch"],
            },
        )
    return [table]


@register(
    "distrib_overhead",
    "Happy-path cost of the supervised shard coordinator",
    "Section 1 (the all-objects sky operator)",
)
def run_distrib_overhead(scale: str) -> List[ExperimentTable]:
    import os
    import tempfile

    from repro.distrib import DistribConfig, ShardCoordinator
    from repro.robustness import FaultInjector

    n, d = (200, 4) if scale == "full" else (60, 3)
    workers = 2
    # A ~2 s run on a single-core box carries scheduler noise the same
    # size as the supervision cost being measured; each configuration is
    # measured as the min of `repeats` interleaved baseline/supervised
    # ratio pairs (see paired_ratio below).
    repeats = 3

    # Fresh engine per measurement: engines memoise exact answers, so a
    # reused instance would time cache hits rather than the algorithms.
    def fresh() -> SkylineProbabilityEngine:
        return _blockzipf_engine(n, d, seed=221, preference_seed=222)

    def best_of(function) -> tuple:
        # min-of-k: supervision overhead is a small fixed cost, and a
        # single run on a shared box carries scheduler noise of the same
        # magnitude; the minimum is the standard low-noise estimator
        answers, best = time_call(function)
        for _ in range(repeats - 1):
            again, seconds = time_call(function)
            assert again == answers
            best = min(best, seconds)
        return answers, best

    # the honest baseline: the batch planner on the same number of
    # worker processes AND the same work granularity (the planner's
    # default chunk is ceil(n / workers) — two warm chunk-local caches —
    # while the coordinator's shard cap is ceil(n / 8); matching the
    # chunk size to the cap means both sides pay the same cold-cache
    # cost, so the ratio isolates the supervision layer itself:
    # heartbeats, liveness tracking, hedging bookkeeping, checkpointing)
    chunk_size = max(1, -(-n // 8))

    def process_batch() -> List[float]:
        return list(
            batch_skyline_probabilities(
                fresh(),
                method="det+",
                workers=workers,
                chunk_size=chunk_size,
                executor="process",
            ).probabilities
        )

    table = ExperimentTable(
        "distrib_overhead",
        f"Supervision overhead on the happy path "
        f"(block-zipf n={n}, d={d}, Det+, {workers} worker processes)",
        columns=(
            "configuration", "seconds", "overhead vs batch", "identical",
        ),
        paper_reference="Section 1 (Figures 9/13 workload shape)",
        expectation=(
            "with nothing failing, heartbeat supervision, hedging "
            "bookkeeping, per-shard checkpoint appends and an idle "
            "fault injector cost under 5% over the process-pool batch "
            "planner, and every configuration returns bit-identical "
            "probabilities"
        ),
    )
    baseline_answers, baseline_seconds = best_of(process_batch)
    table.add_row(
        configuration=f"process-pool batch ({workers} workers)",
        seconds=baseline_seconds,
        **{"overhead vs batch": 1.0, "identical": True},
    )

    def paired_ratio(measured) -> tuple:
        # Drift-robust overhead estimate: a sustained run on a throttled
        # single-core box slows over minutes, so timing all baselines
        # first would bias every later ratio upward.  Interleave instead
        # — baseline, supervised, back to back — and take the minimum of
        # the per-pair ratios; slow drift hits both halves of a pair
        # equally and cancels.
        nonlocal baseline_seconds
        best_ratio = None
        best_seconds = None
        answers = None
        for _ in range(repeats):
            base_answers, base_seconds = time_call(process_batch)
            answers, seconds = time_call(measured)
            assert answers == base_answers
            baseline_seconds = min(baseline_seconds, base_seconds)
            ratio = seconds / base_seconds
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
            if best_seconds is None or seconds < best_seconds:
                best_seconds = seconds
        return answers, best_seconds, best_ratio

    with tempfile.TemporaryDirectory() as scratch:
        configurations = (
            ("supervised, defaults", {}),
            (
                "supervised + checkpoint",
                # resume=False: each repeat must recompute every shard,
                # not resume from the previous repeat's checkpoint
                {
                    "checkpoint": os.path.join(scratch, "overhead.ckpt"),
                    "resume": False,
                },
            ),
            ("supervised + idle injector", {}),
        )
        for label, config_fields in configurations:
            run_options = {}
            if label.endswith("idle injector"):
                run_options["fault_injector"] = FaultInjector(seed=0)

            def measured() -> List[float]:
                config = DistribConfig(workers=workers, **config_fields)
                result = ShardCoordinator(fresh(), config).run(
                    method="det+", **run_options
                )
                return list(result.batch.probabilities)

            answers, seconds, ratio = paired_ratio(measured)
            table.add_row(
                configuration=label,
                seconds=seconds,
                **{
                    "overhead vs batch": ratio,
                    "identical": answers == baseline_answers,
                },
            )
    return [table]


@register(
    "tile_planning",
    "Tile pass vs per-target planning, by chunk size and tile bound",
    "Section 5 (absorption and partition, Theorems 3 and 4)",
)
def run_tile_planning(scale: str) -> List[ExperimentTable]:
    # Each call answers every object with `auto` through batch chunks of
    # the given size: the per-target pipeline plans a chunk's targets one
    # at a time, the tile pass plans them together (the crossover is
    # forced to either side).  Planning, the exact call and finishing are
    # all timed.  The cache starts with every preference pair the pass
    # reads already memoised and no factor tuple, so both paths time
    # planning rather than the preference model.  The instances have the
    # shapes of the repository benchmark's (block-zipf, 10 values per
    # block and dimension).
    import repro.core.engine as engine_module

    if scale == "full":
        instances = (
            ("all-objects", 200, 4, 25),
            ("serving", 64, 3, 8),
            ("elicitation", 120, 4, 15),
        )
        chunks, rounds, bounds = (1, 2, 4, 8, 32, None), 5, (13, 14, 15, 16, 17)
    else:
        instances = (("all-objects", 80, 4, 10),)
        chunks, rounds, bounds = (1, 4, 32, None), 3, (14, 15)
    sweep = ExperimentTable(
        "tile_planning",
        "Batch pass time by chunk size: per-target planning vs the tile pass "
        "(auto, warm preference memo)",
        columns=(
            "configuration", "chunk (targets)", "cells per chunk",
            "per-target (ms)", "tile (ms)", "tile / per-target",
            "overhead (tile / per-target)", "identical",
        ),
        paper_reference="Section 5 (Theorems 3 and 4)",
        expectation=(
            "a tile of one target costs about what the per-target pipeline "
            "does and loses below a few hundred cells (its array passes have "
            "a fixed cost); from a few targets on the tile wins, by 1.5x or "
            "more at 32 targets and beyond; every report is identical by "
            "repr on both paths"
        ),
    )
    tiles = ExperimentTable(
        "tile_planning",
        "Tile bound sweep: one all-objects batch pass (auto, cold cache)",
        columns=(
            "tile bound (cells)", "targets per tile", "pass (ms)",
            "peak traced (MB)", "identical",
        ),
        paper_reference="Section 5 (Theorems 3 and 4)",
        expectation=(
            "larger tiles re-read fewer preference pairs but hold larger "
            "arrays; the traced peak grows with the bound while the pass "
            "time flattens out"
        ),
    )

    def forced(crossover: float, cells: int, call: Callable[[], object]) -> object:
        saved = engine_module._TILE_CROSSOVER, engine_module._TILE_CELLS
        engine_module._TILE_CROSSOVER, engine_module._TILE_CELLS = crossover, cells
        try:
            return call()
        finally:
            engine_module._TILE_CROSSOVER, engine_module._TILE_CELLS = saved

    for label, n, d, blocks in instances:
        dataset = block_zipf_dataset(n, d, blocks=blocks, seed=241)
        preferences = random_preferences(dataset, seed=242)
        warm = DominanceCache(preferences)
        batch_skyline_probabilities(
            SkylineProbabilityEngine(dataset, preferences), cache=warm
        )

        def answer(chunk: int | None) -> Tuple[str, ...]:
            cache = DominanceCache(preferences)
            cache._prefers.update(warm._prefers)
            result = batch_skyline_probabilities(
                SkylineProbabilityEngine(dataset, preferences),
                cache=cache,
                chunk_size=chunk,
                on_error="raise",
            )
            return tuple(map(repr, result.reports))

        for chunk in chunks:
            size = n if chunk is None else chunk
            cells = engine_module._TILE_CELLS
            calls = {
                "per-target": functools.partial(
                    forced, math.inf, cells, functools.partial(answer, chunk)
                ),
                "tile": functools.partial(
                    forced, 0, cells, functools.partial(answer, chunk)
                ),
            }
            results, seconds = _interleaved_median_seconds(
                calls, budget=1e-9, rounds=rounds
            )
            ratio = seconds["tile"] / seconds["per-target"]
            row: Dict[str, object] = {
                "configuration": f"{label} n={n} d={d}, chunks of "
                + ("all" if chunk is None else str(chunk)),
                "chunk (targets)": size,
                "cells per chunk": size * (n - 1) * d,
                "per-target (ms)": 1e3 * seconds["per-target"],
                "tile (ms)": 1e3 * seconds["tile"],
                "tile / per-target": ratio,
                "identical": results["tile"] == results["per-target"],
            }
            if size >= 32:
                row["overhead (tile / per-target)"] = ratio
            sweep.add_row(**row)
        if label != "all-objects":
            continue
        # The tile bound: pass time, and the traced peak of one pass.
        import tracemalloc

        def cold() -> Tuple[str, ...]:
            result = batch_skyline_probabilities(
                SkylineProbabilityEngine(dataset, preferences), on_error="raise"
            )
            return tuple(map(repr, result.reports))

        reference = forced(math.inf, 1, cold)
        calls = {
            bound: functools.partial(forced, 0, 1 << bound, cold)
            for bound in bounds
        }
        results, seconds = _interleaved_median_seconds(
            calls, budget=1e-9, rounds=rounds
        )
        for bound in bounds:
            tracemalloc.start()
            forced(0, 1 << bound, cold)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tiles.add_row(
                **{
                    "tile bound (cells)": 1 << bound,
                    "targets per tile": max(1, (1 << bound) // ((n - 1) * d)),
                    "pass (ms)": 1e3 * seconds[bound],
                    "peak traced (MB)": peak / 2**20,
                    "identical": results[bound] == reference,
                }
            )
    return [sweep, tiles]
