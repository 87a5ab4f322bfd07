"""Smoke tests: every registered experiment runs at quick scale and
produces tables whose *shape* matches the paper's claims."""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import all_experiments, get_experiment
from repro.core.exact import VEC_CROSSOVER


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not (
        isinstance(value, float) and math.isnan(value)
    )


@pytest.mark.parametrize(
    "experiment_id",
    [experiment.experiment_id for experiment in all_experiments()],
)
def test_every_experiment_runs_quick(experiment_id):
    tables = get_experiment(experiment_id).run("quick")
    assert tables, experiment_id
    for table in tables:
        assert table.rows, f"{experiment_id}: empty table {table.title!r}"
        assert table.paper_reference


class TestShapes:
    """Qualitative checks on quick-scale outputs (the paper's claims)."""

    def test_examples_table_matches_paper(self):
        (table,) = get_experiment("examples").run("quick")
        exact = table.column("exact (Det)")
        naive = table.column("naive worlds")
        assert exact == pytest.approx(naive)
        assert exact[0] == pytest.approx(0.5)
        assert table.column("Sac")[0] == pytest.approx(0.375)

    def test_thm1_all_counts_agree(self):
        (table,) = get_experiment("thm1").run("quick")
        assert all(flag == "yes" for flag in table.column("agree"))

    def test_fig6_a2_errors_are_catastrophic(self):
        _, a2 = get_experiment("fig6").run("quick")
        errors = a2.column("absolute error")
        # at least one truncation budget gives an error worse than random
        assert max(errors) > 1.0

    def test_fig6_a1_never_negative_error_direction(self):
        a1, _ = get_experiment("fig6").run("quick")
        values = a1.column("A1 value")
        # A1 over-estimates: values must be non-increasing with top
        assert values == sorted(values, reverse=True)

    def test_fig9_det_budget_exceeded_on_large_blockzipf(self):
        _, zipf = get_experiment("fig9").run("quick")
        assert "> budget" in zipf.column("Det (s)")
        # the recursive kernels skip n > 20 outright; the vec kernel runs
        # raw Det at every n, so its cell is a real budget trip
        rows = {row["n"]: row for row in zipf.rows}
        assert rows[100]["Det vec (s)"] == "> budget"
        detplus = zipf.column("Det+ (s)")
        assert all(_is_number(value) for value in detplus)

    def test_fig11_error_decreases_with_samples(self):
        (table,) = get_experiment("fig11").run("quick")
        errors = table.column("Sam mean abs error")
        assert errors[-1] <= errors[0]

    def test_fig12_errors_below_bound(self):
        by_n, by_d = get_experiment("fig12").run("quick")
        for table in (by_n, by_d):
            for column in ("Sam mean abs error", "Sam+ mean abs error"):
                assert all(error <= 0.05 for error in table.column(column))
            # Sam+ stays within the paper's epsilon = 0.01 at m = 3000
            assert all(error <= 0.01 for error in table.column("Sam+ mean abs error"))

    def test_fig15_sampler_errors_below_paper_epsilon(self):
        _, errors = get_experiment("fig15").run("quick")
        for column in ("Sam mean abs error", "Sam+ mean abs error"):
            assert all(error <= 0.01 for error in errors.column(column))

    def test_table2_algorithms_agree(self):
        (table,) = get_experiment("table2").run("quick")
        rows = {row["algorithm"]: row for row in table.rows}
        exact = rows["det+"]["mean sky"]
        assert rows["auto"]["mean sky"] == pytest.approx(exact)
        for method in ("sam", "sam+"):
            assert rows[method]["mean sky"] == pytest.approx(exact, abs=0.02)
        # raw Det without preprocessing exceeds its object budget
        assert rows["det"]["mean sky"] == "budget exceeded"

    def test_table1_blockzipf_partitions_bounded(self):
        inventory, figure8 = get_experiment("table1").run("quick")
        rows = [row for row in inventory.rows if row["workload"] == "block-zipf"]
        assert all(
            row["largest partition"] <= 16 or row["n"] <= 16 for row in rows
        )
        sizes = figure8.column("expected skyline size")
        assert sizes[1] > sizes[0]  # anti-correlated > correlated

    def test_ablation_sorting_reduces_checks(self):
        (table,) = get_experiment("ablation_sorting").run("quick")
        checks = table.column("dominance checks")
        assert checks[0] < checks[1]

    def test_ablation_preprocess_partition_splits(self):
        (table,) = get_experiment("ablation_preprocess").run("quick")
        by_variant = {row["variant"]: row for row in table.rows}
        assert (
            by_variant["both"]["largest partition"]
            < by_variant["none"]["largest partition"]
        )
        assert by_variant["both"]["partitions"] >= by_variant["none"]["partitions"]

    def test_ablation_sampler_estimates_agree(self):
        (table,) = get_experiment("ablation_sampler").run("quick")
        estimates = table.column("estimate")
        assert max(estimates) - min(estimates) < 0.1
        samplers = table.column("sampler")
        assert "antithetic" in samplers

    def test_ablation_blocksize_detplus_grows(self):
        (table,) = get_experiment("ablation_blocksize").run("quick")
        detplus = table.column("Det+ (s)")
        largest = table.column("largest partition")
        # bigger blocks -> bigger partitions -> costlier exact solves
        assert largest == sorted(largest)
        assert detplus[-1] >= detplus[0]

    def test_ablation_vec_kernel_agrees_across_the_crossover(self):
        (table,) = get_experiment("ablation_vec_kernel").run("quick")
        # every kernel, the routed default included, within 1e-12 of
        # reference on every row ...
        deviations = table.column("max |Δ| vs reference")
        assert all(deviation <= 1e-12 for deviation in deviations)
        # ... on component sizes from both sides of the crossover
        sizes = table.column("dominators")
        assert min(sizes) < VEC_CROSSOVER <= max(sizes)


def test_every_experiment_has_committed_results_and_no_results_are_orphans():
    # Each registered experiment's full-scale output is committed as
    # results/<id>.json and results/<id>.md; a results file whose
    # experiment left the registry is an orphan.
    from pathlib import Path

    results = Path(__file__).resolve().parent.parent / "results"
    ids = {experiment.experiment_id for experiment in all_experiments()}
    committed = {
        path.name for path in results.iterdir() if path.suffix in (".json", ".md")
    }
    expected = {f"{name}{suffix}" for name in ids for suffix in (".json", ".md")}
    assert sorted(expected - committed) == []
    assert sorted(committed - expected) == []
