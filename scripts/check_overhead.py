#!/usr/bin/env python
"""CI regression gate on the happy-path overhead experiments.

Re-runs registered ``*_overhead`` experiments and fails (exit 1) when
any happy-path row's overhead ratio, in any ``overhead*`` column,
exceeds the threshold — the
robustness and supervision layers promise to cost under 5% when nothing
fails, and this gate keeps the promise from rotting.  Rows whose
configuration legitimately pays more (an armed deadline routes exact
work through the interruptible kernel) are excluded by label.

A single-core CI runner shows ±5-10% run-to-run noise, so a breach is
retried up to ``--attempts`` times and only a *persistent* breach fails
the gate; the experiments themselves already take the best of several
repeats per cell.  Any row that is not bit-identical to its baseline
(``False`` in any ``identical*`` column) fails immediately — noise can
explain a slow run, never a wrong answer.

Usage::

    python scripts/check_overhead.py robustness_overhead distrib_overhead
    python scripts/check_overhead.py distrib_overhead --quick --threshold 1.05
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import run_experiment

#: Substrings of configuration labels that are allowed to exceed the
#: threshold (they buy a different guarantee, not fault tolerance; a
#: baseline row is the denominator itself, pinned at ratio 1.0, which a
#: speedup gate run with ``--threshold`` below 1 must not flag).
EXEMPT_LABELS = ("deadline", "baseline")


def _gate_tables(tables, threshold: float) -> list[str]:
    """Breach messages for one experiment run (empty = gate passed).

    Every ``overhead*`` column of a table is held to the threshold and
    every ``identical*`` column must read True wherever it has a value.
    """
    breaches: list[str] = []
    for table in tables:
        columns = [str(column) for column in table.columns]
        overhead_columns = [c for c in columns if c.startswith("overhead")]
        identical_columns = [c for c in columns if c.startswith("identical")]
        label_column = table.columns[0]
        for row in table.rows:
            label = str(row.get(label_column, ""))
            wrong = [c for c in identical_columns if row.get(c) is False]
            if wrong:
                breaches += [
                    f"{table.experiment_id}: {label!r} is not bit-identical "
                    f"({column})"
                    for column in wrong
                ]
                continue
            if any(exempt in label.lower() for exempt in EXEMPT_LABELS):
                continue
            for column in overhead_columns:
                ratio = row.get(column)
                if isinstance(ratio, (int, float)) and ratio > threshold:
                    breaches.append(
                        f"{table.experiment_id}: {label!r} {column} "
                        f"{ratio:.3f} > {threshold:.2f}"
                    )
    return breaches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments",
        nargs="+",
        help="registered overhead experiment ids to gate",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.05,
        help="maximum allowed happy-path overhead ratio (default 1.05)",
    )
    parser.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="re-run a breaching experiment up to this many times",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at the CI-sized quick scale instead of full",
    )
    arguments = parser.parse_args(argv)
    scale = "quick" if arguments.quick else "full"

    failed = False
    for experiment_id in arguments.experiments:
        for attempt in range(1, arguments.attempts + 1):
            tables = run_experiment(experiment_id, scale)
            breaches = _gate_tables(tables, arguments.threshold)
            if not breaches:
                print(f"PASS {experiment_id} (attempt {attempt})")
                break
            wrong_answers = [b for b in breaches if "bit-identical" in b]
            for breach in breaches:
                print(f"  {breach}", file=sys.stderr)
            if wrong_answers or attempt == arguments.attempts:
                print(
                    f"FAIL {experiment_id} after {attempt} attempt(s)",
                    file=sys.stderr,
                )
                failed = True
                break
            print(
                f"RETRY {experiment_id} (attempt {attempt} breached; "
                f"re-running to rule out noise)",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
