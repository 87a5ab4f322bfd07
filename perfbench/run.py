#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload allobjects_det --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` reruns the workload with outside-in layer wrappers
installed (see ``tracer.py``) and reports the per-layer metrics.  Every
answer is checked.  Human-readable detail goes to stdout first; the last
line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced
run are written to ``.perfbench/`` under the repository root.

The program under test is the ``repro`` package in ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module whose ``run(workload, seed, seconds, trace)`` runs it.
WORKLOADS = {
    "allobjects_det": "allobjects",
    "allobjects_sharded": "allobjects",
    "serve_mixed": "serve_mixed",
    "elicitation": "elicitation",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layer_metrics import declared

    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    declared_names = set(declared("per_layer" if args.trace else "end_to_end"))
    if set(result["metrics"]) != declared_names:
        raise KeyError(
            f"{args.workload} reported {sorted(result['metrics'])}, "
            f"BENCHMARK.json declares {sorted(declared_names)}"
        )
    checks = result["checks"]
    invalid = result.get("invalid", [])
    failed = len(checks.wrong) + result.get("failed", 0)
    detail = dict(result.get("detail", {}))
    detail.update(checked=checks.checked, wrong=checks.wrong[:20], invalid=invalid)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    tracer = result.get("tracer")
    if tracer is not None:
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.jsonl")
    print(
        json.dumps(
            {
                "correct": checks.checked > 0 and not checks.wrong and not invalid,
                "attempted": max(1, int(result["attempted"])),
                "failed": int(failed),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
