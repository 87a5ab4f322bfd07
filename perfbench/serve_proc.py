"""The ``serve_mixed`` server process: one ``SkylineServer`` on a warm engine.

Started by ``serve_mixed.py``; not meant to be run by hand.  Builds the
seeded serve instance, warms a ``DynamicSkylineEngine`` on it and serves
it with the default ``ServeConfig`` on an ephemeral port, which it
prints as the first line of stdout.  It serves until ``POST /drain``,
then prints its peak memory and exits.

Lines on stdin drive the traced run while the server is idle:
``trace`` installs the layer wrappers inside this process and ``report``
writes the spans to ``.perfbench/`` and prints the tracer's totals with
the engine's cache counters.  Each command is answered by one JSON line
on stdout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import peak_rss_mb  # noqa: E402
from instances import SERVE, make_instance  # noqa: E402
from tracer import LAYERS, Tracer, install  # noqa: E402

_print_lock = threading.Lock()


def _emit(payload: dict) -> None:
    with _print_lock:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()


def cache_counters(engine) -> dict:
    return {"dominance": engine.cache.counters()}


def control(engine, tracer: Tracer, seed: int) -> None:
    """Answer ``trace``/``report`` commands from stdin (engine is idle)."""
    for line in sys.stdin:
        command = line.strip()
        if command == "trace":
            install(tracer, [layer for layer in LAYERS if layer != "distrib"])
            _emit({"traced": cache_counters(engine)})
        elif command == "report":
            out = HERE.parent / ".perfbench"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"trace-serve_mixed-{seed}-server.jsonl")
            _emit({"report": tracer.merged(), "counters": cache_counters(engine)})


async def serve(engine) -> None:
    from repro.serve import ServeConfig, SkylineServer

    server = SkylineServer(engine, ServeConfig(port=0))
    await server.start()
    _emit({"port": server.port})
    await server.serve_forever()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    from repro import DynamicSkylineEngine

    instance = make_instance(SERVE, args.seed)
    engine = DynamicSkylineEngine(instance.dataset(), instance.preferences())
    threading.Thread(target=control, args=(engine, Tracer(), args.seed), daemon=True).start()
    asyncio.run(serve(engine))
    _emit({"exit": {"peak_rss_mb": peak_rss_mb()}})


if __name__ == "__main__":
    main()
