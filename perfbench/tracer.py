"""Outside-in layer tracing: wrappers around each layer's public functions.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer with wrappers that record one span
per call: its name, start, end and parent.  Module functions are
replaced in every ``repro`` module that imported them by name; methods
are replaced on their class.  A span's *self time* is its duration minus
the time its child spans cover.  Self times accumulate per span name as
spans close, so a layer's time in a traced run is the sum of the self
times of its spans.

Spans nest through a per-thread stack, so the serving tier's engine
thread and event-loop thread keep separate trees.  ``QueryCoalescer.submit``
is a coroutine that interleaves with others on the loop thread, so it
is recorded beside the stack, never on it.

Dominance-factor lookups run tens of thousands of times per pass: they
are timed and counted like every other span but not stored one by one.
Every other span is stored (up to ``MAX_RECORDS`` per thread) and written out by
:meth:`Tracer.dump` when the run ends.

Timed runs never call :func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter
#: Stored spans per thread; spans past it are timed but not written out.
MAX_RECORDS = 200_000


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "samples", "records", "root_s")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, list] = defaultdict(list)
        self.records: List[Tuple[str, float, float, int]] = []
        self.root_s = 0.0


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn: Callable, *, hook=None, stored: bool = True) -> Callable:
        """``fn`` inside a span; ``hook(tracer, result, args, kwargs, span)``.

        ``span`` is ``(start, end, self seconds)`` of the call.  A hook
        with a ``before(args)`` attribute also gets its value, taken just
        before the call, as ``span[3]``.
        """
        before = getattr(hook, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None if before is None else before(args)
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, -1]  # seconds covered by children, record id
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                state.self_s[name] += own
                if parent is None:
                    state.root_s += duration
                else:
                    parent[0] += duration
                if stored and len(state.records) < MAX_RECORDS:
                    parent_id = -1 if parent is None else parent[1]
                    state.records.append((name, start, end, parent_id))
                    frame[1] = len(state.records) - 1
            if hook is not None:
                hook(self, result, args, kwargs, (start, end, own, token))
            return result

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self._state().counts[name] += value

    def sample(self, name: str, value: object) -> None:
        self._state().samples[name].append(value)

    def merged(self) -> dict:
        """Totals across threads; read while the program is idle."""
        merged = {
            "self_s": defaultdict(float),
            "counts": defaultdict(float),
            "samples": defaultdict(list),
        }
        root_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for key in ("self_s", "counts"):
                for name, value in list(getattr(state, key).items()):
                    merged[key][name] += value
            for name, values in list(state.samples.items()):
                merged["samples"][name].extend(values)
            root_s += state.root_s
        result = {key: dict(value) for key, value in merged.items()}
        result["root_s"] = root_s
        return result

    def dump(self, path) -> None:
        """Write the stored spans as JSON lines: name, start, end, parent."""
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as out:
            for thread, state in enumerate(states):
                for span_id, (name, start, end, parent) in enumerate(state.records):
                    out.write(
                        json.dumps(
                            {"thread": thread, "id": span_id, "name": name,
                             "start": start, "end": end, "parent": parent}
                        )
                        + "\n"
                    )


# -- result hooks: counts taken where the work happens -----------------------
#: Det component-size buckets, by surviving dominance events.
SIZE_BUCKETS = ((1, 4, "1-4"), (5, 8, "5-8"), (9, 12, "9-12"), (13, 10**9, "13plus"))


def _size_bucket(size: int) -> str:
    for low, high, label in SIZE_BUCKETS:
        if low <= size <= high:
            return label
    return "0"


def _on_batch(tracer, result, args, kwargs, span) -> None:
    tracer.count("batch.retries", result.retries)
    tracer.count("batch.cache_hits", result.cache_hits)
    tracer.count("batch.cache_misses", result.cache_misses)


def _on_coalesced_batch(tracer, result, args, kwargs, span) -> None:
    _on_batch(tracer, result, args, kwargs, span)
    tracer.sample("coalescer.batches", (span[0], span[1], tuple(kwargs.get("indices") or ())))


def _on_query(tracer, result, args, kwargs, span) -> None:
    memo_hit = args[0].cache_info()["hits"] > span[3]
    tracer.count("engine.memo_hits" if memo_hit else "engine.memo_misses")


# The engine's memo counters, read on the engine the query runs on (the
# dynamic engine replaces its inner engine on object edits).
_on_query.before = lambda args: args[0].cache_info()["hits"]


def _on_preprocess(tracer, result, args, kwargs, span) -> None:
    tracer.count("preprocess.absorbed", len(result.absorbed_by))
    tracer.count("preprocess.components", len(result.partitions))


def _on_exact(tracer, result, args, kwargs, span) -> None:
    bucket = _size_bucket(result.objects_used)
    tracer.count("exact.solves")
    tracer.count("exact.terms", result.terms_evaluated)
    tracer.count(f"exact.solves.{bucket}")
    tracer.count(f"exact.det_s.{bucket}", span[2])


def _on_sampling(tracer, result, args, kwargs, span) -> None:
    tracer.count("sampling.draws", result.samples)


def _on_edit(kind: str):
    def hook(tracer, report, args, kwargs, span) -> None:
        tracer.count("dynamic.edits")
        tracer.count("dynamic.partitions_recomputed", report.partitions_recomputed)
        tracer.count("dynamic.targets_refreshed", report.targets_refreshed)
        tracer.sample(f"dynamic.edit_s.{kind}", span[1] - span[0])

    return hook


def _on_restricted(tracer, result, args, kwargs, span) -> None:
    tracer.count("restricted.grids")
    tracer.count("restricted.grid_s", span[1] - span[0])
    tracer.count("restricted.cells", sum(len(row) for row in result.reports))


def _on_distrib(tracer, result, args, kwargs, span) -> None:
    tracer.count("distrib.worker_s", result.workers * result.supervision.wall_seconds)
    tracer.count("distrib.dispatches", sum(shard.dispatches for shard in result.shards))
    tracer.count("distrib.hedges", result.supervision.hedges)
    tracer.count("distrib.respawns", result.supervision.respawns)
    for shard in result.shards:
        tracer.sample("distrib.shard_s", shard.seconds)


def _wrap_submit(tracer: Tracer, submit: Callable) -> Callable:
    """``QueryCoalescer.submit`` is a coroutine: record it off the stack."""
    from repro.errors import AdmissionRejectedError

    @functools.wraps(submit)
    async def traced(self, index, *args, **kwargs):
        start = _clock()
        try:
            return await submit(self, index, *args, **kwargs)
        except AdmissionRejectedError:
            tracer.count("coalescer.rejected")
            raise
        finally:
            tracer.sample("coalescer.submit", (start, _clock(), index))

    return traced


# -- the layers ---------------------------------------------------------------
#: Layer name -> (module, public function or Class.method, span name, hook).
LAYERS: Dict[str, list] = {
    "coalescer": [("repro.serve.coalescer", "QueryCoalescer.submit", "coalescer", None)],
    "batch": [("repro.core.batch", "batch_skyline_probabilities", "batch", _on_batch)],
    "engine": [
        ("repro.core.engine", "SkylineProbabilityEngine.skyline_probability", "engine", _on_query),
        ("repro.core.engine", "SkylineProbabilityEngine.skyline_probabilities", "engine", None),
    ],
    "dominance": [
        ("repro.core.dominance", "DominanceCache.dominance_factors", "dominance", None),
        ("repro.core.dominance", "dominance_factors", "dominance", None),
    ],
    "preprocess": [
        ("repro.core.preprocess", "preprocess", "preprocess", _on_preprocess),
        ("repro.core.preprocess", "drop_never_dominators", "preprocess.filter", None),
        ("repro.core.preprocess", "absorb", "preprocess.absorb", None),
        ("repro.core.preprocess", "absorb_keys", "preprocess.absorb", None),
        ("repro.core.preprocess", "partition", "preprocess.partition", None),
        ("repro.core.preprocess", "partition_keys", "preprocess.partition", None),
    ],
    "exact": [
        ("repro.core.exact", "skyline_probability_det", "exact", _on_exact),
        ("repro.core.exact", "det_from_factor_lists", "exact", _on_exact),
    ],
    "sampling": [("repro.core.sampling", "skyline_probability_sampled", "sampling", _on_sampling)],
    "dynamic": [
        ("repro.core.dynamic", "DynamicSkylineEngine.insert_object", "dynamic", _on_edit("insert")),
        ("repro.core.dynamic", "DynamicSkylineEngine.remove_object", "dynamic", _on_edit("remove")),
        ("repro.core.dynamic", "DynamicSkylineEngine.update_preference", "dynamic", _on_edit("update")),
        ("repro.core.dynamic", "DynamicSkylineEngine.restricted_skyline_probability", "dynamic", None),
    ],
    "restricted": [
        ("repro.core.restricted", "restricted_skyline_probabilities", "restricted", _on_restricted)
    ],
    "distrib": [("repro.distrib.coordinator", "ShardCoordinator.run", "distrib", _on_distrib)],
}


def install(tracer: Tracer, layers) -> Callable[[], None]:
    """Wrap the public functions of ``layers``; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    for layer in layers:
        for module_name, path, span_name, hook in LAYERS[layer]:
            module = importlib.import_module(module_name)
            stored = layer != "dominance"
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[attribute]
                if layer == "coalescer":
                    patch(owner, attribute, _wrap_submit(tracer, original))
                else:
                    patch(owner, attribute, tracer.wrap(span_name, original, hook=hook, stored=stored))
                continue
            original = getattr(module, path)
            wrapped = tracer.wrap(span_name, original, hook=hook, stored=stored)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is not original:
                        continue
                    if name == "repro.serve.coalescer":
                        # The coalescer's batch calls also feed the queue-wait matching.
                        patch(loaded, alias, tracer.wrap(span_name, original, hook=_on_coalesced_batch))
                    else:
                        patch(loaded, alias, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
