"""Request coalescing: merge concurrent queries into one batch call.

A serving tier answering single-object queries one at a time throws away
exactly the sharing the batch planner exists for: concurrent requests on
one warm engine re-resolve the same preference variables and re-run the
same preprocessing.  The :class:`QueryCoalescer` holds each arriving
query for a short *window* (default 2 ms) and merges every compatible
query that arrives meanwhile — same method, accuracy, deadline policy —
into a single :func:`~repro.core.batch.batch_skyline_probabilities`
call over the shared dominance cache.

**Bit-identity.**  A coalesced answer must be indistinguishable from the
answer the request would have received alone.  The batch planner spawns
per-object streams keyed by *batch position*, which would make an answer
depend on who else happened to share the window — so the coalescer
instead derives each request's stream from its *own* seed exactly as a
direct ``batch_skyline_probabilities(engine, indices=[i], seed=s)`` call
would (:func:`spawn_request_seed`) and passes them through the planner's
``seeds=`` override.  The differential test in
``tests/test_serve_coalescing.py`` asserts the equality bit-for-bit.

**Serialisation.**  Every engine operation — coalesced batches here,
edits submitted by the server — runs on one single-thread executor, so
the warm :class:`~repro.core.dynamic.DynamicSkylineEngine` (not safe for
concurrent edits) only ever sees a serial history.  The optional
``trace`` list records that history in execution order, which is what
the chaos suite replays single-threaded to prove the served answers
bit-identical.

**Admission control.**  At most ``max_pending`` queries may be waiting
in windows or running in batches; one more is rejected with
:class:`~repro.errors.AdmissionRejectedError` before any engine work
happens (the server maps it to HTTP 429).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.batch import batch_skyline_probabilities
from repro.core.engine import SkylineReport
from repro.core.options import FIELDS, QueryOptions
from repro.errors import (
    AdmissionRejectedError,
    DatasetError,
    DimensionalityError,
    ReproError,
    ServingError,
)

__all__ = [
    "COALESCE_OPTION_FIELDS",
    "CoalescedAnswer",
    "QueryCoalescer",
    "spawn_request_seed",
]

#: Query options a coalesced batch must share: the fields of
#: :class:`~repro.core.options.QueryOptions`, whose ``key`` is the
#: bucket key — two queries coalesce iff every one of these matches.  A
#: restriction is held as a sorted tuple, so a JSON list and a tuple
#: bucket identically and a restricted query never shares a bucket with
#: a full one.
COALESCE_OPTION_FIELDS = FIELDS

#: Batch-size histogram buckets (requests per coalesced batch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def spawn_request_seed(seed: object) -> object:
    """The per-object stream a direct single-query batch would spawn.

    ``batch_skyline_probabilities(engine, indices=[i], seed=s)`` seeds
    object position 0 with ``SeedSequence(s).spawn(1)[0]``; returning
    that child here (and passing it through the planner's ``seeds=``
    override) makes a coalesced answer consume the identical stream.
    ``None`` stays ``None`` — an unseeded request promises no
    reproducibility to coalesce for.
    """
    if seed is None:
        return None
    return np.random.SeedSequence(int(seed)).spawn(1)[0]


@dataclass(frozen=True)
class CoalescedAnswer:
    """One request's answer plus how it was served.

    ``report`` is the engine's :class:`~repro.core.engine.SkylineReport`
    for this request alone; ``batch_size`` how many requests shared the
    coalesced batch that produced it.
    """

    report: SkylineReport
    batch_size: int

    @property
    def coalesced(self) -> bool:
        """Whether other requests shared the batch."""
        return self.batch_size > 1


# One waiting request: (index, spawned stream, raw seed, caller future).
_Pending = Tuple[int, object, object, "asyncio.Future"]


class QueryCoalescer:
    """Merge concurrent single-object queries into shared batch calls.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.dynamic.DynamicSkylineEngine` (or static
        engine) all batches run against; its shared dominance cache is
        reused across batches when it has one.
    window:
        Seconds the first query of a bucket waits for company before the
        batch launches (``0`` still merges arrivals of the same event-loop
        iteration).
    max_batch:
        A bucket reaching this many queries launches immediately.
    max_pending:
        Admission bound: queries waiting or running, across all buckets.
    executor:
        Single-thread executor all engine work runs on; the server passes
        its own so edits serialise with batches.  When ``None`` the
        coalescer owns (and drains) a private one.
    trace:
        Optional list; every executed batch appends one entry (options,
        indices, raw seeds, probabilities) in execution order — the
        replay hook of the chaos differential suite.
    """

    def __init__(
        self,
        engine: object,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        max_pending: int = 256,
        executor: Optional[ThreadPoolExecutor] = None,
        trace: Optional[list] = None,
    ) -> None:
        if not isinstance(window, (int, float)) or isinstance(window, bool) or window < 0:
            raise ServingError(
                f"window must be a non-negative number of seconds, got {window!r}"
            )
        if isinstance(max_batch, bool) or not isinstance(max_batch, int) or max_batch < 1:
            raise ServingError(
                f"max_batch must be a positive integer, got {max_batch!r}"
            )
        if isinstance(max_pending, bool) or not isinstance(max_pending, int) or max_pending < 1:
            raise ServingError(
                f"max_pending must be a positive integer, got {max_pending!r}"
            )
        self._engine = engine
        self._window = float(window)
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._owns_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._trace = trace
        self._buckets: Dict[tuple, Tuple[QueryOptions, List[_Pending]]] = {}
        self._timers: Dict[tuple, asyncio.Task] = {}
        self._batches: set = set()
        self._pending = 0
        self._closed = False

    @property
    def pending(self) -> int:
        """Queries currently waiting in windows or running in batches."""
        return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`drain` has begun (no new queries accepted)."""
        return self._closed

    # ------------------------------------------------------------------
    async def submit(
        self, index: int, *, seed: object = None, **options: object
    ) -> CoalescedAnswer:
        """Queue one single-object query and await its coalesced answer.

        ``options`` may set any of :data:`COALESCE_OPTION_FIELDS`;
        queries sharing all of them merge into one batch.  Raises
        :class:`~repro.errors.AdmissionRejectedError` over the pending
        bound, :class:`~repro.errors.ServingError` while draining or for
        an unknown option name, the error a direct query raises for a
        bad option value — at once, before the request joins a bucket —
        and whatever the engine raises for the query itself (a request
        with a stale index fails alone).
        """
        if self._closed:
            raise ServingError(
                "serving tier is draining; no new queries are accepted"
            )
        if self._pending >= self._max_pending:
            self._count_rejection()
            raise AdmissionRejectedError(
                f"admission control: {self._pending} queries already "
                f"pending (max_pending={self._max_pending}); retry after "
                f"the current window drains"
            )
        if isinstance(index, bool) or not isinstance(index, int):
            raise ServingError(
                f"query target must be an object index (integer), got {index!r}"
            )
        query = self._options(options)
        key = query.key
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if key not in self._buckets:
            self._buckets[key] = (query, [])
        bucket = self._buckets[key][1]
        bucket.append((index, spawn_request_seed(seed), seed, future))
        self._pending += 1
        if len(bucket) >= self._max_batch:
            self._launch(key)
        elif len(bucket) == 1:
            self._timers[key] = loop.create_task(self._flush_after_window(key))
        return await future

    def flush(self) -> None:
        """Launch every open bucket now instead of waiting out its window."""
        for key in list(self._buckets):
            self._launch(key)

    async def drain(self) -> None:
        """Stop admitting, flush every bucket, and await all batches."""
        self._closed = True
        self.flush()
        while self._batches or self._timers:
            await asyncio.gather(
                *self._batches, *self._timers.values(), return_exceptions=True
            )
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _options(options: Dict[str, object]) -> QueryOptions:
        """A request's options, checked as a direct query checks them."""
        unknown = set(options) - set(COALESCE_OPTION_FIELDS)
        if unknown:
            raise ServingError(
                f"unknown query option(s) {sorted(unknown)}; supported "
                f"options are {list(COALESCE_OPTION_FIELDS)}"
            )
        try:
            return QueryOptions(**options)
        except (DatasetError, DimensionalityError) as error:
            # A restriction that is not a sequence of integers.
            raise ServingError(str(error)) from None

    async def _flush_after_window(self, key: tuple) -> None:
        await asyncio.sleep(self._window)
        self._launch(key)

    def _launch(self, key: tuple) -> None:
        options, bucket = self._buckets.pop(key, (None, None))
        timer = self._timers.pop(key, None)
        if (
            timer is not None
            and not timer.done()
            and timer is not asyncio.current_task()
        ):
            timer.cancel()
        if not bucket:
            return
        task = asyncio.get_running_loop().create_task(
            self._execute(options, bucket)
        )
        self._batches.add(task)
        task.add_done_callback(self._batches.discard)

    async def _execute(
        self, options: QueryOptions, bucket: List[_Pending]
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_batch, options, bucket
            )
        except BaseException as error:  # executor death — fail every waiter
            outcomes = [error] * len(bucket)
        finally:
            self._pending -= len(bucket)
        for (_, _, _, future), outcome in zip(bucket, outcomes):
            if future.cancelled():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _run_batch(
        self, options: QueryOptions, bucket: List[_Pending]
    ) -> List[object]:
        """Execute one bucket on the engine thread; one outcome per slot.

        Runs on the single-thread executor, strictly serialised with
        every other engine operation.  Indices are validated against the
        engine's *current* cardinality here — after any concurrent edits
        queued ahead of this batch — so a request that raced a remove
        fails alone instead of poisoning the batch.
        """
        engine = self._engine
        limit = getattr(engine, "cardinality", None)
        if limit is None:
            limit = len(engine.dataset)
        outcomes: List[object] = [None] * len(bucket)
        valid = []
        for position, (index, _, _, _) in enumerate(bucket):
            if 0 <= index < limit:
                valid.append(position)
            else:
                outcomes[position] = DatasetError(
                    f"object index {index} out of range "
                    f"(dataset holds {limit})"
                )
        if valid:
            indices = [bucket[position][0] for position in valid]
            seeds = [bucket[position][1] for position in valid]
            keywords = options.as_kwargs()
            try:
                result = batch_skyline_probabilities(
                    engine,
                    indices=indices,
                    seeds=seeds,
                    workers=1,
                    cache=getattr(engine, "cache", None),
                    on_error="raise",
                    **keywords,
                )
            except ReproError as error:
                # The bucket shares every query option, so a
                # deterministic error (a restriction out of range) applies
                # to each of its requests.
                for position in valid:
                    outcomes[position] = error
            else:
                for position, report in zip(valid, result.reports):
                    outcomes[position] = CoalescedAnswer(report, len(bucket))
                self._record_batch(len(bucket))
                if self._trace is not None:
                    self._trace.append(
                        {
                            "kind": "query",
                            "options": keywords,
                            "indices": list(indices),
                            "seeds": [
                                bucket[position][2] for position in valid
                            ],
                            "probabilities": [
                                report.probability for report in result.reports
                            ],
                            "degraded": [
                                report.degraded for report in result.reports
                            ],
                        }
                    )
        return outcomes

    # ------------------------------------------------------------------
    @staticmethod
    def _record_batch(size: int) -> None:
        if not obs.is_enabled():
            return
        registry = obs.registry()
        registry.counter(
            "repro_serve_coalesced_batches_total",
            "Coalesced engine batches executed by the serving tier.",
        ).inc()
        registry.histogram(
            "repro_serve_batch_size",
            "Requests merged into one coalesced batch.",
            buckets=_BATCH_SIZE_BUCKETS,
        ).observe(size)

    @staticmethod
    def _count_rejection() -> None:
        if not obs.is_enabled():
            return
        obs.registry().counter(
            "repro_serve_rejected_total",
            "Queries rejected by admission control (HTTP 429).",
        ).inc()
