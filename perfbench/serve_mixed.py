"""``serve_mixed``: open-loop mixed HTTP traffic against a live server.

A ``SkylineServer`` runs in its own process (``serve_proc.py``) with the
default ``ServeConfig`` except the port.  This process generates the
load over at most ``nproc`` keep-alive connections:

1. *Open loop*: requests are due on a seeded Poisson schedule at
   ``RATE`` per second, whatever the server does.  A query goes to the
   connection with the fewest outstanding requests; every edit goes to
   connection 0, so edits reach the engine in schedule order.  Latency
   is timed from when the request was due, not when it was sent.
2. *Closed loop*: each connection sends its next request of the same
   seeded mix as soon as the previous one is answered.
3. *Quiescent check*: with no load, every original object is queried
   and checked against an oracle (``det+`` on the reference kernel)
   over the final state, which is the initial state with the edits the
   server acknowledged, replayed in order.  Seeded ``sam`` queries
   are checked against the Theorem-2 Hoeffding interval and against a
   direct seeded ``batch_skyline_probabilities`` call on the oracle.

Closed-loop throughput and server start-up times are scaled to a
reference host speed by the gauge of ``speed.py``, read between chunks of
the closed loop and around every server start.  Open-loop latencies are
not scaled: they include fixed waits (the coalescer window, the network)
that do not follow the host's speed.

The mix: default-option ``/query`` on Zipf-popular targets (memo hits
after the first), ``SAM_SHARE`` seeded ``method="sam", samples=200``
queries (never memoised) and ``EDIT_SHARE`` ``/edit`` requests: insert
or remove of one in-block object, or sharpening one preference pair.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from common import Checks, median, metric, percentile
from instances import SERVE, make_instance
from layer_metrics import summarize
from speed import Gauge, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Open-loop arrival rate, requests per second: about a fifth of what the
#: closed-loop phase reaches on a 2-vCPU machine.  Edits take tens of
#: milliseconds, so even here queries queue behind them; near saturation
#: the queues they build differ so much between runs that no latency
#: figure repeats.
RATE = 30.0
EDIT_SHARE = 0.10
SAM_SHARE = 0.15
#: Share of edits that sharpen a preference; the rest insert or remove.
UPDATE_SHARE = 0.9
SAM_SAMPLES = 200
#: Share of ``--seconds`` given to the open-loop phase; the rest is closed loop.
OPEN_SHARE = 2.0 / 3.0
#: Server starts per run, half before the load and half after it;
#: ``setup_s`` is their median.
SETUPS = 6
#: The closed loop runs in this many chunks, with a gauge reading after each.
CLOSED_CHUNKS = 16
#: Seeded ``sam`` queries in the quiescent check.
CHECK_SAMPLED = 16
#: Open-loop validity: the generator must send within this lag (p99, ms).
MAX_LAG_MS = 25.0

_clock = time.perf_counter


@dataclass
class Item:
    kind: str  # "query", "sam" or "edit"
    path: str
    payload: dict
    due: float = 0.0  # seconds after the phase start (open loop only)


@dataclass
class Record:
    item: Item
    due_at: float
    sent_at: float
    done_at: float
    status: int
    body: dict


class Mix:
    """The request stream: a fixed base sequence, relabelled for the run.

    The request kinds, targets, edits and Poisson arrival times are drawn
    once on the base instance and carried to the run's instance by its
    relabelling, like the instance itself (see ``instances.py``): seeds
    differ in labels and object order, not in the work or the timing of
    the traffic.  A 400-request Poisson sample varies enough between
    draws to swamp the program's own run-to-run noise.  The local state
    of the edit script (objects inserted and not yet removed) is kept on
    the base labels.
    """

    def __init__(self, instance) -> None:
        self.rng = random.Random("serve_mixed:requests")
        self.timing = random.Random("serve_mixed:arrivals")
        self.rename = instance.rename
        self.position = {base: run for run, base in enumerate(instance.base_index)}
        self.original = list(instance.base_objects)
        self.current = list(self.original)
        self.inserted: List[Tuple[str, ...]] = []
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.original))]
        self.block_values: Dict[int, List[set]] = {}
        for obj in self.original:
            values = self.block_values.setdefault(instance.block_of(obj), [set() for _ in obj])
            for dimension, value in enumerate(obj):
                values[dimension].add(value)
        self.block_values = {
            block: [sorted(values) for values in dims]
            for block, dims in sorted(self.block_values.items())
        }

    def target(self) -> int:
        """A Zipf-popular original object, as a run index."""
        base = self.rng.choices(range(len(self.original)), self.weights)[0]
        return self.position[base]

    def _labels(self, values) -> list:
        return [self.rename[value] for value in values]

    def edit(self) -> dict:
        rng = self.rng
        # Mostly sharpenings; inserts and removes come in pairs over time.
        draw = rng.random()
        if draw < UPDATE_SHARE:
            choice = "update"
        elif len(self.inserted) >= 2 or (self.inserted and draw < (1 + UPDATE_SHARE) / 2):
            choice = "remove"
        else:
            choice = "insert"
        if choice == "insert":
            for _ in range(50):
                block = rng.choice(sorted(self.block_values))
                candidate = tuple(rng.choice(values) for values in self.block_values[block])
                if candidate not in self.current:
                    self.current.append(candidate)
                    self.inserted.append(candidate)
                    return {"operation": "insert_object", "values": self._labels(candidate)}
        if choice == "remove":
            victim = self.inserted.pop(rng.randrange(len(self.inserted)))
            self.current.remove(victim)
            return {"operation": "remove_object", "target": self._labels(victim)}
        pairs = [
            (block, dimension)
            for block, dims in self.block_values.items()
            for dimension, values in enumerate(dims)
            if len(values) >= 2
        ]
        block, dimension = rng.choice(pairs)
        a, b = self._labels(rng.sample(self.block_values[block][dimension], 2))
        forward = rng.uniform(0.75, 1.0)
        return {
            "operation": "update_preference", "dimension": dimension,
            "a": a, "b": b, "prob_a_over_b": forward, "prob_b_over_a": 1.0 - forward,
        }

    def sam(self) -> dict:
        return {"index": self.target(), "method": "sam", "samples": SAM_SAMPLES,
                "seed": self.rng.randrange(2**31)}

    def items(self) -> Iterator[Item]:
        while True:
            draw = self.rng.random()
            if draw < EDIT_SHARE:
                yield Item("edit", "/edit", self.edit())
            elif draw < EDIT_SHARE + SAM_SHARE:
                yield Item("sam", "/query", self.sam())
            else:
                yield Item("query", "/query", {"index": self.target()})

    def schedule(self, source: Iterator[Item], seconds: float) -> List[Item]:
        """Items of ``source`` due within ``seconds``, Poisson at ``RATE``."""
        items, due = [], self.timing.expovariate(RATE)
        while due < seconds:
            item = next(source)
            item.due = due
            items.append(item)
            due += self.timing.expovariate(RATE)
        return items


class Connection:
    """One HTTP/1.1 keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def request(self, path: str, payload: dict) -> Tuple[int, dict]:
        body = json.dumps(payload).encode()
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(data)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def open_loop(conns: List[Connection], items: List[Item], lags: List[float]) -> List[Record]:
    """Send ``items`` at their due times; edits only on connection 0."""
    records: List[Record] = []
    queues = [asyncio.Queue() for _ in conns]
    outstanding = [0] * len(conns)

    async def worker(position: int) -> None:
        while True:
            entry = await queues[position].get()
            if entry is None:
                return
            item, due_at = entry
            sent_at = _clock()
            status, body = await conns[position].request(item.path, item.payload)
            records.append(Record(item, due_at, sent_at, _clock(), status, body))
            outstanding[position] -= 1

    workers = [asyncio.create_task(worker(p)) for p in range(len(conns))]
    start = _clock()
    for item in items:
        due_at = start + item.due
        delay = due_at - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, _clock() - due_at))
        if item.kind == "edit":
            position = 0
        else:
            position = min(reversed(range(len(conns))), key=lambda p: outstanding[p])
        outstanding[position] += 1
        queues[position].put_nowait((item, due_at))
    for queue in queues:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return records


async def closed_loop(conns: List[Connection], source: Iterator[Item], seconds: float, edits: deque) -> List[Record]:
    """Each connection sends its next request as soon as it is answered.

    Edits drawn by other connections wait in ``edits`` for connection 0.
    """
    records: List[Record] = []
    end = _clock() + seconds

    async def worker(position: int) -> None:
        while _clock() < end:
            if position == 0 and edits:
                item = edits.popleft()
            else:
                item = next(source)
                while item.kind == "edit" and position != 0:
                    edits.append(item)
                    item = next(source)
            sent_at = _clock()
            status, body = await conns[position].request(item.path, item.payload)
            records.append(Record(item, sent_at, sent_at, _clock(), status, body))

    await asyncio.gather(*(worker(p) for p in range(len(conns))))
    return records


def oracle_state(instance, records: List[Record]):
    """Dataset and preferences after the acknowledged edits, in order."""
    from repro import Dataset

    objects = list(instance.objects)
    preferences = instance.preferences()
    for record in records:
        if record.item.kind != "edit" or record.status != 200:
            continue
        edit = record.item.payload
        if edit["operation"] == "insert_object":
            objects.append(tuple(edit["values"]))
        elif edit["operation"] == "remove_object":
            objects.remove(tuple(edit["target"]))
        else:
            preferences.set_preference(
                edit["dimension"], edit["a"], edit["b"], edit["prob_a_over_b"], edit["prob_b_over_a"]
            )
    return Dataset(objects), preferences


async def quiescent_check(conns, instance, mix: Mix, sent: List[Record], checks: Checks) -> List[Record]:
    """Query every original object and a few seeded ``sam`` queries."""
    from repro import SkylineProbabilityEngine, batch_skyline_probabilities

    dataset, preferences = oracle_state(instance, sent)
    oracle = SkylineProbabilityEngine(dataset, preferences)
    items = [Item("query", "/query", {"index": index}) for index in range(len(mix.original))]
    items += [Item("sam", "/query", mix.sam()) for _ in range(CHECK_SAMPLED)]
    records: List[Record] = []

    async def worker(position: int) -> None:
        while items:
            item = items.pop()
            sent_at = _clock()
            status, body = await conns[position].request(item.path, item.payload)
            records.append(Record(item, sent_at, sent_at, _clock(), status, body))

    await asyncio.gather(*(worker(p) for p in range(len(conns))))
    for record in records:
        if record.status != 200:
            continue
        index = record.item.payload["index"]
        want = oracle.skyline_probability(index, method="det+", det_kernel="reference").probability
        got = record.body["probability"]
        if record.item.kind == "sam":
            checks.sampled(f"sam query {index}", got, want, record.body["samples"])
            # The coalescer promises the answer of a direct seeded call.
            seed = record.item.payload["seed"]
            direct = batch_skyline_probabilities(
                oracle, indices=[index], method="sam", samples=SAM_SAMPLES, seed=seed
            ).probabilities[0]
            checks.exact(f"sam query {index} seed {seed}", got, direct)
        elif record.body["exact"]:
            checks.exact(f"query {index}", got, want)
        else:
            checks.wrong.append(f"query {index}: default answer not exact")
    return records


# -- the server process ---------------------------------------------------------
class Server:
    """A ``serve_proc.py`` child process."""

    def __init__(self, seed: int) -> None:
        started = _clock()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_proc.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        try:
            self.port = self.read()["port"]
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            connection.request("GET", "/healthz")
            if connection.getresponse().status != 200:
                raise RuntimeError("serve_mixed: server did not become healthy")
            connection.close()
        except BaseException:
            self.kill()
            raise
        self.setup_s = _clock() - started

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serve_mixed: server process exited early")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def drain(self) -> dict:
        """Graceful shutdown; returns the server's exit record."""
        try:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            connection.request("POST", "/drain")
            connection.getresponse().read()
            connection.close()
            self.proc.stdin.close()
            exit_record = self.read()["exit"]
            self.proc.wait(timeout=30)
            return exit_record
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _latencies_ms(records: List[Record], kinds: Tuple[str, ...]) -> List[float]:
    return [1000.0 * (r.done_at - r.due_at) for r in records if r.item.kind in kinds and r.status == 200]


def _serve_layers(report: dict, before: dict, after: dict, traced: List[Record], untraced: List[Record]) -> dict:
    """Per-layer extras only the server's records and the client can give.

    Three differ from the other workloads (see ``WORKLOADS.json``):
    ``unattributed_share`` is the delivery time from the end of a
    request's batch to the return of its submit, over client time;
    ``trace_overhead`` compares the traced half of the open loop with the
    untraced half before it (colder memo, earlier edit state); and
    ``http.self_ms`` keeps an edit's wait for the engine thread.
    """
    samples = report["samples"]
    submits = samples.get("coalescer.submit", [])
    batches = sorted(samples.get("coalescer.batches", []))
    # A request's batch: the first coalescer batch that starts after it
    # was submitted, includes its index and ends before it returned.
    waits, delivery = [], 0.0
    for start, end, index in submits:
        for batch_start, batch_end, indices in batches:
            if batch_start >= start and batch_end <= end and index in indices:
                waits.append(1000.0 * (batch_start - start))
                delivery += end - batch_end
                break
    client_s = sum(r.done_at - r.sent_at for r in traced)
    server_s = sum(end - start for start, end, _ in submits) + sum(
        sum(samples.get(f"dynamic.edit_s.{kind}", [])) for kind in ("insert", "remove", "update")
    )
    dom_hits = after["dominance"]["hits"] - before["dominance"]["hits"]
    dom_lookups = dom_hits + after["dominance"]["misses"] - before["dominance"]["misses"]
    traced_p50 = median(_latencies_ms(traced, ("query", "sam")))
    untraced_p50 = median(_latencies_ms(untraced, ("query", "sam")))
    return {
        "http.self_ms": 1000.0 * (client_s - server_s) / len(traced),
        "coalescer.wait_ms.p50": percentile(waits, 0.5) if waits else 0.0,
        "coalescer.wait_ms.p99": percentile(waits, 0.99) if waits else 0.0,
        "coalescer.batch_size": (sum(len(b[2]) for b in batches) / len(batches)) if batches else 0.0,
        "dominance.hit_ratio": dom_hits / dom_lookups if dom_lookups else 0.0,
        "dominance.evictions": (after["dominance"]["evictions"] - before["dominance"]["evictions"]) / len(traced),
        "unattributed_share": delivery / client_s,
        "trace_overhead": traced_p50 / untraced_p50,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    instance = make_instance(SERVE, seed)
    mix = Mix(instance)
    source = mix.items()
    connections = max(1, os.cpu_count() or 1)
    open_s = seconds * OPEN_SHARE
    checks = Checks()
    setups: List[float] = []
    gauge = Gauge()
    raw = {"setup_s": [], "closed_s": []}

    def start_server() -> Server:
        before = gauge.read()
        started = Server(seed)
        raw["setup_s"].append(started.setup_s)
        setups.append(scaled(started.setup_s, before, gauge.read()))
        return started

    def time_setups(count: int) -> None:
        for _ in range(count):
            start_server().drain()

    time_setups(SETUPS // 2 - 1)
    server = start_server()
    result: dict = {"checks": checks}

    async def drive() -> dict:
        conns = [Connection(server.port) for _ in range(connections)]
        for conn in conns:
            await conn.open()
        lags: List[float] = []
        phases: dict = {}
        if trace:
            phases["untraced"] = await open_loop(conns, mix.schedule(source, open_s / 2), lags)
            before = server.command("trace")["traced"]
            phases["open"] = await open_loop(conns, mix.schedule(source, open_s / 2), lags)
            report = server.command("report")
            phases["layers"] = (report["report"], before, report["counters"])
        else:
            phases["open"] = await open_loop(conns, mix.schedule(source, open_s), lags)
        # Closed-loop throughput is scaled chunk by chunk (see speed.py);
        # the gauge is read while no request is outstanding.
        phases["closed"], phases["closed_spans"] = [], []
        edits: deque = deque()
        reading = gauge.read()
        for _ in range(CLOSED_CHUNKS):
            chunk = await closed_loop(conns, source, (seconds - open_s) / CLOSED_CHUNKS, edits)
            span = max(r.done_at for r in chunk) - min(r.sent_at for r in chunk)
            before, reading = reading, gauge.read()
            raw["closed_s"].append(span)
            phases["closed_spans"].append(scaled(span, before, reading))
            phases["closed"] += chunk
        sent = phases.get("untraced", []) + phases["open"] + phases["closed"]
        phases["check"] = await quiescent_check(conns, instance, mix, sent, checks)
        for conn in conns:
            await conn.close()
        phases["lags"] = lags
        return phases

    try:
        phases = asyncio.run(drive())
    finally:
        exit_record = server.drain()
    time_setups(SETUPS - len(setups))
    everything = [r for key in ("untraced", "open", "closed", "check") for r in phases.get(key, [])]
    result["attempted"] = len(everything)
    result["failed"] = sum(1 for r in everything if r.status != 200)
    lag_p99 = 1000.0 * percentile(phases["lags"], 0.99)
    queries = _latencies_ms(phases["open"], ("query", "sam"))
    edits = _latencies_ms(phases["open"], ("edit",))
    backlog = max(r.sent_at - r.due_at for r in phases["open"])
    invalid = []
    if lag_p99 > MAX_LAG_MS:
        invalid.append(f"generator lag p99 {lag_p99:.1f} ms > {MAX_LAG_MS} ms")
    if backlog > open_s / 4:
        invalid.append(f"open-loop backlog reached {backlog:.2f} s: the offered rate exceeds capacity")
    result["invalid"] = invalid
    closed = phases["closed"]
    result["detail"] = {
        "open_loop": {"rate": RATE, "requests": len(phases["open"]), "queries": len(queries),
                      "edits": len(edits), "generator_lag_ms_p99": lag_p99,
                      "edit_p50_ms": median(edits) if edits else None,
                      "edit_p90_ms": percentile(edits, 0.9) if edits else None,
                      "query_p90_ms": percentile(queries, 0.9),
                      "query_p95_ms": percentile(queries, 0.95),
                      "query_p99_ms": percentile(queries, 0.99)},
        "closed_loop": {"requests": len(closed), "connections": connections,
                        "chunk_s": phases["closed_spans"], "raw_chunk_s": raw["closed_s"]},
        "setup_s": setups, "raw_setup_s": raw["setup_s"], "gauge_s": gauge.readings,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "ops_per_s": metric(len(closed) / sum(phases["closed_spans"]), "1/s"),
            "op_p50_ms": metric(median(queries), "ms"),
            "op_mean_ms": metric(sum(queries) / len(queries), "ms"),
            "peak_rss_mb": metric(exit_record["peak_rss_mb"], "MB"),
        }
        return result
    report, before, after = phases["layers"]
    extra = _serve_layers(report, before, after, phases["open"], phases["untraced"])
    extra["generator.lag_ms"] = lag_p99
    result["metrics"] = summarize(report, ops=len(phases["open"]), extra=extra)
    return result
