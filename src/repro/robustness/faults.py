"""Deterministic fault injection for the batch planner's chaos suite.

Production fault tolerance is only trustworthy if its failure paths are
*tested*, and failure paths are only testable if failures can be produced
on demand, identically, on every run.  This module is the failpoint layer
behind ``tests/test_fault_injection.py``: a :class:`FaultInjector` decides
— as a pure function of ``(seed, object index, attempt)`` — whether a
worker task crashes, dies hard (process exit), or runs slow, so a chaos
run's failure pattern is exactly reproducible while the *answers* of the
surviving objects remain bit-identical to a fault-free run.

The injector is consulted by ``batch_skyline_probabilities`` immediately
before each per-object query (pass it as ``fault_injector=``).  It is a
frozen dataclass of primitives, so it also reaches worker processes that
do not fork; decisions need no shared state because the caller passes
the attempt number in.

``UnpicklableModel`` wraps a preference model so that ``pickle.dumps``
fails — the serialization fault class next to crashes and slowness,
which fork-started shard workers must survive by never pickling the
model.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from typing import FrozenSet, Type

__all__ = ["FAULT_KINDS", "InjectedFault", "FaultInjector", "UnpicklableModel"]

#: How an injected crash manifests: ``"raise"`` throws
#: :class:`InjectedFault` inside the worker (a clean task failure);
#: ``"exit"`` kills the worker *process* outright (``os._exit``), the
#: harshest failure: the shard coordinator must respawn the worker and
#: re-dispatch its shard.  ``"exit"`` degrades to ``"raise"`` outside a
#: worker process, so an injector can never kill the coordinating process.
FAULT_KINDS = ("raise", "exit")

#: Exit status used by ``kind="exit"`` hard crashes (arbitrary, non-zero).
_EXIT_STATUS = 17


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (chaos testing only).

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults model infrastructure failures (a worker segfault, an OOM kill),
    not library errors, and the retry layer must treat unknown exception
    types as retryable.
    """


def _uniform(seed: int, index: int, salt: str) -> float:
    """Deterministic uniform draw in [0, 1) from ``(seed, index, salt)``.

    A hash, not an RNG: decisions are independent of call order, identical
    in every process, and need no state to replay.
    """
    digest = hashlib.sha256(f"{seed}:{index}:{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultInjector:
    """Seed-keyed fault plan for one batch run.

    Parameters
    ----------
    seed:
        Keys every probabilistic decision; two injectors with the same
        configuration produce the same failure pattern.
    crash_rate:
        Fraction of object indices whose tasks crash (decided per index
        by hash, so exactly the same objects crash on every run).
    crash_attempts:
        How many attempts fail for a crashing task before it succeeds
        (``1`` models a transient glitch healed by one retry).
    poison:
        Object indices whose tasks fail on *every* attempt — the
        unrecoverable failures that must end up in
        ``BatchResult.failures`` instead of poisoning the batch.
    slow_rate, slow_seconds:
        Fraction of object indices whose tasks sleep ``slow_seconds``
        before answering (deadline/straggler chaos).
    die_rate, die_indices, die_attempts:
        Worker *death* plan: a task whose :meth:`dies` decision fires is
        killed with ``SIGKILL`` mid-task — no exception, no cleanup, the
        harshest failure a supervised worker pool must absorb.  Decided
        per index by hash (``die_rate``) or explicitly (``die_indices``),
        and only for attempts up to ``die_attempts``, so a supervisor
        that re-dispatches with advancing attempt numbers eventually gets
        past the fault.  Outside a worker process (the coordinating pid)
        the death degrades to a raised :class:`InjectedFault` — an
        injector can never kill the process that planned the chaos.
    stall_rate, stall_indices, stall_attempts, stall_seconds:
        Heartbeat-silence plan: a task whose :meth:`stalls` decision
        fires sleeps ``stall_seconds`` before doing any work — long
        enough that a heartbeat-supervised worker goes stale and is
        hedged or killed.  Gated on ``attempt <= stall_attempts`` so a
        re-dispatch (which carries a higher attempt number) completes.
    kind:
        One of :data:`FAULT_KINDS` — raise an exception or hard-kill the
        worker process.
    exception:
        Exception class used for raised faults (``KeyboardInterrupt``
        models operator cancellation in the cleanup tests).
    """

    seed: int = 0
    crash_rate: float = 0.0
    crash_attempts: int = 1
    poison: FrozenSet[int] = frozenset()
    slow_rate: float = 0.0
    slow_seconds: float = 0.0
    die_rate: float = 0.0
    die_indices: FrozenSet[int] = frozenset()
    die_attempts: int = 1
    stall_rate: float = 0.0
    stall_indices: FrozenSet[int] = frozenset()
    stall_attempts: int = 1
    stall_seconds: float = 60.0
    kind: str = "raise"
    exception: Type[BaseException] = InjectedFault
    # Captured at construction (the coordinator); lets "exit" faults tell
    # worker processes apart from the process that planned the chaos.
    origin_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        object.__setattr__(self, "poison", frozenset(self.poison))
        object.__setattr__(self, "die_indices", frozenset(self.die_indices))
        object.__setattr__(self, "stall_indices", frozenset(self.stall_indices))

    # ------------------------------------------------------------------
    def crashes(self, index: int, attempt: int) -> bool:
        """Whether the task for ``index`` fails on its ``attempt``-th try."""
        if index in self.poison:
            return True
        return (
            attempt <= self.crash_attempts
            and self.crash_rate > 0.0
            and _uniform(self.seed, index, "crash") < self.crash_rate
        )

    def is_slow(self, index: int) -> bool:
        """Whether the task for ``index`` is a straggler."""
        return (
            self.slow_seconds > 0.0
            and self.slow_rate > 0.0
            and _uniform(self.seed, index, "slow") < self.slow_rate
        )

    def dies(self, index: int, attempt: int) -> bool:
        """Whether the worker running ``index`` is SIGKILLed on ``attempt``."""
        if attempt > self.die_attempts:
            return False
        if index in self.die_indices:
            return True
        return (
            self.die_rate > 0.0
            and _uniform(self.seed, index, "die") < self.die_rate
        )

    def stalls(self, index: int) -> bool:
        """Whether the task for ``index`` goes heartbeat-silent."""
        if index in self.stall_indices:
            return True
        return (
            self.stall_rate > 0.0
            and _uniform(self.seed, index, "stall") < self.stall_rate
        )

    def before_task(self, index: int, attempt: int) -> None:
        """Failpoint: called by a worker right before answering ``index``.

        Sleeps for slow/stalled tasks, then kills or crashes per the
        plan.  Runs *before* any randomness is consumed, so a retried
        task's sampled answer is bit-identical to a fault-free run.
        """
        if self.is_slow(index):
            time.sleep(self.slow_seconds)
        if self.stalls(index) and attempt <= self.stall_attempts:
            # Heartbeat silence: sleep without reporting progress.  The
            # supervisor's stall detector (or a hedged re-dispatch, which
            # arrives with a higher attempt number) must resolve it.
            time.sleep(self.stall_seconds)
        if self.dies(index, attempt):
            if os.getpid() != self.origin_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            raise self.exception(
                f"injected worker death for object {index} on attempt "
                f"{attempt} (degraded to raise: not in a worker process)"
            )
        if not self.crashes(index, attempt):
            return
        if self.kind == "exit" and os.getpid() != self.origin_pid:
            os._exit(_EXIT_STATUS)
        raise self.exception(
            f"injected {self.kind!r} fault for object {index} on attempt {attempt}"
        )


class UnpicklableModel:
    """Wrap a preference model so it cannot cross a process boundary.

    Forwards every attribute to the wrapped model (queries behave
    identically) but fails ``pickle.dumps`` — the serialization fault
    class of the chaos suite, standing in for real procedural models
    built from closures, which ``batch_skyline_probabilities`` must still
    run on fork-started workers.
    """

    def __init__(self, preferences: object) -> None:
        self._preferences = preferences

    @property
    def wrapped(self) -> object:
        """The underlying preference model."""
        return self._preferences

    def __getattr__(self, name: str) -> object:
        return getattr(self._preferences, name)

    def __reduce__(self):
        raise pickle.PicklingError(
            "UnpicklableModel deliberately cannot be pickled "
            "(chaos testing: the serialization fault class)"
        )
