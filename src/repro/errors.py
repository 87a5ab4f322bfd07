"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  The concrete
subclasses mirror the layers of the system: data model, preference model,
algorithm budgets, and estimation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DatasetError",
    "DimensionalityError",
    "DuplicateObjectError",
    "PreferenceError",
    "UnknownPreferenceError",
    "InvalidProbabilityError",
    "ComputationBudgetError",
    "DeadlineExceededError",
    "RobustnessPolicyError",
    "EstimationError",
    "ExperimentError",
    "ServingError",
    "AdmissionRejectedError",
    "RetryExhaustedError",
    "DistribError",
    "ShardFailedError",
    "CoordinatorAbortedError",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class DatasetError(ReproError):
    """A dataset is structurally invalid (wrong shapes, empty, ...)."""


class DimensionalityError(DatasetError):
    """An object's dimensionality does not match the dataset's."""


class DuplicateObjectError(DatasetError):
    """Duplicate objects violate the paper's no-duplicates assumption.

    Section 2 of the paper assumes no duplicate objects in the space so
    that weak dominance on every dimension implies strict dominance on at
    least one.  Constructing a :class:`repro.core.objects.Dataset` with
    duplicates therefore raises this error (it can be relaxed explicitly).
    """


class PreferenceError(ReproError):
    """Base class for preference-model errors."""


class UnknownPreferenceError(PreferenceError, KeyError):
    """A preference probability was requested for an undefined value pair."""

    def __init__(self, dimension: int, a: object, b: object) -> None:
        super().__init__(
            f"no preference defined between {a!r} and {b!r} "
            f"on dimension {dimension} (and no default policy set)"
        )
        self.dimension = dimension
        self.a = a
        self.b = b

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable.
        return self.args[0]

    def __reduce__(self):
        # Exceptions unpickle as ``cls(*args)``; ``args`` holds the rendered
        # message, not the constructor signature, so without this the error
        # could not cross a process boundary (e.g. out of a worker in
        # ``batch_skyline_probabilities``).
        return (type(self), (self.dimension, self.a, self.b))


class InvalidProbabilityError(PreferenceError, ValueError):
    """A probability is outside [0, 1] or a pair sums to more than 1."""


class ComputationBudgetError(ReproError):
    """An exact computation would exceed its configured budget.

    The deterministic algorithm is exponential in the number of objects
    (the problem is #P-complete, Theorem 1), so the engine refuses to
    enumerate beyond a configurable number of objects / inclusion-exclusion
    terms instead of hanging.  Callers should fall back to sampling.
    """


class DeadlineExceededError(ComputationBudgetError):
    """A wall-clock deadline expired during an exact computation.

    Raised from inside the Det kernel's subset enumeration when the
    caller-supplied ``deadline`` runs out.  The engine normally catches it
    and degrades the query to the Monte-Carlo estimator ``Sam`` with the
    caller's ``(ε, δ)`` guarantee (Theorem 2), recording ``degraded=True``
    on the report; it only surfaces with ``on_deadline="raise"``.
    """


class RobustnessPolicyError(ComputationBudgetError):
    """A fault-tolerance parameter is malformed.

    Raised at the API boundary when ``deadline``, ``max_retries``,
    ``backoff``, ``on_deadline`` or ``on_error`` cannot be
    interpreted — before any work (or any worker dispatch) happens.
    """


class EstimationError(ReproError):
    """Invalid Monte-Carlo parameters (epsilon, delta, sample size)."""


class ExperimentError(ReproError):
    """A benchmark-harness experiment is misconfigured or unknown."""


class ServingError(ReproError):
    """Base class for errors of the serving tier (:mod:`repro.serve`).

    Raised for request-level protocol problems — a query submitted while
    the server is draining, a malformed route payload — as opposed to
    computation errors, which keep their library types and map to their
    own HTTP statuses.
    """


class AdmissionRejectedError(ServingError):
    """Admission control rejected a query: the pending queue is full.

    The serving tier bounds the number of queries waiting in its
    coalescing windows (``max_pending``); one over the bound is rejected
    *before* any engine work happens, so an overloaded server sheds load
    in O(1) instead of queueing unboundedly.  Maps to HTTP 429 with a
    structured error body.
    """


class RetryExhaustedError(ServingError):
    """A client-side retry budget ran out without a successful response.

    Raised by :class:`repro.serve.client.ServeClient` after an idempotent
    request (``/query`` and the ``GET`` routes — never ``/edit``) has
    failed ``attempts`` times in a row.  The final underlying failure is
    attached as ``last_error`` (and chained as ``__cause__``) so callers
    can distinguish timeouts from connection failures.
    """

    def __init__(self, message: str, *, attempts: int, last_error: BaseException) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class DistribError(ReproError):
    """Base class for errors of the shard coordinator (:mod:`repro.distrib`)."""


class ShardFailedError(DistribError):
    """A shard exhausted its retry budget with ``on_error="raise"``.

    Carries the shard's dataset ``indices`` and the last observed
    failure, so callers can tell which objects were lost.  With the
    default ``on_error="salvage"`` policy the coordinator never raises
    this: the shard degrades to structured ``BatchFailure`` records
    instead.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: int = -1,
        indices: tuple = (),
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.indices = tuple(indices)
        self.attempts = attempts


class CoordinatorAbortedError(DistribError):
    """The coordinator was deliberately killed at a chaos failpoint.

    Raised by ``ShardCoordinator.run(abort_after_shards=k)`` right after
    the ``k``-th shard of the run has been durably checkpointed — the
    crash-atomicity suite uses it to model a coordinator dying between
    shard completions, then asserts a resumed run is bit-identical to an
    uninterrupted one.
    """


class CheckpointError(DistribError):
    """Base class for checkpoint-store failures."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint line could not be decoded or failed its checksum.

    Surfaced instead of silently dropping shards: a truncated tail, a
    malformed JSON record, a bad base64 payload or a digest mismatch all
    raise with the offending line number, so an operator can decide to
    delete the checkpoint rather than trust a partial resume.
    """


class CheckpointMismatchError(CheckpointError):
    """A checkpoint belongs to a different run and cannot be resumed.

    The header fingerprints the computation (dataset, preference-model
    version, method, options, seed and shard plan); resuming against a
    checkpoint whose fingerprint or format version differs raises this
    rather than merging incompatible results.
    """
