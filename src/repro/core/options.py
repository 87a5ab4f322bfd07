"""The query options: declared, defaulted and checked in one place.

A query is ``sky(O)`` by one of :data:`METHODS` with Theorem 2's
accuracy pair ``(ε, δ)`` (or an explicit sample count), the absorption
and partition switches of Theorems 3 and 4, a Det kernel, a deadline
policy and an optional competitor/dimension restriction.
:class:`QueryOptions` holds those twelve options as one frozen value.
Every entry point builds it once from its keyword arguments — the
engine, the batch planner, the shard coordinator, the restriction
planner, the dynamic engine's restricted query and the serving tier's
coalescer — and passes it down, so no module restates a default or
repeats a check.

The per-query ``seed`` and the shared ``cache`` are not options: a
batch spawns one stream per object, and a cache is a resource that
never changes an answer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.core.bounds import validate_accuracy, validate_robustness
from repro.core.exact import DEFAULT_DET_KERNEL, DET_KERNELS
from repro.errors import (
    DatasetError,
    DimensionalityError,
    ReproError,
    RobustnessPolicyError,
)

__all__ = ["QueryOptions", "METHODS", "DEADLINE_POLICIES"]

METHODS = ("det", "det+", "sam", "sam+", "naive", "auto")

#: What to do when an exact query's wall-clock ``deadline`` expires:
#: ``"degrade"`` (default) falls back to the ``(ε, δ)``-bounded ``Sam``
#: estimator and flags the report; ``"raise"`` surfaces
#: :class:`~repro.errors.DeadlineExceededError` to the caller.
DEADLINE_POLICIES = ("degrade", "raise")


@dataclass(frozen=True)
class QueryOptions:
    """The options of one query, checked once on construction.

    ``method``
        One of :data:`METHODS`.  ``det`` is Algorithm 1 over every
        competitor; ``det+`` absorbs, filters and partitions first and
        raises :class:`~repro.errors.ComputationBudgetError` for a
        component above the engine's ``max_exact_objects``; ``sam`` and
        ``sam+`` are Algorithm 2 without and with preprocessing;
        ``naive`` enumerates every world; ``auto`` solves components
        within the budget exactly and samples the rest, with the
        ``(ε, δ)`` budget split among them.
    ``epsilon``, ``delta``, ``samples``
        Theorem 2's accuracy pair, each in (0, 1), or an explicit
        positive sample count (``None``: the Hoeffding size).  They
        matter only when a method samples, yet are checked for every
        method (:class:`~repro.errors.EstimationError`).
    ``use_absorption``, ``use_partition``
        The Theorem 3 and 4 switches of ``det+``/``sam+``/``auto``
        (ablation hooks): ``True`` or ``False``.
    ``det_kernel``
        The Algorithm 1 kernel, one of
        :data:`~repro.core.exact.DET_KERNELS`.  The default ``"auto"``
        solves each component with ``"fast"`` below 8 dominators (and
        above ``"vec"``'s 26-object ceiling) and with ``"vec"`` from 8 to
        26, so it equals ``"reference"`` bit for bit on small components
        and within 1e-12 on large ones.  ``"fast"`` equals
        ``"reference"`` (the seed transcription kept for differential
        tests) bit for bit; ``"vec"`` is the NumPy subset-doubling
        kernel, within 1e-12.
    ``deadline``, ``on_deadline``, ``max_overrun``
        A wall-clock budget in seconds over the exact enumeration of
        ``det``/``det+``/``auto`` (the problem is #P-complete, so a
        pathological instance *will* blow any latency target).  On
        expiry ``on_deadline="degrade"`` answers with the
        ``(ε, δ)``-bounded ``Sam`` estimator — the query's own accuracy
        and seed — in a report flagged ``degraded=True`` with the reason
        recorded; ``"raise"`` propagates
        :class:`~repro.errors.DeadlineExceededError`.  An armed deadline
        routes ``"fast"`` work through ``"reference"`` (same answer,
        per-term accounting); ``"vec"`` checks it between its doubling
        levels; ``sam``/``sam+``/``naive`` ignore it.  ``max_overrun``
        hands the fallback the hard ceiling ``deadline + max_overrun``,
        where its draw loop truncates (a truncated report states the
        accuracy its samples support); without one the fallback keeps its
        full ``(ε, δ)`` budget.  Bad values raise
        :class:`~repro.errors.RobustnessPolicyError`.
    ``competitors``, ``dims``
        A competitor subset (an empty one gives ``sky = 1`` exactly) and
        a dimension subspace restricting the query, held as sorted
        tuples of distinct integers (NumPy integers included); entries
        that are not integers raise :class:`~repro.errors.DatasetError`
        and :class:`~repro.errors.DimensionalityError`.  Their ranges
        need the dataset and are checked by
        :func:`~repro.core.restricted.normalize_restriction`.

    Two values with equal options are equal and hash alike: ``key``.
    """

    method: str = "auto"
    epsilon: float = 0.01
    delta: float = 0.01
    samples: int | None = None
    use_absorption: bool = True
    use_partition: bool = True
    det_kernel: str = DEFAULT_DET_KERNEL
    deadline: float | None = None
    on_deadline: str = "degrade"
    max_overrun: float | None = None
    competitors: Tuple[int, ...] | None = None
    dims: Tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ReproError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        _check_det_kernel(self.det_kernel)
        validate_accuracy(self.epsilon, self.delta, self.samples)
        validate_robustness(deadline=self.deadline, max_overrun=self.max_overrun)
        if self.on_deadline not in DEADLINE_POLICIES:
            raise RobustnessPolicyError(
                f"unknown on_deadline policy {self.on_deadline!r}; "
                f"expected one of {DEADLINE_POLICIES}"
            )
        for name in ("use_absorption", "use_partition"):
            value = getattr(self, name)
            if value is not True and value is not False:
                raise ReproError(f"{name} must be True or False, got {value!r}")
        object.__setattr__(
            self, "competitors", _index_tuple("competitors", self.competitors)
        )
        object.__setattr__(self, "dims", _index_tuple("dims", self.dims))

    @property
    def key(self) -> tuple:
        """Every option's value, in field order: hashable."""
        return _values(self)

    @property
    def exact_key(self) -> tuple:
        """The options an exact answer depends on (memo keys).

        The kernel is among them because ``"vec"`` answers differ from
        the recursive kernels' in the last ulps.
        """
        return (self.method, self.use_absorption, self.use_partition, self.det_kernel)

    @property
    def restricted(self) -> bool:
        """Whether a competitor subset or a dimension subspace is set."""
        return self.competitors is not None or self.dims is not None

    def as_kwargs(self) -> Dict[str, object]:
        """The options as keyword arguments of any full entry point."""
        return dict(zip(FIELDS, self.key))


#: The option names, in declaration order.
FIELDS = tuple(field.name for field in fields(QueryOptions))
_values = operator.attrgetter(*FIELDS)


def _check_det_kernel(det_kernel: object) -> None:
    """Reject a ``det_kernel`` outside :data:`~repro.core.exact.DET_KERNELS`."""
    if det_kernel not in DET_KERNELS:
        raise ReproError(
            f"unknown det_kernel {det_kernel!r}; expected one of {DET_KERNELS}"
        )


def _index_tuple(name: str, values: object) -> Tuple[int, ...] | None:
    """A restriction's ``competitors`` or ``dims`` as a sorted tuple.

    Entries must be integers (NumPy integers included, through
    :func:`operator.index`): a competitor that is not raises
    :class:`~repro.errors.DatasetError`, a dimension
    :class:`~repro.errors.DimensionalityError`, and so does a value
    that is not a sequence at all.
    """
    if values is None:
        return None
    if name == "competitors":
        error, entry = DatasetError, "object index"
    else:
        error, entry = DimensionalityError, "dimension"
    try:
        items = iter(values)
    except TypeError:
        raise error(
            f"{name} must be a sequence of integers or None, got {values!r}"
        ) from None
    chosen = set()
    for item in items:
        try:
            chosen.add(operator.index(item))
        except TypeError:
            raise error(f"{entry} {item!r} is not an integer") from None
    return tuple(sorted(chosen))
