"""Vectorized NumPy kernel for Algorithm 1 (the ``"vec"`` Det kernel).

The recursive kernels in :mod:`repro.core.exact` pay Python-interpreter
cost for every inclusion-exclusion term; at ``n`` dominators that is
``O(2^n)`` interpreted loop iterations.  This kernel replaces the walk
with a *subset-doubling* dynamic program over dense NumPy arrays, so the
per-term cost drops to a handful of vectorized float operations.

Formulation
-----------
Index the ``2^n`` subsets of dominators by their bitmask ``m`` and keep
one float64 array ``signed`` with

    signed[m] = (-1)^popcount(m) * Pr(E_m),        signed[0] = 1.0,

so that ``sky(O) = Σ_m signed[m]`` (Equation 4).  Dominator ``t`` doubles
the filled prefix: for every already-filled mask ``m < 2^t``,

    signed[m | 2^t] = -signed[m] * F_t(m),

where ``F_t(m)`` multiplies in exactly the factors of object ``t`` whose
``(dimension, value)`` key is not already covered by an object in ``m``
(Equation 6 counts shared keys once — the paper's sharing technique).
Each key carries a bitmask of the objects holding it:

* a key held by *no earlier* object is always new — its factor folds
  into one scalar applied to the whole level with a single multiply;
* a key shared with earlier objects multiplies only the masks ``m``
  with ``m & owners == 0``.  Those masks form a strided sub-array of
  the level: reshape the ``2^t`` tail into one axis per run of mask
  bits, fix the owner-bit axes at 0, and multiply that view in place.
  Only the ``2^t / 2^popcount(owners)`` uncovered entries are touched.

Total work is ``O(d · 2^n)`` flops in NumPy ufuncs and ``O(2^n)`` floats
of memory.

Rows of one structure
---------------------
The masks above depend only on the component's *structure*: the
per-object key-id tuples of its :class:`~repro.core.exact.Component`
form.
Only the factor values differ between components of one structure, and
an all-objects pass meets the same structures again and again (its
targets see the same competitor blocks).  :func:`det_shared_vec_rows`
therefore evaluates many components of one structure — *rows* — in one
set of NumPy calls over a 2-D ``(rows, 2^n)`` array: each level is one
multiply by each row's ``-scalar`` plus one multiply per shared key.
Every row sees exactly the float operations, in the order, that a lone
evaluation of it would, and is summed as its own contiguous 1-D slice,
so each result is bit-identical to the one-row call
(:func:`det_shared_vec` is that one-row case).  Rows run in slices of
at most :data:`SLICE_FLOATS` floats.

Contracts mirrored from the recursive kernels
---------------------------------------------
* ``terms_evaluated`` reproduces the reference kernel's zero-pruning
  count exactly: the walk skips every strict superset of a subset whose
  partial product is 0, so a mask is "visited" iff all of its prefix
  masks (in object order) have nonzero products.  Zero products only
  arise through underflow (zero factors are filtered upstream), so the
  count is replayed only for rows that hold an exact zero; every other
  row counts ``2^n - 1`` analytically.  Pruned terms contribute exactly
  ``±0.0`` to the sum, so the probability needs no correction.
* ``deadline_at`` is honoured between doubling levels.  The granularity
  is one level (at most half the total work) rather than the recursive
  kernels' 1024-term interval — coarse, but each level takes only
  milliseconds at feasible ``n``.
* ``max_terms`` is *not* supported here: truncating mid-level has no
  analogue in the per-term accounting contract, so the dispatcher in
  :mod:`repro.core.exact` routes a set ``max_terms`` to the reference
  traversal instead.
* The dominator count is capped at ``VEC_MAX_OBJECTS`` (defined beside
  the dispatcher, which routes ``"auto"`` by it): the dense array holds
  ``2^n`` float64s, so beyond the cap the kernel refuses rather than
  thrash.

Numerics: identical inputs always produce bit-identical results (the
evaluation order is fixed), and the probability matches the recursive
kernels within 1e-12 — relative, or absolute when inclusion-exclusion
cancellation leaves ``sky`` much smaller than the summed terms, where
relative error is amplified for every summation order; see
``tests/test_numerics_vec.py`` for the pinned equality classes.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.dominance import DominanceFactor
from repro.core.exact import (
    VEC_MAX_OBJECTS,
    ExactResult,
    Structure,
    _check_deadline,
    _clamp_probability,
    _structure,
)
from repro.errors import ComputationBudgetError

__all__ = ["VEC_MAX_OBJECTS", "det_shared_vec", "det_shared_vec_rows"]

#: Most floats one slice of rows holds (2 MiB): enough rows to share the
#: per-call cost, few enough to stay cache-resident.  A component larger
#: than a slice runs alone.
SLICE_FLOATS = 1 << 18


def det_shared_vec(
    factor_lists: List[Sequence[DominanceFactor]],
    deadline_at: float | None = None,
) -> ExactResult:
    """Evaluate Equation 4 by subset doubling over dense NumPy arrays.

    Semantically a drop-in for ``_det_shared_reference(factor_lists,
    None, deadline_at)``: same ``terms_evaluated`` / ``objects_used``
    provenance, probability equal within 1e-12 (relative or absolute).
    The one-row case of :func:`det_shared_vec_rows`.
    """
    structure, row = _structure(factor_lists)
    return det_shared_vec_rows(structure, [row], deadline_at)[0]


def det_shared_vec_rows(
    structure: Structure,
    rows: Sequence[Sequence[float]],
    deadline_at: float | None = None,
) -> List[ExactResult]:
    """Evaluate every component of one key structure, one result per row.

    ``structure[t]`` holds object ``t``'s key ids and a row holds a
    component's factors in the same order, object after object: the
    :class:`~repro.core.exact.Component` form.  Each result is
    bit-identical to evaluating its row alone.
    """
    n = len(structure)
    _check_size(n)
    if n == 0:
        return [ExactResult(1.0, 0, 0)] * len(rows)
    plan = _Plan(structure)
    total = 1 << n
    per_slice = max(1, SLICE_FLOATS >> n)
    buffer = np.empty((min(per_slice, len(rows)), total), dtype=np.float64)
    results: List[ExactResult] = []
    for first in range(0, len(rows), per_slice):
        chunk = rows[first : first + per_slice]
        signed = buffer[: len(chunk)]
        _fill(signed, plan, _multipliers(plan, chunk), deadline_at)
        complete = signed.all(axis=1)
        for position in range(len(chunk)):
            row = signed[position]
            probability = _clamp_probability(float(row.sum()))
            if complete[position]:
                terms = total - 1
            else:
                terms = _visited_terms(row, n)
            results.append(ExactResult(probability, terms, n))
    return results


def _check_size(n: int) -> None:
    if n > VEC_MAX_OBJECTS:
        raise ComputationBudgetError(
            f"the vec kernel materialises 2^{n} float64 subset products, "
            f"beyond its {VEC_MAX_OBJECTS}-object ceiling; preprocess "
            f"(absorption/partition), sample, or use the O(n)-memory "
            f"reference/fast kernels"
        )


class _Plan:
    """What every row of one structure shares: factor routing and views.

    Factors of a row are numbered in object order.  ``new[t]`` lists
    the factors of level ``t`` whose key no earlier object holds: their
    product, in object order, is the level's scalar.  ``shared[t]``
    lists, per key of level ``t`` that earlier objects hold, the view
    of the masks it multiplies (:func:`_uncovered_view`); ``factors``
    numbers those keys' factors in the order the levels apply them.
    """

    __slots__ = ("new", "shared", "factors")

    def __init__(self, structure: Structure) -> None:
        owners_of: dict = {}
        for position, ids in enumerate(structure):
            bit = 1 << position
            for identifier in ids:
                owners_of[identifier] = owners_of.get(identifier, 0) | bit
        self.new: List[List[int]] = []
        self.shared: List[list] = []
        self.factors: List[int] = []
        number = 0
        for level, ids in enumerate(structure):
            earlier = (1 << level) - 1
            new = []
            shared = []
            for identifier in ids:
                owners = owners_of[identifier] & earlier
                if owners:
                    shared.append(_uncovered_view(level, owners))
                    self.factors.append(number)
                else:
                    new.append(number)
                number += 1
            self.new.append(new)
            self.shared.append(shared)


# A view depends on (level, owners) alone; caching it spares one-row
# calls, which build a fresh plan each time, from re-deriving it.
@functools.lru_cache(maxsize=4096)
def _uncovered_view(level: int, owners: int) -> Tuple[tuple, tuple, tuple]:
    """How to view the masks of a level's tail that miss every owner bit.

    The tail of level ``t`` holds masks ``0 .. 2^t - 1`` (bit ``t`` is
    implied), one row per axis-0 entry.  Reshaped in C order, the last
    axis carries the lowest bits; each run of owner bits becomes an
    axis fixed at index 0, each run of other bits an axis kept whole.
    Returns ``(shape, index, factor_shape)``: ``tail.reshape(shape)
    [index]`` is the view, and a per-row factor reshaped to
    ``factor_shape`` broadcasts over it.
    """
    shape = [-1]
    index: list = [slice(None)]
    bits = format(owners, f"0{level}b")
    start = 0
    while start < level:
        end = start
        while end < level and bits[end] == bits[start]:
            end += 1
        shape.append(1 << (end - start))
        index.append(0 if bits[start] == "1" else slice(None))
        start = end
    kept = sum(1 for item in index[1:] if not isinstance(item, int))
    return tuple(shape), tuple(index), (-1,) + (1,) * kept


def _multipliers(plan: _Plan, rows: Sequence[Sequence[float]]) -> Tuple[list, list]:
    """Per level ``-scalar`` and per shared key the factor, for ``rows``.

    One row gets plain floats (its one-row call runs 1.4-1.7x faster at
    8-13 dominators than through one-row arrays); several get arrays
    shaped to broadcast one value per row over their views.  Either way
    each row's scalar is its level's always-new factors multiplied in
    object order, as a lone evaluation forms it.
    """
    if len(rows) == 1:
        (row,) = rows
        scalars = []
        for new in plan.new:
            scalar = 1.0
            for number in new:
                scalar *= row[number]
            scalars.append(-scalar)
        return scalars, [row[number] for number in plan.factors]
    matrix = np.array(rows, dtype=np.float64)
    scalars = []
    for new in plan.new:
        if new:
            scalar = matrix[:, new[0]].copy()
            for number in new[1:]:
                scalar *= matrix[:, number]
            np.negative(scalar, out=scalar)
        else:
            scalar = np.full(len(rows), -1.0)
        scalars.append(scalar[:, None])
    views = (view for shared in plan.shared for view in shared)
    factors = [
        matrix[:, number].reshape(factor_shape)
        for (_, _, factor_shape), number in zip(views, plan.factors)
    ]
    return scalars, factors


def _fill(
    signed: np.ndarray,
    plan: _Plan,
    multipliers: Tuple[list, list],
    deadline_at: float | None,
) -> None:
    """Subset doubling over every row of ``signed`` at once."""
    scalars, factors = multipliers
    signed[:, 0] = 1.0
    size = 1
    applied = 0
    for level, shared in enumerate(plan.shared):
        _check_deadline(deadline_at, size - 1)
        tail = signed[:, size : 2 * size]
        # Sign flip and the unconditionally-new factors in one pass.
        np.multiply(signed[:, :size], scalars[level], out=tail)
        for shape, index, _ in shared:
            view = tail.reshape(shape)[index]
            np.multiply(view, factors[applied], out=view)
            applied += 1
        size *= 2


def _visited_terms(row: np.ndarray, n: int) -> int:
    """Zero-pruning replay: the reference walk's visited non-empty subsets.

    A mask is walked iff its parent (the mask without its top bit) was
    walked with a nonzero partial product; the reference kernel counts
    a zero term itself and prunes the subtree below it.
    """
    visited = np.empty(1 << n, dtype=bool)
    visited[0] = True
    size = 1
    for _ in range(n):
        np.logical_and(visited[:size], row[:size] != 0.0, out=visited[size : 2 * size])
        size *= 2
    return int(np.count_nonzero(visited)) - 1
