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
* a key shared with earlier objects contributes a masked multiply,
  ``tail *= factor`` where ``(m & owners) == 0`` — one vectorized
  compare plus one ``where=``-masked multiply per shared key per level.

Total work is ``O(d · 2^n)`` flops in NumPy ufuncs and ``O(2^n)`` floats
of memory; the mask index array is materialised lazily (instances whose
keys are pairwise disjoint never allocate it).

Contracts mirrored from the recursive kernels
---------------------------------------------
* ``terms_evaluated`` reproduces the reference kernel's zero-pruning
  count exactly: the walk skips every strict superset of a subset whose
  partial product is 0, so a mask is "visited" iff all of its prefix
  masks (in object order) have nonzero products.  Zero products only
  arise through underflow (zero factors are filtered upstream), so the
  bookkeeping array is allocated lazily on the first exact zero; the
  common case counts ``2^n - 1`` analytically.  Pruned terms contribute
  exactly ``±0.0`` to the sum, so the probability needs no correction.
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

from typing import List, Sequence

import numpy as np

from repro.core.dominance import DominanceFactor
from repro.core.exact import (
    VEC_MAX_OBJECTS,
    ExactResult,
    _check_deadline,
    _clamp_probability,
    _index_factors,
)
from repro.errors import ComputationBudgetError

__all__ = ["VEC_MAX_OBJECTS", "det_shared_vec"]


def det_shared_vec(
    factor_lists: List[Sequence[DominanceFactor]],
    deadline_at: float | None = None,
) -> ExactResult:
    """Evaluate Equation 4 by subset doubling over dense NumPy arrays.

    Semantically a drop-in for ``_det_shared_reference(factor_lists,
    None, deadline_at)``: same ``terms_evaluated`` / ``objects_used``
    provenance, probability equal within 1e-12 (relative or absolute).
    """
    n = len(factor_lists)
    if n == 0:
        return ExactResult(1.0, 0, 0)
    if n > VEC_MAX_OBJECTS:
        raise ComputationBudgetError(
            f"the vec kernel materialises 2^{n} float64 subset products, "
            f"beyond its {VEC_MAX_OBJECTS}-object ceiling; preprocess "
            f"(absorption/partition), sample, or use the O(n)-memory "
            f"reference/fast kernels"
        )
    object_factors, key_count = _index_factors(factor_lists)
    # Bitmask of the objects holding each key: lets each level split its
    # factors into always-new (scalar) vs shared-with-earlier (masked).
    key_owners = [0] * key_count
    for position, (ids, _) in enumerate(object_factors):
        bit = 1 << position
        for identifier in ids:
            key_owners[identifier] |= bit

    total_subsets = 1 << n
    signed = np.empty(total_subsets, dtype=np.float64)
    signed[0] = 1.0
    # Subset bitmasks 0 .. 2^(n-1)-1, allocated on the first shared key.
    prefix_masks = None
    # Zero-pruning bookkeeping, allocated on the first exact-zero product
    # (underflow); while absent every non-empty subset counts as visited.
    visited = None

    size = 1
    for ids, probs in object_factors:
        _check_deadline(deadline_at, size - 1)
        earlier = size - 1  # bitmask over the objects already doubled in
        scalar = 1.0
        shared = []
        for identifier, factor in zip(ids, probs):
            owners = key_owners[identifier] & earlier
            if owners:
                shared.append((factor, owners))
            else:
                scalar *= factor
        head = signed[:size]
        tail = signed[size : 2 * size]
        # Sign flip and the unconditionally-new factors in one pass.
        np.multiply(head, -scalar, out=tail)
        if shared:
            if prefix_masks is None:
                dtype = np.uint32 if n <= 32 else np.uint64
                prefix_masks = np.arange(total_subsets >> 1, dtype=dtype)
            prefix = prefix_masks[:size]
            for factor, owners in shared:
                uncovered = (prefix & prefix.dtype.type(owners)) == 0
                np.multiply(tail, factor, out=tail, where=uncovered)
        if visited is not None:
            # A mask is walked iff its parent was walked with a nonzero
            # partial product (the reference kernel prunes the subtree
            # below a zero, after counting the zero term itself).
            visited[size : 2 * size] = visited[:size] & (head != 0.0)
        elif not tail.all():
            visited = np.zeros(total_subsets, dtype=bool)
            visited[: 2 * size] = True
        size *= 2

    probability = _clamp_probability(float(signed.sum()))
    if visited is None:
        terms = total_subsets - 1
    else:
        terms = int(np.count_nonzero(visited)) - 1  # minus the empty set
    return ExactResult(probability, terms, n)
