"""Dominance probabilities (Equations 1, 2 and 6 of the paper).

Object ``Q`` dominates ``O`` iff ``Q`` is weakly preferred on every
dimension and strictly preferred on at least one.  With no duplicate
objects, at least one dimension carries distinct values and "weak" equals
"strict" there, so the event probability factorises over dimensions
(Equation 2):

    Pr(Q ≺ O) = ∏_j Pr(Q.j ⪯ O.j)

The *joint* probability of several dominance events does **not** factorise
over objects — that is the paper's central point — but it does factorise
over distinct ``(dimension, value)`` preference variables (Equation 6):

    Pr(E_I) = ∏_j ∏_{v ∈ V_I^j} Pr(v ⪯ O.j)

where ``V_I^j`` is the set of distinct values the objects of ``I`` take on
dimension ``j``.  Both forms are implemented here, together with the
per-object factor lists the exact algorithm and the samplers consume.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.objects import ObjectValues, Value
from repro.core.preferences import PreferenceModel
from repro.errors import DimensionalityError, PreferenceError

__all__ = [
    "differing_dimensions",
    "dominance_factors",
    "dominance_probability",
    "joint_dominance_probability",
    "dominates_under",
    "DominanceFactor",
    "DominanceCache",
    "factor_source",
]

# One multiplicative factor of a dominance event: the probability that
# `value` is preferred to O's value on `dimension`.
DominanceFactor = Tuple[int, Value, float]

# A resolved world: answers "is `a` strictly preferred to `b` on `dim`?".
PrefersOracle = Callable[[int, Value, Value], bool]


def _check_same_dimensionality(q: Sequence[Value], o: Sequence[Value]) -> None:
    if len(q) != len(o):
        raise DimensionalityError(
            f"objects have different dimensionalities ({len(q)} vs {len(o)})"
        )


def differing_dimensions(q: Sequence[Value], o: Sequence[Value]) -> Tuple[int, ...]:
    """Dimensions on which ``q`` and ``o`` hold distinct values."""
    _check_same_dimensionality(q, o)
    return tuple(j for j, (qv, ov) in enumerate(zip(q, o)) if qv != ov)


def dominance_factors(
    preferences: PreferenceModel,
    q: Sequence[Value],
    o: Sequence[Value],
) -> List[DominanceFactor]:
    """Per-dimension factors of ``Pr(q ≺ o)`` where the values differ.

    Dimensions with equal values contribute a factor of 1 and are omitted;
    an empty list therefore means ``q`` equals ``o`` everywhere (a
    duplicate, which dominates with the convention probability 1 — the
    data model normally forbids this case).
    """
    _check_same_dimensionality(q, o)
    return [
        (j, q[j], preferences.prob_prefers(j, q[j], o[j]))
        for j in differing_dimensions(q, o)
    ]


def dominance_probability(
    preferences: PreferenceModel,
    q: Sequence[Value],
    o: Sequence[Value],
) -> float:
    """``Pr(q ≺ o)`` under Equation 2.

    Short-circuits on the first zero factor, so remaining dimensions'
    preferences are never looked up (they may legitimately be undefined).
    """
    _check_same_dimensionality(q, o)
    probability = 1.0
    for j, (qv, ov) in enumerate(zip(q, o)):
        if qv == ov:
            continue
        factor = preferences.prob_prefers(j, qv, ov)
        if factor == 0.0:
            return 0.0
        probability *= factor
    return probability


def joint_dominance_probability(
    preferences: PreferenceModel,
    group: Iterable[Sequence[Value]],
    o: Sequence[Value],
) -> float:
    """``Pr(E_I)`` — probability *all* objects in ``group`` dominate ``o``.

    Implements Equation 6: one factor per distinct ``(dimension, value)``
    pair, so objects sharing a value share the factor (this is exactly the
    dependence that breaks the independent-dominance assumption).
    """
    seen: Set[Tuple[int, Value]] = set()
    probability = 1.0
    for q in group:
        for j, value, factor in dominance_factors(preferences, q, o):
            key = (j, value)
            if key in seen:
                continue
            seen.add(key)
            if factor == 0.0:
                return 0.0
            probability *= factor
    return probability


class DominanceCache:
    """Memoised preference lookups and dominance factors across queries.

    Answering ``sky`` for *every* object of a dataset re-resolves the same
    ``(dimension, a, b)`` preferences and the same per-pair factor lists
    O(n²·d) times; this cache amortises them across queries.  It is safe to
    share between :func:`~repro.core.exact.skyline_probability_det`,
    :func:`~repro.core.sampling.skyline_probability_sampled`,
    :func:`~repro.core.preprocess.preprocess` and the engine because the
    cached values are pure functions of the preference model.

    Staleness is detected through :attr:`PreferenceModel.version`: any
    in-place preference edit (a what-if analysis, say) bumps the counter
    and the next cache access drops every memoised entry, so stale answers
    are impossible by construction.

    ``hits``/``misses`` count memo-table lookups (both tables) — they are
    bookkeeping for benchmarks and tests, not part of the answer.  A
    factor miss counts one lookup of the factor table plus one per
    preference it reads; the tile pass's bulk read
    (:meth:`_resolve_many`) makes no factor-table lookups and counts one
    per preference its factor rows read — a miss when the model had to
    answer, a hit otherwise.

    The cache is **thread-safe**: every lookup and mutation runs under one
    internal lock, taken once per call, so concurrent queries sharing one
    warm engine — the serving tier's coalesced batches, threaded batch
    fallbacks — can neither corrupt the memo dicts nor lose counter
    increments: ``hits + misses`` always equals the number of lookups
    made.  The lock guards per-call critical sections only; the *answers*
    never depended on it (cached values are pure functions of the model).
    """

    __slots__ = (
        "_preferences",
        "_version",
        "_prefers",
        "_factors",
        "_hits",
        "_misses",
        "_evictions",
        "_index",
        "_lock",
    )

    def __init__(self, preferences: PreferenceModel) -> None:
        self._preferences = preferences
        self._version = preferences.version
        self._prefers: Dict[Tuple[int, Value, Value], float] = {}
        self._factors: Dict[
            Tuple[Tuple[Value, ...], Tuple[Value, ...]], Tuple[DominanceFactor, ...]
        ] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Built by the first eviction: target values -> the competitor
        # values whose factors are memoised against that target.
        self._index: Dict[Tuple[Value, ...], Set[Tuple[Value, ...]]] | None = None
        self._lock = threading.Lock()

    @property
    def preferences(self) -> PreferenceModel:
        """The preference model whose lookups this cache memoises."""
        return self._preferences

    @property
    def hits(self) -> int:
        """Memo-table lookups answered without touching the model."""
        return self._hits

    @property
    def misses(self) -> int:
        """Memo-table lookups that had to compute and store an entry."""
        return self._misses

    @property
    def entries(self) -> int:
        """Currently memoised entries across both tables."""
        return len(self._prefers) + len(self._factors)

    @property
    def evictions(self) -> int:
        """Entries surgically removed by :meth:`evict_preference`."""
        return self._evictions

    def counters(self) -> Dict[str, int]:
        """Bookkeeping snapshot: ``{"hits", "misses", "entries", "evictions"}``.

        These are the numbers :class:`repro.obs.QueryStats` cache deltas
        are measured against; the stats CLI and the observability tests
        read them through this one accessor.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": self.entries,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        """Drop every memoised entry (counters are kept)."""
        with self._lock:
            self._prefers.clear()
            self._factors.clear()
            self._index = None

    def evict_preference(self, dimension: int, a: Value, b: Value) -> int:
        """Surgically drop every entry that read the ``{a, b}`` pair.

        The alternative to a full :meth:`clear` after an in-place edit of
        one preference pair: only the ``_prefers`` entries for the pair
        itself and the ``_factors`` entries whose target/competitor values
        on ``dimension`` are exactly ``{a, b}`` can be stale — every other
        entry is a pure function of *unchanged* pairs and stays warm.

        The cache is then re-validated against the model's current
        :attr:`~PreferenceModel.version`, so the automatic whole-cache
        invalidation does not fire on the next lookup.  **Contract**: the
        only model mutation since the cache was last consistent must be
        the edit of this one pair (that is what
        :class:`repro.core.dynamic.DynamicSkylineEngine` guarantees by
        evicting immediately after every single edit); interleaving other
        edits without their own evictions would retain stale entries.

        Returns the number of entries removed; ``hits``/``misses`` are
        kept (they count lifetime lookups) and :attr:`evictions` grows by
        the same number.

        The first eviction indexes the factor table by target, one pass
        over it; from then on every factor miss adds its entry to the
        index.  An eviction then reads only the competitors memoised
        against targets holding ``a`` or ``b`` on ``dimension``, not the
        whole table.  :meth:`clear` and a version change drop the index,
        so a cache that never evicts never pays for it.
        """
        with self._lock:
            removed = 0
            for key in ((dimension, a, b), (dimension, b, a)):
                if self._prefers.pop(key, None) is not None:
                    removed += 1
            if self._index is None:
                self._index = {}
                for q, o in self._factors:
                    self._index.setdefault(o, set()).add(q)
            for target, competitors in self._index.items():
                if dimension >= len(target):
                    continue
                if target[dimension] == a:
                    other = b
                elif target[dimension] == b:
                    other = a
                else:
                    continue
                stale = [q for q in competitors if q[dimension] == other]
                for q in stale:
                    del self._factors[(q, target)]
                competitors.difference_update(stale)
                removed += len(stale)
            self._version = self._preferences.version
            self._evictions += removed
            return removed

    def _validate(self) -> None:
        version = self._preferences.version
        if version != self._version:
            self._prefers.clear()
            self._factors.clear()
            self._index = None
            self._version = version

    def prob_prefers(self, dimension: int, a: Value, b: Value) -> float:
        """Memoised ``PreferenceModel.prob_prefers``."""
        with self._lock:
            self._validate()
            key = (dimension, a, b)
            try:
                value = self._prefers[key]
            except KeyError:
                self._misses += 1
                value = self._preferences.prob_prefers(dimension, a, b)
                self._prefers[key] = value
                return value
            self._hits += 1
            return value

    def _resolve_many(
        self,
        pairs: Sequence[Tuple[int, Value, Value]],
        reads: Sequence[int],
    ) -> Tuple[List[float], Dict[int, Exception]]:
        """Many memoised ``prob_prefers`` lookups under one lock.

        The tile pass's bulk read (:mod:`repro.core.preprocess`):
        ``pairs`` are distinct ``(dimension, a, b)`` keys and ``reads[k]``
        counts the factors that read ``pairs[k]``.  Each pair is resolved
        as a factor miss resolves it — version check, memo read, a model
        call on a miss — and its reads count as that many lookups: one
        miss when the model answered it, hits for the rest.  Returns the
        probabilities and, by position, the exception of each model call
        that raised (its probability is NaN); such a call counts one miss
        and stores nothing.
        """
        with self._lock:
            if self._preferences.version != self._version:
                self._validate()
            prefers = self._prefers
            resolved = list(map(prefers.get, pairs))
            errors: Dict[int, Exception] = {}
            hits = sum(reads)
            misses = 0
            # A warm tile finds every pair memoised: skip the scan then.
            missing = (
                [k for k, known in enumerate(resolved) if known is None]
                if None in resolved
                else []
            )
            for position in missing:
                pair = pairs[position]
                misses += 1
                hits -= 1
                try:
                    probability = self._preferences.prob_prefers(*pair)
                except Exception as error:
                    errors[position] = error
                    resolved[position] = float("nan")
                    hits -= reads[position] - 1
                    continue
                prefers[pair] = resolved[position] = probability
            self._hits += hits
            self._misses += misses
            return resolved, errors

    def dominance_factors(
        self, q: Sequence[Value], o: Sequence[Value]
    ) -> Tuple[DominanceFactor, ...]:
        """Memoised :func:`dominance_factors` (returns an immutable tuple).

        A miss resolves every factor under the one lock acquisition,
        reading the preference memo directly; each of those reads counts
        as a hit or a miss exactly as a :meth:`prob_prefers` call would.
        """
        key = (tuple(q), tuple(o))
        with self._lock:
            if self._preferences.version != self._version:
                self._validate()
            entry = self._factors.get(key)
            if entry is not None:
                self._hits += 1
                return entry
            self._misses += 1
            q, o = key
            _check_same_dimensionality(q, o)
            prefers = self._prefers
            factors = []
            for j, qv, ov in zip(range(len(o)), q, o):
                if qv == ov:
                    continue
                pair = (j, qv, ov)
                probability = prefers.get(pair)
                if probability is None:
                    self._misses += 1
                    probability = self._preferences.prob_prefers(j, qv, ov)
                    prefers[pair] = probability
                else:
                    self._hits += 1
                factors.append((j, qv, probability))
            entry = self._factors[key] = tuple(factors)
            if self._index is not None:
                self._index.setdefault(o, set()).add(q)
            return entry


def factor_source(
    preferences: PreferenceModel, cache: DominanceCache | None = None
) -> Callable[[Sequence[Value], Sequence[Value]], Sequence[DominanceFactor]]:
    """A ``(q, o) -> factors`` callable, cache-backed when a cache is given.

    Algorithms that accept an optional ``cache=`` route every factor-list
    computation through this helper so cached and uncached runs share one
    code path (and therefore one answer).  A cache built for a *different*
    model is rejected — silently mixing models would corrupt results.
    """
    if cache is None:
        return lambda q, o: dominance_factors(preferences, q, o)
    if cache.preferences is not preferences:
        raise PreferenceError(
            "DominanceCache was built for a different PreferenceModel; "
            "create the cache from the same model instance the query uses"
        )
    return cache.dominance_factors


def dominates_under(
    prefers: PrefersOracle,
    q: ObjectValues,
    o: ObjectValues,
) -> bool:
    """Whether ``q`` dominates ``o`` in a fully resolved world.

    ``prefers(dim, a, b)`` must answer the sampled outcome of the
    preference variable between distinct values ``a`` and ``b``.  Following
    the paper's definition, ``q ≺ o`` iff every differing dimension is
    strictly preferred and at least one dimension differs.
    """
    _check_same_dimensionality(q, o)
    strict = False
    for j, (qv, ov) in enumerate(zip(q, o)):
        if qv == ov:
            continue
        if not prefers(j, qv, ov):
            return False
        strict = True
    return strict
