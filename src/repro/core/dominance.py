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
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

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
    and the next access drops exactly the entries that read a pair the
    model's edit log names since (:meth:`PreferenceModel._edits_since`),
    or every entry when the log no longer reaches back, so stale answers
    are impossible by construction.

    Preferences are memoised in rows, ``{dimension: {b: {a: Pr(a ≺ b)}}}``,
    as the model stores them: the tile pass's bulk read
    (:meth:`_resolve_many`) answers all pairs of one ``(dimension, b)``
    from one memo row, filling its misses from the model's row.

    ``hits``/``misses`` count memo-table lookups (both tables) — they are
    bookkeeping for benchmarks and tests, not part of the answer.  A
    factor miss counts one lookup of the factor table plus one per
    preference it reads; the bulk read makes no factor-table lookups and
    counts one per preference its factor rows read — a miss when the
    model had to answer, a hit otherwise.

    The cache is **thread-safe**: every lookup and mutation runs under one
    internal lock, taken once per call, so concurrent queries sharing one
    warm engine — the serving tier's coalesced batches, queries from
    caller threads — can neither corrupt the memo dicts nor lose counter
    increments: ``hits + misses`` always equals the number of lookups
    made.  The lock guards per-call critical sections only; the *answers*
    never depended on it (cached values are pure functions of the model).
    """

    __slots__ = (
        "_preferences",
        "_version",
        "_prefers",
        "_cells",
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
        # _prefers[dimension][b][a] == Pr(a ≺ b); _cells counts them.
        self._prefers: Dict[int, Dict[Value, Dict[Value, float]]] = {}
        self._cells = 0
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
        return self._cells + len(self._factors)

    @property
    def evictions(self) -> int:
        """Entries dropped because a logged model edit touched their pair."""
        return self._evictions

    def counters(self) -> Dict[str, int]:
        """Bookkeeping snapshot: ``{"hits", "misses", "entries", "evictions"}``.

        These are the numbers :class:`repro.obs.QueryStats` cache deltas
        are measured against; the stats CLI and the observability tests
        read them through this one accessor.  It catches up with the
        model first, so the snapshot counts the evictions of every edit.
        """
        with self._lock:
            self._validate()
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
            self._cells = 0
            self._factors.clear()
            self._index = None

    def _validate(self) -> None:
        """Catch up with the model's edits since the version last seen."""
        version = self._preferences.version
        if version == self._version:
            return
        edits = self._preferences._edits_since(self._version)
        if edits is None:
            self._prefers.clear()
            self._cells = 0
            self._factors.clear()
            self._index = None
        else:
            for dimension, a, b in edits:
                self._evictions += self._evict(dimension, a, b)
        self._version = version

    def _evict(self, dimension: int, a: Value, b: Value) -> int:
        """Drop every entry that read the ``{a, b}`` pair; return how many.

        The first eviction indexes the factor table by target, and every
        later miss files its entry there, so an eviction reads only the
        competitors memoised against targets holding ``a`` or ``b``.
        """
        removed = self._evict_cells(dimension, a, b)
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
        return removed

    def _evict_cells(self, dimension: int, a: Value, b: Value) -> int:
        """Drop the memoised preferences of the ``{a, b}`` pair; return how many."""
        rows = self._prefers.get(dimension)
        if rows is None:
            return 0
        removed = 0
        for better, worse in ((a, b), (b, a)):
            row = rows.get(worse)
            if row is not None and row.pop(better, None) is not None:
                removed += 1
        self._cells -= removed
        return removed

    def _preference_cells(self) -> Iterator[Tuple[Tuple[int, Value, Value], float]]:
        """Every memoised preference as ``((dimension, a, b), Pr(a ≺ b))``."""
        for dimension, rows in self._prefers.items():
            for b, row in rows.items():
                for a, probability in row.items():
                    yield (dimension, a, b), probability

    def _memo_row(self, dimension: int, b: Value) -> Dict[Value, float]:
        """The memo row ``{a: Pr(a ≺ b)}`` of ``(dimension, b)``, made if new."""
        rows = self._prefers.get(dimension)
        if rows is None:
            rows = self._prefers[dimension] = {}
        row = rows.get(b)
        if row is None:
            row = rows[b] = {}
        return row

    def _model_rows(self) -> Callable[[int, Value], Mapping | None] | None:
        """The model's row accessor; ``None`` for a model that answers
        through its own ``prob_prefers`` (procedural subclasses, one set
        on the instance, duck-typed wrappers)."""
        model = self._preferences
        base = getattr(type(model), "prob_prefers", None) is PreferenceModel.prob_prefers
        if not base or "prob_prefers" in getattr(model, "__dict__", ()):
            return None
        return model._row

    def prob_prefers(self, dimension: int, a: Value, b: Value) -> float:
        """Memoised ``PreferenceModel.prob_prefers``."""
        with self._lock:
            self._validate()
            try:
                value = self._prefers[dimension][b][a]
            except KeyError:
                self._misses += 1
                value = self._preferences.prob_prefers(dimension, a, b)
                self._memo_row(dimension, b)[a] = value
                self._cells += 1
                return value
            self._hits += 1
            return value

    def _resolve_many(
        self,
        groups: Sequence[Tuple[int, Value, Sequence[Value]]],
        reads: Sequence[int],
        order: Callable[[], Sequence[int]] | None = None,
    ) -> Tuple[List[float], Dict[int, Exception]]:
        """Many memoised ``prob_prefers`` lookups under one lock.

        The tile pass's bulk read (:mod:`repro.core.preprocess`): a group
        ``(dimension, b, competitors)`` asks ``Pr(a ≺ b)`` for each ``a``
        of ``competitors``.  Its pairs, numbered flat group after group,
        are distinct, and ``reads[k]`` counts the factors that read pair
        ``k``.  A group reads one memo row, and its misses from the
        model's row in bulk.  A pair that row lacks (unset: the default
        applies, or the read raises), and every pair of a model that
        answers through its own ``prob_prefers`` (:meth:`_model_rows`),
        is read by a model ``prob_prefers`` call, all such calls in
        ascending ``order()`` (a sort key per pair; pair order without
        it).  Each pair counts as a factor miss counts it: one miss when
        the model answered it, hits for the rest of its reads.  Returns
        the probabilities and, by position, the exception of each model
        call that raised (its probability is NaN); such a call counts
        one miss and stores nothing.
        """
        with self._lock:
            if self._preferences.version != self._version:
                self._validate()
            model_rows = self._model_rows()
            resolved: List[float] = []
            # (position, dimension, a, b, memo row) of each model call.
            calls: List[Tuple[int, int, Value, Value, Dict[Value, float]]] = []
            misses = 0
            for dimension, b, competitors in groups:
                row = self._memo_row(dimension, b)
                found = list(map(row.get, competitors)) if row else [None] * len(competitors)
                if None not in found:
                    resolved += found
                    continue
                source = None if model_rows is None else model_rows(dimension, b)
                if source is not None:
                    # The memo's cell where it has one, else the model's.
                    found = list(
                        map(row.get, competitors, map(source.get, competitors))
                        if row
                        else map(source.get, competitors)
                    )
                stored, pending = len(row), len(calls)
                if None in found:
                    position = len(resolved)
                    for k, (a, probability) in enumerate(zip(competitors, found)):
                        if probability is None:
                            calls.append((position + k, dimension, a, b, row))
                        else:
                            row[a] = probability
                else:
                    row.update(zip(competitors, found))
                stored = len(row) - stored
                self._cells += stored
                misses += stored + len(calls) - pending
                resolved += found
            hits = sum(reads) - misses
            errors: Dict[int, Exception] = {}
            if len(calls) > 1 and order is not None:
                key = order()
                calls.sort(key=lambda call: key[call[0]])
            for position, dimension, a, b, row in calls:
                try:
                    probability = self._preferences.prob_prefers(dimension, a, b)
                except Exception as error:
                    errors[position] = error
                    resolved[position] = float("nan")
                    hits -= reads[position] - 1
                    continue
                row[a] = resolved[position] = probability
                self._cells += 1
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
                try:
                    probability = prefers[j][ov][qv]
                except KeyError:
                    probability = None
                if probability is None:
                    self._misses += 1
                    probability = self._preferences.prob_prefers(j, qv, ov)
                    self._memo_row(j, ov)[qv] = probability
                    self._cells += 1
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
