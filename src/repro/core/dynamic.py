"""Incremental skyline-probability maintenance under edits.

The static :class:`~repro.core.engine.SkylineProbabilityEngine` binds a
frozen dataset to a preference model: any object insert/remove or
preference edit forces a full rebuild and a cold
:class:`~repro.core.dominance.DominanceCache`.  This module keeps an
*all-objects* probability view warm across edits instead, using the
paper's own structure as the unit of invalidation:

* **Theorem 4 (partition)** — ``sky(O)`` factorises over the value-disjoint
  components of the value-sharing graph.  Each per-target view stores one
  exact factor per component; an edit can only perturb the components
  whose ``(dimension, value)`` keys it touches, so every other factor is
  multiplied back unchanged.
* **Theorem 3 (absorption)** — absorption depends only on which values the
  objects carry, never on the preference probabilities, so a preference
  edit can never change the absorption structure; only the zero-probability
  filter (and hence component membership) can flip.  A refreshed target
  therefore keeps its components: each one that reads an edited pair gets
  a new factor row from its own members, and only a read pair that
  crosses 0 (or becomes unreadable) re-plans the target.

Edit cost model:

* A preference edit — ``update_preference(dim, a, b, p)``, or an edit
  made directly on the model, caught up before the next read — refreshes
  only targets whose own value on ``dim`` is ``a`` or ``b`` (all others
  read none of the changed variables), and within a refreshed target
  recomputes only components that read the changed pair.  The shared
  dominance cache drops only the entries that read it.
* ``insert_object(values)`` classifies the new object against each view:
  absorbed or impossible ⇒ the view is provably unchanged; otherwise only
  the components sharing a key with the new object are locally re-merged,
  re-absorbed and re-partitioned via the same union-find as the static
  pipeline.
* ``remove_object(target)`` is a no-op for every view in which the object
  was absorbed or impossible (its event was null or contained in a
  survivor's); otherwise the target is refreshed with component-level
  factor reuse.

The warm-up, an insert's new object, a remove and a preference edit's
zero crossings plan their targets through the static engine's planning
step (the tile pass once the targets' cells reach its crossover; a
remove plans one target at a time).  Every edit makes one exact call,
so ``"vec"`` components of one key structure are solved together; only
the components that must be re-solved go to that call.

Every edit is **transactional**: new view state is staged and swapped in
only after the whole edit succeeds, and a failed ``update_preference``
restores the pair — a mid-edit crash (see the chaos suite)
leaves the engine exactly as it was.  The maintained view is Det-exact
(``det+`` semantics): answers are bit-for-bit identical to a fresh
engine rebuilt from the same state, which is what the stateful
differential harness in ``tests/test_dynamic_differential.py`` asserts.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

import repro.obs as obs
from repro.core.dominance import DominanceCache
from repro.core.exact import (
    DEFAULT_MAX_OBJECTS,
    DET_KERNELS,
    Component,
    ExactResult,
    _component,
)
from repro.core.engine import (
    SkylineProbabilityEngine,
    SkylineReport,
    _check_count,
    _resolve_index,
    _resolve_pool,
)
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.options import QueryOptions, _check_det_kernel
from repro.core.preferences import PreferenceModel, _check_probability
from repro.core.preprocess import _differing_keys, partition
from repro.core.restricted import normalize_restriction
from repro.errors import DatasetError, DimensionalityError, DuplicateObjectError, ReproError

__all__ = [
    "DynamicSkylineEngine",
    "EditReport",
    "PartitionFactor",
    "TargetView",
    "VIEW_SNAPSHOT_FORMAT",
]

_Key = Tuple[int, Value]


@dataclass(frozen=True)
class _RestrictedEntry:
    """One memoised restricted answer with its invalidation scope.

    ``read_keys`` is the union of the restriction's sliced differing
    ``(dimension, value)`` keys — exactly the preference variables the
    answer read, so a preference edit invalidates the entry iff it
    touches one of them against the entry's target.  ``full_pool``
    marks entries whose competitor pool is the whole dataset (an insert
    grows that pool, so they cannot survive one).
    """

    report: SkylineReport
    target: ObjectValues
    read_keys: FrozenSet[_Key]
    full_pool: bool

#: Warm-view snapshot layout version (see
#: :meth:`DynamicSkylineEngine.save_view`); bumped on layout changes so a
#: stale snapshot fails loudly instead of deserialising garbage.
VIEW_SNAPSHOT_FORMAT = 1


@dataclass(frozen=True)
class PartitionFactor:
    """One cached Theorem-4 component of a target's skyline probability.

    ``members`` are the component's competitors in dataset order (the
    first member is the component's canonical anchor), ``keys`` the union
    of their differing ``(dimension, value)`` pairs against the target —
    exactly the preference variables the factor's exact result read.  A
    factor is reusable after an edit iff its membership is unchanged and
    none of its keys were touched.
    """

    members: Tuple[ObjectValues, ...]
    keys: FrozenSet[_Key]
    result: ExactResult

    @property
    def probability(self) -> float:
        """The component's exact skyline-probability factor."""
        return self.result.probability


@dataclass(frozen=True)
class TargetView:
    """The maintained exact answer for one target object.

    ``probability`` is the product of the ``factors`` in canonical
    (dataset) order — bit-identical to what a fresh ``det+`` query
    computes.  ``member_union`` is the set of competitors appearing in any
    component; a competitor outside it was absorbed or impossible, so its
    removal provably cannot change this view.
    """

    target: ObjectValues
    factors: Tuple[PartitionFactor, ...]
    probability: float
    member_union: FrozenSet[ObjectValues]


class _Pending(NamedTuple):
    """A component of a staged view, waiting for its edit's exact call.

    ``position`` is the component's place in that call.
    """

    members: Tuple[ObjectValues, ...]
    position: int


#: A view being built: its target and, in canonical order, each
#: component's reused factor or pending solve.
_Staged = Tuple[ObjectValues, List["PartitionFactor | _Pending"]]


@dataclass(frozen=True)
class EditReport:
    """Provenance of one edit: what the invalidation actually touched.

    ``targets_refreshed``/``targets_skipped`` partition the (other)
    objects of the dataset; ``partitions_recomputed`` counts exact
    component solves, ``partitions_reused`` cached factors multiplied
    back, and ``cache_evictions`` the :class:`DominanceCache` entries
    that read the edited pair (preference edits only).
    ``restricted_evictions`` counts memoised restricted answers dropped
    because the edit touched their ``(dimension, value)`` keys or
    competitor pool (see :meth:`DynamicSkylineEngine.restricted_skyline_probability`).
    """

    operation: str
    targets_refreshed: int
    targets_skipped: int
    partitions_recomputed: int
    partitions_reused: int
    cache_evictions: int
    restricted_evictions: int = 0


class DynamicSkylineEngine:
    """Skyline probabilities maintained incrementally across edits.

    Wraps a :class:`SkylineProbabilityEngine` (exposed as :attr:`engine`
    for ad-hoc queries and the batch planner) and keeps an exact
    all-objects view warm: :meth:`skyline_probabilities` is a read of
    cached state, and :meth:`insert_object` / :meth:`remove_object` /
    :meth:`update_preference` repair only the Theorem-4 components the
    edit touches.

    Parameters
    ----------
    dataset, preferences:
        Initial state; the model is edited *in place* by
        :meth:`update_preference`, and edits made on it directly are
        caught up before the next read or edit.
    max_exact_objects:
        Per-component budget for the exact solver.  The view is
        Det-exact: a component larger than the budget raises
        :class:`~repro.errors.ComputationBudgetError` (the offending edit
        is rolled back).
    fault_injector:
        Optional :class:`~repro.robustness.FaultInjector` consulted
        before each per-target refresh (``before_task(step, 1)`` with
        ``step`` counting refreshes within the edit) — the chaos suite's
        hook for proving edits never leave a torn view.
    det_kernel:
        Algorithm 1 kernel used for every component solve — both the
        initial view build and all warm recomputes, so a view is always
        bit-identical to a fresh rebuild under the same kernel.  One of
        :data:`~repro.core.exact.DET_KERNELS`.  The default ``"auto"``
        routes each component by its dominator count (``"fast"`` below
        8, ``"vec"`` from 8 to 26), a pure function of the component,
        so the warm-vs-rebuild identity holds for it too; ``"vec"``
        trades the recursive kernels' bit-for-bit reproducibility
        against ``"reference"`` for roughly an order of magnitude on
        large components (answers agree within 1e-12).  Snapshots from
        :meth:`save_view` record the kernel, and :meth:`load_view`
        restores it: a snapshot written while ``"fast"`` was the
        default names ``"fast"`` and keeps that kernel.

    The engine is not thread-safe: a read first catches the views up
    with the model, repairing (and possibly raising) as an edit does, so
    callers that mix concurrent queries and edits must serialise them —
    the serving tier (:mod:`repro.serve`) funnels every engine operation
    through one executor thread.  The shared :attr:`cache` itself is
    thread-safe (see :class:`~repro.core.dominance.DominanceCache`).
    """

    def __init__(
        self,
        dataset: Dataset,
        preferences: PreferenceModel,
        *,
        max_exact_objects: int = DEFAULT_MAX_OBJECTS,
        fault_injector: object = None,
        det_kernel: str = QueryOptions.det_kernel,
    ) -> None:
        _check_det_kernel(det_kernel)
        self._engine = SkylineProbabilityEngine(
            dataset, preferences, max_exact_objects=max_exact_objects
        )
        self._preferences = preferences
        self._max_exact_objects = max_exact_objects
        self._fault_injector = fault_injector
        self._det_kernel = det_kernel
        self._cache = DominanceCache(preferences)
        self._objects: List[ObjectValues] = list(dataset)
        self._labels: List[str] = list(dataset.labels)
        self._label_counter = len(self._objects)
        self._edits = 0
        self._restricted_memo: Dict[object, _RestrictedEntry] = {}
        self._restricted_hits = 0
        self._restricted_misses = 0
        self._version = -1  # the model version the views and memo hold: none yet
        self._sync()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The current dataset (rebuilt on every object edit)."""
        return self._engine.dataset

    @property
    def preferences(self) -> PreferenceModel:
        """The (in-place edited) preference model."""
        return self._preferences

    @property
    def engine(self) -> SkylineProbabilityEngine:
        """The inner static engine over the current state.

        This is what the batch planner consumes
        (:func:`~repro.core.batch.batch_skyline_probabilities` unwraps a
        dynamic engine through this property automatically).
        """
        return self._engine

    @property
    def cache(self) -> DominanceCache:
        """The shared dominance cache (it catches up from the model's edit log)."""
        return self._cache

    @property
    def edits(self) -> int:
        """Edits applied since construction."""
        return self._edits

    @property
    def cardinality(self) -> int:
        """Current number of objects."""
        return len(self._objects)

    @property
    def total_partitions(self) -> int:
        """Cached Theorem-4 components across all maintained views."""
        self._sync()
        return sum(len(view.factors) for view in self._views)

    def view(self, index: int) -> TargetView:
        """The maintained view for one object index."""
        self._sync()
        return self._views[_resolve_index(self.dataset, index)]

    def skyline_probabilities(self) -> List[float]:
        """Exact ``sky`` for every object, served warm from the view."""
        self._sync()
        return [view.probability for view in self._views]

    def probabilistic_skyline(self, tau: float) -> List[int]:
        """Indices with ``sky ≥ τ``, from the warm view (no recompute)."""
        if not 0 < tau <= 1:
            raise ReproError(f"threshold tau must lie in (0, 1], got {tau!r}")
        self._sync()
        return [
            index
            for index, view in enumerate(self._views)
            if view.probability >= tau
        ]

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` most probable skyline objects, from the warm view."""
        _check_count("k", k, minimum=1)
        self._sync()
        ranked = sorted(
            ((index, view.probability) for index, view in enumerate(self._views)),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[: min(k, len(ranked))]

    def skyline_probability(self, target: object, **options: object) -> SkylineReport:
        """Ad-hoc query through the inner engine (any method).

        The shared dominance cache is passed by default, so even cold
        queries benefit from the warm factor tables; the duplicate-target
        convention and every static-engine option apply unchanged.
        """
        options.setdefault("cache", self._cache)
        return self._engine.skyline_probability(target, **options)

    def restricted_skyline_probability(
        self,
        target: object,
        *,
        competitors: Sequence[int] | None = QueryOptions.competitors,
        dims: Sequence[int] | None = QueryOptions.dims,
        method: str = QueryOptions.method,
        det_kernel: str | None = None,
        epsilon: float = QueryOptions.epsilon,
        delta: float = QueryOptions.delta,
        samples: int | None = QueryOptions.samples,
        seed: object = None,
    ) -> SkylineReport:
        """Restricted query with a ``(dimension, value)``-scoped memo.

        Answers through the inner engine (so the result is exactly what
        :meth:`skyline_probability` with the same ``competitors``/``dims``
        returns) and memoises exact answers together with the set of
        preference variables they read — the union of the restriction's
        sliced differing keys.  Edits then invalidate *only* the
        restrictions they touch: a preference edit on ``(dimension, a,
        b)`` drops an entry iff its target holds ``a`` or ``b`` on that
        dimension and the opposite value is among its read keys; an
        insert drops only full-pool entries (an explicit competitor
        subset is index-stable under append); a remove drops everything
        (indices shift).  The rule holds for an edit made directly on
        the model too, caught up at the next lookup (:meth:`_sync`).
        Sampled answers are never memoised.  The shared pass of
        :func:`~repro.core.restricted.restricted_skyline_probabilities`
        on this engine reads and fills the same memo, cell by cell,
        under the same key.  The options are checked before the memo is
        read; ``det_kernel=None`` means the view's kernel.
        """
        options = QueryOptions(
            method=method,
            det_kernel=self._det_kernel if det_kernel is None else det_kernel,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            competitors=competitors,
            dims=dims,
        )
        restriction = normalize_restriction(
            self.dataset, competitors=options.competitors, dims=options.dims
        )
        memo_key = self._restricted_key(target, restriction, options)
        report = self._restricted_lookup(memo_key)
        if report is None:
            report = self._engine.skyline_probability(
                target, seed=seed, cache=self._cache, **options.as_kwargs()
            )
            self._restricted_store(memo_key, report)
        return report

    def _restricted_key(
        self, target: object, restriction: object, options: QueryOptions
    ) -> tuple:
        """The restricted memo's key for one query.

        The target's identity (an index query and an external query for
        the same values are different questions), the restriction and
        the options an exact answer depends on.
        """
        values, _, own = _resolve_pool(self.dataset, target)
        identity = ("external" if own is None else "index", values)
        return (identity, restriction.key, options.method, options.det_kernel)

    def _restricted_lookup(self, memo_key: tuple) -> SkylineReport | None:
        """The memoised answer under ``memo_key``, counted as a hit or a miss."""
        self._sync()
        entry = self._restricted_memo.get(memo_key)
        if entry is None:
            self._restricted_misses += 1
            return None
        self._restricted_hits += 1
        return entry.report

    def _restricted_store(self, memo_key: tuple, report: SkylineReport) -> None:
        """Memoise an exact ``report`` under ``memo_key`` with its read keys.

        The read keys are the competitors' differing ``(dimension,
        value)`` keys against the target within the subspace; a
        competitor equal to the target there has none, so the pool need
        not leave the target out.
        """
        if not report.exact:
            return
        (_, target), (subset, dims), _, _ = memo_key
        retained = None if dims is None else set(dims)
        pool = range(len(self._objects)) if subset is None else subset
        read_keys = set()
        for position in pool:
            for key in _differing_keys(self._objects[position], target):
                if retained is None or key[0] in retained:
                    read_keys.add(key)
        self._restricted_memo[memo_key] = _RestrictedEntry(
            report, target, frozenset(read_keys), subset is None
        )

    def restricted_cache_info(self) -> dict:
        """Restricted-memo snapshot: ``{"entries", "hits", "misses"}``."""
        self._sync()
        return {
            "entries": len(self._restricted_memo),
            "hits": self._restricted_hits,
            "misses": self._restricted_misses,
        }

    def batch(self, **options: object) -> object:
        """All-objects (or subset) answers through the batch planner.

        Forwards to :func:`~repro.core.batch.batch_skyline_probabilities`
        with the shared dominance cache; use :meth:`skyline_probabilities`
        instead when the warm exact view is what you want.
        """
        from repro.core.batch import batch_skyline_probabilities

        options.setdefault("cache", self._cache)
        return batch_skyline_probabilities(self._engine, **options)

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def insert_object(
        self, values: Sequence[Value], *, label: str | None = None
    ) -> EditReport:
        """Add one object and repair every view it perturbs.

        For each existing target the new object is classified: absorbed
        by a surviving competitor or carrying a zero factor ⇒ that view is
        provably unchanged; otherwise only the components sharing a
        ``(dimension, value)`` key with it are merged and re-partitioned.
        The new object's own view is computed fresh.  Staged state is
        swapped in atomically at the end.
        """
        self._sync()
        values = as_object(values)
        if len(values) != self.dataset.dimensionality:
            raise DimensionalityError(
                f"object has {len(values)} dimensions, dataset has "
                f"{self.dataset.dimensionality}"
            )
        if values in self._objects:
            raise DuplicateObjectError(
                f"object {values!r} is already in the dataset; "
                f"the model assumes no duplicates"
            )
        new_objects = self._objects + [values]
        position_of = {obj: index for index, obj in enumerate(new_objects)}
        components: List[Component] = []
        staged: List[TargetView | _Staged] = []
        recomputed = reused = step = 0  # `step` counts refreshed views
        for view in self._views:
            repaired = self._insert_into_view(
                view, values, position_of, step, components
            )
            if repaired is None:
                staged.append(view)
                continue
            step += 1
            solved = sum(isinstance(entry, _Pending) for entry in repaired[1])
            recomputed += solved
            reused += len(repaired[1]) - solved
            staged.append(repaired)
        self._failpoint(step)
        counter = self._label_counter
        if label is None:
            counter += 1
            label = f"Q{counter}"
        labels = self._labels + [str(label)]
        engine = self._bind(new_objects, labels)
        own, solved, _ = self._plan_views(
            engine, [len(self._objects)], components
        )
        recomputed += solved
        views = self._solve_views(engine, staged + own, components)
        # Commit.
        self._label_counter = counter
        self._objects = new_objects
        self._labels = labels
        self._views = views
        self._engine = engine
        # Full-pool restricted answers gained a competitor; explicit
        # competitor subsets are index-stable under append and survive.
        restricted = self._purge_restricted(
            lambda entry: entry.full_pool
        )
        return self._finish_edit(
            "insert", step, len(staged) - step, recomputed, reused, 0,
            restricted,
        )

    def remove_object(self, target: int | Sequence[Value]) -> EditReport:
        """Remove one object (by index or by values) and repair the views.

        A view whose components never contained the object is untouched —
        the object was absorbed there (its event was contained in a
        survivor's) or impossible (null event), so the union of Equation 3
        is unchanged.  Every other view is refreshed with component-level
        factor reuse; competitors the removed object had absorbed are
        revived by the fresh preprocessing pass.
        """
        self._sync()
        index = self._position(target)
        if len(self._objects) == 1:
            raise DatasetError("cannot remove the last object of the dataset")
        removed = self._objects[index]
        new_objects = self._objects[:index] + self._objects[index + 1 :]
        labels = self._labels[:index] + self._labels[index + 1 :]
        views = self._views[:index] + self._views[index + 1 :]
        refresh = [
            position
            for position, view in enumerate(views)
            if removed in view.member_union
        ]
        for step in range(len(refresh)):
            self._failpoint(step)
        engine = self._bind(new_objects, labels)
        components: List[Component] = []
        # Planned one target at a time: a remove refreshes nearly every
        # view, so its tile is the largest an edit makes, and on the
        # serving tier's engine thread that tile's NumPy transients stay
        # resident (tiled removes took the `serve_mixed` server's peak
        # RSS about 1.5 MB higher).
        staged, recomputed, reused = self._plan_views(
            engine, refresh, components, [views[k] for k in refresh],
            tiled=False,
        )
        for position, view in zip(
            refresh, self._solve_views(engine, staged, components)
        ):
            views[position] = view
        # Commit.
        self._objects = new_objects
        self._labels = labels
        self._views = views
        self._engine = engine
        # Dataset indices shifted: every restricted memo key may now
        # name different competitors, so nothing can be kept.
        restricted = self._purge_restricted(lambda entry: True)
        return self._finish_edit(
            "remove", len(refresh), len(views) - len(refresh), recomputed,
            reused, 0, restricted,
        )

    def update_preference(
        self,
        dimension: int,
        a: Value,
        b: Value,
        prob_a_over_b: float,
        prob_b_over_a: float | None = None,
    ) -> EditReport:
        """Re-set one preference pair and repair only the touched views.

        Sets the pair, then catches up as after a direct model edit
        (:meth:`_sync`), once earlier direct edits are caught up, so the
        report counts this pair's repair alone: only the components that
        read the pair are re-solved, and the dominance cache and the
        restricted memo lose exactly the entries that read it.

        On any mid-edit failure the pair is restored and the views and
        the memo are left untouched (no torn state).
        """
        self._sync()
        model = self._preferences
        previous: Tuple[float, float] | None = None
        if model.has_preference(dimension, a, b):
            previous = (
                model.prob_prefers(dimension, a, b),
                model.prob_prefers(dimension, b, a),
            )
        evictions = self._cache.counters()["evictions"]
        model.set_preference(dimension, a, b, prob_a_over_b, prob_b_over_a)
        try:
            refreshed, recomputed, reused, restricted = self._sync()
        except BaseException:
            # Roll back: restore the pair (or its absence); the views and
            # the memo still hold for the restored model.
            if previous is None:
                model.delete_preference(dimension, a, b)
            else:
                model.set_preference(dimension, a, b, *previous)
            self._version = model.version
            raise
        return self._finish_edit(
            "update_preference", refreshed, len(self._objects) - refreshed,
            recomputed, reused, self._cache.evictions - evictions, restricted,
        )

    # ------------------------------------------------------------------
    # Persistence (warm-view snapshot / restore)
    # ------------------------------------------------------------------
    def save_view(self, path: str | Path) -> dict:
        """Snapshot the warm view to ``path`` as JSON and return the payload.

        The snapshot carries everything :meth:`load_view` needs to resume
        serving without the O(n) all-objects rebuild: objects, labels,
        the preference model (via its ``to_dict`` form, so procedural
        models round-trip through their generator parameters plus
        explicit overrides), the engine configuration, and every view's
        Theorem-4 factors with their exact results.  Factor members are
        stored as object indices; probabilities round-trip bit-exactly
        because JSON floats use Python's shortest-repr encoding.

        Values must be JSON-serialisable (the same constraint as
        :func:`repro.io.save_dataset`).
        """
        self._sync()
        index_of = {obj: index for index, obj in enumerate(self._objects)}
        payload = {
            "format": VIEW_SNAPSHOT_FORMAT,
            "dimensionality": self.dataset.dimensionality,
            "objects": [list(obj) for obj in self._objects],
            "labels": list(self._labels),
            "label_counter": self._label_counter,
            "edits": self._edits,
            "max_exact_objects": self._max_exact_objects,
            "det_kernel": self._det_kernel,
            "preferences": self._preferences.to_dict(),
            "views": [
                {
                    "factors": [
                        {
                            "members": [
                                index_of[member] for member in factor.members
                            ],
                            "keys": [
                                [dimension, value]
                                for dimension, value in sorted(
                                    factor.keys, key=repr
                                )
                            ],
                            "result": {
                                "probability": factor.result.probability,
                                "terms_evaluated": factor.result.terms_evaluated,
                                "objects_used": factor.result.objects_used,
                            },
                        }
                        for factor in view.factors
                    ]
                }
                for view in self._views
            ],
        }
        Path(path).write_text(json.dumps(payload))
        return payload

    @classmethod
    def load_view(
        cls, path: str | Path, *, fault_injector: object = None
    ) -> "DynamicSkylineEngine":
        """Restore an engine from a :meth:`save_view` snapshot.

        Rebuilds the dataset, the preference model and every maintained
        view *without* re-running a single component solve — the restored
        engine's :meth:`skyline_probabilities` are bit-identical to the
        saved engine's (view probabilities are re-folded from the stored
        factors in their canonical order, reproducing the same float
        products).  The dominance cache starts cold; it re-warms on the
        first queries/edits.  ``fault_injector`` re-arms the chaos hook,
        which is deliberately not persisted.
        """
        # Local import: repro.io imports the data-model modules, so a
        # module-level import here would be circular.
        from repro.io import preference_model_from_dict

        try:
            raw = json.loads(Path(path).read_text())
        except ValueError as error:
            raise DatasetError(
                f"{path} is not a warm-view snapshot: {error}"
            ) from None
        if not isinstance(raw, dict) or raw.get("format") != VIEW_SNAPSHOT_FORMAT:
            raise DatasetError(
                f"{path} is not a warm-view snapshot of format "
                f"{VIEW_SNAPSHOT_FORMAT} (got "
                f"{raw.get('format') if isinstance(raw, dict) else type(raw).__name__!r})"
            )
        try:
            dimensionality = int(raw["dimensionality"])
            objects = [as_object(values) for values in raw["objects"]]
            labels = [str(label) for label in raw["labels"]]
            det_kernel = raw["det_kernel"]
            preferences = preference_model_from_dict(raw["preferences"])
            engine = cls.__new__(cls)
            engine._preferences = preferences
            engine._max_exact_objects = int(raw["max_exact_objects"])
            engine._fault_injector = fault_injector
            if det_kernel not in DET_KERNELS:
                raise DatasetError(
                    f"snapshot names unknown det_kernel {det_kernel!r}; "
                    f"expected one of {DET_KERNELS}"
                )
            engine._det_kernel = det_kernel
            engine._cache = DominanceCache(preferences)
            engine._objects = objects
            engine._labels = labels
            # Checks the budget, and the objects against the model.
            engine._engine = engine._bind(objects, labels)
            if engine.dataset.dimensionality != dimensionality:
                raise DatasetError(
                    f"snapshot declares {dimensionality} dimensions for "
                    f"{engine.dataset.dimensionality}-dimensional objects"
                )
            engine._label_counter = int(raw["label_counter"])
            engine._edits = int(raw["edits"])
            engine._restricted_memo = {}
            engine._version = preferences.version
            engine._restricted_hits = 0
            engine._restricted_misses = 0
            views_payload = raw["views"]
            if len(views_payload) != len(objects):
                raise DatasetError(
                    f"snapshot holds {len(views_payload)} views for "
                    f"{len(objects)} objects"
                )
            views: List[TargetView] = []
            for index, view_payload in enumerate(views_payload):
                factors = []
                for factor_payload in view_payload["factors"]:
                    members = tuple(
                        objects[int(member)]
                        for member in factor_payload["members"]
                    )
                    keys = frozenset(
                        (int(dimension), value)
                        for dimension, value in factor_payload["keys"]
                    )
                    result_payload = factor_payload["result"]
                    result = ExactResult(
                        _check_probability(
                            result_payload["probability"], "a factor probability"
                        ),
                        result_payload["terms_evaluated"],
                        result_payload["objects_used"],
                    )
                    _check_count("terms_evaluated", result.terms_evaluated, minimum=0)
                    _check_count("objects_used", result.objects_used, minimum=0)
                    factors.append(PartitionFactor(members, keys, result))
                views.append(engine._assemble_view(objects[index], factors))
            engine._views = views
        except DatasetError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, ReproError) as error:
            raise DatasetError(
                f"malformed warm-view snapshot {path}: {error}"
            ) from None
        return engine

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync(self) -> Tuple[int, int, int, int]:
        """Catch the views and the restricted memo up with the model.

        Runs before every edit and every read of the views or the memo,
        whoever edited the model.  By Equation 6 a target reads an
        edited pair only through the value it does not hold, and only
        if some object holds it: each pair logged since the last sync
        refreshes those targets, re-solving the components whose keys
        hold that value, and drops the memoised answers whose read keys
        do.  A refreshed target is repaired in place (:meth:`_repair`)
        unless a pair it reads crossed 0 or became unreadable; then it is
        re-planned.  A gap the log does not cover rebuilds every view and
        clears the memo.
        Nothing is committed unless the whole repair succeeds.  Returns
        ``(targets refreshed, components solved, components reused,
        memoised answers dropped)``.
        """
        version = self._preferences.version
        if version == self._version:
            return 0, 0, 0, 0
        self._cache.counters()  # the cache catches up within this sync
        edits = self._preferences._edits_since(self._version)
        components: List[Component] = []
        if edits is None:
            staged, solved, _ = self._plan_views(
                self._engine, range(len(self._objects)), components
            )
            self._views = self._solve_views(self._engine, staged, components)
            restricted = self._purge_restricted(lambda entry: True)
            if self._version >= 0:  # not the build at construction
                _record_routes(0, len(self._views))
            self._version = version
            return len(self._views), solved, 0, restricted
        # Per dimension: a value -> the keys its holders read edited pairs by.
        reads: Dict[int, Dict[Value, set]] = {}
        for dimension, a, b in edits:
            held = reads.setdefault(dimension, {})
            held.setdefault(a, set()).add((dimension, b))
            held.setdefault(b, set()).add((dimension, a))
        present = set()  # the edited pairs' values some object holds
        touched: Dict[int, set] = {}
        for index, target in enumerate(self._objects):
            keys = None
            for dimension, held in reads.items():
                own = target[dimension]
                found = held.get(own)
                if found:
                    present.add((dimension, own))
                    keys = found if keys is None else keys | found
            if keys is not None:
                touched[index] = keys
        # A pair is read only through a value some object holds.
        refresh = [k for k, keys in touched.items() if not keys.isdisjoint(present)]
        for step in range(len(refresh)):
            self._failpoint(step)
        local: List[int] = []
        staged: List[_Staged] = []
        replan: List[int] = []
        for index in refresh:
            repaired = self._repair(
                self._views[index], touched[index] & present, components
            )
            if repaired is None:
                replan.append(index)
            else:
                local.append(index)
                staged.append(repaired)
        recomputed = len(components)
        reused = sum(len(entries) for _, entries in staged) - recomputed
        if replan:
            planned, solved, kept = self._plan_views(
                self._engine, replan, components,
                [self._views[k] for k in replan], [touched[k] for k in replan],
            )
            staged += planned
            recomputed += solved
            reused += kept
        views = self._solve_views(self._engine, staged, components)
        # Commit.
        for index, view in zip(local + replan, views):
            self._views[index] = view
        _record_routes(len(local), len(replan))

        def stale(entry: _RestrictedEntry) -> bool:
            for dimension, held in reads.items():
                found = held.get(entry.target[dimension])
                if found and not found.isdisjoint(entry.read_keys):
                    return True
            return False

        restricted = self._purge_restricted(stale)
        self._version = version
        return len(refresh), recomputed, reused, restricted

    def _repair(
        self,
        view: TargetView,
        read: AbstractSet[_Key],
        components: List[Component],
    ) -> _Staged | None:
        """Stage ``view``'s repair after an edit of the pairs it reads by ``read``.

        A preference edit changes no ``Γ``, so absorption and partition
        stand; the kept set moves only when a read pair crosses 0.  Every
        competitor holding a key reads the same pair, so a factor
        holding it proves the pair was nonzero when the view was built.
        A key no factor holds (its holders were absorbed, impossible, or
        read a 0) and a pair now 0 or unreadable return ``None``: the
        target must be re-planned.  Otherwise each factor holding a key
        in ``read`` gets a new row from its own members, read through the
        cache's preference table and appended to ``components`` for the
        edit's exact call, and every other factor is kept.
        """
        target = view.target
        prefers = self._preferences.prob_prefers
        for key in read:
            if not any(key in factor.keys for factor in view.factors):
                return None
            dimension, value = key
            try:
                if prefers(dimension, value, target[dimension]) == 0.0:
                    return None
            except Exception:
                return None  # the re-plan raises it
        cached = self._cache.prob_prefers
        entries: List[PartitionFactor | _Pending] = []
        for factor in view.factors:
            if factor.keys.isdisjoint(read):
                entries.append(factor)
                continue
            entries.append(_Pending(factor.members, len(components)))
            components.append(
                _component(
                    [
                        (dimension, value, cached(dimension, value, target[dimension]))
                        for dimension, value in _differing_keys(member, target)
                    ]
                    for member in factor.members
                )
            )
        return target, entries

    def _plan_views(
        self,
        engine: SkylineProbabilityEngine,
        indices: Sequence[int],
        components: List[Component],
        reuse: Sequence[TargetView] | None = None,
        touched: Sequence[AbstractSet[_Key]] | None = None,
        tiled: bool = True,
    ) -> Tuple[List[_Staged], int, int]:
        """Stage the views of ``engine``'s objects at ``indices``.

        The targets go through the engine's ``det+`` planning step
        (:meth:`SkylineProbabilityEngine._plan_queries`: the tile pass
        from ``_TILE_CROSSOVER`` cells on; not ``tiled``, one target at a
        time), which never reads or writes its memo.  A component is
        reused from ``reuse[k]``, target ``k``'s current view, when its
        membership is identical and its key set is disjoint from
        ``touched[k]``; every other one is appended to ``components``
        for the one exact call.  The first planning failure in target order is raised.
        Returns ``(staged views, components solved, components
        reused)``.
        """
        options = QueryOptions(method="det+", det_kernel=self._det_kernel)
        queries = [
            (k, engine._open(index, options, None, None, self._cache))
            for k, index in enumerate(indices)
        ]
        planned: List[Component] = []
        tiles = None if tiled else {}
        for outcome in engine._plan_queries(queries, planned, None, tiles):
            if isinstance(outcome, Exception):
                raise outcome
        staged: List[_Staged] = []
        solved = kept = 0
        for k, query in queries:
            previous = {}
            if reuse is not None:
                previous = {
                    frozenset(factor.members): factor
                    for factor in reuse[k].factors
                }
            stale = () if touched is None else touched[k]
            entries: List[PartitionFactor | _Pending] = []
            plan = query.plan
            for part, step in zip(plan.prep.partitions, plan.steps):
                members = tuple(query.competitors[position] for position in part)
                known = previous.get(frozenset(members))
                if known is not None and known.keys.isdisjoint(stale):
                    entries.append(known)
                    kept += 1
                    continue
                entries.append(_Pending(members, len(components)))
                components.append(planned[step])
                solved += 1
            staged.append((query.target, entries))
        return staged, solved, kept

    def _solve_views(
        self,
        engine: SkylineProbabilityEngine,
        staged: Sequence[TargetView | _Staged],
        components: List[Component],
    ) -> List[TargetView]:
        """Solve ``components`` in one exact call and fold the staged views.

        A :class:`TargetView` passes through unchanged.  A pending
        component's factor takes its members' differing keys and its
        exact outcome; the first failed outcome in target order is
        raised.
        """
        outcomes = engine._exact(components, self._det_kernel)
        views: List[TargetView] = []
        for view in staged:
            if isinstance(view, TargetView):
                views.append(view)
                continue
            target, entries = view
            factors = []
            for entry in entries:
                if isinstance(entry, _Pending):
                    result = outcomes[entry.position]
                    if isinstance(result, Exception):
                        raise result
                    # The union of the members' differing keys.
                    keys = frozenset(
                        (dimension, value)
                        for member in entry.members
                        for dimension, value in enumerate(member)
                        if value != target[dimension]
                    )
                    entry = PartitionFactor(entry.members, keys, result)
                factors.append(entry)
            views.append(self._assemble_view(target, factors))
        return views

    def _assemble_view(
        self, target: ObjectValues, factors: Sequence[PartitionFactor]
    ) -> TargetView:
        """Fold factors (already in canonical order) into a view."""
        probability = 1.0
        member_union: set = set()
        for factor in factors:
            probability *= factor.probability
            member_union.update(factor.members)
        return TargetView(
            target=target,
            factors=tuple(factors),
            probability=min(max(probability, 0.0), 1.0),
            member_union=frozenset(member_union),
        )

    def _insert_into_view(
        self,
        view: TargetView,
        values: ObjectValues,
        position_of: Dict[ObjectValues, int],
        step: int,
        components: List[Component],
    ) -> _Staged | None:
        """Classify the inserted object against one view and stage its repair.

        Returns ``None`` when the insert provably cannot perturb the
        view; otherwise the staged view, whose rebuilt components are
        appended to ``components`` for the edit's one exact call.
        """
        target = view.target
        gamma = frozenset(_differing_keys(values, target))
        affected = [factor for factor in view.factors if factor.keys & gamma]
        # Absorbed by a kept survivor (Theorem 3): the new event is
        # contained in an existing one, the union is unchanged.  Only a
        # member sharing a key can have Γ ⊆ Γ(new), so scanning the
        # affected components is exhaustive.
        for factor in affected:
            for member in factor.members:
                if frozenset(_differing_keys(member, target)) <= gamma:
                    return None
        # Impossible (zero-probability filter): a null event changes
        # nothing.  This also covers absorption by a survivor the filter
        # had dropped — the new object inherits its zero factor.
        if any(
            probability == 0.0
            for _, _, probability in self._cache.dominance_factors(values, target)
        ):
            return None
        self._failpoint(step)
        # The new object is a kept survivor: merge the components it
        # touches, drop the members it absorbs, and re-partition locally
        # (the same union-find as the static pipeline).
        survivors = [
            member
            for factor in affected
            for member in factor.members
            if not gamma <= frozenset(_differing_keys(member, target))
        ]
        local = sorted(survivors + [values], key=position_of.__getitem__)
        entries: List[PartitionFactor | _Pending] = [
            factor for factor in view.factors if not (factor.keys & gamma)
        ]
        for part in partition(local, target):
            members = tuple(local[position] for position in part)
            entries.append(_Pending(members, len(components)))
            components.append(
                _component(
                    self._cache.dominance_factors(member, target)
                    for member in members
                )
            )
        entries.sort(key=lambda entry: position_of[entry.members[0]])
        return target, entries

    def _purge_restricted(self, stale) -> int:
        """Drop restricted-memo entries matching ``stale(entry)``."""
        doomed = [
            memo_key
            for memo_key, entry in self._restricted_memo.items()
            if stale(entry)
        ]
        for memo_key in doomed:
            del self._restricted_memo[memo_key]
        return len(doomed)

    def _bind(
        self, objects: Sequence[ObjectValues], labels: Sequence[str]
    ) -> SkylineProbabilityEngine:
        """A static engine over a new dataset of ``objects``."""
        return SkylineProbabilityEngine(
            Dataset(objects, labels=labels),
            self._preferences,
            max_exact_objects=self._max_exact_objects,
        )

    def _position(self, target: int | Sequence[Value]) -> int:
        """The position of ``target``: an object's values, or an index by
        the engine's one index rule (anything else is a
        :class:`~repro.errors.DatasetError`)."""
        if isinstance(target, (str, bytes)) or not isinstance(target, Iterable):
            return _resolve_index(self.dataset, target)
        values = as_object(target)
        try:
            return self._objects.index(values)
        except ValueError:
            raise DatasetError(f"object {values!r} is not in the dataset") from None

    def _failpoint(self, step: int) -> None:
        """Chaos hook: consult the injector before mutating-step ``step``."""
        if self._fault_injector is not None:
            self._fault_injector.before_task(step, 1)

    def _finish_edit(
        self,
        operation: str,
        refreshed: int,
        skipped: int,
        recomputed: int,
        reused: int,
        evicted: int,
        restricted_evicted: int = 0,
    ) -> EditReport:
        self._edits += 1
        report = EditReport(
            operation=operation,
            targets_refreshed=refreshed,
            targets_skipped=skipped,
            partitions_recomputed=recomputed,
            partitions_reused=reused,
            cache_evictions=evicted,
            restricted_evictions=restricted_evicted,
        )
        _record_edit(report)
        return report


def _record_edit(report: EditReport) -> None:
    """Publish one edit's registry counters (no-op while obs is disabled).

    The ISSUE's ``dynamic.edits`` / ``dynamic.partitions_recomputed`` /
    ``dynamic.cache_evictions`` counters, spelled with the registry's
    Prometheus-compatible naming (dots are illegal in metric names).
    """
    if not obs.is_enabled():
        return
    registry = obs.registry()
    registry.counter(
        "repro_dynamic_edits_total",
        "Dynamic-engine edits applied, by operation.",
    ).inc(operation=report.operation)
    if report.partitions_recomputed:
        registry.counter(
            "repro_dynamic_partitions_recomputed_total",
            "Theorem-4 components recomputed by partition-scoped invalidation.",
        ).inc(report.partitions_recomputed)
    if report.cache_evictions:
        registry.counter(
            "repro_dynamic_cache_evictions_total",
            "DominanceCache entries evicted by preference edits.",
        ).inc(report.cache_evictions)


def _record_routes(local: int, replan: int) -> None:
    """Count one catch-up's refreshed targets by route (no-op while obs is disabled)."""
    if not obs.is_enabled():
        return
    counter = obs.registry().counter(
        "repro_dynamic_targets_refreshed_total",
        "Targets refreshed after preference edits, by route: repaired in "
        "place (local) or re-planned (replan).",
    )
    if local:
        counter.inc(local, route="local")
    if replan:
        counter.inc(replan, route="replan")
