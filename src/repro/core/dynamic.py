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
  filter (and hence component membership) can flip, which the refresh
  detects by re-running the cheap polynomial pipeline and re-using every
  factor whose membership and key set are untouched.

Edit cost model:

* ``update_preference(dim, a, b, p)`` refreshes only targets whose own
  value on ``dim`` is ``a`` or ``b`` (all others read none of the changed
  variables), and within a refreshed target recomputes only components
  that read the changed pair.  The shared dominance cache is *surgically*
  evicted (:meth:`DominanceCache.evict_preference`) instead of cleared.
* ``insert_object(values)`` classifies the new object against each view:
  absorbed or impossible ⇒ the view is provably unchanged; otherwise only
  the components sharing a key with the new object are locally re-merged,
  re-absorbed and re-partitioned via the same union-find as the static
  pipeline.
* ``remove_object(target)`` is a no-op for every view in which the object
  was absorbed or impossible (its event was null or contained in a
  survivor's); otherwise the target is refreshed with component-level
  factor reuse.

Every edit is **transactional**: new view state is staged and swapped in
only after the whole edit succeeds, and a failed ``update_preference``
rolls the model and cache back — a mid-edit crash (see the chaos suite)
leaves the engine exactly as it was.  The maintained view is Det-exact
(``det+`` semantics): answers are bit-for-bit identical to a fresh
engine rebuilt from the same state, which is what the stateful
differential harness in ``tests/test_dynamic_differential.py`` asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Sequence, Tuple

import repro.obs as obs
from repro.core.dominance import DominanceCache
from repro.core.exact import (
    DEFAULT_DET_KERNEL,
    DEFAULT_MAX_OBJECTS,
    DET_KERNELS,
    ExactResult,
    det_from_factor_lists,
)
from repro.core.engine import (
    SkylineProbabilityEngine,
    SkylineReport,
    _check_count,
    _check_det_kernel,
    _resolve_pool,
)
from repro.core.objects import Dataset, ObjectValues, Value, as_object
from repro.core.preferences import PreferenceModel
from repro.core.preprocess import _differing_keys, partition, preprocess
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


@dataclass(frozen=True)
class EditReport:
    """Provenance of one edit: what the invalidation actually touched.

    ``targets_refreshed``/``targets_skipped`` partition the (other)
    objects of the dataset; ``partitions_recomputed`` counts exact
    component solves, ``partitions_reused`` cached factors multiplied
    back, and ``cache_evictions`` surgically dropped
    :class:`DominanceCache` entries (preference edits only).
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
        :meth:`update_preference`, so it must not be shared with callers
        that assume immutability.
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

    The engine is not thread-safe for concurrent edits; reads of the
    maintained view are plain attribute reads and may race an edit only
    with stale-but-consistent results.  Callers that mix concurrent
    queries and edits must serialise them externally — the serving tier
    (:mod:`repro.serve`) does so by funnelling every engine operation
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
        det_kernel: str = DEFAULT_DET_KERNEL,
    ) -> None:
        _check_det_kernel(det_kernel)
        self._engine = SkylineProbabilityEngine(
            dataset, preferences, max_exact_objects=max_exact_objects
        )
        self._dataset = dataset
        self._preferences = preferences
        self._max_exact_objects = max_exact_objects
        self._fault_injector = fault_injector
        self._det_kernel = det_kernel
        self._cache = DominanceCache(preferences)
        self._objects: List[ObjectValues] = list(dataset)
        self._labels: List[str] = list(dataset.labels)
        self._label_counter = len(self._objects)
        self._value_counts: List[Dict[Value, int]] = [
            {} for _ in range(dataset.dimensionality)
        ]
        for obj in self._objects:
            self._count_values(obj, +1)
        self._edits = 0
        self._restricted_memo: Dict[object, _RestrictedEntry] = {}
        self._restricted_hits = 0
        self._restricted_misses = 0
        self._views: List[TargetView] = [
            self._compute_view(
                self._objects[index],
                self._objects[:index] + self._objects[index + 1 :],
            )[0]
            for index in range(len(self._objects))
        ]

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The current dataset (rebuilt on every object edit)."""
        return self._dataset

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
        """The shared dominance cache (surgically evicted, never cleared)."""
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
        return sum(len(view.factors) for view in self._views)

    def view(self, index: int) -> TargetView:
        """The maintained view for one object index."""
        self._check_index(index)
        return self._views[index]

    def skyline_probabilities(self) -> List[float]:
        """Exact ``sky`` for every object, served warm from the view."""
        return [view.probability for view in self._views]

    def probabilistic_skyline(self, tau: float) -> List[int]:
        """Indices with ``sky ≥ τ``, from the warm view (no recompute)."""
        if not 0 < tau <= 1:
            raise ReproError(f"threshold tau must lie in (0, 1], got {tau!r}")
        return [
            index
            for index, view in enumerate(self._views)
            if view.probability >= tau
        ]

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` most probable skyline objects, from the warm view."""
        _check_count("k", k, minimum=1)
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
        competitors: Sequence[int] | None = None,
        dims: Sequence[int] | None = None,
        method: str = "auto",
        det_kernel: str | None = None,
        epsilon: float = 0.01,
        delta: float = 0.01,
        samples: int | None = None,
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
        (indices shift).  Sampled answers are never memoised.
        """
        restriction = normalize_restriction(
            self._dataset, competitors=competitors, dims=dims
        )
        kernel = self._det_kernel if det_kernel is None else det_kernel
        target_values, pool, own = _resolve_pool(
            self._dataset, target, restriction
        )
        identity = ("external" if own is None else "index", target_values)
        memo_key = (identity, restriction.key, method, kernel)
        entry = self._restricted_memo.get(memo_key)
        if entry is not None:
            self._restricted_hits += 1
            return entry.report
        self._restricted_misses += 1
        report = self._engine.skyline_probability(
            target,
            method=method,
            det_kernel=kernel,
            cache=self._cache,
            epsilon=epsilon,
            delta=delta,
            samples=samples,
            seed=seed,
            competitors=restriction.competitors,
            dims=restriction.dims,
        )
        if report.exact:
            retained = (
                None if restriction.dims is None else set(restriction.dims)
            )
            read_keys = set()
            for position in pool:
                for key in _differing_keys(
                    self._objects[position], target_values
                ):
                    if retained is None or key[0] in retained:
                        read_keys.add(key)
            self._restricted_memo[memo_key] = _RestrictedEntry(
                report,
                target_values,
                frozenset(read_keys),
                restriction.competitors is None,
            )
        return report

    def restricted_cache_info(self) -> dict:
        """Restricted-memo snapshot: ``{"entries", "hits", "misses"}``."""
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
        values = as_object(values)
        if len(values) != self._dataset.dimensionality:
            raise DimensionalityError(
                f"object has {len(values)} dimensions, dataset has "
                f"{self._dataset.dimensionality}"
            )
        if values in self._objects:
            raise DuplicateObjectError(
                f"object {values!r} is already in the dataset; "
                f"the model assumes no duplicates"
            )
        new_objects = self._objects + [values]
        position_of = {obj: index for index, obj in enumerate(new_objects)}
        staged: List[TargetView] = []
        recomputed = reused = refreshed = skipped = 0
        step = 0
        for view in self._views:
            new_view, solves, kept = self._insert_into_view(
                view, values, position_of, step
            )
            if new_view is view:
                skipped += 1
            else:
                refreshed += 1
                step += 1
                recomputed += solves
                reused += kept
            staged.append(new_view)
        self._failpoint(step)
        own_view, solved, _ = self._compute_view(values, self._objects)
        recomputed += solved
        # Commit.
        if label is None:
            self._label_counter += 1
            label = f"Q{self._label_counter}"
        self._objects = new_objects
        self._labels.append(str(label))
        self._count_values(values, +1)
        self._views = staged + [own_view]
        self._rebind(new_objects)
        # Full-pool restricted answers gained a competitor; explicit
        # competitor subsets are index-stable under append and survive.
        restricted = self._purge_restricted(
            lambda entry: entry.full_pool
        )
        return self._finish_edit(
            "insert", refreshed, skipped, recomputed, reused, 0,
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
        index = self._resolve_index(target)
        if len(self._objects) == 1:
            raise DatasetError("cannot remove the last object of the dataset")
        removed = self._objects[index]
        new_objects = self._objects[:index] + self._objects[index + 1 :]
        staged: List[TargetView] = []
        recomputed = reused = refreshed = skipped = 0
        step = 0
        for view_index, view in enumerate(self._views):
            if view_index == index:
                continue
            if removed not in view.member_union:
                staged.append(view)
                skipped += 1
                continue
            self._failpoint(step)
            step += 1
            refreshed += 1
            target_values = view.target
            competitors = [obj for obj in new_objects if obj != target_values]
            new_view, solved, kept = self._compute_view(
                target_values, competitors, reuse_from=view
            )
            recomputed += solved
            reused += kept
            staged.append(new_view)
        # Commit.
        self._objects = new_objects
        del self._labels[index]
        self._count_values(removed, -1)
        self._views = staged
        self._rebind(new_objects)
        # Dataset indices shifted: every restricted memo key may now
        # name different competitors, so nothing can be kept.
        restricted = self._purge_restricted(lambda entry: True)
        return self._finish_edit(
            "remove", refreshed, skipped, recomputed, reused, 0,
            restricted,
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

        A target reads the changed pair only through a competitor-side
        variable ``(dimension, other)`` against its own value — so only
        targets whose value on ``dimension`` is ``a`` or ``b`` (and that
        actually face a competitor holding the other value) are
        refreshed, and within them only components whose key set contains
        the other value are recomputed.  The dominance cache loses
        exactly the entries that read the pair
        (:meth:`DominanceCache.evict_preference`).

        On any mid-edit failure the model and cache are rolled back and
        the views are left untouched (no torn state).
        """
        model = self._preferences
        had = model.has_preference(dimension, a, b)
        previous: Tuple[float, float] | None = None
        if had:
            previous = (
                model.prob_prefers(dimension, a, b),
                model.prob_prefers(dimension, b, a),
            )
        model.set_preference(dimension, a, b, prob_a_over_b, prob_b_over_a)
        evicted = self._cache.evict_preference(dimension, a, b)
        try:
            new_views: Dict[int, TargetView] = {}
            recomputed = reused = refreshed = skipped = 0
            step = 0
            for index, target in enumerate(self._objects):
                own = target[dimension]
                if own == a:
                    other = b
                elif own == b:
                    other = a
                else:
                    skipped += 1
                    continue
                if self._value_counts[dimension].get(other, 0) == 0:
                    # No object holds the opposite value: no dominance
                    # variable of this target reads the edited pair.
                    skipped += 1
                    continue
                self._failpoint(step)
                step += 1
                refreshed += 1
                competitors = (
                    self._objects[:index] + self._objects[index + 1 :]
                )
                new_view, solved, kept = self._compute_view(
                    target,
                    competitors,
                    reuse_from=self._views[index],
                    touched_keys=frozenset({(dimension, other)}),
                )
                recomputed += solved
                reused += kept
                new_views[index] = new_view
        except BaseException:
            # Roll back: restore the pair (or its absence), resync the
            # cache, and leave every view exactly as it was.
            if previous is None:
                model.delete_preference(dimension, a, b)
            else:
                model.set_preference(dimension, a, b, *previous)
            self._cache.evict_preference(dimension, a, b)
            raise
        # Commit.
        for index, new_view in new_views.items():
            self._views[index] = new_view

        def touched(entry: _RestrictedEntry) -> bool:
            own = entry.target[dimension]
            if own == a:
                other: Value = b
            elif own == b:
                other = a
            else:
                return False
            return (dimension, other) in entry.read_keys

        restricted = self._purge_restricted(touched)
        return self._finish_edit(
            "update_preference", refreshed, skipped, recomputed, reused,
            evicted, restricted,
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
        index_of = {obj: index for index, obj in enumerate(self._objects)}
        payload = {
            "format": VIEW_SNAPSHOT_FORMAT,
            "dimensionality": self._dataset.dimensionality,
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
            engine._label_counter = int(raw["label_counter"])
            engine._value_counts = [{} for _ in range(dimensionality)]
            for obj in objects:
                engine._count_values(obj, +1)
            engine._edits = int(raw["edits"])
            engine._restricted_memo = {}
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
                        float(result_payload["probability"]),
                        int(result_payload["terms_evaluated"]),
                        int(result_payload["objects_used"]),
                    )
                    factors.append(PartitionFactor(members, keys, result))
                views.append(engine._assemble_view(objects[index], factors))
            engine._views = views
        except DatasetError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise DatasetError(
                f"malformed warm-view snapshot {path}: {error}"
            ) from None
        engine._rebind(objects)
        return engine

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compute_view(
        self,
        target: ObjectValues,
        competitors: Sequence[ObjectValues],
        *,
        reuse_from: TargetView | None = None,
        touched_keys: FrozenSet[_Key] = frozenset(),
    ) -> Tuple[TargetView, int, int]:
        """Run the polynomial pipeline for one target, reusing factors.

        ``competitors`` must be in dataset order (the pipeline's
        first-seen component order then matches a fresh build, keeping
        float products bit-identical).  A component is reused from
        ``reuse_from`` when its membership is identical and its key set
        is disjoint from ``touched_keys``.  Returns
        ``(view, components solved, components reused)``.
        """
        prep = preprocess(
            competitors,
            target,
            preferences=self._preferences,
            cache=self._cache,
        )
        previous: Dict[FrozenSet[ObjectValues], PartitionFactor] = {}
        if reuse_from is not None:
            previous = {
                frozenset(factor.members): factor for factor in reuse_from.factors
            }
        factors: List[PartitionFactor] = []
        solved = kept = 0
        for part in prep.partitions:
            members = tuple(competitors[position] for position in part)
            known = previous.get(frozenset(members))
            if known is not None and not (known.keys & touched_keys):
                factors.append(known)
                kept += 1
                continue
            factors.append(self._component_factor(members, target))
            solved += 1
        return self._assemble_view(target, factors), solved, kept

    def _component_factor(
        self, members: Tuple[ObjectValues, ...], target: ObjectValues
    ) -> PartitionFactor:
        """Exact-solve one value-disjoint component into a cached factor."""
        keys = frozenset(
            key for member in members for key in _differing_keys(member, target)
        )
        result = det_from_factor_lists(
            [self._cache.dominance_factors(member, target) for member in members],
            max_objects=self._max_exact_objects,
            kernel=self._det_kernel,
        )
        return PartitionFactor(members, keys, result)

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
    ) -> Tuple[TargetView, int, int]:
        """Classify the inserted object against one view and repair it.

        Returns ``(new view, components solved, components kept)``; the
        original view object is returned unchanged when the insert
        provably cannot perturb it.
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
                    return view, 0, 0
        # Impossible (zero-probability filter): a null event changes
        # nothing.  This also covers absorption by a survivor the filter
        # had dropped — the new object inherits its zero factor.
        if any(
            probability == 0.0
            for _, _, probability in self._cache.dominance_factors(values, target)
        ):
            return view, 0, 0
        self._failpoint(step)
        # The new object is a kept survivor: merge the components it
        # touches, drop the members it absorbs, and re-partition locally
        # (the same union-find the static pipeline uses).
        survivors = [
            member
            for factor in affected
            for member in factor.members
            if not gamma <= frozenset(_differing_keys(member, target))
        ]
        local = sorted(survivors + [values], key=position_of.__getitem__)
        components = partition(local, target)
        rebuilt = [
            self._component_factor(
                tuple(local[position] for position in part), target
            )
            for part in components
        ]
        untouched = [factor for factor in view.factors if not (factor.keys & gamma)]
        merged = sorted(
            untouched + rebuilt,
            key=lambda factor: position_of[factor.members[0]],
        )
        return self._assemble_view(target, merged), len(rebuilt), len(untouched)

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

    def _rebind(self, objects: Sequence[ObjectValues]) -> None:
        """Rebuild the immutable dataset + inner engine after object edits."""
        self._dataset = Dataset(objects, labels=self._labels)
        self._engine = SkylineProbabilityEngine(
            self._dataset,
            self._preferences,
            max_exact_objects=self._max_exact_objects,
        )

    def _count_values(self, obj: ObjectValues, delta: int) -> None:
        for dimension, value in enumerate(obj):
            counts = self._value_counts[dimension]
            updated = counts.get(value, 0) + delta
            if updated:
                counts[value] = updated
            else:
                counts.pop(value, None)

    def _resolve_index(self, target: int | Sequence[Value]) -> int:
        if isinstance(target, int):
            self._check_index(target)
            return target
        values = as_object(target)
        try:
            return self._objects.index(values)
        except ValueError:
            raise DatasetError(f"object {values!r} is not in the dataset") from None

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._objects):
            raise DatasetError(
                f"object index {index} out of range "
                f"(dataset holds {len(self._objects)})"
            )

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
            "DominanceCache entries surgically evicted by preference edits.",
        ).inc(report.cache_evictions)
