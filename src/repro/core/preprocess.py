"""Preprocessing speed-ups: absorption and partition (Section 5).

Both techniques shrink the set of competitors that must enter the
exponential exact computation (or the sampling loop) *without changing the
answer*:

* **Absorption** (Theorem 3, Algorithm 3).  Let ``Γ(Q)`` be the set of
  ``(dimension, value)`` pairs where ``Q`` differs from the target ``O``.
  If ``Γ(A) ⊆ Γ(B)`` — i.e. ``B`` carries all of ``A``'s differing values —
  then ``B ≺ O`` implies ``A ≺ O``, so the event ``e_B`` is contained in
  ``e_A`` and ``B`` contributes nothing to the union in Equation 3: it is
  *absorbed* by ``A``.  Absorption is transitive (Corollary 1), so one
  pass in arbitrary order removes every absorbable object.

* **Partition** (Theorem 4).  Dominance events touch only the preference
  variables between a competitor value and the target value on the same
  dimension.  Competitors that share no such variable — transitively —
  have mutually independent union events, so ``sky(O)`` factors into a
  product over the connected components of the value-sharing graph.  Each
  component can then be solved exactly on its own (usually tiny) event set.

A third, probability-aware filter is included: a competitor with a zero
preference factor can never dominate (``Pr(e_i) = 0``) and may be dropped
before partitioning, which also stops it from gluing components together.

:func:`preprocess` runs the pipeline for one target.  :func:`_plan_tile`
runs it for many targets of one batch chunk at once, as NumPy passes
over integer value codes (:class:`_ValueCodes`), and also builds each
exact component in the :class:`~repro.core.exact.Component` form the
kernels evaluate; its results equal the per-target pipeline's exactly.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.exact import Component
from repro.core.objects import ObjectValues, Value, as_object
from repro.core.preferences import PreferenceModel
from repro.errors import DatasetError, DimensionalityError
from repro.util.unionfind import UnionFind

__all__ = [
    "AbsorptionResult",
    "PreprocessResult",
    "absorb",
    "absorb_keys",
    "partition",
    "partition_keys",
    "drop_never_dominators",
    "preprocess",
]

_DifferingKey = Tuple[int, Value]


def _differing_keys(
    competitor: Sequence[Value], target: Sequence[Value]
) -> Tuple[_DifferingKey, ...]:
    """``Γ(Q)``: the (dimension, value) pairs where Q differs from O.

    Keys come in dimension order, one per differing dimension.  A
    competitor of another dimensionality raises
    :class:`~repro.errors.DimensionalityError` instead of being compared
    on the shorter prefix.
    """
    if len(competitor) != len(target):
        raise DimensionalityError(
            f"competitor has {len(competitor)} dimensions, the target "
            f"{len(target)}"
        )
    return tuple(
        [
            (dimension, value)
            for dimension, value, target_value in zip(
                range(len(target)), competitor, target
            )
            if value != target_value
        ]
    )


@dataclass(frozen=True)
class AbsorptionResult:
    """Outcome of the absorption pass.

    ``kept_indices`` are positions (into the original competitor sequence)
    of survivors, in their original order; ``absorbed_by`` maps each
    removed competitor to the *surviving* competitor that (transitively)
    absorbed it — every value is a member of ``kept_indices``.
    """

    kept_indices: Tuple[int, ...]
    absorbed_by: Dict[int, int] = field(default_factory=dict)

    @property
    def removed_count(self) -> int:
        """How many competitors were absorbed."""
        return len(self.absorbed_by)


def absorb(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
) -> AbsorptionResult:
    """One-pass absorption (Algorithm 3), index-accelerated.

    For each still-alive competitor ``Q_i`` the pass removes every other
    alive competitor matching ``Q_i`` on all of ``Q_i``'s differing
    dimensions.  Correct in a single arbitrary-order pass by the
    transitivity of absorption (Corollary 1).  A competitor identical to
    the target (``Γ = ∅``) is left alone here — the no-duplicates
    assumption makes it an upstream error, handled by the caller.
    """
    target = as_object(target)
    objects = [as_object(q) for q in competitors]
    keys = [_differing_keys(q, target) for q in objects]
    return absorb_keys(keys)


def absorb_keys(
    keys: Sequence[Tuple[_DifferingKey, ...]],
) -> AbsorptionResult:
    """Absorption on precomputed ``Γ`` key tuples, one per competitor.

    This is the index-accelerated core of :func:`absorb`, factored out so
    callers that already hold each competitor's differing keys (e.g. the
    restriction planner, which *slices* full-dimension keys per subspace)
    can run the identical pass without rebuilding objects.  Each tuple
    lists its keys in dimension order, as :func:`preprocess` builds them.

    Only a competitor that can absorb something scans.  A scan by ``X``
    removes the competitors whose ``Γ`` contains ``Γ(X)``; when ``Γ(X)``
    is as wide as the widest ``Γ`` present, that is only an exact copy of
    ``Γ(X)``.  So a widest competitor scans only when another one carries
    the same ``Γ``, and every skipped scan would have removed nothing.
    """
    widest = max(map(len, keys), default=0)
    copies = Counter(gamma for gamma in keys if len(gamma) == widest)
    scanners = [
        position
        for position, gamma in enumerate(keys)
        if gamma and (len(gamma) < widest or copies[gamma] > 1)
    ]
    if not scanners:
        return AbsorptionResult(tuple(range(len(keys))), {})
    # Inverted index over the keys the scans read: (dimension, value) ->
    # positions of the competitors holding it.
    buckets: Dict[_DifferingKey, List[int]] = {
        key: [] for position in scanners for key in keys[position]
    }
    for position, gamma in enumerate(keys):
        for key in gamma:
            if key in buckets:
                buckets[key].append(position)
    alive = [True] * len(keys)
    absorbed_by: Dict[int, int] = {}
    for position in scanners:
        if not alive[position]:
            continue
        gamma = keys[position]
        required = set(gamma)
        # Scan the smallest bucket and verify the full Γ match there.
        for candidate in min((buckets[key] for key in gamma), key=len):
            if (
                candidate != position
                and alive[candidate]
                and required <= set(keys[candidate])
            ):
                alive[candidate] = False
                absorbed_by[candidate] = position
    kept = tuple(position for position, ok in enumerate(alive) if ok)
    # A scanner can itself be absorbed by a *later* scan (reachable when
    # Γ(Y) ⊆ Γ(X) ⊆ Γ(Z) with Y positioned after X: X's scan removes Z,
    # then Y's removes X), which would leave Z mapped to a non-survivor.
    # Follow each chain to its final survivor — sound by transitivity
    # (Corollary 1) and acyclic because a removed competitor never scans,
    # so mutual absorption is impossible.
    for removed in list(absorbed_by):
        absorber = absorbed_by[removed]
        while absorber in absorbed_by:
            absorber = absorbed_by[absorber]
        absorbed_by[removed] = absorber
    return AbsorptionResult(kept, absorbed_by)


def partition(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    indices: Sequence[int] | None = None,
) -> List[List[int]]:
    """Group competitors into value-disjoint components (Theorem 4).

    Two competitors land in the same component when they share a value on
    some dimension where that value differs from the target's — i.e. when
    their dominance events read a common preference variable.  Values
    equal to the target's never induce dependence and are ignored.

    Returns lists of positions (into ``competitors``), deterministic in
    first-seen order.  ``indices`` restricts the input to a subset (e.g.
    absorption survivors).
    """
    target = as_object(target)
    keys = [_differing_keys(as_object(q), target) for q in competitors]
    return partition_keys(keys, indices)


def partition_keys(
    keys: Sequence[Tuple[_DifferingKey, ...]],
    indices: Sequence[int] | None = None,
) -> List[List[int]]:
    """Value-disjoint components over precomputed ``Γ`` key tuples.

    The union-find core of :func:`partition`, shared with callers that
    slice full-dimension keys per subspace (restriction planning) and must
    reproduce the exact same component structure per slice.
    """
    if indices is None:
        indices = range(len(keys))
    union_find: UnionFind = UnionFind()
    anchor: Dict[_DifferingKey, int] = {}
    for position in indices:
        union_find.add(position)
        for key in keys[position]:
            if key in anchor:
                union_find.union(anchor[key], position)
            else:
                anchor[key] = position
    return [sorted(component) for component in union_find.components()]


def drop_never_dominators(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    indices: Sequence[int] | None = None,
    *,
    cache: DominanceCache | None = None,
) -> Tuple[List[int], List[int]]:
    """Split positions into (possible dominators, impossible ones).

    A competitor with any zero preference factor towards the target has
    ``Pr(e_i) = 0``; its event is null and removing it changes neither the
    union (Equation 3) nor the partition structure it would otherwise
    pollute.
    """
    factors_of = factor_source(preferences, cache)
    return _split_possible(
        lambda position: factors_of(competitors[position], target),
        range(len(competitors)) if indices is None else indices,
    )


def _split_possible(
    factors_of: Callable[[int], Sequence[DominanceFactor]],
    indices: Iterable[int],
) -> Tuple[List[int], List[int]]:
    """The zero-probability filter over a ``position -> factors`` lookup."""
    possible: List[int] = []
    impossible: List[int] = []
    for position in indices:
        for _, _, probability in factors_of(position):
            if probability == 0.0:
                impossible.append(position)
                break
        else:
            possible.append(position)
    return possible, impossible


@dataclass(frozen=True)
class PreprocessResult:
    """Combined outcome of the full preprocessing pipeline.

    All indices refer to positions in the original competitor sequence.
    ``partitions`` covers exactly the kept competitors; multiplying the
    per-partition skyline probabilities yields ``sky(target)``.
    """

    target: ObjectValues
    kept_indices: Tuple[int, ...]
    absorbed_by: Dict[int, int]
    dropped_impossible: Tuple[int, ...]
    partitions: Tuple[Tuple[int, ...], ...]

    @property
    def kept_count(self) -> int:
        """Competitors surviving all preprocessing."""
        return len(self.kept_indices)

    @property
    def largest_partition(self) -> int:
        """Size of the biggest component (drives exact-solve feasibility)."""
        return max((len(part) for part in self.partitions), default=0)

    def partition_objects(
        self, competitors: Sequence[Sequence[Value]]
    ) -> List[List[ObjectValues]]:
        """Materialise each partition as its list of competitor objects."""
        return [
            [as_object(competitors[position]) for position in part]
            for part in self.partitions
        ]


def preprocess(
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    *,
    preferences: PreferenceModel | None = None,
    use_absorption: bool = True,
    use_partition: bool = True,
    cache: DominanceCache | None = None,
) -> PreprocessResult:
    """Run the paper's preprocessing pipeline for one target object.

    Order follows Section 5: absorption first (so partitions need no
    further absorption), then the zero-probability filter (needs
    ``preferences``; skipped when not supplied), then partition.  Any
    stage can be disabled for ablation studies.

    Each competitor's ``Γ`` is built once and serves the duplicate check
    (an empty ``Γ`` is a competitor equal to the target), absorption and
    partition alike.
    """
    target = as_object(target)
    with obs.stage("preprocess"):
        keys = []
        for position, q in enumerate(competitors):
            gamma = _differing_keys(as_object(q), target)
            if not gamma:
                raise DatasetError(
                    f"competitor {position} equals the target {target!r}; "
                    f"sky(target) would be 0 by the duplicate convention"
                )
            keys.append(gamma)
        drop_impossible = None
        if preferences is not None:
            drop_impossible = functools.partial(
                drop_never_dominators, preferences, competitors, target,
                cache=cache,
            )
        result = _preprocess_keys(
            target,
            keys,
            drop_impossible,
            use_absorption=use_absorption,
            use_partition=use_partition,
        )
    _record_preprocess(result)
    return result


def _preprocess_keys(
    target: ObjectValues,
    keys: Sequence[Tuple[_DifferingKey, ...]],
    drop_impossible: Callable[[Sequence[int]], Tuple[List[int], List[int]]]
    | None,
    *,
    use_absorption: bool = True,
    use_partition: bool = True,
) -> PreprocessResult:
    """The pipeline on precomputed ``Γ`` key tuples, one per competitor.

    Absorption, then ``drop_impossible`` (absorption survivors ->
    ``(possible, impossible)``; ``None`` skips the filter), then
    partition.  :func:`preprocess` and the restriction planner, which
    slices full-dimension keys per subspace, both build their
    :class:`PreprocessResult` here, so a sliced cell's structure is
    exactly the one a materialised query gets.
    """
    if use_absorption:
        absorption = absorb_keys(keys)
    else:
        absorption = AbsorptionResult(tuple(range(len(keys))), {})
    kept: Sequence[int] = absorption.kept_indices
    dropped: Tuple[int, ...] = ()
    if drop_impossible is not None:
        possible, impossible = drop_impossible(kept)
        kept, dropped = possible, tuple(impossible)
    if use_partition:
        partitions = tuple(tuple(part) for part in partition_keys(keys, kept))
    else:
        partitions = (tuple(kept),) if kept else ()
    return PreprocessResult(
        target=target,
        kept_indices=tuple(kept),
        absorbed_by=dict(absorption.absorbed_by),
        dropped_impossible=dropped,
        partitions=partitions,
    )


def _record_preprocess(result: PreprocessResult) -> None:
    """Publish one preprocessing run's reductions (no-op while disabled)."""
    if not obs.is_enabled():
        return
    registry = obs.registry()
    registry.counter(
        "repro_preprocess_runs_total", "Completed preprocessing pipelines."
    ).inc()
    registry.counter(
        "repro_preprocess_absorbed_total",
        "Competitors removed by absorption (Theorem 3).",
    ).inc(len(result.absorbed_by))
    registry.counter(
        "repro_preprocess_dropped_impossible_total",
        "Competitors dropped by the zero-probability filter.",
    ).inc(len(result.dropped_impossible))
    registry.counter(
        "repro_preprocess_partitions_total",
        "Value-disjoint components produced by partitioning (Theorem 4).",
    ).inc(len(result.partitions))


class _ValueCodes:
    """A dataset's values as integer codes, one code space per dimension.

    ``codes[i, j]`` is object ``i``'s code on dimension ``j`` and
    ``values[j][code]`` the value it stands for.  Equal values share a
    code, so comparing codes compares values as ``!=`` does.
    """

    __slots__ = ("codes", "values", "index")

    def __init__(self, objects: Sequence[ObjectValues], dimensionality: int) -> None:
        self.index: List[Dict[Value, int]] = [{} for _ in range(dimensionality)]
        self.values: List[List[Value]] = [[] for _ in range(dimensionality)]
        rows = []
        for values in objects:
            row = []
            for index, known, value in zip(self.index, self.values, values):
                code = index.get(value)
                if code is None:
                    code = index[value] = len(known)
                    known.append(value)
                row.append(code)
            rows.append(row)
        self.codes = np.array(rows, dtype=np.int64).reshape(-1, dimensionality)

    def encode(
        self, targets: Sequence[Tuple[ObjectValues, int | None]]
    ) -> Tuple[np.ndarray, List[List[Value]]]:
        """The targets' codes, and the values of every code they use.

        An index target takes its object's codes.  A value only external
        targets hold gets a fresh code past the dataset's, in a copy of
        :attr:`values`; no competitor holds it.
        """
        codes = np.empty((len(targets), self.codes.shape[1]), dtype=np.int64)
        values = self.values
        fresh: List[Dict[Value, int]] | None = None
        for t, (target, index) in enumerate(targets):
            if index is not None:
                codes[t] = self.codes[index]
                continue
            for j, value in enumerate(target):
                code = self.index[j].get(value)
                if code is None:
                    if fresh is None:
                        values = [list(known) for known in values]
                        fresh = [{} for _ in values]
                    code = fresh[j].get(value)
                    if code is None:
                        code = fresh[j][value] = len(values[j])
                        values[j].append(value)
                codes[t, j] = code
        return codes, values


def _dense_ids(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 per row of the non-negative int ``columns``: equal rows
    get equal ids, and ids grow with the rows' lexicographic order."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        span = int(column.max()) + 1 if len(column) else 1
        if len(key) and (int(key.max()) + 1) * span >= 1 << 62:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = key * span + column
    return key


def _roots(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the edges ``u[k] -- v[k]`` over ``range(size)``.

    Returns each node's root, the smallest node of its component: a
    flat-array union-find that hooks every root onto the smallest root
    it touches, then compresses paths fully, until no edge spans two
    components.
    """
    parent = np.arange(size)
    while len(u):
        pu, pv = parent[u], parent[v]
        live = pu != pv
        u, v, pu, pv = u[live], v[live], pu[live], pv[live]
        if not len(u):
            break
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def _absorbers(
    diff: np.ndarray, valid: np.ndarray, pool_codes: np.ndarray
) -> np.ndarray:
    """Each (target, pool entry) item's first absorber, flat; ``size`` if none.

    Reproduces :func:`absorb_keys` on every target of the tile.  Its
    scans run in position order and each removes the alive competitors
    whose ``Γ`` contains the scanner's, so a competitor ``c`` is first
    removed by the smallest position ``s != c`` that is alive when it
    scans and has ``Γ(s) ⊆ Γ(c)``.  A scanner is alive then exactly when
    no earlier position's ``Γ`` is contained in its own (an absorbed
    absorber hands its removal on to its own absorber, which is
    earlier).  Only competitors narrower than the widest ``Γ``, or with
    a copy of their ``Γ``, can contain another's ``Γ``.  Scanners with
    one ``Γ`` are copies, so only the first two of them matter: the
    first may absorb, and the second is what contains the first's.
    ``Γ(s) ⊆ Γ(c)`` holds exactly when ``c`` shares ``s``'s values on
    ``s``'s differing dimensions, so each ``Γ`` is matched against the
    pool entries with those values.
    """
    count, pool, dimensionality = diff.shape
    size = count * pool
    flat_diff = diff.reshape(size, dimensionality)
    flat_valid = valid.reshape(size)
    width = diff.sum(axis=2)
    rows = np.arange(size)
    gamma = _dense_ids(
        [rows // pool]
        + [
            np.where(flat_diff[:, j], pool_codes[rows % pool, j] + 1, 0)
            for j in range(dimensionality)
        ]
    )
    _, copy_of, copies = np.unique(gamma, return_inverse=True, return_counts=True)
    narrow = width < width.max(axis=1, initial=0)[:, None]
    scanner = flat_valid & (width.reshape(size) > 0) & (
        narrow.reshape(size) | (copies[copy_of.reshape(-1)] > 1)
    )
    absorber = np.full(size, size)
    if not scanner.any():
        return absorber
    scanners = np.flatnonzero(scanner)
    masks, mask_of = np.unique(flat_diff[scanners], axis=0, return_inverse=True)
    mask_of = mask_of.reshape(-1)
    coverers, covered = [], []
    for m, mask in enumerate(masks):
        group = scanners[mask_of == m]
        projection = _dense_ids([pool_codes[:, j] for j in np.flatnonzero(mask)])
        key = group // pool * (int(projection.max()) + 1) + projection[group % pool]
        # `group` ascends, so a stable sort leaves each Γ's copies in
        # position order.
        order = np.argsort(key, kind="stable")
        key, group = key[order], group[order]
        head = np.ones(len(key), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        head = np.flatnonzero(head)
        first = group[head]
        paired = head[(head + 1 < len(key))]
        paired = paired[key[paired + 1] == key[paired]]
        coverers.append(group[paired + 1])
        covered.append(group[paired])
        # Every valid pool entry holding the first copy's values.
        ranked = np.argsort(projection, kind="stable")
        value = projection[first % pool]
        low = np.searchsorted(projection[ranked], value, "left")
        spans = np.searchsorted(projection[ranked], value, "right") - low
        source = np.repeat(first, spans)
        entries = np.repeat(low - (np.cumsum(spans) - spans), spans)
        target = ranked[entries + np.arange(len(entries))]
        target += source // pool * pool
        keep = (target != source) & flat_valid[target]
        coverers.append(source[keep])
        covered.append(target[keep])
    coverers, covered = np.concatenate(coverers), np.concatenate(covered)
    first_cover = np.full(size, size)
    np.minimum.at(first_cover, covered, coverers)
    alive = scanner & (first_cover > rows)
    ok = alive[coverers]
    np.minimum.at(absorber, covered[ok], coverers[ok])
    return absorber


def _read_factors(
    cells: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pool_codes: np.ndarray,
    target_codes: np.ndarray,
    values: List[List[Value]],
    cache: DominanceCache,
) -> Tuple[np.ndarray, Dict[int, Exception]]:
    """Each cell's factor, and the first failing read of each target.

    ``cells`` are ``(target, competitor, dimension)`` index arrays in
    that order; each distinct preference pair they read is resolved
    once, through one bulk read of ``cache``.  A failed read's factor
    is NaN.
    """
    cell_t, cell_i, cell_j = cells
    span = max(map(len, values))
    pair = (cell_j * span + pool_codes[cell_i, cell_j]) * span
    pair += target_codes[cell_t, cell_j]
    pairs, inverse, reads = np.unique(
        pair, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    dimension, rest = np.divmod(pairs, span * span)
    better, worse = np.divmod(rest, span)
    offsets = np.cumsum([0] + [len(known) for known in values])
    names = np.fromiter(
        (value for known in values for value in known),
        dtype=object,
        count=int(offsets[-1]),
    )
    base = offsets[dimension]
    probabilities, errors = cache._resolve_many(
        list(
            zip(
                dimension.tolist(),
                names[base + better].tolist(),
                names[base + worse].tolist(),
            )
        ),
        reads.tolist(),
    )
    factor = np.asarray(probabilities, dtype=np.float64)[inverse]
    failures: Dict[int, Exception] = {}
    if errors:
        broken = np.zeros(len(pairs), dtype=bool)
        broken[list(errors)] = True
        failing = np.flatnonzero(broken[inverse])
        targets, first = np.unique(cell_t[failing], return_index=True)
        for t, cell in zip(targets.tolist(), failing[first].tolist()):
            failures[t] = errors[int(inverse[cell])]
    return factor, failures


def _forms(
    sizes: np.ndarray, widths: np.ndarray, ids: np.ndarray, factors: np.ndarray
) -> List[Component]:
    """Slice flat cell arrays into one :class:`Component` per part.

    ``sizes[k]`` holds part ``k``'s member count, ``widths`` each
    member's factor count, and ``ids``/``factors`` every cell, member
    after member.
    """
    members = np.empty(len(widths), dtype=object)
    starts = np.cumsum(widths) - widths
    for width in np.unique(widths).tolist():
        which = np.flatnonzero(widths == width)
        cells = ids[starts[which][:, None] + np.arange(width)]
        members[which] = np.fromiter(
            map(tuple, cells.tolist()), dtype=object, count=len(which)
        )
    members = members.tolist()
    factors = factors.tolist()
    part_cells = np.zeros(len(sizes), dtype=np.int64)
    if len(sizes):
        part_cells = np.add.reduceat(widths, np.cumsum(sizes) - sizes)
    forms = []
    member = cell = 0
    for size, length in zip(sizes.tolist(), part_cells.tolist()):
        forms.append(
            Component(
                tuple(members[member : member + size]),
                tuple(factors[cell : cell + length]),
            )
        )
        member += size
        cell += length
    return forms


def _plan_tile(
    codes: _ValueCodes,
    targets: Sequence[Tuple[ObjectValues, int | None]],
    pool: Sequence[int],
    dims: Sequence[int] | None,
    cache: DominanceCache,
    *,
    method: str,
    use_absorption: bool,
    use_partition: bool,
    max_exact: int,
) -> List[object]:
    """Plan many targets against their pools in one set of array passes.

    ``targets`` are ``(values, dataset index or None)`` pairs; each
    target's competitors are the ``pool`` positions (ascending dataset
    indices) other than its own index, restricted to ``dims`` when
    given, and none of them may equal it there (the engine answers such
    duplicates before planning).  ``method`` is ``"det"`` (one component
    of every competitor) or a preprocessing method (``"det+"``,
    ``"auto"``).  Per target, the result is the exception its planning
    raises or ``(prep, components)``: the :class:`PreprocessResult`
    (``None`` for ``det``) and one :class:`~repro.core.exact.Component`
    per partition (``det``: the one), ``None`` for a partition larger
    than ``max_exact``.  Both equal what the per-target pipeline
    (:func:`preprocess`, then factor lists through
    :func:`~repro.core.exact._component`) builds, insertion orders
    included.

    Preference probabilities are read in bulk from ``cache``, only for
    the cells the per-target pipeline reads: the differing dimensions of
    absorption survivors (of every competitor for ``det``).  A read that
    raises fails each target reading it, with the error of the target's
    first failing read in competitor-then-dimension order.
    """
    dimensionality = codes.codes.shape[1]
    count = len(targets)
    pool = np.asarray(pool, dtype=np.int64)
    width = len(pool)
    size = count * width
    pool_codes = codes.codes[pool]
    target_codes, values = codes.encode(targets)
    own = np.array([-1 if index is None else index for _, index in targets])
    valid = pool[None, :] != own[:, None]
    diff = pool_codes[None, :, :] != target_codes[:, None, :]
    if dims is not None:
        retained = np.zeros(dimensionality, dtype=bool)
        retained[list(dims)] = True
        diff &= retained
    diff &= valid[:, :, None]
    # Flat (target, pool entry) items: each entry's competitor position.
    position = (np.cumsum(valid, axis=1) - 1).reshape(size)
    preprocessing = method != "det"
    absorber = np.full(size, size)
    if preprocessing and use_absorption:
        absorber = _absorbers(diff, valid, pool_codes)
    read = valid.reshape(size) & (absorber == size)
    cells = np.nonzero(diff & read.reshape(count, width)[:, :, None])
    cell_t, cell_i, cell_j = cells
    factor, failures = _read_factors(
        cells, pool_codes, target_codes, values, cache
    )
    cell_item = cell_t * width + cell_i
    # A cell's (target, dimension, value) key, unique within the tile.
    cell_key = (cell_t * dimensionality + cell_j) * max(map(len, values))
    cell_key += pool_codes[cell_i, cell_j]
    impossible = np.zeros(size, dtype=bool)
    impossible[cell_item[factor == 0.0]] = True
    live = read.copy()
    for t in failures:
        live[t * width : (t + 1) * width] = False
    members = np.flatnonzero(live & ~impossible)
    # Components: members grouped under their smallest member, groups
    # and members ascending — the order UnionFind.components() yields.
    if preprocessing and use_partition:
        member = np.zeros(size, dtype=bool)
        member[members] = True
        linking = member[cell_item]
        items = cell_item[linking]
        # Each item joins the first item holding each of its keys.
        _, anchor, key_of = np.unique(
            cell_key[linking], return_index=True, return_inverse=True
        )
        root = _roots(size, items[anchor][key_of.reshape(-1)], items)[members]
    else:
        root = members // width
    order = np.lexsort((members, root))
    members, root = members[order], root[order]
    head = np.ones(len(members), dtype=bool)
    head[1:] = root[1:] != root[:-1]
    part_start = np.flatnonzero(head)
    part_size = np.diff(np.append(part_start, len(members)))
    solved = part_size <= max_exact if preprocessing else part_size > 0
    # The solved parts' cells, member after member.  Parts share no key,
    # so a key's rank among the tile's first occurrences, less that of
    # its part's first cell, numbers it first-seen within its part.
    solved_members = members[np.repeat(solved, part_size)]
    widths = diff.reshape(size, dimensionality).sum(axis=1)[solved_members]
    solved_cells = np.repeat(
        np.searchsorted(cell_item, solved_members) - (np.cumsum(widths) - widths),
        widths,
    ) + np.arange(widths.sum())
    _, first_seen, key_of = np.unique(
        cell_key[solved_cells], return_index=True, return_inverse=True
    )
    rank = np.empty(len(first_seen), dtype=np.int64)
    rank[np.argsort(first_seen)] = np.arange(len(first_seen))
    local = rank[key_of.reshape(-1)]
    sizes = part_size[solved]
    if len(sizes):
        part_cells = np.add.reduceat(widths, np.cumsum(sizes) - sizes)
        local -= np.repeat(local[np.cumsum(part_cells) - part_cells], part_cells)
    forms = iter(_forms(sizes, widths, local, factor[solved_cells]))
    components = [next(forms) if ok else None for ok in solved.tolist()]
    # Per target: its slices of the flat, target-major results.
    bounds = np.arange(count + 1) * width
    part_bounds = np.searchsorted(members[part_start], bounds).tolist()
    member_positions = position[members].tolist()
    parts = [
        tuple(member_positions[first : first + length])
        for first, length in zip(part_start.tolist(), part_size.tolist())
    ]
    outcomes: List[object] = [failures.get(t) for t in range(count)]
    if not preprocessing:
        for t in range(count):
            if t not in failures:
                # Every competitor may have a zero factor: no dominator.
                own_parts = components[part_bounds[t] : part_bounds[t + 1]]
                outcomes[t] = (None, own_parts or [Component((), ())])
        return outcomes
    kept = np.sort(members)
    kept_bounds = np.searchsorted(kept, bounds).tolist()
    kept = position[kept].tolist()
    dropped = np.flatnonzero(live & impossible)
    dropped_bounds = np.searchsorted(dropped, bounds).tolist()
    dropped = position[dropped].tolist()
    absorbed = np.flatnonzero(absorber < size)
    final = absorber.copy()
    while True:
        chained = absorbed[absorber[final[absorbed]] < size]
        if not len(chained):
            break
        final[chained] = absorber[final[chained]]
    # Insertion order: by first absorber, then ascending.
    absorbed = absorbed[np.lexsort((absorbed, absorber[absorbed]))]
    absorbed_bounds = np.searchsorted(
        absorbed // width, np.arange(count + 1)
    ).tolist()
    absorbed = list(
        zip(position[absorbed].tolist(), position[final[absorbed]].tolist())
    )
    for t, (target, _) in enumerate(targets):
        if t in failures:
            continue
        first_part, last_part = part_bounds[t], part_bounds[t + 1]
        prep = PreprocessResult(
            target=target,
            kept_indices=tuple(kept[kept_bounds[t] : kept_bounds[t + 1]]),
            absorbed_by=dict(
                absorbed[absorbed_bounds[t] : absorbed_bounds[t + 1]]
            ),
            dropped_impossible=tuple(
                dropped[dropped_bounds[t] : dropped_bounds[t + 1]]
            ),
            partitions=tuple(parts[first_part:last_part]),
        )
        _record_preprocess(prep)
        outcomes[t] = (prep, components[first_part:last_part])
    return outcomes
