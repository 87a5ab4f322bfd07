"""The deterministic algorithm ``Det`` (Algorithm 1 of the paper).

``sky(O)`` is evaluated by inclusion-exclusion over the dominance events
``e_i = (Q_i ≺ O)`` (Equation 4):

    sky(O) = 1 + Σ_{k=1..n} (-1)^k Σ_{|I|=k} Pr(E_I)
           = Σ_{I ⊆ {1..n}} (-1)^{|I|} Pr(E_I)          (E_∅ = certain)

with each joint probability ``Pr(E_I)`` given by Equation 6 as a product
over distinct ``(dimension, value)`` factors.

The paper's *sharing computation* technique computes ``Pr(E_I)`` from
``Pr(E_{I∖{i}})`` in ``O(d)`` by multiplying in only the factors whose
value is new to the subset.  We realise this as a depth-first traversal of
the subset lattice that maintains a per-``(dimension, value)`` reference
count: entering object ``i`` multiplies in exactly its not-yet-present
factors, leaving it restores the counts — each subset costs ``O(d)``.

Two practical additions on top of the paper:

* **zero pruning** — once a partial product hits 0 every superset's
  ``Pr(E_I)`` is 0, so the subtree is skipped (and competitors that can
  never dominate are dropped up front);
* **budget guards** — the computation is exponential (the problem is
  #P-complete), so callers bound the number of objects and/or evaluated
  terms and get a clean :class:`repro.errors.ComputationBudgetError`
  instead of an unbounded run.

The module also exposes the truncated inclusion-exclusion layer sums and
the Bonferroni bracket they induce; these power the paper's tentative
approximation "A2" (Figure 6) and give certified bounds.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import repro.obs as obs
from repro.core.dominance import DominanceCache, DominanceFactor, factor_source
from repro.core.objects import Value
from repro.core.preferences import PreferenceModel
from repro.errors import ComputationBudgetError, DeadlineExceededError

__all__ = [
    "DEFAULT_DET_KERNEL",
    "DEFAULT_MAX_OBJECTS",
    "DET_KERNELS",
    "VEC_CROSSOVER",
    "VEC_MAX_OBJECTS",
    "ExactResult",
    "skyline_probability_det",
    "det_from_factor_lists",
    "inclusion_exclusion_layer_sums",
    "bonferroni_bounds",
]

#: Refuse to enumerate more than 2^DEFAULT_MAX_OBJECTS subsets by default.
DEFAULT_MAX_OBJECTS = 25

#: Evaluation kernels for the shared-computation traversal.  "fast" and
#: "reference" perform the *same* float operations in the same order, so
#: their results are bit-for-bit identical (differentially tested);
#: "fast" trims interpreter overhead (no per-term budget check, inlined
#: leaf level, analytic term count), "reference" is the original direct
#: transcription of Algorithm 1 kept as the differential-testing and
#: benchmarking baseline.  "vec" (:mod:`repro.core.exact_vec`) replaces
#: the recursive walk with a NumPy subset-doubling evaluation: identical
#: ``terms_evaluated``/``objects_used`` provenance, probability equal to
#: the recursive kernels within 1e-12 (relative, or absolute under
#: inclusion-exclusion cancellation; summation order differs),
#: roughly an order of magnitude faster at n ≈ 20 dominators.  "auto"
#: is no fourth evaluation: it routes each component to "fast" or "vec"
#: by its post-filter dominator count (see :func:`_solve`).
DET_KERNELS = ("auto", "fast", "reference", "vec")

#: The ``kernel``/``det_kernel`` default of every exact entry point (the
#: engine, batch planner, restriction planner, dynamic engine, shard
#: coordinator and the serving coalescer's bucket key all use it).
DEFAULT_DET_KERNEL = "auto"

#: Smallest dominator count "auto" routes to "vec".  The kernel sweep in
#: ``results/ablation_vec_kernel.md`` (medians of repeated calls, uniform
#: d=5 and block-zipf d=4 components) has "fast" 1.2-2.3x faster than
#: "vec" at 1-6 dominators (vec pays a fixed NumPy cost per call), "fast"
#: ahead or level at 7 (1.4x and 1.0x), "vec" ahead or level at 8 (1.4x
#: and 1.0x), and "vec" 1.7-2.4x faster at 9, 8-12x at 12 and 34-76x at
#: 15-20.
VEC_CROSSOVER = 8

#: Hard ceiling on the "vec" kernel's dominator count: its dense subset
#: array holds ``2^n`` float64s, so n = 26 already commits 512 MiB.
#: Beyond it "vec" refuses rather than thrash and "auto" stays on "fast",
#: which streams the lattice in O(n) memory.
VEC_MAX_OBJECTS = 26

#: Fewest small components of one key structure that :func:`_solve`
#: evaluates in one lockstep call (``det_shared_lockstep_rows``) rather
#: than one ``"fast"`` call each.  The lockstep table of
#: ``results/ablation_vec_kernel.md`` (one lockstep call, compiling
#: included, against a fast call per component; uniform d=5 and
#: block-zipf d=4, 1-7 dominators) has lockstep at 0.57-0.78 of fast
#: per component at 8 rows and 1-4 dominators, and at 0.21-0.40 at 5-7;
#: at 4 rows it is 1.06-1.28x slower at 1-2 dominators.
_LOCKSTEP_MIN_ROWS = 8

#: Inclusion-exclusion terms between wall-clock deadline checks.  A
#: bitmask interval keeps the per-term cost of an armed deadline to one
#: integer AND; 1024 terms take well under a millisecond, so expiry is
#: detected promptly relative to any realistic budget.
_DEADLINE_CHECK_MASK = 1024 - 1


def _check_deadline(deadline_at: float | None, terms: int) -> None:
    """Raise when an armed absolute deadline has passed.

    ``deadline_at`` is a :func:`time.monotonic` timestamp (not a duration)
    so one budget can span every partition of a ``det+``/``auto`` query.
    """
    if deadline_at is not None and time.monotonic() >= deadline_at:
        raise DeadlineExceededError(
            f"wall-clock deadline expired after {terms} inclusion-exclusion "
            f"terms; degrade to sampling (the engine's on_deadline='degrade' "
            f"does this automatically) or raise the deadline"
        )


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a deterministic skyline-probability computation.

    Attributes
    ----------
    probability:
        The exact ``sky(O)`` (clamped to [0, 1] against float round-off).
    terms_evaluated:
        Number of non-empty subsets the traversal visited.  Zero-pruned
        subtrees are not counted — this is the actual work performed.
    objects_used:
        Competitors that survived the zero-dominance filter and therefore
        took part in the enumeration.
    """

    probability: float
    terms_evaluated: int
    objects_used: int


#: Per-object key ids of one component, numbered in first-seen order.
Structure = Tuple[Tuple[int, ...], ...]


class Component(NamedTuple):
    """One component in the form the kernels evaluate.

    ``structure[t]`` holds dominator ``t``'s ``(dimension, value)`` key
    ids, numbered densely in first-seen order (dominator after
    dominator, dimension order within one); ``row`` holds their factors
    in the same order, flat.  Components of one structure differ only
    in their rows, which is what lets ``"vec"`` evaluate them together.
    """

    structure: Structure
    row: Tuple[float, ...]


def _structure(factor_lists: Iterable[Sequence[DominanceFactor]]) -> Component:
    """The component form of ``factor_lists``, every list kept."""
    key_ids: Dict[Tuple[int, Value], int] = {}
    structure = []
    row: List[float] = []
    for factors in factor_lists:
        ids = []
        for dimension, value, factor in factors:
            ids.append(key_ids.setdefault((dimension, value), len(key_ids)))
            row.append(factor)
        structure.append(tuple(ids))
    return Component(tuple(structure), tuple(row))


def _component(
    factor_lists: Iterable[Sequence[DominanceFactor]],
) -> Component | None:
    """The component form of the competitors that can dominate at all.

    Returns ``None`` at the first empty list: that competitor duplicates
    the target, so it dominates with probability 1 and ``sky = 0`` (the
    rest of a lazy ``factor_lists`` is then never computed).  Competitors
    with any zero factor are dropped before keys are numbered: every
    subset containing them has ``Pr(E_I) = 0``.  The one conversion from
    factor lists; the tile pass (:mod:`repro.core.preprocess`) builds the
    same form from value codes.
    """
    kept: List[Sequence[DominanceFactor]] = []
    for factors in factor_lists:
        if not factors:
            return None
        if any(probability == 0.0 for _, _, probability in factors):
            continue
        kept.append(factors)
    return _structure(kept)


def _pairs(
    component: Component | Iterable[Sequence[DominanceFactor]],
) -> Tuple[Structure, List[Tuple[Tuple[int, float], ...]], int]:
    """A component's structure, per object its ``(id, factor)`` pairs, and
    a bound on its key ids (the factor count; ids are first-seen dense).

    Factor lists (direct kernel callers) are numbered by
    :func:`_structure` first, every list kept.
    """
    if not isinstance(component, Component):
        component = _structure(component)
    structure, row = component
    pairs = []
    start = 0
    for ids in structure:
        end = start + len(ids)
        pairs.append(tuple(zip(ids, row[start:end])))
        start = end
    return structure, pairs, len(row)


def _clamp_probability(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def skyline_probability_det(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    *,
    max_objects: int = DEFAULT_MAX_OBJECTS,
    max_terms: int | None = None,
    share_computation: bool = True,
    kernel: str = DEFAULT_DET_KERNEL,
    cache: DominanceCache | None = None,
    deadline_at: float | None = None,
) -> ExactResult:
    """Exact ``sky(target)`` against ``competitors`` (Algorithm 1).

    Parameters
    ----------
    preferences:
        The uncertain-preference model of the space.
    competitors:
        The other objects ``Q_1 .. Q_n`` (must not contain ``target``).
    target:
        The object ``O`` whose skyline probability is computed.
    max_objects:
        Guard on the post-filter competitor count; exceeding it raises
        :class:`ComputationBudgetError` (use preprocessing or sampling).
    max_terms:
        Optional guard on the number of inclusion-exclusion terms visited.
        Per-term accounting needs the reference traversal, so a set
        ``max_terms`` implies the reference kernel regardless of
        ``kernel`` (truncating the vectorized evaluation mid-level has
        no per-term analogue).
    share_computation:
        ``True`` (default) uses the paper's O(d)-per-term sharing scheme;
        ``False`` recomputes every ``Pr(E_I)`` from scratch — only useful
        as the ablation baseline for the sharing technique.
    kernel:
        One of :data:`DET_KERNELS`.  ``"auto"`` (default) solves with
        ``"fast"`` below :data:`VEC_CROSSOVER` post-filter dominators and
        above :data:`VEC_MAX_OBJECTS`, and with ``"vec"`` in between, so
        its answer is ``"fast"``'s or ``"vec"``'s bit for bit.
        ``"fast"`` and ``"reference"`` run the identical float-operation
        sequence and return bit-for-bit equal results; ``"reference"``
        is the original transcription kept as the differential-test /
        benchmark baseline.  ``"vec"`` evaluates the subset lattice with
        NumPy array doubling (:mod:`repro.core.exact_vec`): same
        provenance counters, the probability agrees within 1e-12
        (relative, or absolute under cancellation), and large
        partitions run roughly an order of magnitude faster.
    cache:
        Optional :class:`~repro.core.dominance.DominanceCache` shared
        across queries (batch evaluation); never changes the answer.
    deadline_at:
        Optional absolute :func:`time.monotonic` timestamp; the subset
        enumeration checks it periodically and raises
        :class:`~repro.errors.DeadlineExceededError` once it has passed.
        For ``"fast"``/``"reference"`` an armed deadline routes through
        the reference traversal (bit-for-bit identical, per-term
        accounting every 1024 terms); ``"vec"`` honours the deadline
        natively between doubling levels (coarser granularity, each
        level is milliseconds at feasible ``n``).  The unarmed happy
        path pays nothing either way.
    """
    factors_of = factor_source(preferences, cache)
    return _solve_one(
        (factors_of(q, target) for q in competitors),
        max_objects=max_objects,
        max_terms=max_terms,
        share_computation=share_computation,
        kernel=kernel,
        deadline_at=deadline_at,
    )


def det_from_factor_lists(
    factor_lists: Sequence[Sequence[DominanceFactor]],
    *,
    max_objects: int = DEFAULT_MAX_OBJECTS,
    kernel: str = DEFAULT_DET_KERNEL,
    deadline_at: float | None = None,
) -> ExactResult:
    """Exact ``sky`` from precomputed per-competitor factor lists.

    The factor-level twin of :func:`skyline_probability_det` for callers
    that already hold each competitor's dominance factors (for example
    sliced to a subspace with
    :func:`~repro.core.restricted.slice_factors`).  Semantics match the object-level entry
    point exactly: an empty factor tuple means the competitor coincides
    with the target on every dimension considered (duplicate convention,
    ``sky = 0``), zero-factor competitors are dropped, the surviving
    count is guarded by ``max_objects``, and ``kernel`` routes the same
    way.
    """
    return _solve_one(
        factor_lists,
        max_objects=max_objects,
        kernel=kernel,
        deadline_at=deadline_at,
    )


def _solve_one(
    component: Component | Iterable[Sequence[DominanceFactor]], **options: object
) -> ExactResult:
    """The one-component case of :func:`_solve`: its result, or its error."""
    (outcome,) = _solve((component,), **options)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _solve(
    components: Iterable[Component | Iterable[Sequence[DominanceFactor]]],
    *,
    max_objects: int,
    kernel: str,
    deadline_at: float | None,
    max_terms: int | None = None,
    share_computation: bool = True,
    progress: Callable[[int | None], None] | None = None,
) -> List[ExactResult | Exception]:
    """Guard, route and solve many components; one outcome each.

    A component is a :class:`Component`, ``None`` (a duplicate
    competitor: ``sky = 0``) or the factor lists :func:`_component`
    converts, lazily and after the deadline check.  The kernel rule
    lives here, once, and applies to each component alone.  ``"auto"``
    is resolved from the dominator count ``n``, so it is a pure function
    of the component: ``"vec"`` for ``VEC_CROSSOVER <= n <=
    VEC_MAX_OBJECTS``, ``"fast"`` otherwise.  A set ``max_terms`` needs
    per-term accounting, which only ``"reference"`` has; an armed
    deadline turns ``"fast"`` into the bit-identical ``"reference"``
    (which checks it every 1024 terms), while ``"vec"`` checks it
    natively between doubling levels.

    Components routed to ``"fast"`` below ``VEC_CROSSOVER`` dominators
    (no ``max_terms``, no armed deadline, sharing on) are grouped by key
    structure: a group of at least :data:`_LOCKSTEP_MIN_ROWS` is
    evaluated in one
    :func:`~repro.core.exact_vec.det_shared_lockstep_rows` call, whose
    rows equal ``"fast"``'s results bit for bit, and a smaller one is
    solved by ``"fast"``, one component at a time, in component order.
    ``"vec"`` components are grouped by key structure too, and each
    group is evaluated in one
    :func:`~repro.core.exact_vec.det_shared_vec_rows` call, whose rows
    are bit-identical to lone evaluations.  Every other component is
    solved alone, as it comes.  Each solve is one ``exact`` obs stage.
    ``progress`` is called before each solve — with the component's
    position, or ``None`` before a group — and what it raises
    propagates (it drives a supervisor's heartbeat).
    A component that fails — a guard, an expired deadline — yields its
    exception in place of a result and fails nothing else; the obs
    counters are recorded per solved component.  The engine's exact
    entry; :func:`skyline_probability_det` and
    :func:`det_from_factor_lists` are its one-component case.
    """
    if kernel not in DET_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {DET_KERNELS}"
        )
    outcomes: List[ExactResult | Exception | None] = []
    groups: Dict[Structure, List[Tuple[int, Tuple[float, ...]]]] = {}
    small: Dict[Structure, List[Tuple[int, Component]]] = {}
    for component in components:
        position = len(outcomes)
        outcomes.append(None)
        try:
            _check_deadline(deadline_at, 0)
            if component is not None and not isinstance(component, Component):
                component = _component(component)
            if component is None:
                # Duplicate convention: an equal competitor dominates with
                # probability 1, so sky = 0 and *no* object survives the
                # filter to take part in any enumeration — objects_used is 0.
                obs.count(
                    "repro_duplicate_targets_total",
                    help_text="Queries answered 0 by the duplicate-target convention.",
                )
                outcomes[position] = ExactResult(0.0, 0, 0)
                continue
            n = len(component.structure)
            if n > max_objects:
                raise ComputationBudgetError(
                    f"exact enumeration over {n} dominance events needs up to "
                    f"2^{n} terms, beyond the max_objects={max_objects} budget; "
                    f"preprocess (absorption/partition) or use sampling"
                )
        except Exception as error:
            # The error is this component's outcome: the target it belongs
            # to raises it when finished, and no other component fails.
            outcomes[position] = error
            continue
        if kernel == "auto":
            routed = "vec" if VEC_CROSSOVER <= n <= VEC_MAX_OBJECTS else "fast"
        else:
            routed = kernel
        if max_terms is None and share_computation:
            if routed == "vec":
                groups.setdefault(component.structure, []).append(
                    (position, component.row)
                )
                continue
            if routed == "fast" and deadline_at is None and n < VEC_CROSSOVER:
                small.setdefault(component.structure, []).append(
                    (position, component)
                )
                continue
        if not share_computation:
            solve, limits = _det_without_sharing, (max_terms, deadline_at)
        elif routed != "fast" or max_terms is not None or deadline_at is not None:
            solve, limits = _det_shared_reference, (max_terms, deadline_at)
        else:
            solve, limits = _det_shared_fast, ()
        _solve_alone(outcomes, position, progress, solve, component, *limits)
    # A structure with too few small components for one lockstep call
    # leaves them to "fast", solved alone in component order.
    lone: List[Tuple[int, Component]] = []
    lockstep: Dict[Structure, List[Tuple[int, Tuple[float, ...]]]] = {}
    for structure, members in small.items():
        if len(members) < _LOCKSTEP_MIN_ROWS:
            lone += members
        else:
            lockstep[structure] = [(p, component.row) for p, component in members]
    lone.sort(key=operator.itemgetter(0))
    for position, component in lone:
        _solve_alone(outcomes, position, progress, _det_shared_fast, component)
    if lockstep or groups:
        # Imported lazily: exact_vec imports this module for the shared
        # helpers, so a top-level import would be circular.
        from repro.core.exact_vec import (
            det_shared_lockstep_rows,
            det_shared_vec_rows,
        )

        for structure, members in lockstep.items():
            _solve_group(
                outcomes, members, progress,
                functools.partial(det_shared_lockstep_rows, structure),
            )
        for structure, members in groups.items():
            _solve_group(
                outcomes, members, progress,
                functools.partial(
                    det_shared_vec_rows, structure, deadline_at=deadline_at
                ),
            )
    return outcomes


def _solve_alone(
    outcomes: List[ExactResult | Exception | None],
    position: int,
    progress: Callable[[int | None], None] | None,
    kernel: Callable[..., ExactResult],
    *arguments: object,
) -> None:
    """One component's solve, announced by its position: one ``exact``
    obs stage whose result (or error) becomes its outcome."""
    if progress is not None:
        progress(position)
    try:
        with obs.stage("exact"):
            result = kernel(*arguments)
    except Exception as error:
        outcomes[position] = error
        return
    outcomes[position] = result
    _record_exact(result)


def _solve_group(
    outcomes: List[ExactResult | Exception | None],
    members: List[Tuple[int, Tuple[float, ...]]],
    progress: Callable[[int | None], None] | None,
    evaluate: Callable[[List[Tuple[float, ...]]], List[ExactResult]],
) -> None:
    """One grouped solve, announced by ``None``: ``evaluate`` maps the
    members' rows to their results in one ``exact`` obs stage, and an
    error it raises becomes every member's outcome."""
    if progress is not None:
        progress(None)
    try:
        with obs.stage("exact"):
            results: List[ExactResult | Exception] = evaluate(
                [row for _, row in members]
            )
    except Exception as error:
        results = [error] * len(members)
    for (position, _), result in zip(members, results):
        outcomes[position] = result
    if obs.is_enabled():
        for result in results:
            if isinstance(result, ExactResult):
                _record_exact(result)


def _record_exact(result: ExactResult) -> None:
    """Publish one exact run's counters (no-op while obs is disabled)."""
    if not obs.is_enabled():
        return
    registry = obs.registry()
    registry.counter(
        "repro_ie_terms_evaluated_total",
        "Inclusion-exclusion terms actually visited (Equation 4).",
    ).inc(result.terms_evaluated)
    registry.counter(
        "repro_ie_terms_zero_pruned_total",
        "Inclusion-exclusion terms skipped by zero pruning.",
    ).inc((1 << result.objects_used) - 1 - result.terms_evaluated)
    registry.counter(
        "repro_exact_runs_total", "Completed Det kernel invocations."
    ).inc()


def _det_shared_reference(
    component: Component | Sequence[Sequence[DominanceFactor]],
    max_terms: int | None,
    deadline_at: float | None = None,
) -> ExactResult:
    """Algorithm 1 with sharing, as originally transcribed.

    This is the baseline the fast kernel is differentially tested against
    and the "seed serial loop" timed by the batch benchmark; it also hosts
    the ``max_terms`` budget guard, which needs per-term accounting.  The
    key ids let the traversal keep its reference counts in a plain list
    (a dict keyed on ``(dimension, value)`` profiles ~2x slower).
    """
    object_ids, object_pairs, keys = _pairs(component)
    n = len(object_ids)
    counts = [0] * keys
    # `total` accumulates Σ_{I≠∅} (-1)^{|I|} Pr(E_I); sky = 1 + total.
    total = 0.0
    terms = 0

    def visit(start: int, probability: float, sign: float) -> None:
        nonlocal total, terms
        for i in range(start, n):
            terms += 1
            if max_terms is not None and terms > max_terms:
                raise ComputationBudgetError(
                    f"inclusion-exclusion exceeded max_terms={max_terms}"
                )
            if terms & _DEADLINE_CHECK_MASK == 0:
                _check_deadline(deadline_at, terms)
            extended = probability
            for identifier, factor in object_pairs[i]:
                if counts[identifier] == 0:
                    extended *= factor
                counts[identifier] += 1
            total += sign * extended
            if extended > 0.0:
                visit(i + 1, extended, -sign)
            for identifier in object_ids[i]:
                counts[identifier] -= 1

    visit(0, 1.0, -1.0)
    return ExactResult(_clamp_probability(1.0 + total), terms, n)


def _det_shared_fast(
    component: Component | Sequence[Sequence[DominanceFactor]],
) -> ExactResult:
    """Interpreter-lean twin of :func:`_det_shared_reference`.

    Performs the *same multiplications and additions in the same order* —
    results are bit-for-bit identical — but sheds per-term overhead: the
    leaf level of the subset lattice is inlined (it needs no reference
    counting because nothing reads the counts after it), factor pairs are
    pre-zipped, the hot names are locals, and the visited-term count is
    derived analytically from the zero-pruned subtree sizes instead of a
    per-term counter.
    """
    object_ids, object_pairs, keys = _pairs(component)
    n = len(object_ids)
    if n == 0:
        return ExactResult(1.0, 0, 0)
    counts = [0] * keys
    total = 0.0
    pruned = 0
    last = n - 1

    def visit(
        start: int,
        probability: float,
        sign: float,
        object_pairs: List[Tuple[Tuple[int, float], ...]] = object_pairs,
        object_ids: List[Tuple[int, ...]] = object_ids,
        counts: List[int] = counts,
        last: int = last,
        last_pairs: Tuple[Tuple[int, float], ...] = object_pairs[-1],
    ) -> None:
        nonlocal total, pruned
        for i in range(start, last):
            extended = probability
            pairs = object_pairs[i]
            for identifier, factor in pairs:
                if counts[identifier] == 0:
                    extended *= factor
                counts[identifier] += 1
            total += sign * extended
            if extended > 0.0:
                if i + 1 == last:
                    # Bottom level unrolled: a visit(last, ...) call would
                    # only run the leaf tail below.  ``-(sign * x)`` and
                    # ``(-sign) * x`` are the same IEEE value, so the
                    # subtraction keeps the float stream bit-identical.
                    tail = extended
                    for identifier, factor in last_pairs:
                        if counts[identifier] == 0:
                            tail *= factor
                    total -= sign * tail
                elif i + 2 == last:
                    # Second-to-bottom level unrolled the same way (the
                    # child visits exactly object last-1, then its leaf);
                    # every child sign flip folds into +/- on ``sign``.
                    deeper = extended
                    for identifier, factor in object_pairs[last - 1]:
                        if counts[identifier] == 0:
                            deeper *= factor
                        counts[identifier] += 1
                    total -= sign * deeper
                    if deeper > 0.0:
                        tail = deeper
                        for identifier, factor in last_pairs:
                            if counts[identifier] == 0:
                                tail *= factor
                        total += sign * tail
                    else:
                        pruned += 1
                    for identifier in object_ids[last - 1]:
                        counts[identifier] -= 1
                    tail = extended
                    for identifier, factor in last_pairs:
                        if counts[identifier] == 0:
                            tail *= factor
                    total -= sign * tail
                else:
                    visit(i + 1, extended, -sign)
            else:
                # The skipped subtree holds 2^(last-i) - 1 subsets, all
                # with Pr(E_I) = 0 — the reference kernel skips it too.
                pruned += (1 << (last - i)) - 1
            for identifier in object_ids[i]:
                counts[identifier] -= 1
        # Leaf level (i == last): no recursion follows, so the reference
        # counts need not be touched — each factor key appears at most
        # once per object, making the count-is-zero test increment-free.
        extended = probability
        for identifier, factor in object_pairs[last]:
            if counts[identifier] == 0:
                extended *= factor
        total += sign * extended

    visit(0, 1.0, -1.0)
    return ExactResult(
        _clamp_probability(1.0 + total), (1 << n) - 1 - pruned, n
    )


def _det_without_sharing(
    component: Component | Sequence[Sequence[DominanceFactor]],
    max_terms: int | None,
    deadline_at: float | None = None,
) -> ExactResult:
    """Naive per-term evaluation of Equation 4 (ablation reference).

    Each ``Pr(E_I)`` is recomputed from all of its objects' factors, i.e.
    ``O(d·|I|)`` per term instead of the shared ``O(d)``.
    """
    _, object_pairs, _ = _pairs(component)
    n = len(object_pairs)
    total = 0.0
    terms = 0
    stack: List[Tuple[int, Tuple[int, ...]]] = [(0, ())]
    while stack:
        start, chosen = stack.pop()
        for i in range(start, n):
            subset = chosen + (i,)
            terms += 1
            if max_terms is not None and terms > max_terms:
                raise ComputationBudgetError(
                    f"inclusion-exclusion exceeded max_terms={max_terms}"
                )
            if terms & _DEADLINE_CHECK_MASK == 0:
                _check_deadline(deadline_at, terms)
            seen: set = set()
            probability = 1.0
            for member in subset:
                for identifier, factor in object_pairs[member]:
                    if identifier not in seen:
                        seen.add(identifier)
                        probability *= factor
            total += (-1.0 if len(subset) % 2 else 1.0) * probability
            if probability > 0.0:
                stack.append((i + 1, subset))
    return ExactResult(_clamp_probability(1.0 + total), terms, n)


def inclusion_exclusion_layer_sums(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    max_size: int,
    *,
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> List[float]:
    """Layer sums ``T_k = Σ_{|I|=k} Pr(E_I)`` for ``k = 1 .. max_size``.

    These are the building blocks of both the truncated approximation A2
    and the Bonferroni bracket of :func:`bonferroni_bounds`.  A duplicate
    competitor makes every ``T_k`` the full binomial count of subsets
    through it; that situation is rejected (``sky`` is simply 0 then).
    """
    sums, _ = _layer_sums(
        preferences, competitors, target, max_size, max_objects=max_objects
    )
    return sums


def _layer_sums(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    max_size: int,
    *,
    max_objects: int,
) -> Tuple[List[float], int]:
    """Layer sums plus the post-filter competitor count ``n``."""
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    factors_of = factor_source(preferences)
    component = _component(factors_of(q, target) for q in competitors)
    if component is None:
        raise ComputationBudgetError(
            "a competitor duplicates the target; sky(target) is 0 and "
            "layer sums are not meaningful"
        )
    object_ids, object_pairs, keys = _pairs(component)
    n = len(object_ids)
    if n > max_objects and max_size >= n:
        raise ComputationBudgetError(
            f"full enumeration over {n} events exceeds max_objects={max_objects}"
        )
    depth = min(max_size, n)
    sums = [0.0] * (depth + 1)  # sums[k] = T_k; index 0 unused
    counts = [0] * keys

    def visit(start: int, probability: float, size: int) -> None:
        for i in range(start, n):
            extended = probability
            for identifier, factor in object_pairs[i]:
                if counts[identifier] == 0:
                    extended *= factor
                counts[identifier] += 1
            sums[size + 1] += extended
            if size + 1 < depth and extended > 0.0:
                visit(i + 1, extended, size + 1)
            for identifier in object_ids[i]:
                counts[identifier] -= 1

    visit(0, 1.0, 0)
    return sums[1:], n


def bonferroni_bounds(
    preferences: PreferenceModel,
    competitors: Sequence[Sequence[Value]],
    target: Sequence[Value],
    max_size: int,
    *,
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> Tuple[float, float]:
    """Certified ``(lower, upper)`` bracket of ``sky(target)``.

    Truncating the inclusion-exclusion expansion of the union probability
    after an odd layer over-estimates it and after an even layer
    under-estimates it (Bonferroni inequalities), which brackets ``sky``:

        1 - U_partial(odd k)  ≤  sky  ≤  1 - U_partial(even k)

    The bracket collapses to the exact value when ``max_size`` reaches the
    competitor count.
    """
    layer_sums, n = _layer_sums(
        preferences, competitors, target, max_size, max_objects=max_objects
    )
    lower, upper = 0.0, 1.0
    union_partial = 0.0
    for k, t_k in enumerate(layer_sums, start=1):
        union_partial += t_k if k % 2 else -t_k
        if k % 2:  # odd prefix: union over-estimated, sky under-estimated
            lower = max(lower, _clamp_probability(1.0 - union_partial))
        else:  # even prefix: union under-estimated, sky over-estimated
            upper = min(upper, _clamp_probability(1.0 - union_partial))
    if len(layer_sums) >= n:
        # The expansion is complete: both bounds equal the exact value.
        exact = _clamp_probability(1.0 - union_partial)
        return exact, exact
    return lower, upper
