"""Shared hypothesis strategies for the property-based tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.preferences import PreferenceModel

__all__ = [
    "uncertain_instance",
    "disjoint_instance",
    "shared_value_instance",
    "edit_script",
    "apply_edit",
    "restricted_instance",
    "structure_rows",
]


@st.composite
def uncertain_instance(draw):
    """A small random space: target O, <=4 distinct competitors, random
    (possibly incomparable, possibly certain) preferences on every pair."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    values = [[f"o{j}", f"a{j}", f"b{j}"] for j in range(d)]
    target = tuple(f"o{j}" for j in range(d))
    competitors = []
    seen = {target}
    for _ in range(n):
        candidate = tuple(
            values[j][draw(st.integers(min_value=0, max_value=2))]
            for j in range(d)
        )
        if candidate not in seen:
            seen.add(candidate)
            competitors.append(candidate)
    preferences = PreferenceModel(d)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for j in range(d):
        for x in range(3):
            for y in range(x + 1, 3):
                forward = draw(st.sampled_from(grid))
                backward = draw(
                    st.sampled_from([p for p in grid if p + forward <= 1.0])
                )
                preferences.set_preference(
                    j, values[j][x], values[j][y], forward, backward
                )
    return preferences, competitors, target


@st.composite
def shared_value_instance(draw):
    """A wider random space (up to 8 competitors) over small per-dimension
    value pools, so competitors share ``(dimension, value)`` dominance keys
    heavily — the regime both the recursive kernels' reference counting
    and the vec kernel's masked-multiply path exist for.  More doubling
    levels than :func:`uncertain_instance` without exploding the lattice.
    """
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=8))
    values = [[f"o{j}", f"a{j}", f"b{j}", f"c{j}"] for j in range(d)]
    target = tuple(f"o{j}" for j in range(d))
    preferences = PreferenceModel(d)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for j in range(d):
        names = values[j]
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                forward = draw(st.sampled_from(grid))
                backward = draw(
                    st.sampled_from([p for p in grid if p + forward <= 1.0])
                )
                preferences.set_preference(
                    j, names[x], names[y], forward, backward
                )
    competitors = []
    seen = {target}
    for _ in range(n):
        candidate = tuple(
            values[j][draw(st.integers(min_value=0, max_value=3))]
            for j in range(d)
        )
        if candidate not in seen:
            seen.add(candidate)
            competitors.append(candidate)
    return preferences, competitors, target


@st.composite
def edit_script(draw, max_edits=6):
    """A dynamic-update workload: a valid starting instance plus a list of
    edits, each valid against the state produced by its predecessors.

    Returns ``(preferences, objects, edits)`` where every edit is one of
    ``("insert", values)``, ``("remove", index)``, or
    ``("update_preference", dimension, a, b, forward, backward)``.  The
    script is simulated while drawing so inserts never duplicate, removes
    never empty the dataset, and preference pairs always stay coherent
    (``forward + backward <= 1``).  Shared by the differential, statistics
    and chaos suites so they shrink over the same space.
    """
    d = draw(st.integers(min_value=1, max_value=2))
    universe = [[f"v{j}_{k}" for k in range(3)] for j in range(d)]
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    preferences = PreferenceModel(d, default=0.5)
    for j in range(d):
        for x in range(3):
            for y in range(x + 1, 3):
                forward = draw(st.sampled_from(grid))
                backward = draw(
                    st.sampled_from([p for p in grid if p + forward <= 1.0])
                )
                preferences.set_preference(
                    j, universe[j][x], universe[j][y], forward, backward
                )

    def fresh_object():
        return tuple(
            universe[j][draw(st.integers(min_value=0, max_value=2))]
            for j in range(d)
        )

    n = draw(st.integers(min_value=1, max_value=4))
    objects = []
    for _ in range(n):
        candidate = fresh_object()
        if candidate not in objects:
            objects.append(candidate)

    simulated = list(objects)
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_edits))):
        choices = ["insert", "update_preference"]
        if len(simulated) > 1:
            choices.append("remove")
        kind = draw(st.sampled_from(choices))
        if kind == "insert":
            candidate = fresh_object()
            if candidate in simulated:
                continue  # duplicate draw; skip rather than reject the run
            simulated.append(candidate)
            edits.append(("insert", candidate))
        elif kind == "remove":
            index = draw(st.integers(min_value=0, max_value=len(simulated) - 1))
            del simulated[index]
            edits.append(("remove", index))
        else:
            j = draw(st.integers(min_value=0, max_value=d - 1))
            x = draw(st.integers(min_value=0, max_value=2))
            y = draw(st.sampled_from([k for k in range(3) if k != x]))
            forward = draw(st.sampled_from(grid))
            backward = draw(
                st.sampled_from([p for p in grid if p + forward <= 1.0])
            )
            edits.append(
                (
                    "update_preference",
                    j,
                    universe[j][x],
                    universe[j][y],
                    forward,
                    backward,
                )
            )
    return preferences, objects, edits


def apply_edit(engine, edit):
    """Replay one :func:`edit_script` entry against a dynamic engine and
    return its :class:`repro.EditReport`."""
    kind = edit[0]
    if kind == "insert":
        return engine.insert_object(edit[1])
    if kind == "remove":
        return engine.remove_object(edit[1])
    if kind == "update_preference":
        return engine.update_preference(*edit[1:])
    raise ValueError(f"unknown edit kind {kind!r}")


@st.composite
def restricted_instance(draw):
    """A dataset plus one ``(competitor subset, dimension subspace)`` pair.

    Returns ``(preferences, objects, target, competitors, dims)`` where
    ``objects`` is a list of distinct tuples, ``target`` an index into
    it, ``competitors`` either ``None`` (all objects) or a sorted list
    of object indices that *may include the target* (the planner must
    exclude it), and ``dims`` either ``None`` (the full space) or a
    sorted non-empty list of dimension indices.  Value pools are small
    (4 values per dimension) so subspace projections frequently collide
    into projected duplicates — the sky = 0 degenerate the restricted
    semantics must get exactly right.
    """
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=6))
    values = [[f"o{j}", f"a{j}", f"b{j}", f"c{j}"] for j in range(d)]
    preferences = PreferenceModel(d)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for j in range(d):
        names = values[j]
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                forward = draw(st.sampled_from(grid))
                backward = draw(
                    st.sampled_from([p for p in grid if p + forward <= 1.0])
                )
                preferences.set_preference(
                    j, names[x], names[y], forward, backward
                )
    objects = []
    seen = set()
    for _ in range(n):
        candidate = tuple(
            values[j][draw(st.integers(min_value=0, max_value=3))]
            for j in range(d)
        )
        if candidate not in seen:
            seen.add(candidate)
            objects.append(candidate)
    target = draw(st.integers(min_value=0, max_value=len(objects) - 1))
    if draw(st.booleans()):
        competitors = None
    else:
        competitors = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=len(objects) - 1),
                    min_size=0,
                    max_size=len(objects),
                )
            )
        )
    if draw(st.booleans()):
        dims = None
    else:
        dims = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=d - 1),
                    min_size=1,
                    max_size=d,
                )
            )
        )
    return preferences, objects, target, competitors, dims


@st.composite
def disjoint_instance(draw):
    """Competitors whose differing values are pairwise disjoint, so the
    independent-dominance assumption actually holds."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    target = tuple(f"o{j}" for j in range(d))
    preferences = PreferenceModel(d)
    competitors = []
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for i in range(n):
        competitor = []
        differs = False
        for j in range(d):
            if draw(st.booleans()) or (not differs and j == d - 1):
                value = f"v{i}_{j}"  # value private to competitor i
                forward = draw(st.sampled_from(grid))
                preferences.set_preference(j, value, f"o{j}", forward)
                competitor.append(value)
                differs = True
            else:
                competitor.append(f"o{j}")
        competitors.append(tuple(competitor))
    return preferences, competitors, target


@st.composite
def structure_rows(draw, max_objects=16, max_rows=40):
    """Components sharing one key structure, as factor lists.

    Up to ``max_objects`` objects draw ``(dimension, value)`` keys from
    small per-dimension pools, so keys are shared between objects (an
    object may hold only shared keys).  Every component (row) keeps the
    keys and jitters the factors — one factor per key, as a target's
    dominance factors are — and some rows carry 1e-200 factors whose
    products underflow to exact zeros (zero pruning).
    """
    n = draw(st.integers(min_value=1, max_value=max_objects))
    d = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.integers(min_value=1, max_value=4))
    objects = []
    for _ in range(n):
        dims = draw(
            st.lists(
                st.integers(min_value=0, max_value=d - 1),
                min_size=1,
                max_size=d,
                unique=True,
            )
        )
        objects.append(
            tuple(
                (dim, f"v{draw(st.integers(min_value=0, max_value=pool - 1))}")
                for dim in sorted(dims)
            )
        )
    keys = sorted({key for keys in objects for key in keys})
    base = {
        key: draw(st.floats(min_value=0.02, max_value=0.98)) for key in keys
    }
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    components = []
    for _ in range(rows):
        underflow = rng.random() < 0.25
        factor = {
            key: (
                1e-200
                if underflow and rng.random() < 0.3
                else min(1.0, base[key] * rng.uniform(0.5, 1.5))
            )
            for key in keys
        }
        components.append(
            [tuple((dim, value, factor[(dim, value)]) for dim, value in obj)
             for obj in objects]
        )
    return components
