"""The tile pass plans many targets exactly as the per-target pipeline does.

:func:`repro.core.preprocess._plan_tile` plans a chunk's targets
together, as array passes over value codes.  For every target it must
return what planning that target alone returns: the same
:class:`PreprocessResult` (compared by ``repr``, so insertion orders
count), the same exact components in their ``(structure, row)`` form,
or the same error.  The generated instances hold shared values, ``Γ``
copies under a dims restriction, zero-probability pairs, competitor
subsets, external targets and strict models with missing pairs; tiles
are cut small so that one spans several targets.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro import SkylineProbabilityEngine, batch_skyline_probabilities
from repro.core.dominance import DominanceCache
from repro.core.exact import _component
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.core.preprocess import _plan_tile, _ValueCodes, preprocess
from repro.core.restricted import materialize_competitor

from strategies import strict_block_zipf


@st.composite
def tile_instances(draw):
    """A dataset, a preference model, targets and one set of options."""
    d = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=14))
    rows = {
        tuple(
            f"v{j}_{draw(st.integers(min_value=0, max_value=width))}"
            for j in range(d)
        )
        for _ in range(n)
    }
    if len(rows) < 2:
        rows.add(tuple(f"w{j}" for j in range(d)))
    dataset = Dataset(sorted(rows))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    strict = draw(st.booleans())
    preferences = PreferenceModel(d, default=None if strict else 0.5)
    for j in range(d):
        values = sorted({row[j] for row in rows} | {f"x{j}"})
        for a in values:
            for b in values:
                if a >= b or (strict and rng.random() < 0.1):
                    continue  # a missing pair, under a strict model
                forward = rng.choice([0.0, 0.0, 1.0, 0.5, rng.random()])
                preferences.set_preference(j, a, b, forward)
    targets = [(dataset[i], i) for i in range(len(dataset))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # An external target, possibly holding a value no object holds.
        external = tuple(
            rng.choice([f"x{j}", f"v{j}_0", f"v{j}_1"]) for j in range(d)
        )
        if external not in rows:
            targets.append((external, None))
    pool = list(range(len(dataset)))
    if draw(st.booleans()):
        pool = sorted(rng.sample(pool, rng.randint(0, len(pool))))
    dims = None
    if draw(st.booleans()):
        dims = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
    options = dict(
        method=draw(st.sampled_from(["det", "det+", "auto"])),
        use_absorption=draw(st.booleans()),
        use_partition=draw(st.booleans()),
        max_exact=draw(st.integers(min_value=1, max_value=6)),
    )
    tile = draw(st.integers(min_value=1, max_value=5))
    return dataset, preferences, targets, pool, dims, options, tile


def _alone(dataset, preferences, target, own, pool, dims, options):
    """The per-target pipeline's plan of one target, or its error."""
    cache = DominanceCache(preferences)
    competitors = [
        materialize_competitor(dataset[i], target, dims) for i in pool if i != own
    ]
    try:
        if options["method"] == "det":
            return None, [
                _component([cache.dominance_factors(c, target) for c in competitors])
            ]
        prep = preprocess(
            competitors,
            target,
            preferences=preferences,
            use_absorption=options["use_absorption"],
            use_partition=options["use_partition"],
            cache=cache,
        )
        return prep, [
            None
            if len(part) > options["max_exact"]
            else _component(
                [cache.dominance_factors(competitors[m], target) for m in part]
            )
            for part in prep.partitions
        ]
    except Exception as error:
        return error


def _duplicate(dataset, target, own, pool, dims):
    return any(
        materialize_competitor(dataset[i], target, dims) == target
        for i in pool
        if i != own
    )


def _assert_same(tiled, alone):
    if isinstance(alone, Exception):
        assert type(tiled) is type(alone)
        assert str(tiled) == str(alone)
        return
    prep, forms = tiled
    assert repr(prep) == repr(alone[0])
    assert forms == alone[1]
    # Python numbers throughout: a NumPy scalar would repr differently.
    for form in forms:
        if form is not None:
            assert all(type(i) is int for ids in form.structure for i in ids)
            assert all(type(f) is float for f in form.row)


class TestTileEqualsPerTarget:
    @given(tile_instances())
    @settings(max_examples=200, deadline=None)
    def test_every_target_planned_alike(self, instance):
        dataset, preferences, targets, pool, dims, options, tile = instance
        codes = _ValueCodes(dataset.objects, dataset.dimensionality)
        planned = [
            (target, own)
            for target, own in targets
            if not _duplicate(dataset, target, own, pool, dims)
        ]
        cache = DominanceCache(preferences)
        for first in range(0, len(planned), tile):
            chunk = planned[first : first + tile]
            outcomes = _plan_tile(codes, chunk, pool, dims, cache, **options)
            assert len(outcomes) == len(chunk)
            for (target, own), outcome in zip(chunk, outcomes):
                _assert_same(
                    outcome,
                    _alone(dataset, preferences, target, own, pool, dims, options),
                )

    @given(tile_instances())
    @settings(max_examples=60, deadline=None)
    def test_batch_reports_equal_with_tiles_forced_on_and_off(self, instance):
        dataset, preferences, _, pool, dims, options, tile = instance
        restriction = dict(
            competitors=None if len(pool) == len(dataset) else pool, dims=dims
        )
        batch_options = dict(
            method=options["method"],
            use_absorption=options["use_absorption"],
            use_partition=options["use_partition"],
            seed=3,
            **restriction,
        )

        def run(crossover, cells):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine_module, "_TILE_CROSSOVER", crossover)
                patch.setattr(engine_module, "_TILE_CELLS", cells)
                engine = SkylineProbabilityEngine(
                    dataset, preferences, max_exact_objects=options["max_exact"]
                )
                return batch_skyline_probabilities(engine, **batch_options)

        cells = tile * len(dataset) * dataset.dimensionality
        tiled, alone = run(0, cells), run(float("inf"), cells)
        assert tiled.indices == alone.indices
        assert [repr(r) for r in tiled.reports] == [repr(r) for r in alone.reports]
        assert tiled.failures == alone.failures


class TestStrictModelThroughTiles:
    """A missing pair fails exactly the targets that read it."""

    def test_stopping_chunk_consults_no_failpoint_after_its_first_failure(
        self, monkeypatch
    ):
        # A shard's chunk with no retries left stops at its first
        # failure; its targets are still tiled, planned ahead of their
        # failpoints.
        from repro.core.options import QueryOptions
        from repro.distrib import ShardTask, execute_shard

        dataset, preferences = strict_block_zipf()
        engine = SkylineProbabilityEngine(dataset, preferences)
        expected = {}
        for index in range(len(dataset)):
            try:
                expected[index] = engine.skyline_probability(index)
            except Exception as error:
                expected[index] = error
        first = min(
            i for i, answer in expected.items() if isinstance(answer, Exception)
        )
        tiles = []
        original = engine_module._plan_tile
        monkeypatch.setattr(
            engine_module,
            "_plan_tile",
            lambda *args, **kwargs: tiles.append(args) or original(*args, **kwargs),
        )

        class Recording:
            def __init__(self):
                self.seen = []

            def before_task(self, index, attempt):
                self.seen.append(index)

        recording = Recording()
        options = QueryOptions(
            method="auto", epsilon=0.01, delta=0.01, samples=None,
            use_absorption=True, use_partition=True, det_kernel="auto",
            deadline=None, on_deadline="degrade", max_overrun=None,
        )
        tasks = tuple((index, index, None) for index in range(len(dataset)))
        with pytest.raises(type(expected[first])) as raised:
            execute_shard(
                ShardTask(0, 1, 0, salvage=False, tasks=tasks),
                dataset=dataset,
                preferences=preferences,
                max_exact_objects=25,
                options=options,
                fault_injector=recording,
                task_retries=0,
                backoff=0.0,
            )
        assert str(raised.value) == str(expected[first])
        assert tiles
        assert recording.seen == list(range(first + 1))
