"""Benchmark inputs: fixed block-zipf base instances, relabelled per seed.

Each workload runs on one *base instance*: a block-zipf dataset and a
uniformly random preference model drawn by this module with the
standard library's ``random.Random`` from a fixed base seed.  The run's
``--seed`` then picks an isomorphic copy of it: a permutation of the
block ids, a permutation of the value ranks inside every (block,
dimension) domain and a shuffle of the object order, with every
preference carried along by the renaming.

Two seeds therefore give different inputs with the same structure:
the same Theorem-4 components, the same absorption and the same
answers (up to the renaming), so the cost of a pass does not depend on
the seed.  Block-zipf instances drawn from independent seeds vary by
2x in Det cost, which would drown any change a benchmark should
detect.  The seed still drives everything else a workload does: the
request schedule, the edit script and the elicitation session.

The generator is kept here, not imported from ``repro.data``, so a
change to the program's own generators cannot silently change the
benchmark's inputs (the stored reference answers pin them).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Tuple

#: Domain size per dimension inside one block, as in the paper's setting.
VALUES_PER_BLOCK = 10


@dataclass(frozen=True)
class BaseInstance:
    """Parameters of one base instance."""

    name: str
    n: int
    d: int
    blocks: int
    seed: int


#: The paper's all-objects operator: components span sizes 1-13.
ALLOBJECTS = BaseInstance("allobjects", n=200, d=4, blocks=25, seed=3)
#: Small data for the serving tier, so kernel work stays small.
SERVE = BaseInstance("serve", n=64, d=3, blocks=8, seed=11)
#: The elicitation workload's warm dynamic engine.
ELICITATION = BaseInstance("elicitation", n=120, d=4, blocks=15, seed=13)


def value_name(dimension: int, rank: int, block: int) -> str:
    """Block-scoped value name; zero-padded so name order is rank order."""
    return f"b{block:03d}_d{dimension}_v{rank:04d}"


def parse_value(name: str) -> Tuple[int, int, int]:
    """``(block, dimension, rank)`` of a :func:`value_name`."""
    block, dimension, rank = name.split("_")
    return int(block[1:]), int(dimension[1:]), int(rank[1:])


def _base_objects(base: BaseInstance) -> List[Tuple[str, ...]]:
    """``n`` distinct objects; ranks follow Zipf(1) inside each block."""
    rng = random.Random(base.seed)
    ranks = range(VALUES_PER_BLOCK)
    weights = [1.0 / (rank + 1) for rank in ranks]
    objects: Dict[Tuple[str, ...], None] = {}
    while len(objects) < base.n:
        block = rng.randrange(base.blocks)
        drawn = rng.choices(ranks, weights, k=base.d)
        objects.setdefault(
            tuple(value_name(j, drawn[j], block) for j in range(base.d)), None
        )
    return list(objects)


def _base_preferences(
    base: BaseInstance, objects: List[Tuple[str, ...]]
) -> List[Tuple[int, str, str, float]]:
    """``Pr(a over b) ~ U[0, 1]`` for every pair of values on a dimension."""
    rng = random.Random(base.seed + 1)
    pairs = []
    for dimension in range(base.d):
        values = sorted({obj[dimension] for obj in objects})
        for a, b in combinations(values, 2):
            pairs.append((dimension, a, b, rng.random()))
    return pairs


def fingerprint(objects: List[Tuple[str, ...]]) -> str:
    """Short digest of a base object list (pins the stored references)."""
    text = "\n".join("\t".join(obj) for obj in objects)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


@dataclass
class Instance:
    """One seeded copy of a base instance.

    ``objects[i]`` is the relabelled copy of ``base_objects[base_index[i]]``;
    ``rename`` maps every base value name to its relabelled name.
    """

    base: BaseInstance
    base_objects: List[Tuple[str, ...]]
    objects: List[Tuple[str, ...]]
    base_index: List[int]
    rename: Dict[str, str]
    preference_pairs: List[Tuple[int, str, str, float]]

    def dataset(self):
        from repro import Dataset

        return Dataset(list(self.objects))

    def preferences(self):
        from repro import PreferenceModel

        model = PreferenceModel(self.base.d)
        for dimension, a, b, forward in self.preference_pairs:
            model.set_preference(dimension, a, b, forward, 1.0 - forward)
        return model

    def block_of(self, obj: Tuple[str, ...]) -> int:
        return parse_value(obj[0])[0]


def make_instance(base: BaseInstance, seed: int | None) -> Instance:
    """The isomorphic copy of ``base`` selected by ``seed`` (``None``: base)."""
    objects = _base_objects(base)
    rng = random.Random(f"{base.name}:{seed}")
    shuffle = (lambda items: None) if seed is None else rng.shuffle
    block_map = list(range(base.blocks))
    shuffle(block_map)
    rank_maps = {}
    for block in range(base.blocks):
        for dimension in range(base.d):
            ranks = list(range(VALUES_PER_BLOCK))
            shuffle(ranks)
            rank_maps[block, dimension] = ranks
    rename: Dict[str, str] = {}
    for obj in objects:
        for value in obj:
            block, dimension, rank = parse_value(value)
            rename[value] = value_name(
                dimension, rank_maps[block, dimension][rank], block_map[block]
            )
    order = list(range(len(objects)))
    shuffle(order)
    relabelled = [tuple(rename[v] for v in objects[i]) for i in order]
    pairs = [
        (dimension, rename[a], rename[b], forward)
        for dimension, a, b, forward in _base_preferences(base, objects)
    ]
    return Instance(base, objects, relabelled, order, rename, pairs)
