"""The uncertain-preference model (Section 2 of the paper).

For two *distinct* values ``a`` and ``b`` on a dimension, the population's
preference is a random outcome with

    Pr(a ≺ b) + Pr(b ≺ a) ≤ 1,

the slack being the probability that the two values are incomparable.
Probabilities of 0/1 degenerate to classic certain preferences.  Identical
values are always weakly preferred to each other (``Pr(a ⪯ a) = 1``).

Independence assumptions (both from the paper, both load-bearing):

* preferences on different dimensions are mutually independent;
* two preference outcomes on the *same* dimension are independent as long
  as they concern different value pairs — even pairs sharing one value,
  e.g. (a, b) and (b, c).  Only identical pairs are the same random
  variable.  (This is why transitivity may be violated across three or
  more values; the paper accepts that.)

:class:`PreferenceModel` stores the pairwise probabilities per dimension and
is the single source of truth every algorithm reads.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.objects import Value
from repro.errors import (
    DimensionalityError,
    InvalidProbabilityError,
    PreferenceError,
    UnknownPreferenceError,
)

__all__ = ["PreferenceModel", "PreferencePair"]

_PROBABILITY_TOLERANCE = 1e-9

# Edits `PreferenceModel._edits_since` reaches back over: a derived state
# repairs a gap the log covers and rebuilds past it, never with another answer.
# Direct-edit elicitation leaves one-pair gaps.  On the elicitation benchmark's
# 120-object engine (2-vCPU Xeon), with views repaired in place, catching up
# took 55-64 ms after 256 random pairs and 118-133 ms after 1,024, and stayed
# at 120-129 ms after 1,536, against 121-220 ms for a rebuild: past about
# 1,024 pairs a repair stops beating a rebuild.  Full: about 110 KB.
_EDIT_LOG_LENGTH = 1024


def _check_probability(value: float, what: str) -> float:
    prob = float(value)
    if math.isnan(prob) or not -_PROBABILITY_TOLERANCE <= prob <= 1 + _PROBABILITY_TOLERANCE:
        raise InvalidProbabilityError(f"{what} must lie in [0, 1], got {value!r}")
    return min(max(prob, 0.0), 1.0)


class PreferencePair:
    """One uncertain preference between two distinct values on a dimension.

    ``forward`` is ``Pr(a ≺ b)``, ``backward`` is ``Pr(b ≺ a)``; the
    remaining mass ``1 - forward - backward`` is the probability the two
    values are incomparable.
    """

    __slots__ = ("dimension", "a", "b", "forward", "backward")

    def __init__(
        self, dimension: int, a: Value, b: Value, forward: float, backward: float
    ) -> None:
        self.dimension = dimension
        self.a = a
        self.b = b
        self.forward = forward
        self.backward = backward

    @property
    def incomparable(self) -> float:
        """Probability that the two values cannot be compared."""
        return max(0.0, 1.0 - self.forward - self.backward)

    @property
    def is_deterministic(self) -> bool:
        """Whether the preference degenerates to a certain one (probs 0/1)."""
        return {self.forward, self.backward} <= {0.0, 1.0}

    def __repr__(self) -> str:
        return (
            f"PreferencePair(dim={self.dimension}, {self.a!r} ≺ {self.b!r}: "
            f"{self.forward:.3g}, {self.b!r} ≺ {self.a!r}: {self.backward:.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferencePair):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and {(self.a, self.forward), (self.b, self.backward)}
            == {(other.a, other.forward), (other.b, other.backward)}
        )

    def __hash__(self) -> int:
        return hash(
            (self.dimension, frozenset([(self.a, self.forward), (self.b, self.backward)]))
        )


class PreferenceModel:
    """Pairwise uncertain preferences for a ``d``-dimensional space.

    Parameters
    ----------
    dimensionality:
        Number of dimensions; every query and update names a dimension in
        ``range(dimensionality)``.
    default:
        Policy for value pairs that were never set explicitly.  ``None``
        (the default) raises :class:`UnknownPreferenceError`; a float ``p``
        treats every unset distinct pair as symmetric with
        ``Pr(a ≺ b) = Pr(b ≺ a) = p`` (requires ``2p ≤ 1``).  The paper's
        examples use ``default=0.5`` ("all attribute values are equally
        preferred").
    """

    def __init__(self, dimensionality: int, *, default: float | None = None) -> None:
        if dimensionality <= 0:
            raise DimensionalityError(
                f"dimensionality must be positive, got {dimensionality}"
            )
        if default is not None:
            default = _check_probability(default, "default preference probability")
            if 2 * default > 1 + _PROBABILITY_TOLERANCE:
                raise InvalidProbabilityError(
                    f"a symmetric default of {default} would give the pair "
                    f"total probability {2 * default} > 1"
                )
        self._dimensionality = dimensionality
        self._default = default
        # Bumped on every mutation; the log keeps the pair each one touched.
        self._version = 0
        self._edit_log: List[tuple | None] = [None] * _EDIT_LOG_LENGTH
        # _forward[dim][b][a] == Pr(a ≺ b): one row per value, holding
        # what is preferred to it; both orientations stored.
        self._forward: List[Dict[Value, Dict[Value, float]]] = [
            {} for _ in range(dimensionality)
        ]
        # Canonical insertion-ordered record of unordered pairs per dim.
        self._pairs: List[Dict[frozenset, PreferencePair]] = [
            {} for _ in range(dimensionality)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def equal(cls, dimensionality: int, probability: float = 0.5) -> "PreferenceModel":
        """Model where every distinct pair is symmetric at ``probability``.

        Matches the paper's running examples ("all attribute values are
        equally preferred with probability 0.5").
        """
        return cls(dimensionality, default=probability)

    @property
    def dimensionality(self) -> int:
        """Number of dimensions covered by this model."""
        return self._dimensionality

    @property
    def default(self) -> float | None:
        """Symmetric probability applied to unset pairs (None = strict)."""
        return self._default

    @property
    def version(self) -> int:
        """Edits of this instance: one per pair set or deleted.

        Caches keyed on (model identity, version) stay correct across
        in-place preference updates.  Equal versions of two models say
        nothing about their content.
        """
        return self._version

    def _edits_since(self, version: int) -> List[Tuple[int, Value, Value]] | None:
        """The ``(dimension, a, b)`` pair of each edit after ``version``,
        oldest first; ``None`` once the log no longer reaches back."""
        log = self._edit_log
        edits = []
        for edit in range(version + 1, self._version + 1):
            entry = log[edit % _EDIT_LOG_LENGTH]
            if entry is None or entry[0] != edit:
                return None  # never logged, or overwritten since
            edits.append(entry[1:])
        return edits

    def _logged(self, dimension: int, a: Value, b: Value) -> None:
        """Log the pair one edit touched, then bump :attr:`version`."""
        version = self._version + 1
        self._edit_log[version % _EDIT_LOG_LENGTH] = (version, dimension, a, b)
        self._version = version

    def set_preference(
        self,
        dimension: int,
        a: Value,
        b: Value,
        prob_a_over_b: float,
        prob_b_over_a: float | None = None,
    ) -> None:
        """Define ``Pr(a ≺ b)`` (and optionally ``Pr(b ≺ a)``) on a dimension.

        When ``prob_b_over_a`` is omitted the pair is fully comparable and
        the reverse probability defaults to ``1 - prob_a_over_b``.  Setting
        an already-defined pair overwrites it.
        """
        self._check_dimension(dimension)
        if a == b:
            raise PreferenceError(
                f"cannot set a preference between identical values ({a!r}); "
                f"equal values are always weakly preferred with probability 1"
            )
        forward = _check_probability(prob_a_over_b, f"Pr({a!r} ≺ {b!r})")
        if prob_b_over_a is None:
            backward = 1.0 - forward
        else:
            backward = _check_probability(prob_b_over_a, f"Pr({b!r} ≺ {a!r})")
        if forward + backward > 1 + _PROBABILITY_TOLERANCE:
            raise InvalidProbabilityError(
                f"Pr({a!r} ≺ {b!r}) + Pr({b!r} ≺ {a!r}) = "
                f"{forward + backward:.6g} exceeds 1"
            )
        rows = self._forward[dimension]
        try:
            rows[b][a] = forward
        except KeyError:
            rows[b] = {a: forward}
        try:
            rows[a][b] = backward
        except KeyError:
            rows[a] = {b: backward}
        self._pairs[dimension][frozenset((a, b))] = PreferencePair(
            dimension, a, b, forward, backward
        )
        self._logged(dimension, a, b)

    def delete_preference(self, dimension: int, a: Value, b: Value) -> bool:
        """Remove the explicitly-set pair between ``a`` and ``b``, if any.

        The pair reverts to the ``default`` policy (or to raising
        :class:`UnknownPreferenceError` when there is none).  Returns
        whether a pair was actually removed; removal bumps
        :attr:`version`.  This is the exact inverse of
        :meth:`set_preference` on a previously-unset pair, which is what
        :class:`repro.core.dynamic.DynamicSkylineEngine` needs to roll an
        aborted edit back without leaving a phantom explicit pair behind.
        """
        self._check_dimension(dimension)
        key = frozenset((a, b))
        if key not in self._pairs[dimension]:
            return False
        del self._pairs[dimension][key]
        rows = self._forward[dimension]
        for better, worse in ((a, b), (b, a)):
            row = rows.get(worse)
            if row is not None:
                row.pop(better, None)
                if not row:
                    del rows[worse]
        self._logged(dimension, a, b)
        return True

    def update(
        self, dimension: int, preferences: Dict[Tuple[Value, Value], float]
    ) -> None:
        """Bulk :meth:`set_preference` from ``{(a, b): Pr(a ≺ b)}``.

        Each pair is treated as fully comparable unless its reverse
        orientation also appears in ``preferences``.
        """
        seen = set()
        for (a, b), forward in preferences.items():
            if frozenset((a, b)) in seen:
                continue
            seen.add(frozenset((a, b)))
            backward = preferences.get((b, a))
            self.set_preference(dimension, a, b, forward, backward)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def prob_prefers(self, dimension: int, a: Value, b: Value) -> float:
        """``Pr(a ≺ b)`` — the probability ``a`` is strictly preferred.

        Identical values return 0 (a value is never *strictly* preferred
        to itself).  Unset distinct pairs follow the ``default`` policy.
        """
        self._check_dimension(dimension)
        if a == b:
            return 0.0
        try:
            return self._forward[dimension][b][a]
        except KeyError:
            if self._default is None:
                raise UnknownPreferenceError(dimension, a, b) from None
            return self._default

    def prob_weakly_prefers(self, dimension: int, a: Value, b: Value) -> float:
        """``Pr(a ⪯ b)``: 1 for identical values, else ``Pr(a ≺ b)``.

        For distinct values the only way to be weakly preferred is to be
        strictly preferred — "equal" is impossible and "incomparable" does
        not count.  This is the per-dimension factor of Equation 2.
        """
        if a == b:
            return 1.0
        return self.prob_prefers(dimension, a, b)

    def prob_incomparable(self, dimension: int, a: Value, b: Value) -> float:
        """Probability that distinct values ``a`` and ``b`` are incomparable."""
        if a == b:
            return 0.0
        forward = self.prob_prefers(dimension, a, b)
        backward = self.prob_prefers(dimension, b, a)
        return max(0.0, 1.0 - forward - backward)

    def has_preference(self, dimension: int, a: Value, b: Value) -> bool:
        """Whether the pair was explicitly set (ignores the default policy)."""
        self._check_dimension(dimension)
        row = self._forward[dimension].get(b)
        return row is not None and a in row

    def _row(self, dimension: int, b: Value) -> Dict[Value, float] | None:
        """``{a: Pr(a ≺ b)}`` over the pairs set with ``b`` on ``dimension``.

        The live row, for bulk reads that must not change it; ``None``
        when no pair holding ``b`` is set or ``dimension`` is not an
        ``int`` in range.  Unset pairs are absent: the ``default`` policy
        is :meth:`prob_prefers`' alone.
        """
        if type(dimension) is not int or not 0 <= dimension < self._dimensionality:
            return None
        return self._forward[dimension].get(b)

    def pairs(self, dimension: int) -> Iterator[PreferencePair]:
        """Explicitly-set pairs on ``dimension``, in insertion order."""
        self._check_dimension(dimension)
        return iter(self._pairs[dimension].values())

    def pair_count(self, dimension: int | None = None) -> int:
        """Number of explicitly-set unordered pairs (one dim or all)."""
        if dimension is None:
            return sum(len(pairs) for pairs in self._pairs)
        self._check_dimension(dimension)
        return len(self._pairs[dimension])

    def is_deterministic(self) -> bool:
        """Whether every set pair (and the default) is a certain preference."""
        if self._default is not None and self._default != 0.0:
            # A symmetric non-zero default is uncertain by construction
            # (both orientations share probability p < 1).
            return False
        return all(
            pair.is_deterministic
            for pairs in self._pairs
            for pair in pairs.values()
        )

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self) -> "PreferenceModel":
        """Deep copy (pair objects are immutable, so a shallow pair copy)."""
        clone = PreferenceModel(self._dimensionality, default=self._default)
        for dimension in range(self._dimensionality):
            for pair in self.pairs(dimension):
                clone.set_preference(
                    dimension, pair.a, pair.b, pair.forward, pair.backward
                )
        return clone

    def restricted_to(self, dimensions: Sequence[int]) -> "PreferenceModel":
        """Model over a dimension subset, renumbered to ``0..len-1``.

        Companion to :meth:`repro.core.objects.Dataset.project`.
        """
        if not dimensions:
            raise DimensionalityError("need at least one dimension")
        for dimension in dimensions:
            self._check_dimension(dimension)
        clone = PreferenceModel(len(dimensions), default=self._default)
        for new_dim, old_dim in enumerate(dimensions):
            for pair in self.pairs(old_dim):
                clone.set_preference(new_dim, pair.a, pair.b, pair.forward, pair.backward)
        return clone

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (values must be JSON-serialisable to dump)."""
        return {
            "dimensionality": self._dimensionality,
            "default": self._default,
            "preferences": [
                [[pair.a, pair.b, pair.forward, pair.backward] for pair in self.pairs(j)]
                for j in range(self._dimensionality)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PreferenceModel":
        """Inverse of :meth:`to_dict`."""
        try:
            model = cls(payload["dimensionality"], default=payload.get("default"))
            for dimension, pairs in enumerate(payload["preferences"]):
                for a, b, forward, backward in pairs:
                    model.set_preference(dimension, a, b, forward, backward)
        except (TypeError, KeyError, ValueError) as exc:
            if isinstance(exc, InvalidProbabilityError):
                raise
            raise PreferenceError(f"malformed preference payload: {exc}") from exc
        return model

    def to_json(self) -> str:
        """JSON string form of :meth:`to_dict`."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PreferenceModel":
        """Inverse of :meth:`to_json` (JSON turns tuples into lists)."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"PreferenceModel(d={self._dimensionality}, "
            f"pairs={self.pair_count()}, default={self._default})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceModel):
            return NotImplemented
        return (
            self._dimensionality == other._dimensionality
            and self._default == other._default
            and all(
                set(self._pairs[j].items()) == set(other._pairs[j].items())
                for j in range(self._dimensionality)
            )
        )

    # ------------------------------------------------------------------
    def _check_dimension(self, dimension: int) -> None:
        if not 0 <= dimension < self._dimensionality:
            raise DimensionalityError(
                f"dimension {dimension} out of range "
                f"(model covers {self._dimensionality})"
            )
