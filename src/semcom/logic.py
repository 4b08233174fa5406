"""Q-sentences and hypotheses.

A Q-sentence is the complete true/false pattern over all T predicate
slots for one (ego, entity) pair.  It is a plain int bit pattern: slot
``s`` maps to bit position ``s``; a set sign flag becomes bit value 1.
The simulator's language fixes the slots (``world.PREDICATES``) and
grounds a pair into its pattern (``world.ground_entity``); ``QSentence``
pairs a pattern with its width and is the oracle's validated input type.

``Hypothesis.satisfied_by`` is the one definition of satisfaction: a
pattern satisfies a hypothesis iff it matches every fixed slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import FrozenSet, Mapping, Tuple

from .errors import ConfigurationError, reject_repeats


@dataclass(frozen=True, order=True)
class QSentence:
    """Fixed-width bit pattern; bit s holds the sign of slot s."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError("QSentence width must be positive")
        if not 0 <= self.bits < (1 << self.width):
            raise ConfigurationError(
                "bits %d out of range for width %d" % (self.bits, self.width)
            )

    def __str__(self) -> str:
        return format(self.bits, "0%db" % self.width)

    def validate_width(self, T: int) -> None:
        if self.width != T:
            raise ConfigurationError("Q-sentence width %d does not match T=%d" % (self.width, T))


@dataclass(frozen=True)
class Hypothesis:
    """A goal-oriented state: fixed predicate slots plus an action.

    ``fixed_slots`` is a sorted tuple of (slot, bit) pairs; Z is its
    length and the specificity is 2**(T - Z) compatible Q-sentences,
    always handled as the exponent T - Z.  ``care`` has the fixed slots'
    bits set and ``value`` their required signs; both are derived once,
    here.
    """

    id: int
    fixed_slots: Tuple[Tuple[int, int], ...]
    action: str
    care: int = field(init=False, repr=False, compare=False)
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # one pass in slot order; a repeat, beside its twin, outranks any invalid pair
        fixed = tuple(sorted(self.fixed_slots, key=itemgetter(0)))
        if not fixed:
            raise ConfigurationError("hypothesis %d fixes no slot (Z >= 1 required)" % self.id)
        care = value = 0
        valid = True
        last = None
        for s, v in fixed:
            if s == last:
                reject_repeats("slot in hypothesis %d" % self.id, [s for s, _ in fixed])
            last = s
            if s < 0 or v not in (0, 1):
                valid = False
            elif valid:
                care |= 1 << s
                value |= v << s
        if not valid:
            raise ConfigurationError("hypothesis %d has an invalid (slot, value) pair" % self.id)
        object.__setattr__(self, "fixed_slots", fixed)
        object.__setattr__(self, "care", care)
        object.__setattr__(self, "value", value)

    @classmethod
    def from_constraints(cls, id: int, constraints: Mapping[int, int], action: str) -> "Hypothesis":
        return cls(id=id, fixed_slots=tuple(sorted(constraints.items())), action=action)

    @property
    def Z(self) -> int:
        return len(self.fixed_slots)

    def specificity_exponent(self, T: int) -> int:
        """Exponent of the compatible-Q-sentence count, T - Z."""
        self.validate_width(T)
        return T - self.Z

    def validate_width(self, T: int) -> None:
        if self.care >> T:
            raise ConfigurationError(
                "hypothesis %d fixes slot beyond width T=%d" % (self.id, T)
            )

    def satisfied_by(self, qbits: int) -> bool:
        """True iff the pattern matches every fixed slot."""
        return qbits & self.care == self.value

    def compatible_qs(self, T: int) -> FrozenSet[QSentence]:
        """All 2**(T-Z) Q-sentences satisfying the fixed slots (tiny T only)."""
        self.validate_width(T)
        return frozenset(QSentence(bits, T) for bits in range(1 << T) if self.satisfied_by(bits))
