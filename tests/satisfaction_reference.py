"""Slot-by-slot reference semantics of hypothesis satisfaction.

``semcom.logic.Hypothesis.satisfied_by`` tests a Q-sentence pattern
against the hypothesis's derived care and value masks in one step.  The
tests check it, and the satisfaction masks and keys built on it, against
this definition, which reads each fixed slot's bit on its own.
"""


def bit(qbits, slot):
    """Sign of one predicate slot in a Q-sentence pattern."""
    return (qbits >> slot) & 1


def satisfies(qbits, hypothesis):
    """True iff every fixed slot of the hypothesis matches the pattern."""
    return all(bit(qbits, s) == v for s, v in hypothesis.fixed_slots)
