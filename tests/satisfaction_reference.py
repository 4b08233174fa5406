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


def reference_key(subset, hyps, T):
    """kappa by definition, one slot-by-slot satisfaction test per (pattern, hypothesis)."""
    qs = {bits for _, bits in subset}
    exponents = sorted(
        h.specificity_exponent(T)
        for h in hyps
        if not any(satisfies(q, h) for q in qs)
    )
    return (len(exponents), len(qs), *(-g for g in exponents))
