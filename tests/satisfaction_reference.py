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


def care_and_value(fixed_slots):
    """(care, value) a hypothesis derives from its (slot, bit) pairs, read
    one pair at a time: care has each fixed slot's bit set, value the
    bits of the slots fixed to 1."""
    care = value = 0
    for slot, sign in fixed_slots:
        care += 1 << slot
        value += sign << slot
    return care, value


def refusal(hypothesis_id, fixed_slots):
    """The message a hypothesis with these (slot, bit) pairs is refused with,
    or None.  Each check reads every pair before the next one runs: no slot,
    then a repeated slot, then a negative slot or a bit outside {0, 1}."""
    slots = [slot for slot, _ in fixed_slots]
    if not slots:
        return "hypothesis %d fixes no slot (Z >= 1 required)" % hypothesis_id
    repeated = sorted(slot for slot in set(slots) if slots.count(slot) > 1)
    if repeated:
        return "duplicate slot in hypothesis %d: %s" % (
            hypothesis_id, ", ".join(map(str, repeated)))
    if any(slot < 0 or sign not in (0, 1) for slot, sign in fixed_slots):
        return "hypothesis %d has an invalid (slot, value) pair" % hypothesis_id
    return None
