"""Per-column reference definitions of the two distortion rates.

``semcom.metrics.cell_rates`` scores every column of a trace at once and
tallies identical records first.  The tests check it against these
definitions, which walk every record of one column and take the FI
action and the hypothesis count from the rule set.
"""

from semcom.errors import UndefinedMetricError


def hypothesis_dsr(trace, column, rules):
    """Fraction of (step, agent, hypothesis) evaluations of one cell matching FI."""
    if not trace.records:
        raise UndefinedMetricError("H-DSR over an empty trace")
    total = len(trace.records) * len(rules.hypotheses)
    mismatches = sum((r.fi_mask ^ r.strategy_masks[column]).bit_count() for r in trace.records)
    return (total - mismatches) / total


def action_dsr(trace, column, rules):
    """Fraction of (step, agent) decisions of one cell matching FI."""
    if not trace.records:
        raise UndefinedMetricError("A-DSR over an empty trace")
    action_of = rules.action_of
    matches = sum(
        1 for r in trace.records if action_of(r.strategy_masks[column]) == action_of(r.fi_mask)
    )
    return matches / len(trace.records)
