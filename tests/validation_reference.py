"""Subset-by-subset reference for ``semcom.validation.validate_key_ordering``.

The validator reduces each k-subset to what kappa reads and compares each
pair of kappas once per call.  This reference does neither: it computes
kappa for every subset, groups subsets by kappa, builds one params object
per group in every trial, and compares every pair of distinct kappas
exactly.  It draws the same instances, so its report must equal the
validator's apart from the elapsed time.
"""

import itertools
import random

from semcom.oracle import exact_objective_compare
from semcom.selection import KeyEngine
from semcom.validation import (
    K_MAX,
    MAX_EXAMPLES,
    N_MAX,
    T_CHOICES,
    DisagreementExample,
    ValidationReport,
    _key_params,
    random_instance,
)


def validate_key_ordering(trials, seed):
    """The validator's report, one kappa per subset and one compare per pair of groups."""
    rng = random.Random(seed)
    report = ValidationReport(trials=trials)
    for trial in range(trials):
        T, k, pool, hypotheses = random_instance(rng, T_CHOICES, N_MAX, K_MAX)
        engine = KeyEngine(hypotheses, T)
        groups = {}
        for combo in itertools.combinations(pool, k):
            key = engine.key_for_patterns(q for _, q in combo)
            groups.setdefault(key, []).append(tuple(i for i, _ in combo))
        reps = list(groups.items())
        for _, members in reps:
            same = len(members) * (len(members) - 1) // 2
            report.total_pairs += same
            report.agreements += same
        params = [_key_params(key, T) for key, _ in reps]
        for i, (key_a, members_a) in enumerate(reps):
            for j in range(i + 1, len(reps)):
                key_b, members_b = reps[j]
                pairs = len(members_a) * len(members_b)
                report.total_pairs += pairs
                key_sign = -1 if key_a < key_b else 1
                f_sign = exact_objective_compare(params[i], params[j])
                if f_sign == key_sign:
                    report.agreements += pairs
                elif f_sign == 0:
                    report.f_ties_key_strict += pairs
                else:
                    report.disagreements += pairs
                    if len(report.examples) < MAX_EXAMPLES:
                        report.examples.append(
                            DisagreementExample(
                                trial=trial,
                                T=T,
                                k=k,
                                subset_a=members_a[0],
                                subset_b=members_b[0],
                                key_a=key_a,
                                key_b=key_b,
                                f_sign=f_sign,
                            )
                        )
    return report
