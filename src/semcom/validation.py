"""Empirical check of the key ordering against the exact objective.

For randomly generated instances, every pair of size-k subsets is
compared twice: by the symbolic key kappa and by the exact objective F
(sparse dyadic sign arithmetic, no approximation).  The exact value of
F depends only on K and the sorted non-overlap specificity exponents,
and kappa = (n_nonoverlap, K, -(T-Z), ...) holds exactly those (its tail
has n_nonoverlap entries).  So subsets are grouped by kappa, equal-kappa
pairs are agreements by construction, and only distinct kappas are
compared exactly, which keeps the quadratic pair count cheap.

Agreement taxonomy per pair, with the exact-F order as the reference:

* ``agreements``      -- strict F order matched by strict kappa order,
                         or both tied.
* ``disagreements``   -- strict F order, kappa strictly reversed.
* ``key_ties_f_differs`` -- kappa tied but F strictly ordered (always 0:
                         equal kappa means equal F).
* ``f_ties_key_strict``  -- F tied but kappa strictly ordered (recorded,
                         not failed: dominance collapses distinct keys
                         onto equal objective values, e.g. fully
                         witnessed subsets with different K).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .errors import ConfigurationError
from .logic import Hypothesis
from .oracle import ClosedFormParams, HypothesisParams, exact_objective_compare
from .selection import KeyEngine

# disagreements a report keeps and prints
MAX_EXAMPLES = 5
# validate-key's instance shape: slot counts sampled, largest pool, largest
# budget (so at most C(8, 3) = 56 subsets a trial), largest hypothesis set
T_CHOICES = (3, 4, 5)
N_MAX = 8
K_MAX = 3
M_MAX = 6


@dataclass
class DisagreementExample:
    trial: int
    T: int
    k: int
    subset_a: Tuple[int, ...]
    subset_b: Tuple[int, ...]
    key_a: Tuple[int, ...]
    key_b: Tuple[int, ...]
    f_sign: int


@dataclass
class ValidationReport:
    trials: int
    total_pairs: int = 0
    agreements: int = 0
    disagreements: int = 0
    key_ties_f_differs: int = 0
    f_ties_key_strict: int = 0
    elapsed_seconds: float = 0.0
    examples: List[DisagreementExample] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        lines = [
            "trials: %d" % self.trials,
            "subset pairs compared: %d" % self.total_pairs,
            "agreements: %d" % self.agreements,
            "disagreements: %d" % self.disagreements,
            "key ties with unequal objective: %d" % self.key_ties_f_differs,
            "objective ties with strict key order: %d" % self.f_ties_key_strict,
            "elapsed: %.2f s" % self.elapsed_seconds,
        ]
        for ex in self.examples:
            lines.append(
                "  disagreement in trial %d (T=%d, k=%d): subsets %s vs %s, "
                "keys %s vs %s, exact F sign %+d"
                % (ex.trial, ex.T, ex.k, ex.subset_a, ex.subset_b, ex.key_a, ex.key_b, ex.f_sign)
            )
        return lines


def random_instance(
    rng: random.Random, T_choices: Sequence[int], n_max: int, k_max: int
) -> Tuple[int, int, List[Tuple[int, int]], List[Hypothesis]]:
    """One random selection instance: (entity_id, qbits) pool plus hypothesis set."""
    T = rng.choice(list(T_choices))
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n - 1))
    pool = [(i, rng.randrange(1 << T)) for i in range(n)]
    hypotheses = []
    for hid in range(rng.randint(1, M_MAX)):
        z = rng.randint(1, T)
        slots = rng.sample(range(T), z)
        constraints = {s: rng.randint(0, 1) for s in slots}
        hypotheses.append(Hypothesis.from_constraints(hid, constraints, "a"))
    return T, k, pool, hypotheses


def _key_params(key: Tuple[int, ...], T: int) -> ClosedFormParams:
    """Closed-form params of a kappa: K = key[1], one non-overlap Z = T + g per tail entry g."""
    hyps = tuple(HypothesisParams(z=T + g, overlaps=False) for g in key[2:])
    return ClosedFormParams(T=T, K=key[1], hypotheses=hyps)


def validate_key_ordering(trials: int, seed: int) -> ValidationReport:
    """Compare kappa ordering with exact-F ordering over random instances.

    Every trial draws one instance of the fixed shape: T from T_CHOICES,
    a pool of 2..N_MAX entries, a budget of 1..min(K_MAX, n - 1) and up
    to M_MAX hypotheses.  A negative trial count or seed raises
    ConfigurationError (random.Random(-s) seeds like random.Random(s)).
    """
    if trials < 0:
        raise ConfigurationError("trials must be non-negative, got %d" % trials)
    if seed < 0:
        raise ConfigurationError(
            "seed must be non-negative, got %d (it would repeat the trials of seed %d)"
            % (seed, -seed)
        )
    rng = random.Random(seed)
    report = ValidationReport(trials=trials)
    started = time.perf_counter()
    for trial in range(trials):
        T, k, pool, hypotheses = random_instance(rng, T_CHOICES, N_MAX, K_MAX)
        engine = KeyEngine(hypotheses, T)
        groups: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
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
    report.elapsed_seconds = time.perf_counter() - started
    return report
