"""Budgeted evidence selection via the symbolic lexicographic key.

Enumerating probabilities to pick the best k-subset is hopeless (they
live at scales like 2**-2**30), so subsets are ranked by the key

    kappa = (n_nonoverlap, K, -H_(1), -H_(2), ...)

with the non-overlapping specificities H sorted ascending.  Everything
is exponent arithmetic: H = 2**(T-Z) is never formed, only T-Z, because
ordering by exponent equals ordering by value.  kappa is therefore the
plain integer tuple (n_nonoverlap, K, -(T-Z_(1)), -(T-Z_(2)), ...),
compared as Python compares tuples.  Minimizing it prefers subsets that
witness more hypotheses, then fewer distinct Q-sentences, then larger
minimum specificity.

A pool is a sequence of (entity_id, qbits) entries.  ``KeyEngine.select``
ranks its k-subsets by kappa and ``downlink`` applies the budget and the
strategy; the sweep and the tests both go through them.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, FeasibilityError
from .logic import Hypothesis

DEFAULT_ENUMERATION_CAP = 10**7

SEMANTIC = "semantic"
RANDOM = "random"

STRATEGIES = (SEMANTIC, RANDOM)


class KeyEngine:
    """Key computation for one fixed (hypotheses, T) pair, with caches.

    Satisfaction masks per distinct Q-sentence turn the key into
    OR/popcount work, and exponent tails are memoized per
    uncovered-hypothesis mask.  One engine per rule set is the intended
    usage; it is the single implementation of the ordering.
    """

    def __init__(self, hypotheses: Sequence[Hypothesis], T: int):
        if not hypotheses:
            raise ConfigurationError("at least one hypothesis is required")
        for h in hypotheses:
            h.validate_width(T)
        self.hypotheses = tuple(hypotheses)
        self.T = T
        self.exponents = tuple(h.specificity_exponent(T) for h in hypotheses)
        self.full_mask = (1 << len(hypotheses)) - 1
        self._sat: Dict[int, int] = {}
        self._tails: Dict[int, Tuple[int, ...]] = {}

    def sat_mask(self, qbits: int) -> int:
        """Bitmask of hypotheses satisfied by the Q-sentence pattern."""
        try:
            return self._sat[qbits]
        except KeyError:
            mask = 0
            for i, h in enumerate(self.hypotheses):
                if all((qbits >> s) & 1 == v for s, v in h.fixed_slots):
                    mask |= 1 << i
            self._sat[qbits] = mask
            return mask

    def _tail(self, uncovered: int) -> Tuple[int, ...]:
        try:
            return self._tails[uncovered]
        except KeyError:
            exps = sorted(
                self.exponents[i] for i in range(len(self.exponents)) if (uncovered >> i) & 1
            )
            tail = tuple(-g for g in exps)
            self._tails[uncovered] = tail
            return tail

    def key_for_patterns(self, qbits_list: Iterable[int]) -> Tuple[int, ...]:
        """kappa of the patterns as (n_nonoverlap, K, -(T-Z), ...), the tuple select compares."""
        distinct = set(qbits_list)
        covered = 0
        for qbits in distinct:
            covered |= self.sat_mask(qbits)
        uncovered = self.full_mask & ~covered
        return (uncovered.bit_count(), len(distinct)) + self._tail(uncovered)

    def select(self, entries: Sequence[Tuple[int, int]], k: int) -> Tuple[int, ...]:
        """kappa-lex-minimal k-subset of (entity_id, qbits) entries.

        Entries must be sorted ascending by entity id; ties on kappa go
        to the first combination in id-lexicographic order, i.e. the
        smallest sorted id tuple.  More than DEFAULT_ENUMERATION_CAP
        candidate subsets raise FeasibilityError before any is scored.
        """
        if len(entries) <= k:
            return tuple(e[0] for e in entries)
        n_subsets = comb(len(entries), k)
        if n_subsets > DEFAULT_ENUMERATION_CAP:
            raise FeasibilityError(
                "C(%d, %d) = %d subsets exceeds the enumeration cap of %d"
                % (len(entries), k, n_subsets, DEFAULT_ENUMERATION_CAP)
            )
        masks = [self.sat_mask(qbits) for _, qbits in entries]
        patterns = [qbits for _, qbits in entries]
        full = self.full_mask
        best_head: Optional[Tuple[int, int]] = None
        best_tail: Tuple[int, ...] = ()
        best_combo: Tuple[int, ...] = ()
        for combo in itertools.combinations(range(len(entries)), k):
            covered = 0
            qset = set()
            for idx in combo:
                covered |= masks[idx]
                qset.add(patterns[idx])
            uncovered = full & ~covered
            head = (uncovered.bit_count(), len(qset))
            if best_head is not None:
                if head > best_head:
                    continue
                if head == best_head:
                    tail = self._tail(uncovered)
                    if tail >= best_tail:
                        continue
                    best_tail = tail
                else:
                    best_tail = self._tail(uncovered)
            else:
                best_tail = self._tail(uncovered)
            best_head = head
            best_combo = combo
        return tuple(entries[i][0] for i in best_combo)


def downlink(
    pool: Sequence[int],
    qbits: Mapping[int, int],
    k: int,
    strategy: str,
    engine: Optional[KeyEngine],
    rng_seed: int = 0,
) -> Tuple[int, ...]:
    """Ids of at most k pool entities to transmit.

    The pool holds entity ids ascending and qbits maps each one to its
    pattern.  k=0 sends nothing and a pool within budget goes whole.
    Otherwise semantic sends the engine's kappa-lex-minimal k-subset and
    random a uniform without-replacement sample drawn from rng_seed (the
    engine may then be None).
    """
    if k < 0:
        raise ConfigurationError("k must be non-negative")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            "unknown strategy %r (choose from %s)" % (strategy, ", ".join(STRATEGIES))
        )
    if k == 0:
        return ()
    if len(pool) <= k:
        return tuple(pool)
    if strategy == SEMANTIC:
        return engine.select([(i, qbits[i]) for i in pool], k)
    return tuple(random.Random(rng_seed).sample(pool, k))
