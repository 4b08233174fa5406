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
ranks its k-subsets by kappa and ``downlink`` applies the strategy to a
budget strictly inside the pool; the sweep goes through both.

``select`` runs one search.  A k-subset's kappa depends only on the set
P of distinct patterns it holds: the OR of their satisfaction masks
gives the uncovered hypotheses and the tail, and K = |P|.  So the search
runs over sets of at most k distinct patterns, widest mask first, prunes
extensions whose remaining masks cannot match the best coverage or K,
keeps every kappa-minimal set, and maps each one to its smallest
position tuple.  The enumeration cap counts the sets it may score.
"""

from __future__ import annotations

import random
from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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
        self.hypotheses = tuple(hypotheses)
        self.exponents = tuple(h.specificity_exponent(T) for h in hypotheses)
        self.full_mask = (1 << len(hypotheses)) - 1
        self._sat: Dict[int, int] = {}
        self._tails: Dict[int, Tuple[int, ...]] = {}
        self._chosen: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}

    def sat_mask(self, qbits: int) -> int:
        """Bitmask of hypotheses satisfied by the Q-sentence pattern."""
        try:
            return self._sat[qbits]
        except KeyError:
            mask = self._sat[qbits] = sum(
                1 << i for i, h in enumerate(self.hypotheses) if h.satisfied_by(qbits)
            )
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
        smallest sorted id tuple.

        The search (see _search) scores sets of at most k distinct
        patterns.  Before it scores any, it raises FeasibilityError when
        min(C(n, k), sets of 1 to k of the d distinct patterns) exceeds
        DEFAULT_ENUMERATION_CAP: each scored set maps to its own k-subset,
        so that count bounds the sets scored.

        The search works on the pattern sequence alone and returns
        positions in it, so the chosen positions are memoized per
        (patterns, k): with entries sorted by id the smallest id tuple
        is the smallest position tuple, whatever the ids are.
        """
        if len(entries) <= k:
            return tuple(e[0] for e in entries)
        patterns = tuple(qbits for _, qbits in entries)
        positions = self._chosen.get((patterns, k))
        if positions is None:
            positions = self._chosen[(patterns, k)] = self._search(patterns, k)
        return tuple(entries[i][0] for i in positions)

    def _search(self, patterns: Sequence[int], k: int) -> Tuple[int, ...]:
        """Positions select chooses from the patterns: the smallest position
        tuple among the k-subsets whose kappa is least.

        A k-subset's kappa is a function of the set P of distinct patterns
        it holds, with K = |P|, so the search runs over sets P of at most k
        distinct patterns, widest mask first, and scores each P that holds
        at least k entries.  An extension stops when the OR of the
        remaining masks cannot leave as few hypotheses uncovered as the
        best P, when it can only tie on that and cannot beat the best K,
        or when the remaining entries cannot bring P up to k.  Every
        kappa-minimal P is kept.  The smallest position tuple with
        patterns exactly P takes each pattern's first position and the
        k - |P| smallest other positions of P's entries; the answer is the
        least of those over the kept P.
        """
        counts: Dict[int, int] = {}  # distinct patterns in order of first position
        for qbits in patterns:
            counts[qbits] = counts.get(qbits, 0) + 1
        n_sets = comb(len(patterns), k)
        if n_sets > DEFAULT_ENUMERATION_CAP:
            n_sets = min(n_sets, sum(comb(len(counts), size) for size in range(1, k + 1)))
        if n_sets > DEFAULT_ENUMERATION_CAP:
            raise FeasibilityError(
                "min(C(%d, %d), sets of at most %d of %d distinct patterns) = %d exceeds "
                "the enumeration cap of %d"
                % (len(patterns), k, k, len(counts), n_sets, DEFAULT_ENUMERATION_CAP)
            )
        mask_of = {qbits: self.sat_mask(qbits) for qbits in counts}
        distinct = sorted(counts, key=lambda qbits: -mask_of[qbits].bit_count())
        masks = [mask_of[qbits] for qbits in distinct]
        held = [counts[qbits] for qbits in distinct]
        # extending from j covers at most covered | rest[j] and holds at most left[j] more
        rest = [0] * (len(distinct) + 1)
        left = [0] * (len(distinct) + 1)
        for j in reversed(range(len(distinct))):
            rest[j] = rest[j + 1] | masks[j]
            left[j] = left[j + 1] + held[j]
        full = self.full_mask
        n_hyps = full.bit_count()
        best: Optional[Tuple[int, ...]] = None
        kept: List[Tuple[int, ...]] = []

        def extend(chosen: Tuple[int, ...], covered: int, n_held: int, start: int) -> None:
            nonlocal best, kept
            if n_held >= k:
                uncovered = full & ~covered
                key = (uncovered.bit_count(), len(chosen)) + self._tail(uncovered)
                if best is None or key < best:
                    best, kept = key, []
                if key == best:
                    kept.append(chosen)
            if len(chosen) == k:
                return
            for j in range(start, len(distinct)):
                if n_held + left[j] < k:
                    break
                if best is not None:
                    fewest = n_hyps - (covered | rest[j]).bit_count()
                    if fewest > best[0] or (fewest == best[0] and len(chosen) >= best[1]):
                        break
                extend(chosen + (distinct[j],), covered | masks[j], n_held + held[j], j + 1)

        extend((), 0, 0, 0)
        del extend  # a recursive closure is a reference cycle: free it without the collector

        def smallest_positions(chosen: Tuple[int, ...]) -> Tuple[int, ...]:
            wanted = set(chosen)
            seen: Set[int] = set()
            spare = k - len(chosen)
            picked = []
            for idx, qbits in enumerate(patterns):
                if qbits not in wanted:
                    continue
                if qbits not in seen:
                    seen.add(qbits)
                elif spare:
                    spare -= 1
                else:
                    continue
                picked.append(idx)
            return tuple(picked)

        return min(map(smallest_positions, kept))


def downlink(
    pool: Sequence[int],
    qbits: Mapping[int, int],
    k: int,
    strategy: str,
    engine: Optional[KeyEngine],
    rng_seed: int,
) -> Tuple[int, ...]:
    """Ids of the k pool entities to transmit, for 0 < k < len(pool).

    The pool holds entity ids ascending and qbits maps each one to its
    pattern.  Semantic sends the engine's kappa-lex-minimal k-subset and
    random a uniform without-replacement sample drawn from rng_seed (the
    engine may then be None).  metrics.sweep checks the request, and
    metrics._mask_block, which owns the budget rules, calls it only for a
    budget whose mask the pool's coverage does not already fix.
    """
    if strategy == SEMANTIC:
        return engine.select([(i, qbits[i]) for i in pool], k)
    return tuple(random.Random(rng_seed).sample(pool, k))
