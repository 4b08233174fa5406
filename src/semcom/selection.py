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
minimum specificity.  kappa is a proxy for the order of the exact
objective F = H_s(Phi | e), the reverse of the order of I_s(Phi; e) (see
``oracle``); criterion 2 counts the subset pairs it ranks against it.

A pool is a sequence of (entity_id, qbits) entries.  ``KeyEngine.select``
ranks its k-subsets by kappa and ``downlink`` applies the strategy to a
budget strictly inside the pool; the sweep goes through both.

``select`` runs one search over sets of distinct patterns, since a
k-subset's kappa depends only on the set it holds (``KeyEngine._search``).
It takes a prefix of each run of interchangeable patterns and keeps one
incumbent, and ``KeyEngine._key`` is the one place kappa is built.
"""

from __future__ import annotations

import random
from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    def clear_selections(self) -> None:
        """Forget the select memo; the pattern and tail tables stay, since
        they depend only on (hypotheses, T)."""
        self._chosen.clear()

    def key_for_patterns(self, qbits_list: Iterable[int]) -> Tuple[int, ...]:
        """kappa of the patterns as (n_nonoverlap, K, -(T-Z), ...), the tuple select compares."""
        distinct = set(qbits_list)
        covered = 0
        for qbits in distinct:
            covered |= self.sat_mask(qbits)
        return self._key(covered, len(distinct))

    def _key(self, covered: int, size: int) -> Tuple[int, ...]:
        """kappa of size distinct patterns whose masks OR to covered, the one
        place it is built; _search's prune bounds its first two fields."""
        uncovered = self.full_mask & ~covered
        try:
            tail = self._tails[uncovered]
        except KeyError:
            exps = sorted(g for i, g in enumerate(self.exponents) if (uncovered >> i) & 1)
            tail = self._tails[uncovered] = tuple(-g for g in exps)
        return (uncovered.bit_count(), size) + tail

    def select(self, entries: Sequence[Tuple[int, int]], k: int) -> Tuple[int, ...]:
        """kappa-lex-minimal k-subset of (entity_id, qbits) entries.

        Entries must be sorted ascending by entity id; ties on kappa go
        to the first combination in id-lexicographic order, i.e. the
        smallest sorted id tuple.

        The search (see _search) scores sets of at most k distinct
        patterns, taking interchangeable ones in first-position order, and
        keeps the least.  Before it scores any, it raises FeasibilityError when
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
        if k < 0:
            raise ConfigurationError("budget k must be non-negative, got %d" % k)
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
        or when the remaining entries cannot bring P up to k.

        Patterns with equal mask and count are interchangeable: swapping a
        chosen one for an unchosen one with an earlier first position
        keeps kappa and can only lower P's sorted first positions.  So
        each run of them, kept in first-position order, is taken by a
        prefix only, and one incumbent keeps the least (kappa, sorted
        first positions).  Among sets of equal K the smallest position
        tuples are ordered as the sorted first positions are, and the
        winner's takes each pattern's first position and the k - |P|
        smallest other positions of P's entries.
        """
        counts: Dict[int, List[int]] = {}  # pattern: [count, first position]
        for idx, qbits in enumerate(patterns):
            counts.setdefault(qbits, [0, idx])[0] += 1
        n_sets = comb(len(patterns), k)
        if n_sets > DEFAULT_ENUMERATION_CAP:
            n_sets = min(n_sets, sum(comb(len(counts), size) for size in range(1, k + 1)))
        if n_sets > DEFAULT_ENUMERATION_CAP:
            raise FeasibilityError(
                "min(C(%d, %d), sets of at most %d of %d distinct patterns) = %d exceeds "
                "the enumeration cap of %d"
                % (len(patterns), k, k, len(counts), n_sets, DEFAULT_ENUMERATION_CAP)
            )
        order = []  # widest mask first; a run of equal (mask, count) by first position
        for qbits, (count, first) in counts.items():
            mask = self.sat_mask(qbits)
            order.append((-mask.bit_count(), mask, count, first))
        order.sort()
        # extending from j covers at most covered | rest[j] and holds at most left[j] more
        rest = [0] * (len(order) + 1)
        left = [0] * (len(order) + 1)
        for j in reversed(range(len(order))):
            rest[j] = rest[j + 1] | order[j][1]
            left[j] = left[j + 1] + order[j][2]
        n_hyps = self.full_mask.bit_count()
        best: Optional[Tuple[Tuple[int, ...], List[int]]] = None  # (kappa, sorted firsts)

        def extend(chosen: Tuple[int, ...], covered: int, n_held: int, start: int) -> None:
            nonlocal best
            if n_held >= k:
                found = (self._key(covered, len(chosen)), sorted(chosen))
                if best is None or found < best:
                    best = found
            if len(chosen) == k:
                return
            for j in range(start, len(order)):
                _, mask, count, first = order[j]
                if n_held + left[j] < k:
                    break
                if j > start and order[j - 1][1:3] == (mask, count):
                    continue  # an earlier pattern of this run was skipped
                if best is not None:
                    fewest = n_hyps - (covered | rest[j]).bit_count()
                    if fewest > best[0][0] or (fewest == best[0][0] and len(chosen) >= best[0][1]):
                        break
                extend(chosen + (first,), covered | mask, n_held + count, j + 1)

        extend((), 0, 0, 0)
        del extend  # a recursive closure is a reference cycle: free it without the collector
        firsts = best[1]
        wanted = {patterns[i] for i in firsts}
        extras = [i for i, q in enumerate(patterns) if q in wanted and i not in firsts]
        return tuple(sorted(firsts + extras[: k - len(firsts)]))


def downlink(
    pool: Sequence[int],
    qbits: Mapping[int, int],
    k: int,
    strategy: str,
    engine: Optional[KeyEngine],
    rng_seed: int,
) -> Tuple[int, ...]:
    """Ids of the k pool entities to transmit; all of them if k >= len(pool).

    The pool holds entity ids ascending and qbits maps each one to its
    pattern.  Semantic sends the engine's kappa-lex-minimal k-subset and
    random a uniform without-replacement sample drawn from rng_seed (the
    engine may then be None).  k < 0 raises ConfigurationError.
    metrics._mask_block, which owns the budget rules, calls it only for a
    0 < k < len(pool) whose mask its strategy's threshold (misses for
    random, the cover number for semantic) does not already fix.
    """
    if k < 0:
        raise ConfigurationError("budget k must be non-negative, got %d" % k)
    if k >= len(pool):
        return tuple(pool)
    if strategy == SEMANTIC:
        return engine.select([(i, qbits[i]) for i in pool], k)
    return tuple(random.Random(rng_seed).sample(pool, k))
