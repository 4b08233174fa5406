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

``select`` has two paths with one result.  Up to SUBSET_LOOP_MAX
candidate subsets it scores each in turn.  Above that it searches sets
of satisfaction-mask classes: kappa depends only on the OR of the chosen
patterns' masks and on K, and a crowded pool holds far fewer distinct
masks than it has k-subsets.  The search finds the widest coverage
first, computes K only for the class sets that reach it, and picks ids
in one walk that keeps running counts.  The loop stays for small pools,
where the search's fixed cost per call exceeds the whole enumeration,
and for pools whose masks are so varied that the sets of at most k of
them outnumber the k-subsets.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import comb
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import ConfigurationError, FeasibilityError
from .logic import Hypothesis

DEFAULT_ENUMERATION_CAP = 10**7
# C(n, k) up to which select always scores subsets one by one: there the
# mask-class search's fixed cost per call exceeds the whole enumeration,
# and most pools of a desk-sized sweep are that small.
SUBSET_LOOP_MAX = 200

SEMANTIC = "semantic"
RANDOM = "random"

STRATEGIES = (SEMANTIC, RANDOM)


def check_cap(count: int, what: str) -> None:
    """FeasibilityError when count candidates, named by what, exceed DEFAULT_ENUMERATION_CAP."""
    if count > DEFAULT_ENUMERATION_CAP:
        raise FeasibilityError(
            "%s = %d exceeds the enumeration cap of %d" % (what, count, DEFAULT_ENUMERATION_CAP)
        )


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

        Up to SUBSET_LOOP_MAX candidate subsets are scored one by one.
        Above that the search runs over the sets of at most k
        satisfaction-mask classes when there are fewer of those than
        subsets, and returns the same subset.  The path taken raises
        FeasibilityError before it scores anything when its candidates,
        subsets or mask-class sets, exceed DEFAULT_ENUMERATION_CAP.

        Both paths work on the pattern sequence alone and return
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
        """Positions select chooses from more than k patterns; the cap counts the path taken."""
        n_subsets = comb(len(patterns), k)
        if n_subsets > SUBSET_LOOP_MAX:
            n_masks = len({self.sat_mask(qbits) for qbits in patterns})
            n_mask_sets = sum(comb(n_masks, size) for size in range(min(k, n_masks) + 1))
            if n_mask_sets < n_subsets:
                check_cap(n_mask_sets, "sets of at most %d of %d mask classes" % (k, n_masks))
                return self._select_by_masks(patterns, k)
        check_cap(n_subsets, "C(%d, %d) subsets" % (len(patterns), k))
        return self._select_by_subsets(patterns, k)

    def _select_by_subsets(self, patterns: Sequence[int], k: int) -> Tuple[int, ...]:
        """select's positions by scoring every k-subset in lexicographic
        order and keeping the first whose kappa is strictly smallest."""
        masks = [self.sat_mask(qbits) for qbits in patterns]
        full = self.full_mask
        best: Optional[Tuple[int, ...]] = None
        best_combo: Tuple[int, ...] = ()
        for combo in itertools.combinations(range(len(patterns)), k):
            covered = 0
            qset = set()
            for idx in combo:
                covered |= masks[idx]
                qset.add(patterns[idx])
            uncovered = full & ~covered
            key = (uncovered.bit_count(), len(qset)) + self._tail(uncovered)
            if best is None or key < best:
                best, best_combo = key, combo
        return best_combo

    def _select_by_masks(self, patterns: Sequence[int], k: int) -> Tuple[int, ...]:
        """select's positions by searching sets of satisfaction-mask classes.

        kappa of a subset depends only on the set M of mask classes its
        patterns fall in (through the OR of their masks) and on K, its
        number of distinct patterns.  Step 1 is coverage first.  Pass (a)
        ORs each M of at most k classes onto its prefix's OR, skips the
        extensions that cannot cover as many hypotheses as the widest set
        so far, and keeps the sets that leave the fewest uncovered.  That
        is the fewest over the sets that can hold k entries, because the
        pool holds at least k: an M whose classes hold only held < k
        entries gains at most k - held of the largest other classes, which
        uncovers nothing and leaves at most k classes.  Pass (b) computes
        K only for the sets kept, skipping one larger than the best K so
        far: K is |M| when the classes' largest counts (their heads) sum
        to k, and only otherwise are the other counts merged in, largest
        first.  Step 2 walks the entries in order and takes one whenever
        some M scoring kappa* can still be completed to exactly K*
        patterns and k entries from the entries after it, which yields the
        smallest position tuple.  It keeps a running count of the entries
        left under the taken patterns and only the M that hold every taken
        class, so an entry whose class is in none of them is refused at once.
        """
        after = Counter(patterns)  # pattern -> entries after the walk's current one
        classes: Dict[int, List[int]] = {}  # sat mask -> its distinct patterns
        for qbits in after:
            classes.setdefault(self.sat_mask(qbits), []).append(qbits)
        masks = list(classes)
        # rest[j] ORs masks[j:]; extending from j covers at most covered | rest[j]
        rest = list(itertools.accumulate(reversed(masks), int.__or__, initial=0))[::-1]
        most, ties = -1, []  # (class positions, OR) of the widest sets so far

        def widen(chosen: Tuple[int, ...], covered: int, start: int) -> None:
            nonlocal most, ties
            if covered.bit_count() > most:
                most, ties = covered.bit_count(), []
            if covered.bit_count() == most:
                ties.append((chosen, covered))
            if len(chosen) == k:
                return
            for j in range(start, len(masks)):
                if (covered | rest[j]).bit_count() < most:
                    break
                widen(chosen + (j,), covered | masks[j], j + 1)

        widen((), 0, 0)
        # each class's entry counts, largest first: its head, then its tail
        ordered = [sorted((after[q] for q in classes[m]), reverse=True) for m in masks]
        best: Optional[Tuple[int, ...]] = None
        kept: List[AbstractSet[int]] = []
        for chosen, covered in ties:
            if best is not None and len(chosen) > best[0]:
                continue
            held = sum(ordered[i][0] for i in chosen)
            n_patterns = len(chosen)
            if held < k:
                # one pattern per class holds too few: add the largest tail counts
                for extra in sorted((c for i in chosen for c in ordered[i][1:]), reverse=True):
                    held += extra
                    n_patterns += 1
                    if held >= k:
                        break
                else:
                    continue
            key = (n_patterns,) + self._tail(self.full_mask & ~covered)
            if best is None or key < best:
                best, kept = key, []
            if key == best:
                kept.append(frozenset(masks[i] for i in chosen))

        picked: List[int] = []
        taken: Set[int] = set()  # patterns of the picked entries
        taken_masks: Set[int] = set()
        left = 0  # entries after the current one under the taken patterns
        reach = frozenset().union(*kept)

        def completes(
            chosen: AbstractSet[int], qbits: int, mask: int, n_new: int, short: int
        ) -> bool:
            """Whether exactly n_new patterns outside taken and qbits, with
            entries left in after, hold at least short entries while each
            class of chosen outside taken_masks and mask gains one; the most
            they hold is those classes' largest counts, then the largest rest."""
            n_heads = held = 0
            spares: List[int] = []
            for m in chosen:
                required = m != mask and m not in taken_masks
                head = 0
                for q in classes[m]:
                    count = after[q]
                    if not count or q == qbits or q in taken:
                        continue
                    if required and count > head:
                        count, head = head, count
                    if count:
                        spares.append(count)
                if required:
                    if not head:
                        return False
                    n_heads += 1
                    held += head
            extra = n_new - n_heads
            if not 0 <= extra <= len(spares):
                return False
            return held >= short or held + sum(sorted(spares, reverse=True)[:extra]) >= short

        for idx, qbits in enumerate(patterns):
            if len(picked) == k:
                break
            after[qbits] -= 1
            new = qbits not in taken
            if not new:
                left -= 1
            mask = self.sat_mask(qbits)
            n_new = best[0] - len(taken) - new
            needed = k - len(picked) - 1
            if mask not in reach or not 0 <= n_new <= needed:
                continue
            # entries the new patterns must hold beyond what the taken ones can
            short = needed - left - (after[qbits] if new else 0)
            n_masks = len(taken_masks) + (mask not in taken_masks)
            if any(
                mask in chosen
                and len(chosen) - n_masks <= n_new  # one new pattern per class not yet taken
                and completes(chosen, qbits, mask, n_new, short)
                for chosen in kept
            ):
                picked.append(idx)
                if new:
                    taken.add(qbits)
                    left += after[qbits]
                if mask not in taken_masks:
                    taken_masks.add(mask)
                    kept = [chosen for chosen in kept if mask in chosen]
                    reach = frozenset().union(*kept)
        return tuple(picked)


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
