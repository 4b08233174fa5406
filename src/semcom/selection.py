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

``select`` has two paths with one result.  Up to SUBSET_LOOP_MAX
candidate subsets it scores each in turn.  Above that it searches sets
of satisfaction-mask classes: kappa depends only on the OR of the chosen
patterns' masks and on K, and a crowded pool holds far fewer distinct
masks than it has k-subsets.  The loop stays for small pools, where the
search's fixed cost per call exceeds the whole enumeration, and for
pools whose masks are so varied that the sets of at most k of them
outnumber the k-subsets.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import comb
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
        number of distinct patterns.  Step 1 scores every M of at most k
        classes with the fewest patterns that can hold k entries while
        taking one pattern from each class of M; kappa* is the smallest
        score.  Each class's counts are sorted once: K is |M| when the
        classes' largest counts (their heads) already sum to k, and only
        otherwise are the other counts merged in, largest first.  Step 2
        walks the entries in order and takes one whenever some M scoring
        kappa* can still be completed to exactly K* patterns and k
        entries from the entries after it, which yields the smallest
        position tuple.
        """
        counts = Counter(patterns)
        classes: Dict[int, List[int]] = {}  # sat mask -> its distinct patterns
        for qbits in counts:
            classes.setdefault(self.sat_mask(qbits), []).append(qbits)
        # each class's entry counts, largest first: its head, then its tail
        ordered = {
            m: sorted((counts[q] for q in members), reverse=True) for m, members in classes.items()
        }
        best: Optional[Tuple[int, ...]] = None
        kept: List[Tuple[int, ...]] = []
        for size in range(min(k, len(classes)) + 1):
            for chosen in itertools.combinations(classes, size):
                covered = 0
                held = 0
                for m in chosen:
                    covered |= m
                    held += ordered[m][0]
                uncovered = self.full_mask & ~covered
                if best is not None and uncovered.bit_count() > best[0]:
                    continue
                n_patterns = size
                if held < k:
                    # one pattern per class holds too few: add the largest tail counts
                    for extra in sorted((c for m in chosen for c in ordered[m][1:]), reverse=True):
                        held += extra
                        n_patterns += 1
                        if held >= k:
                            break
                    else:
                        continue
                key = (uncovered.bit_count(), n_patterns) + self._tail(uncovered)
                if best is None or key < best:
                    best, kept = key, [chosen]
                elif key == best:
                    kept.append(chosen)
        n_best = best[1]

        mask_of = {q: m for m, members in classes.items() for q in members}
        picked: List[int] = []
        taken: AbstractSet[int] = frozenset()  # patterns of the picked entries
        after = counts.copy()  # pattern -> entries after the current one
        for idx, qbits in enumerate(patterns):
            if len(picked) == k:
                break
            after[qbits] -= 1
            trial = taken | {qbits}
            trial_masks = {mask_of[q] for q in trial}
            n_new = n_best - len(trial)
            needed = k - len(picked) - 1
            if not 0 <= n_new <= needed:
                continue
            # entries the new patterns must hold beyond what trial's can
            short = needed - sum(after[q] for q in trial)
            if any(
                trial_masks.issubset(chosen)
                and _completes(classes, chosen, trial, trial_masks, after, n_new, short)
                for chosen in kept
            ):
                picked.append(idx)
                taken = trial
        return tuple(picked)


def _completes(
    classes: Mapping[int, Sequence[int]],
    chosen: Sequence[int],
    taken: AbstractSet[int],
    taken_masks: AbstractSet[int],
    after: Mapping[int, int],
    n_new: int,
    short: int,
) -> bool:
    """Whether exactly n_new patterns outside taken, each with an entry
    left in after, can hold at least short entries while the classes of
    chosen not yet in taken_masks each gain one of them."""
    required: List[List[int]] = []
    optional: List[int] = []
    for m in chosen:
        free = [after[q] for q in classes[m] if q not in taken and after[q]]
        if m in taken_masks:
            optional.extend(free)
        elif free:
            required.append(free)
        else:
            return False
    order = _greedy_counts(required, optional)
    return len(required) <= n_new <= len(order) and sum(order[:n_new]) >= short


def _greedy_counts(required: Sequence[Sequence[int]], optional: Iterable[int]) -> List[int]:
    """Entry counts ordered so that every prefix from len(required) on
    holds the most entries possible with one count from each required
    group: the largest count of each group, then all others, largest
    first."""
    heads: List[int] = []
    rest = list(optional)
    for group in required:
        ordered = sorted(group, reverse=True)
        heads.append(ordered[0])
        rest.extend(ordered[1:])
    rest.sort(reverse=True)
    return heads + rest


def check_request(k: int, strategy: str) -> None:
    """ConfigurationError unless k is a budget and strategy a known one."""
    if k < 0:
        raise ConfigurationError("k must be non-negative")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            "unknown strategy %r (choose from %s)" % (strategy, ", ".join(STRATEGIES))
        )


def downlink(
    pool: Sequence[int],
    qbits: Mapping[int, int],
    k: int,
    strategy: str,
    engine: Optional[KeyEngine],
    rng_seed: int,
) -> Tuple[int, ...]:
    """Ids of at most k pool entities to transmit.

    The pool holds entity ids ascending and qbits maps each one to its
    pattern.  k=0 sends nothing and a pool within budget goes whole.
    Otherwise semantic sends the engine's kappa-lex-minimal k-subset and
    random a uniform without-replacement sample drawn from rng_seed (the
    engine may then be None).
    """
    check_request(k, strategy)
    if k == 0:
        return ()
    if len(pool) <= k:
        return tuple(pool)
    if strategy == SEMANTIC:
        return engine.select([(i, qbits[i]) for i in pool], k)
    return tuple(random.Random(rng_seed).sample(pool, k))
