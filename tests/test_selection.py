"""Subset keys, semantic selection, and the random baseline."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semcom.errors import ConfigurationError, FeasibilityError
from semcom.logic import EvidenceItem, Hypothesis, QSentence, distinct_q, hypothesis_satisfied_by
from semcom.oracle import ClosedFormParams, closed_form_objective
from semcom.selection import (
    KeyEngine,
    SelectionKey,
    comparison_key,
    select_random,
    select_semantic,
)
from semcom.validation import random_instance, validate_key_ordering


def item(eid, bits, T):
    return EvidenceItem(entity_id=eid, q=QSentence(bits=bits, width=T))


def exact_objective(subset, hyps, T):
    # K=1 at width 4 already needs a 2**16-bit denominator
    qs = frozenset(it.q for it in subset)
    return closed_form_objective(
        ClosedFormParams.from_subset(qs, hyps, T), bit_budget=1 << 17
    )


def reference_key(subset, hyps, T):
    """kappa by definition, one hypothesis_satisfied_by test per (pattern, hypothesis)."""
    qs = distinct_q(subset)
    exponents = sorted(
        h.specificity_exponent(T)
        for h in hyps
        if not any(hypothesis_satisfied_by(q, h) for q in qs)
    )
    return (len(exponents), len(qs), *(-g for g in exponents))


# ------------------------------------------------------------------- keys


def test_key_for_two_disjoint_hypotheses_in_a_wide_vocabulary():
    T = 34
    broad = Hypothesis.from_constraints(1, {32: 1, 33: 1}, "Stop")
    narrow = Hypothesis.from_constraints(
        2, {27: 1, 28: 1, 29: 1, 30: 1, 31: 1}, "Slow"
    )
    subset = [item(0, 0b001, T), item(1, 0b010, T), item(2, 0b100, T)]
    key = comparison_key(subset, [broad, narrow], T)
    assert key.n_nonoverlap == 2
    assert key.K == 3
    # unfixed-slot exponents, smallest compatible region first
    assert key.sorted_specificity_exponents == (29, 32)
    assert key.as_tuple() == (2, 3, -29, -32)


def test_overlap_shrinks_the_key_head():
    T = 4
    h = Hypothesis.from_constraints(1, {3: 1}, "Stop")
    covered = comparison_key([item(0, 0b1000, T)], [h], T)
    uncovered = comparison_key([item(0, 0b0001, T)], [h], T)
    assert covered.n_nonoverlap == 0
    assert uncovered.n_nonoverlap == 1
    assert covered.as_tuple() < uncovered.as_tuple()


def test_lex_orders_on_nonoverlap_before_anything_else():
    a = SelectionKey(n_nonoverlap=0, K=3, sorted_specificity_exponents=())
    b = SelectionKey(n_nonoverlap=1, K=2, sorted_specificity_exponents=(9,))
    assert a.as_tuple() < b.as_tuple()
    assert a.as_tuple() == SelectionKey(0, 3, ()).as_tuple()


def test_lex_breaks_ties_toward_the_vaguest_uncovered_hypothesis():
    # same counts; the side whose smallest compatible region is larger wins
    a = SelectionKey(n_nonoverlap=1, K=2, sorted_specificity_exponents=(3,))
    b = SelectionKey(n_nonoverlap=1, K=2, sorted_specificity_exponents=(2,))
    assert a.as_tuple() < b.as_tuple()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_engine_key_matches_the_definition(seed):
    rng = random.Random(seed)
    T, k, pool, hyps = random_instance(rng, (2, 3, 4, 5), 8, 4)
    engine = KeyEngine(hyps, T)
    for size in range(1, k + 1):
        for subset in itertools.combinations(pool, size):
            expected = reference_key(subset, hyps, T)
            assert comparison_key(subset, hyps, T).as_tuple() == expected
            assert engine.key_for_patterns(it.q.bits for it in subset).as_tuple() == expected


# ------------------------------------------- agreement with the exact form


def frozen_instance(seed, T, n, k):
    drawn = random_instance(random.Random(seed), (T,), n, k)
    assert len(drawn[2]) == n and drawn[1] == k, "frozen instance drifted"
    return drawn


def test_key_order_matches_exact_objective_on_a_frozen_instance():
    # On this instance the key reproduces the exact-objective order over
    # all 15 two-item subsets.  That is not a theorem: the sweep in
    # semcom.validation measures how often the two orders part ways, and
    # key ties always coincide with objective ties.
    T, k, pool, hyps = frozen_instance(9, 4, 6, 2)
    subsets = list(itertools.combinations(pool, k))
    scored = [
        (comparison_key(s, hyps, T).as_tuple(), exact_objective(s, hyps, T))
        for s in subsets
    ]
    for (ka, fa), (kb, fb) in itertools.combinations(scored, 2):
        assert (ka < kb) == (fa < fb)
        assert (ka == kb) == (fa == fb)


def test_selection_attains_exact_minimum_on_a_frozen_instance():
    T, k, pool, hyps = frozen_instance(68, 4, 7, 3)
    chosen = select_semantic(pool, hyps, k, T)
    best = min(
        exact_objective(s, hyps, T) for s in itertools.combinations(pool, k)
    )
    assert exact_objective(chosen, hyps, T) == best


# -------------------------------------------------------------- selection


def test_whole_pool_returned_when_budget_exceeds_it():
    pool = [item(i, i, 3) for i in range(3)]
    hyps = [Hypothesis.from_constraints(1, {2: 1}, "Stop")]
    assert select_semantic(pool, hyps, 5, 3) == frozenset(pool)


def test_single_slot_goes_to_the_only_covering_entity():
    T = 3
    hyps = [Hypothesis.from_constraints(1, {2: 1}, "Stop")]
    pool = [item(0, 0b001, T), item(1, 0b100, T), item(2, 0b010, T)]
    chosen = select_semantic(pool, hyps, 1, T)
    assert {it.entity_id for it in chosen} == {1}


def test_selection_ignores_pool_order():
    T, k, pool, hyps = frozen_instance(68, 4, 7, 3)
    rng = random.Random(0)
    reference = select_semantic(pool, hyps, k, T)
    for _ in range(10):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        assert select_semantic(shuffled, hyps, k, T) == reference


def test_key_collapses_duplicate_patterns():
    # K counts distinct patterns, so a repeated entity leaves the key alone
    T = 4
    hyps = [Hypothesis.from_constraints(1, {3: 1}, "Stop")]
    subset = [item(0, 0b0001, T), item(1, 0b0010, T)]
    doubled = subset + [item(2, 0b0001, T)]
    assert comparison_key(doubled, hyps, T) == comparison_key(subset, hyps, T)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_growing_the_pool_never_worsens_the_best_key(seed):
    # every old candidate subset survives, so the optimum is monotone;
    # note a duplicated pattern CAN strictly improve it, because a size-k
    # subset holding both copies has smaller K, and smaller K genuinely
    # lowers the exact objective
    rng = random.Random(seed)
    T, k, pool, hyps = random_instance(rng, (3, 4), 6, 2)
    assume(len(pool) > k)
    best = comparison_key(select_semantic(pool, hyps, k, T), hyps, T)
    if rng.random() < 0.5:
        extra = EvidenceItem(entity_id=10_000, q=rng.choice(pool).q)
    else:
        extra = item(10_000, rng.randrange(1 << T), T)
    best_after = comparison_key(select_semantic(pool + [extra], hyps, k, T), hyps, T)
    assert best_after.as_tuple() <= best.as_tuple()


def test_selection_rejects_zero_budget_and_duplicate_ids():
    pool = [item(0, 1, 3), item(1, 2, 3)]
    hyps = [Hypothesis.from_constraints(1, {0: 1}, "Stop")]
    with pytest.raises(ConfigurationError):
        select_semantic(pool, hyps, 0, 3)
    with pytest.raises(ConfigurationError):
        select_semantic(pool + [item(0, 4, 3)], hyps, 1, 3)


def test_selection_refuses_enormous_enumerations():
    pool = [item(i, i % 8, 3) for i in range(30)]
    hyps = [Hypothesis.from_constraints(1, {0: 1}, "Stop")]
    with pytest.raises(FeasibilityError):
        select_semantic(pool, hyps, 15, 3)


def test_engine_refuses_enormous_enumerations_before_scoring_any():
    # C(40, 15) is about 4e10: only the up-front cap check can return
    hyps = [Hypothesis.from_constraints(1, {0: 1}, "Stop")]
    engine = KeyEngine(hyps, 3)
    entries = [(i, i % 8) for i in range(40)]
    started = time.perf_counter()
    with pytest.raises(FeasibilityError):
        engine.select(entries, 15)
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------- random baseline


def test_random_selection_is_reproducible():
    pool = [item(i, i, 3) for i in range(6)]
    assert select_random(pool, 2, rng_seed=42) == select_random(pool, 2, rng_seed=42)
    assert select_random(pool, 6, rng_seed=0) == frozenset(pool)
    assert select_random(pool, 9, rng_seed=0) == frozenset(pool)


def test_random_selection_draws_pairs_uniformly():
    pool = [item(i, i, 3) for i in range(5)]
    counts = Counter()
    draws = 10_000
    for seed in range(draws):
        chosen = select_random(pool, 2, rng_seed=seed)
        counts[tuple(sorted(it.entity_id for it in chosen))] += 1
    assert len(counts) == 10
    # each pair has p = 1/10; allow five standard deviations
    expected = draws / 10
    tolerance = 5 * (draws * 0.1 * 0.9) ** 0.5
    for pair, seen in counts.items():
        assert abs(seen - expected) <= tolerance, (pair, seen)


# ------------------------------------------------------- ordering validator


def test_validator_accounts_for_every_pair():
    report = validate_key_ordering(trials=60, seed=0)
    assert report.trials == 60
    split = (
        report.agreements
        + report.disagreements
        + report.key_ties_f_differs
        + report.f_ties_key_strict
    )
    assert split == report.total_pairs
    assert report.total_pairs > 0
    assert any(line.startswith("disagreements:") for line in report.summary_lines())


def test_validator_key_ties_always_share_the_exact_value():
    report = validate_key_ordering(trials=150, seed=1)
    assert report.key_ties_f_differs == 0


def test_validator_handles_an_empty_run():
    report = validate_key_ordering(trials=0, seed=0)
    assert report.total_pairs == 0
    assert report.disagreements == 0
