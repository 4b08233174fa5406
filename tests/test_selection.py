"""Subset keys, semantic selection, and the random baseline."""

import hashlib
import itertools
import random
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semcom.comms import SENSOR_GNA, ego_pools
from semcom.config import SHIPPED_RULE_SETS, load_rule_set, load_run_config
from semcom.errors import FeasibilityError
from satisfaction_reference import reference_key, satisfies
from semcom.logic import Hypothesis, QSentence
from semcom.oracle import ClosedFormParams, closed_form_objective
from semcom import selection
from semcom.selection import RANDOM, SEMANTIC, KeyEngine, downlink
from semcom.validation import random_instance, validate_key_ordering
from semcom.world import (
    T as WORLD_T,
    ScenarioConfig,
    ground_entity,
    init_world,
)

ROOT = Path(__file__).resolve().parents[1]


def exact_objective(subset, hyps, T):
    # K=1 at width 4 already needs a 2**16-bit denominator
    qs = frozenset(QSentence(bits, T) for _, bits in subset)
    return closed_form_objective(ClosedFormParams.from_subset(qs, hyps, T))


def ids(subset):
    return tuple(i for i, _ in subset)


# ------------------------------------------------------------------- keys


def test_key_for_two_disjoint_hypotheses_in_a_wide_vocabulary():
    T = 34
    broad = Hypothesis.from_constraints(1, {32: 1, 33: 1}, "Stop")
    narrow = Hypothesis.from_constraints(
        2, {27: 1, 28: 1, 29: 1, 30: 1, 31: 1}, "Slow"
    )
    key = KeyEngine([broad, narrow], T).key_for_patterns([0b001, 0b010, 0b100])
    # two uncovered, three patterns, then the unfixed-slot exponents of
    # the uncovered hypotheses, smallest compatible region first
    assert key == (2, 3, -29, -32)


def test_overlap_shrinks_the_key_head():
    engine = KeyEngine([Hypothesis.from_constraints(1, {3: 1}, "Stop")], 4)
    covered = engine.key_for_patterns([0b1000])
    uncovered = engine.key_for_patterns([0b0001])
    assert covered == (0, 1)
    assert uncovered == (1, 1, -3)
    assert covered < uncovered


def test_lex_orders_on_nonoverlap_before_anything_else():
    # witnessing the hypothesis beats sending fewer distinct patterns
    engine = KeyEngine([Hypothesis.from_constraints(1, {3: 1}, "Stop")], 4)
    witnessed = engine.key_for_patterns([0b1000, 0b0001, 0b0010])
    fewer = engine.key_for_patterns([0b0001, 0b0010])
    assert witnessed == (0, 3)
    assert fewer == (1, 2, -3)
    assert witnessed < fewer


def test_lex_breaks_ties_toward_the_vaguest_uncovered_hypothesis():
    # same counts; the side whose uncovered hypothesis has the larger
    # compatible region (fewer fixed slots) wins
    vague = Hypothesis.from_constraints(1, {3: 1}, "Stop")
    specific = Hypothesis.from_constraints(2, {0: 1, 1: 1}, "Slow")
    engine = KeyEngine([vague, specific], 4)
    leaves_vague = engine.key_for_patterns([0b0011, 0b0100])
    leaves_specific = engine.key_for_patterns([0b1000, 0b0100])
    assert leaves_vague == (1, 2, -3)
    assert leaves_specific == (1, 2, -2)
    assert leaves_vague < leaves_specific


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_engine_key_matches_the_definition(seed):
    rng = random.Random(seed)
    T, k, pool, hyps = random_instance(rng, (2, 3, 4, 5), 8, 4)
    engine = KeyEngine(hyps, T)
    for size in range(1, k + 1):
        for subset in itertools.combinations(pool, size):
            expected = reference_key(subset, hyps, T)
            assert engine.key_for_patterns(bits for _, bits in subset) == expected


def random_hypotheses(rng, T):
    hyps = []
    for hid in range(rng.randint(1, 8)):
        slots = rng.sample(range(T), rng.randint(1, T))
        hyps.append(Hypothesis.from_constraints(hid, {s: rng.randint(0, 1) for s in slots}, "a"))
    return hyps


def assert_sat_masks_match_the_definition(hyps, T):
    engine = KeyEngine(hyps, T)  # fresh: the first lookup of each pattern is a miss
    for bits in range(1 << T):
        expected = sum(1 << i for i, h in enumerate(hyps) if satisfies(bits, h))
        assert engine.sat_mask(bits) == expected, (bits, [h.fixed_slots for h in hyps])
        assert engine.sat_mask(bits) == expected  # and the cached answer


@pytest.mark.parametrize("T", range(1, 11))
def test_sat_mask_matches_the_definition_on_every_pattern(T):
    rng = random.Random(T)
    for _ in range(4):
        assert_sat_masks_match_the_definition(random_hypotheses(rng, T), T)


@pytest.mark.parametrize("name", SHIPPED_RULE_SETS)
def test_sat_mask_matches_the_definition_for_shipped_rule_sets(name):
    assert_sat_masks_match_the_definition(load_rule_set(name).hypotheses, WORLD_T)


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
    engine = KeyEngine(hyps, T)
    scored = [
        (engine.key_for_patterns(bits for _, bits in s), exact_objective(s, hyps, T))
        for s in itertools.combinations(pool, k)
    ]
    for (ka, fa), (kb, fb) in itertools.combinations(scored, 2):
        assert (ka < kb) == (fa < fb)
        assert (ka == kb) == (fa == fb)


def test_selection_attains_exact_minimum_on_a_frozen_instance():
    T, k, pool, hyps = frozen_instance(68, 4, 7, 3)
    chosen = KeyEngine(hyps, T).select(pool, k)
    best = min(
        exact_objective(s, hyps, T) for s in itertools.combinations(pool, k)
    )
    assert exact_objective([e for e in pool if e[0] in chosen], hyps, T) == best


# -------------------------------------------------------------- selection


def test_whole_pool_returned_when_budget_exceeds_it():
    engine = KeyEngine([Hypothesis.from_constraints(1, {2: 1}, "Stop")], 3)
    assert engine.select([(0, 0), (1, 1), (2, 2)], 5) == (0, 1, 2)


def test_single_slot_goes_to_the_only_covering_entity():
    engine = KeyEngine([Hypothesis.from_constraints(1, {2: 1}, "Stop")], 3)
    assert engine.select([(0, 0b001), (1, 0b100), (2, 0b010)], 1) == (1,)


def test_key_collapses_duplicate_patterns():
    # K counts distinct patterns, so a repeated entity leaves the key alone
    engine = KeyEngine([Hypothesis.from_constraints(1, {3: 1}, "Stop")], 4)
    assert engine.key_for_patterns([0b0001, 0b0010, 0b0001]) == engine.key_for_patterns(
        [0b0001, 0b0010]
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_select_is_the_smallest_id_tuple_among_kappa_minimal_subsets(seed):
    # brute force over every k-subset, ranked by the definitional key and
    # then by sorted id tuple; copies of earlier patterns make K ties and
    # interchangeable entities common, so the id tie-break is exercised
    rng = random.Random(seed)
    T, _, pool, hyps = random_instance(rng, (2, 3, 4, 5), 8, 1)
    pool = [
        (i, pool[rng.randrange(i)][1] if i and rng.random() < 0.4 else bits)
        for i, bits in pool
    ]
    engine = KeyEngine(hyps, T)
    for k in range(1, len(pool)):
        expected = min(
            itertools.combinations(pool, k),
            key=lambda c: (reference_key(c, hyps, T), ids(c)),
        )
        assert engine.select(pool, k) == ids(expected)


def runs_of_interchangeable_patterns(rng, counts):
    """Hypotheses that fix only the low one or two slots, so distinct
    patterns equal there share a mask, and a shuffled pool of 6 to 12
    entries in which each pattern is repeated a count drawn from counts:
    runs of equal (mask, count) with interleaved first positions."""
    T = rng.choice((3, 4, 5))
    low = rng.randint(1, 2)
    hyps = [
        Hypothesis.from_constraints(
            h, {s: rng.randint(0, 1) for s in rng.sample(range(low), rng.randint(1, low))}, "Stop"
        )
        for h in range(rng.randint(1, 3))
    ]
    n = rng.randint(6, 12)
    patterns = []
    for q in rng.sample(range(1 << T), 1 << T):
        patterns += [q] * rng.choice(counts)
        if len(patterns) >= n:
            break
    patterns = patterns[:n]
    rng.shuffle(patterns)
    return T, hyps, list(enumerate(patterns))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_search_is_the_smallest_id_tuple_among_kappa_minimal_subsets(seed):
    # the search is called directly, so it also runs at k = 0 and k = n,
    # which select answers without it.  Each seed checks two pools: copies
    # of earlier patterns, and runs of interchangeable patterns (equal mask
    # and count) whose entries each hold one copy, two, or a mix of one to
    # three under one mask, where the search takes a prefix of each run
    rng = random.Random(seed)
    T, _, pool, hyps = random_instance(rng, (2, 3, 4, 5), 12, 1)
    pool = [
        (i, pool[rng.randrange(i)][1] if i and rng.random() < 0.4 else bits)
        for i, bits in pool
    ]
    runs = runs_of_interchangeable_patterns(rng, ((1,), (2,), (1, 2, 3))[seed % 3])
    for T, hyps, pool in ((T, hyps, pool), runs):
        engine = KeyEngine(hyps, T)
        patterns = [bits for _, bits in pool]
        for k in range(len(pool) + 1):
            expected = min(
                itertools.combinations(pool, k),
                key=lambda c: (reference_key(c, hyps, T), ids(c)),
            )
            positions = engine._search(patterns, k)
            assert tuple(pool[i][0] for i in positions) == ids(expected)


@given(st.integers(min_value=0, max_value=10_000))
@example(19)
@example(27)
@settings(max_examples=60, deadline=None)
def test_search_matches_brute_force_around_a_lone_witness_of_every_hypothesis(seed):
    # one entry's pattern satisfies every hypothesis, so that pattern alone
    # leaves nothing uncovered but holds one entry: from k = 2 on, the
    # widest pattern sets must be topped up with other patterns.  The
    # other entries repeat a few patterns under one or two hypotheses, so
    # masks repeat across patterns and many pattern sets tie on kappa*.
    # Seeds 27 and 19 once made the id tie-break depend on a kappa*-scoring
    # set other than the first one found, and on a repeated pattern's
    # entries running out, so those two always run
    rng = random.Random(seed)
    T = rng.choice((3, 4, 5))
    witness = rng.randrange(1 << T)
    hyps = [
        Hypothesis.from_constraints(
            h, {s: (witness >> s) & 1 for s in rng.sample(range(T), rng.randint(1, T))}, "Stop"
        )
        for h in range(rng.randint(1, 2))
    ]
    others = [q for q in range(1 << T) if not all(satisfies(q, h) for h in hyps)]
    alphabet = rng.sample(others, min(len(others), rng.randint(2, 6)))
    n = rng.randint(6, 14)
    patterns = [rng.choice(alphabet) for _ in range(n - 1)]
    patterns.insert(rng.randrange(n), witness)
    pool = [(2 * i + 1, q) for i, q in enumerate(patterns)]
    engine = KeyEngine(hyps, T)
    for k in range(n + 1):
        expected = min(
            itertools.combinations(pool, k),
            key=lambda c: (reference_key(c, hyps, T), ids(c)),
        )
        positions = engine._search(patterns, k)
        assert tuple(pool[i][0] for i in positions) == ids(expected)


def test_select_matches_brute_force_on_crowded_pools():
    # every pool of two dense one-step worlds with more than 200 subsets
    # at k = 4 against the minimum over all C(n, 4) subsets; the property
    # tests above cover the small pools
    scenario = ScenarioConfig(
        name="dense", grid=60, roads=(10, 30, 50), cars=40, pedestrians=60,
        r_fov=3, r_vic=15, steps=1,
    )
    rules = load_rule_set("core")
    engine = KeyEngine(rules.hypotheses, WORLD_T)
    k = 4
    checked = 0
    for seed in (1, 2):
        world = init_world(scenario, seed)
        by_id = {a.id: a for a in world.agents}
        for ego_id, seen in ego_pools(world, scenario.r_fov, scenario.r_vic).items():
            ego = by_id[ego_id]
            for pool in seen.pools.values():
                if comb(len(pool), k) <= 200:
                    continue
                entries = [
                    (i, ground_entity(world, ego, by_id[i])) for i in pool
                ]
                expected = min(
                    itertools.combinations(entries, k),
                    key=lambda c: (engine.key_for_patterns(q for _, q in c), ids(c)),
                )
                assert engine.select(entries, k) == ids(expected)
                checked += 1
    assert checked > 100


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
    engine = KeyEngine(hyps, T)

    def best_key(entries):
        qbits = dict(entries)
        return engine.key_for_patterns(qbits[i] for i in engine.select(entries, k))

    if rng.random() < 0.5:
        extra = (10_000, rng.choice(pool)[1])
    else:
        extra = (10_000, rng.randrange(1 << T))
    assert best_key(pool + [extra]) <= best_key(pool)


def one_mask_per_pattern(T):
    """Hypotheses that each fix every slot, one per pattern: every
    pattern satisfies exactly one, so distinct patterns have distinct
    satisfaction masks."""
    return [
        Hypothesis.from_constraints(q, {s: (q >> s) & 1 for s in range(T)}, "Stop")
        for q in range(1 << T)
    ]


def counting_searches(monkeypatch, engine):
    """Calls select makes to this engine's search, as a one-item list."""
    calls = [0]
    search = engine._search

    def counted(patterns, k):
        calls[0] += 1
        return search(patterns, k)

    monkeypatch.setattr(engine, "_search", counted)
    return calls


def forbid_scoring(monkeypatch, engine):
    # the search reads every pattern's mask before it scores a set, and
    # builds every scored set's key
    for name in ("sat_mask", "_key"):
        monkeypatch.setattr(engine, name, lambda *args: pytest.fail("a pattern set was scored"))


def test_selection_refuses_enormous_enumerations(monkeypatch):
    # 30 entries with 30 distinct patterns at k = 15: the sets of at most
    # 15 patterns outnumber the C(30, 15) = 155117520 subsets, which are
    # over the cap; the sweep's entry point passes the refusal through
    # unchanged
    T = 5
    engine = KeyEngine(one_mask_per_pattern(T), T)
    forbid_scoring(monkeypatch, engine)
    pool = tuple(range(30))
    message = r"min\(C\(30, 15\), sets of at most 15 of 30 distinct patterns\) = 155117520 exceeds"
    with pytest.raises(FeasibilityError, match=message):
        downlink(pool, {i: i for i in pool}, 15, SEMANTIC, engine, 0)


def test_engine_refuses_enormous_enumerations_before_scoring_any(monkeypatch):
    # 60 entries, two of each of 30 distinct patterns, at k = 10: about
    # 5.3e7 sets of 1 to 10 patterns against C(60, 10), about 7.5e10
    # subsets, so the smaller count is the sets', and it is over the cap
    T = 5
    engine = KeyEngine(one_mask_per_pattern(T), T)
    forbid_scoring(monkeypatch, engine)
    entries = [(i, i % 30) for i in range(60)]
    n_sets = sum(comb(30, size) for size in range(1, 11))
    assert 10**7 < n_sets < comb(60, 10)
    message = (
        r"min\(C\(60, 10\), sets of at most 10 of 30 distinct patterns\) = %d exceeds" % n_sets
    )
    with pytest.raises(FeasibilityError, match=message):
        engine.select(entries, 10)


@pytest.mark.parametrize(
    "patterns, count",
    [
        # six distinct patterns: C(6, 3) = 20 subsets against
        # 6 + 15 + 20 = 41 pattern sets
        ((0, 1, 2, 3, 4, 5), 20),
        # eight entries of three patterns: C(8, 3) = 56 subsets against
        # 3 + 3 + 1 = 7 pattern sets
        ((0, 1, 2, 0, 1, 2, 0, 1), 7),
    ],
)
def test_the_cap_answers_a_count_equal_to_it_and_refuses_one_over(monkeypatch, patterns, count):
    T, k = 3, 3
    hyps = one_mask_per_pattern(T)
    pool = list(enumerate(patterns))
    expected = min(
        itertools.combinations(pool, k), key=lambda c: (reference_key(c, hyps, T), ids(c)),
    )
    monkeypatch.setattr(selection, "DEFAULT_ENUMERATION_CAP", count)
    assert KeyEngine(hyps, T).select(pool, k) == ids(expected)
    monkeypatch.setattr(selection, "DEFAULT_ENUMERATION_CAP", count - 1)
    engine = KeyEngine(hyps, T)
    forbid_scoring(monkeypatch, engine)
    message = "= %d exceeds the enumeration cap of %d" % (count, count - 1)
    with pytest.raises(FeasibilityError, match=message):
        engine.select(pool, k)


def test_select_refuses_many_distinct_patterns_in_few_mask_classes(monkeypatch):
    # 40 distinct patterns in 11 mask classes: hypothesis h < 10 fixes the
    # low four slots to h, so a pattern's low four bits name its one
    # hypothesis or none.  Only 2047 sets of at most 10 classes exist, but
    # the cap counts sets of patterns, so k = 10 is refused
    T = 6
    hyps = [
        Hypothesis.from_constraints(h, {s: (h >> s) & 1 for s in range(4)}, "Stop")
        for h in range(10)
    ]
    engine = KeyEngine(hyps, T)
    assert len({engine.sat_mask(q) for q in range(40)}) == 11
    forbid_scoring(monkeypatch, engine)
    message = r"min\(C\(40, 10\), sets of at most 10 of 40 distinct patterns\) = 847660528 exceeds"
    with pytest.raises(FeasibilityError, match=message):
        engine.select([(i, i) for i in range(40)], 10)


def test_select_answers_a_pool_whose_subsets_exceed_the_cap():
    # 40 entries, C(40, 8) = 76904685 subsets: only ids 17 and 33 witness
    # a hypothesis, and every other entry has the pattern 0.  Taking both
    # witnesses leaves nothing uncovered, and the six other entries add
    # the one pattern 0, so kappa* = (0, 3) and the smallest ids fill up
    T = 3
    hyps = [
        Hypothesis.from_constraints(0, {0: 1}, "Stop"),
        Hypothesis.from_constraints(1, {1: 1}, "Slow"),
    ]
    engine = KeyEngine(hyps, T)
    entries = [(i, {17: 0b001, 33: 0b010}.get(i, 0)) for i in range(40)]
    assert comb(40, 8) > 10**7
    chosen = engine.select(entries, 8)
    assert chosen == (0, 1, 2, 3, 4, 5, 17, 33)
    assert engine.key_for_patterns(q for i, q in entries if i in chosen) == (0, 3)


def test_select_matches_brute_force_at_budgets_eight_and_nine(monkeypatch):
    # pools of 14 to 18 entries at k = 8 and 9, where C(n, k) reaches
    # 48620: random hypotheses over repeated patterns, and one mask per
    # pattern, where the pattern sets outnumber the subsets
    checked = 0
    for seed in range(4):
        rng = random.Random(seed)
        n = rng.randint(14, 18)
        if seed % 2:
            T, _, _, hyps = random_instance(rng, (3, 4, 5), 2, 1)
            patterns = [rng.randrange(1 << T) for _ in range(n)]
        else:
            T = 5
            hyps = one_mask_per_pattern(T) + [
                Hypothesis.from_constraints(32 + s, {s: 1}, "Slow") for s in range(T)
            ]
            patterns = rng.sample(range(1 << T), n)
        engine = KeyEngine(hyps, T)
        calls = counting_searches(monkeypatch, engine)
        pool = [(3 * i + 1, q) for i, q in enumerate(patterns)]
        for k in (8, 9):
            expected = min(
                itertools.combinations(pool, k),
                key=lambda c: (engine.key_for_patterns(q for _, q in c), ids(c)),
            )
            assert engine.select(pool, k) == ids(expected)
        checked += calls[0]
    assert checked == 8


def test_select_answers_many_tied_distinct_patterns_within_a_second(monkeypatch):
    # 24 entries with 24 distinct masks: C(24, 20) = 10626 subsets, but
    # about 1.7e7 sets of at most 20 patterns, so the cap counts subsets;
    # all 10626 sets of 20 patterns tie on kappa and are kept
    T = 5
    hyps = [
        Hypothesis.from_constraints(i, {s: (i >> s) & 1 for s in range(T)}, "Stop")
        for i in range(24)
    ]
    engine = KeyEngine(hyps, T)
    calls = counting_searches(monkeypatch, engine)
    started = time.perf_counter()
    # every subset has the same kappa, so the smallest ids win
    assert engine.select([(i, i) for i in range(24)], 20) == tuple(range(20))
    assert time.perf_counter() - started < 1.0
    assert calls == [1]


def test_select_scores_few_sets_on_a_dense_pool_of_single_entry_patterns(monkeypatch):
    # the dense benchmark scenario (perfbench/dense.yaml, read only), seed
    # 58, step 0, car 30, sensor-gna: 22 entries, each its own pattern, in
    # 7 mask classes.  At k = 8 every choice of filler patterns within a
    # class ties on kappa; scoring and keeping every tie took 60495 sets
    run = load_run_config(str(ROOT / "perfbench" / "dense.yaml"))
    scenario, rules = run.scenarios[0], run.rule_sets[0]
    world = init_world(scenario, 58)
    by_id = {a.id: a for a in world.agents}
    pool = ego_pools(world, scenario.r_fov, scenario.r_vic)[30].pools[SENSOR_GNA]
    entries = [(i, ground_entity(world, by_id[30], by_id[i])) for i in pool]
    engine = KeyEngine(rules.hypotheses, WORLD_T)
    assert len({q for _, q in entries}) == len(entries) == 22
    assert len({engine.sat_mask(q) for _, q in entries}) == 7
    scored = [0]
    key = engine._key

    def counted(covered, size):
        scored[0] += 1
        return key(covered, size)

    monkeypatch.setattr(engine, "_key", counted)
    assert engine.select(entries, 8) == (5, 12, 21, 24, 29, 42, 46, 71)
    assert scored[0] <= 1000


def test_select_memo_returns_each_pools_own_ids_per_budget():
    # the engine memoizes positions per (patterns, k): a second pool with
    # the same patterns under other ids is served from the memo and must
    # get its own ids back, and another budget must not be served at all
    T = 3
    hyps = [
        Hypothesis.from_constraints(0, {0: 1}, "Stop"),
        Hypothesis.from_constraints(1, {1: 1}, "Slow"),
    ]
    engine = KeyEngine(hyps, T)
    patterns = (0b000, 0b001, 0b010, 0b011, 0b001)
    first = list(zip((1, 2, 3, 4, 5), patterns))
    second = list(zip((10, 20, 30, 40, 50), patterns))

    def expected(pool, k):
        return ids(min(
            itertools.combinations(pool, k),
            key=lambda c: (reference_key(c, hyps, T), ids(c)),
        ))

    assert engine.select(first, 1) == expected(first, 1) == (4,)
    assert engine.select(second, 1) == expected(second, 1) == (40,)
    assert engine.select(first, 2) == expected(first, 2) == (1, 4)
    assert engine.select(second, 2) == expected(second, 2) == (10, 40)
    # one search per (patterns, k)
    assert len(engine._chosen) == 2


# --------------------------------------------------------- random baseline


def test_random_selection_is_reproducible():
    pool = tuple(range(6))
    assert downlink(pool, {}, 2, RANDOM, None, 42) == downlink(pool, {}, 2, RANDOM, None, 42)


def test_random_selection_draws_pairs_uniformly():
    pool = tuple(range(5))
    counts = Counter()
    draws = 10_000
    for seed in range(draws):
        counts[tuple(sorted(downlink(pool, {}, 2, RANDOM, None, seed)))] += 1
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


def test_validator_keeps_and_prints_the_first_five_disagreements():
    report = validate_key_ordering(trials=200, seed=0)
    assert report.disagreements > 5
    assert len(report.examples) == 5
    printed = [line for line in report.summary_lines() if "disagreement in trial" in line]
    assert len(printed) == 5
    first = report.examples[0]
    assert first.f_sign != 0 and first.key_a != first.key_b


def test_validator_seed_zero_report_is_pinned():
    # the exact compare decides every distinct-key pair's class, so a change
    # to it shows here as a moved count or a different printed disagreement
    report = validate_key_ordering(trials=1000, seed=0)
    counts = (
        report.trials, report.total_pairs, report.agreements, report.disagreements,
        report.key_ties_f_differs, report.f_ties_key_strict,
    )
    assert counts == (1000, 151556, 133206, 13187, 0, 5163)
    lines = [line for line in report.summary_lines() if not line.startswith("elapsed:")]
    assert len(lines) == 11
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "86a5fd96f4dd8c5d27142c7c1cd8f781e515a6dae01e63c63a1846ce739746fd"


def test_validator_key_ties_always_share_the_exact_value():
    report = validate_key_ordering(trials=150, seed=1)
    assert report.key_ties_f_differs == 0


def test_validator_handles_an_empty_run():
    report = validate_key_ordering(trials=0, seed=0)
    assert report.total_pairs == 0
    assert report.disagreements == 0
