"""Distortion metrics, the evaluation matrix, and CSV emission."""

import dataclasses
import functools
import itertools
import random
import statistics
from pathlib import Path

import pytest

import reference_sweep
from metrics_reference import action_dsr, hypothesis_dsr
from semcom.comms import (
    MULTI_ZONE_LNA,
    SENSOR_GNA,
    SINGLE_ZONE_GNA,
    ego_pools,
)
from semcom.config import load_rule_set, load_run_config
from semcom import metrics
from semcom.errors import ConfigurationError, UndefinedMetricError
from semcom.logic import Hypothesis
from semcom.metrics import (
    ADVANTAGE_K,
    AggregateRow,
    EpisodeTrace,
    MetricsRow,
    TraceRecord,
    _record_seed,
    advantage_correlation,
    advantage_points,
    aggregate,
    build_trajectory,
    cell_rates,
    evaluate_cell,
    monotonicity_violations,
    per_seed_csv,
    sweep,
    write_csv,
)
from semcom.selection import RANDOM, SEMANTIC, KeyEngine, downlink
from semcom.world import (
    T,
    RuleSet,
    ScenarioConfig,
    init_world,
    step,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scenario(**overrides):
    base = dict(
        name="t",
        grid=40,
        roads=(10, 30),
        cars=6,
        pedestrians=3,
        r_fov=4,
        r_vic=12,
        steps=8,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def rules_of(n):
    """n one-slot hypotheses; the action of a mask: bit 0 -> Stop, else
    bit 1 -> Slow, else Normal."""
    actions = ("Stop", "Slow") + ("Normal",) * (n - 2)
    return RuleSet(
        name="hand",
        hypotheses=tuple(Hypothesis.from_constraints(i, {i: 1}, a) for i, a in enumerate(actions)),
        action_priority=("Stop", "Slow", "Normal"),
    )


RULES = rules_of(2)


def record(fi_mask, *strategy_masks):
    return TraceRecord(fi_mask=fi_mask, strategy_masks=strategy_masks)


def trace_of(records):
    cells = tuple((SENSOR_GNA, SEMANTIC, k) for k in range(len(records[0].strategy_masks)))
    return EpisodeTrace(cells=cells, records=tuple(records))


def reference_rates(trace, rules):
    """(H-DSR, A-DSR) of every column by the per-column definitions."""
    return [
        (hypothesis_dsr(trace, column, rules), action_dsr(trace, column, rules))
        for column in range(len(trace.cells))
    ]


# ------------------------------------------------------------------ metrics


def test_perfect_trace_scores_one():
    rules = rules_of(4)
    trace = trace_of([record(0b1010, 0b1010), record(0b0001, 0b0001)])
    assert cell_rates(trace, rules) == reference_rates(trace, rules) == [(1.0, 1.0)]


def test_one_bit_off_in_a_hundred_evaluations():
    rules = rules_of(10)
    records = [record(0b1111111111, 0b1111111111) for _ in range(9)]
    records.append(record(0b1111111111, 0b0111111111))
    trace = trace_of(records)
    assert cell_rates(trace, rules) == reference_rates(trace, rules) == [(0.99, 1.0)]


def test_action_dsr_counts_matching_records():
    trace = trace_of(
        [
            record(0b01, 0b01, 0b01),  # Stop, Stop
            record(0b01, 0b00, 0b01),  # Stop, Normal
            record(0b11, 0b01, 0b11),  # Stop, Stop with one hypothesis missed
            record(0b11, 0b10, 0b11),  # Stop, Slow
        ],
    )
    # each column's rates read only that column
    assert cell_rates(trace, RULES) == reference_rates(trace, RULES) == [(0.625, 0.5), (1.0, 1.0)]


def test_empty_trace_has_no_defined_score():
    empty = EpisodeTrace(cells=((SENSOR_GNA, SEMANTIC, 1),), records=())
    with pytest.raises(UndefinedMetricError):
        cell_rates(empty, RULES)
    with pytest.raises(UndefinedMetricError):
        hypothesis_dsr(empty, 0, RULES)
    with pytest.raises(UndefinedMetricError):
        action_dsr(empty, 0, RULES)


def test_record_order_does_not_matter():
    rules = rules_of(4)
    records = [
        record((s * 7 + e) % 16, (s * 5 + e) % 16)
        for s in range(4)
        for e in range(3)
    ]
    trace = trace_of(records)
    shuffled = trace_of(list(reversed(records)))
    assert cell_rates(trace, rules) == cell_rates(shuffled, rules) == reference_rates(trace, rules)


# ------------------------------------------------------- matrix evaluation


def engine_for(rules):
    return KeyEngine(rules.hypotheses, T)


def test_full_budget_under_sensor_uplink_is_lossless():
    cfg = scenario()
    rules = load_rule_set("core")
    engine = engine_for(rules)
    k_cover = cfg.cars + cfg.pedestrians - 1
    budgets = [(strategy, k_cover) for strategy in (SEMANTIC, RANDOM)]
    for seed in (1, 2, 3):
        traj = build_trajectory(cfg, rules, seed, engine)
        trace = evaluate_cell(traj, [SENSOR_GNA], budgets, engine)
        assert cell_rates(trace, rules) == [(1.0, 1.0)] * len(budgets)


def test_perfect_hypothesis_recovery_implies_perfect_actions():
    cfg = scenario()
    rules = load_rule_set("core")
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, 5, engine)
    kinds = (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)
    trace = evaluate_cell(traj, kinds, [(SEMANTIC, k) for k in (0, 1, 2, 13)], engine)
    # per decision: every column that recovers every hypothesis also
    # decides as FI does (k = 13 covers every pool, so such columns exist)
    recovered = 0
    for rec in trace.records:
        for hdsr, adsr in cell_rates(EpisodeTrace(trace.cells, (rec,)), rules):
            if hdsr == 1.0:
                assert adsr == 1.0
                recovered += 1
    assert recovered >= len(trace.records)


def test_zero_budget_loses_to_a_single_semantic_slot():
    cfg = scenario(cars=8, pedestrians=6, steps=10)
    rules = load_rule_set("core")
    engine = engine_for(rules)
    budgets = [(SEMANTIC, 0), (SEMANTIC, 1)]
    base, one = [], []
    for seed in range(1, 25):
        traj = build_trajectory(cfg, rules, seed, engine)
        (_, base_adsr), (_, one_adsr) = cell_rates(
            evaluate_cell(traj, [SENSOR_GNA], budgets, engine), rules
        )
        base.append(base_adsr)
        one.append(one_adsr)
    assert statistics.fmean(base) < statistics.fmean(one)


def test_matrix_cells_replay_one_shared_trajectory():
    # the full-information side must not depend on the evaluated cells
    cfg = scenario()
    rules = load_rule_set("core")
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, 9, engine)
    budgets = [(s, k) for s in (SEMANTIC, RANDOM) for k in (0, 2)]
    traces = [evaluate_cell(traj, [SENSOR_GNA], [budget], engine) for budget in budgets]
    traces.append(evaluate_cell(traj, [SENSOR_GNA], budgets, engine))
    fi_sides = {tuple(r.fi_mask for r in t.records) for t in traces}
    assert len(fi_sides) == 1


def view_keys(traj):
    """(step, ego) of every view, in the order the scorer writes records."""
    return [(s, ego) for s, step_views in enumerate(traj.views) for ego in sorted(step_views)]


def witnessed_by(engine, qbits, ids):
    mask = 0
    for ent in ids:
        mask |= engine.sat_mask(qbits[ent])
    return mask


def per_cell_masks(traj, cells, engine):
    """strategy_masks by (step, ego), from one downlink call per (step, ego, cell)
    whose budget is strictly inside the pool."""
    out = {}
    for step_no, step_views in enumerate(traj.views):
        for ego_id, view in step_views.items():
            rng_seed = _record_seed(traj.seed, step_no, ego_id)
            masks = []
            for kind, strategy, k in cells:
                pool = view.pools[kind]
                if 0 < k < len(pool):
                    chosen = downlink(pool, view.qbits, k, strategy, engine, rng_seed)
                else:
                    chosen = pool[:k]  # nothing at k = 0, the whole pool above
                masks.append(witnessed_by(engine, view.qbits, view.fov_ids + chosen))
            out[(step_no, ego_id)] = tuple(masks)
    return out


def coverage_and_misses(hypotheses, patterns, fov_mask):
    """(C, misses) of a pool's patterns by definition: bit i of C is set
    when some pattern satisfies hypotheses[i], and misses is the most
    patterns that fail any one hypothesis of C outside fov_mask."""
    fails = [sum(not h.satisfied_by(q) for q in patterns) for h in hypotheses]
    cover = sum(1 << i for i, failed in enumerate(fails) if failed < len(patterns))
    beyond = cover & ~fov_mask
    return cover, max((f for i, f in enumerate(fails) if beyond >> i & 1), default=0)


def some_entries_cover(hypotheses, patterns, k, cover):
    """Whether some min(k, len(patterns)) of the patterns together satisfy
    every hypothesis of cover, by trying every such combination."""
    satisfied = [
        sum(1 << i for i, h in enumerate(hypotheses) if h.satisfied_by(q)) for q in patterns
    ]
    return any(
        functools.reduce(int.__or__, combo, 0) == cover
        for combo in itertools.combinations(satisfied, min(k, len(satisfied)))
    )


def rule_requests(traj, cells, engine):
    """(pool, strategy, k, rng seed) of every request with 0 < k < len(pool),
    split by definition into three sets: those left to downlink, random
    ones decided because k > misses, and semantic ones decided because
    some k entries cover the pool's coverage C.  The fourth set holds the
    semantic ones so decided at k <= misses where no smaller semantic
    budget's choice witnessed C."""
    left, by_misses, by_cover, first_cover = set(), set(), set(), set()
    for step_no, step_views in enumerate(traj.views):
        for ego_id, view in step_views.items():
            rng_seed = _record_seed(traj.seed, step_no, ego_id)
            fov_mask = witnessed_by(engine, view.qbits, view.fov_ids)
            for kind, strategy, k in cells:
                pool = view.pools[kind]
                if not 0 < k < len(pool):
                    continue
                request = (pool, strategy, k, rng_seed)
                patterns = [view.qbits[i] for i in pool]
                cover, misses = coverage_and_misses(engine.hypotheses, patterns, fov_mask)
                if strategy == RANDOM:
                    (by_misses if k > misses else left).add(request)
                elif not some_entries_cover(engine.hypotheses, patterns, k, cover):
                    left.add(request)
                else:
                    by_cover.add(request)
                    if k <= misses and not any(
                        s == SEMANTIC and 0 < j < k
                        and witnessed_by(
                            engine, view.qbits, downlink(pool, view.qbits, j, s, engine, rng_seed)
                        ) == cover
                        for _, s, j in cells
                    ):
                        first_cover.add(request)
    return left, by_misses, by_cover, first_cover


@pytest.mark.parametrize("rule_set", ["core", "extended"])
def test_one_pass_scorer_matches_one_downlink_call_per_cell(rule_set, monkeypatch):
    cfg = scenario(cars=8, pedestrians=5, steps=6)
    rules = load_rule_set(rule_set)
    engine = engine_for(rules)
    k_over = cfg.cars + cfg.pedestrians  # more than any pool holds
    kinds = (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)
    budgets = [(s, k) for s in (SEMANTIC, RANDOM) for k in (0, 1, 2, 3, k_over)]
    calls = []

    def counting_downlink(pool, qbits, k, strategy, engine, rng_seed):
        calls.append((pool, strategy, k, rng_seed))
        return downlink(pool, qbits, k, strategy, engine, rng_seed)

    monkeypatch.setattr(metrics, "downlink", counting_downlink)
    shared = distinct = crowded = within = 0
    decided_by_misses = decided_by_cover = decided_first = 0
    for seed in (1, 2, 3):
        traj = build_trajectory(cfg, rules, seed, engine)
        keys = view_keys(traj)
        # the product in the given order and with kinds and budgets reversed
        for order in ((kinds, budgets), (kinds[::-1], budgets[::-1])):
            calls.clear()
            trace = evaluate_cell(traj, *order, engine)
            cells = [(kind, s, k) for kind in order[0] for s, k in order[1]]
            assert trace.cells == tuple(cells)
            # k = 0 and the budgets the pool's coverage fixes send without
            # a call, and equal pools share one block, so each request the
            # rule leaves open is made once and no other is made
            left, by_misses, by_cover, first_cover = rule_requests(traj, cells, engine)
            assert set(calls) == left
            assert not set(calls) & (by_misses | by_cover)
            assert len(calls) == len(set(calls))
            decided_by_misses += len(by_misses)
            decided_by_cover += len(by_cover)
            decided_first += len(first_cover)
            expected = per_cell_masks(traj, cells, engine)
            assert [r.strategy_masks for r in trace.records] == [expected[key] for key in keys]
            fi_masks = [traj.views[s][e].fi_mask for s, e in keys]
            assert [r.fi_mask for r in trace.records] == fi_masks
        for step_views in traj.views:
            for view in step_views.values():
                pools = [view.pools[kind] for kind in kinds]
                crowded += len(pools[0]) > 3
                shared += pools[0] == pools[1] != ()
                distinct += len(set(pools)) == 3
                within += 0 < len(pools[0]) <= 3
    # every case is exercised: pools above every k < k_over (where k = 0
    # must still send nothing), pools two architectures share, views where
    # all three differ, nonempty pools that a k below k_over already sends
    # whole under both strategies, budgets inside a pool that the rule
    # decides by each of its two routes, and semantic budgets at or below
    # misses that the cover number decides although no smaller semantic
    # budget's choice covered C
    assert crowded and shared and distinct and within
    assert decided_by_misses and decided_by_cover and decided_first


def largest_budgets(budgets):
    """Each strategy's largest k, as evaluate_cell hands it to _mask_block."""
    return {s: max(k for t, k in budgets if t == s) for s, _ in budgets}


def test_mask_block_matches_one_downlink_call_per_budget(monkeypatch):
    # the coverage rule against the block without it, on random pools and
    # FOV masks, every k from 0 to len(pool) + 1 and both strategies in a
    # shuffled order, again with the budgets cut below the pool size,
    # where both counts stop at the largest budget, and with budgets of
    # one strategy only, drawn apart so the other inputs stay as they were
    hypotheses = rules_of(5).hypotheses
    engine = KeyEngine(hypotheses, T)  # one engine for every pool, as in a task
    reference = KeyEngine(hypotheses, T)
    calls = []

    def recording_downlink(pool, qbits, k, strategy, engine, rng_seed):
        calls.append((strategy, k))
        return downlink(pool, qbits, k, strategy, engine, rng_seed)

    monkeypatch.setattr(metrics, "downlink", recording_downlink)
    rng = random.Random(11)
    one_strategy = random.Random(12)
    by_misses = by_cover = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        pool = tuple(sorted(rng.sample(range(40), n)))
        # a few patterns per pool, so patterns repeat and one may cover the rest
        palette = [rng.randrange(1 << len(hypotheses)) for _ in range(rng.randint(1, 4))]
        qbits = {ent: rng.choice(palette) for ent in pool}
        fov_mask = rng.randrange(1 << len(hypotheses))
        rng_seed = rng.randrange(1 << 31)
        patterns = [qbits[ent] for ent in pool]
        cover, misses = coverage_and_misses(hypotheses, patterns, fov_mask)
        budget_lists = []
        for top in (n + 1, rng.randrange(n)):
            budgets = [(s, k) for s in (SEMANTIC, RANDOM) for k in range(top + 1)]
            rng.shuffle(budgets)
            budget_lists.append(budgets)
        for s in (SEMANTIC, RANDOM):
            ks = one_strategy.sample(range(n + 2), one_strategy.randint(1, n + 2))
            budget_lists.append([(s, k) for k in ks])
        for budgets in budget_lists:
            calls.clear()
            block = metrics._mask_block(
                engine, qbits, pool, budgets, largest_budgets(budgets), fov_mask, rng_seed
            )
            expected = []
            for s, k in budgets:
                if 0 < k < n:
                    sent = downlink(pool, qbits, k, s, reference, rng_seed)
                else:
                    sent = pool[:k]  # nothing at k = 0, the whole pool above
                expected.append(fov_mask | witnessed_by(reference, qbits, sent))
            assert block == tuple(expected)
            inside = [(s, k) for s, k in budgets if 0 < k < n]
            decided = {
                (s, k)
                for s, k in inside
                if (
                    k > misses if s == RANDOM
                    else some_entries_cover(hypotheses, patterns, k, cover)
                )
            }
            assert sorted(calls) == sorted(budget for budget in inside if budget not in decided)
            by_misses += sum(s == RANDOM for s, _ in decided)
            by_cover += sum(s == SEMANTIC for s, _ in decided)
    assert by_misses and by_cover


def minimum_cover(masks, cover):
    """The fewest of masks whose OR is cover, by trying every combination
    of distinct masks, smallest first."""
    distinct = sorted(set(masks))
    for size in range(len(distinct) + 1):
        for combo in itertools.combinations(distinct, size):
            if functools.reduce(int.__or__, combo, 0) == cover:
                return size
    raise AssertionError("cover is not the OR of masks")


def check_cover_number_on(engine, qbits, pool, ks, monkeypatch):
    """The cover number of pool against a brute-force minimum cover at
    every bound, and _mask_block's semantic budgets ks against select:
    need <= k exactly when select's choice covers C, downlink runs
    exactly for the other budgets, and every mask is select's.  Returns
    (budgets decided, budgets left to downlink)."""
    masks = [engine.sat_mask(qbits[ent]) for ent in pool]
    cover = functools.reduce(int.__or__, masks, 0)
    fewest = minimum_cover(masks, cover)
    for most in range(max(ks) + 2):
        assert metrics._cover_number(masks, cover, most) == min(fewest, most + 1)
    calls = []

    def recording_downlink(pool, qbits, k, strategy, engine, rng_seed):
        calls.append(k)
        return downlink(pool, qbits, k, strategy, engine, rng_seed)

    monkeypatch.setattr(metrics, "downlink", recording_downlink)
    budgets = [(SEMANTIC, k) for k in ks]
    block = metrics._mask_block(engine, qbits, pool, budgets, largest_budgets(budgets), 0, 0)
    monkeypatch.undo()
    covering = set()
    for k, mask in zip(ks, block):
        chosen = witnessed_by(engine, qbits, downlink(pool, qbits, k, SEMANTIC, engine, 0))
        assert mask == chosen
        assert (fewest <= k) == (chosen == cover)
        if chosen == cover:
            covering.add(k)
    assert calls == [k for k in ks if k not in covering]
    return len(covering), len(calls)


def test_cover_number_decides_exactly_the_budgets_whose_choice_covers_c_on_dense_pools(
    monkeypatch,
):
    # the sensor-gna pools of the dense benchmark scenario, at every k
    # from 1 to 8 below the pool size
    run = load_run_config(str(CONFIGS.parent / "perfbench" / "dense.yaml"))
    dense, rules = run.scenarios[0], run.rule_sets[0]
    engine = engine_for(rules)
    decided = left = crowded = 0
    for seed in (1, 2):
        for view in build_trajectory(dense, rules, seed, engine).views[0].values():
            pool = view.pools[SENSOR_GNA]
            ks = [k for k in range(1, 9) if k < len(pool)]
            if ks:
                crowded += len(pool) > 20
                got = check_cover_number_on(engine, view.qbits, pool, ks, monkeypatch)
                decided += got[0]
                left += got[1]
    assert crowded and decided and left


def test_cover_number_decides_exactly_the_budgets_whose_choice_covers_c_on_random_pools(
    monkeypatch,
):
    # up to 36 entries over up to 10 mask classes of one to three bits,
    # so covers need up to eight classes; with one-slot hypotheses a
    # pattern's mask is the pattern itself
    hypotheses = rules_of(10).hypotheses
    engine = KeyEngine(hypotheses, T)
    rng = random.Random(5)
    decided = left = 0
    for _ in range(120):
        classes = [
            sum(1 << bit for bit in rng.sample(range(len(hypotheses)), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 10))
        ]
        n = rng.randint(2, 36)
        pool = tuple(sorted(rng.sample(range(100), n)))
        qbits = {ent: rng.choice(classes) for ent in pool}
        got = check_cover_number_on(engine, qbits, pool, range(1, min(n, 9)), monkeypatch)
        decided += got[0]
        left += got[1]
    assert decided and left


def test_cover_number_past_the_cap_leaves_the_budget_to_downlink(monkeypatch):
    # the pool's coverage needs two masks; with the cap below the second
    # level's pairs the count gives up and every semantic budget inside
    # the pool calls downlink
    hypotheses = rules_of(3).hypotheses
    engine = KeyEngine(hypotheses, T)
    pool = (1, 2, 3, 4)
    qbits = {1: 0b001, 2: 0b010, 3: 0b100, 4: 0b011}
    masks = [engine.sat_mask(qbits[ent]) for ent in pool]
    assert metrics._cover_number(masks, 0b111, 3) == 2
    # 0b011 contains 0b001 and 0b010, so two masks stay: level 1 ORs
    # 1 x 2 pairs and level 2 another 2 x 2, six in all
    monkeypatch.setattr(metrics, "DEFAULT_ENUMERATION_CAP", 6)
    assert metrics._cover_number(masks, 0b111, 3) == 2
    monkeypatch.setattr(metrics, "DEFAULT_ENUMERATION_CAP", 5)
    assert metrics._cover_number(masks, 0b111, 3) == 4
    calls = []

    def recording_downlink(pool, qbits, k, strategy, engine, rng_seed):
        calls.append(k)
        return downlink(pool, qbits, k, strategy, engine, rng_seed)

    monkeypatch.setattr(metrics, "downlink", recording_downlink)
    budgets = [(SEMANTIC, k) for k in range(5)]
    block = metrics._mask_block(engine, qbits, pool, budgets, {SEMANTIC: 4}, 0, 0)
    assert calls == [1, 2, 3]
    assert block == (0, 0b011, 0b111, 0b111, 0b111)


@pytest.mark.parametrize("rule_set", ["core", "extended"])
def test_cell_rates_match_the_per_column_reference_on_desk_traces(rule_set):
    run = load_run_config(str(CONFIGS / "desk.yaml"))
    desk = run.scenarios[0]
    rules = load_rule_set(rule_set)
    engine = KeyEngine(rules.hypotheses, T)
    kinds = list(run.architectures)
    budgets = [(strategy, k) for strategy in run.strategies for k in run.ks]
    repeated = 0
    for seed in (1, 2, 3):
        traj = build_trajectory(desk, rules, seed, engine)
        for order in ((kinds, budgets), (kinds[::-1], budgets[::-1])):
            trace = evaluate_cell(traj, *order, engine)
            assert len(trace.cells) == 36
            assert cell_rates(trace, rules) == reference_rates(trace, rules)
        distinct = {(r.fi_mask, r.strategy_masks) for r in trace.records}
        repeated += len(distinct) < len(trace.records)
    # the tally merges records on every seed
    assert repeated == 3


def test_trajectory_pools_and_masks_match_the_public_api():
    # replay the recorded episode through world/comms and compare
    cfg = scenario(cars=5, pedestrians=2, steps=5)
    rules = load_rule_set("core")
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, 3, engine)
    world = init_world(cfg, seed=3)
    for step_views in traj.views:
        seen = ego_pools(world, cfg.r_fov, cfg.r_vic)
        assert sorted(step_views) == sorted(seen)
        for ego_id, view in step_views.items():
            assert view.fov_ids == seen[ego_id].fov_ids
            assert tuple(view.qbits) == seen[ego_id].vic_ids
            for kind in (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA):
                assert view.pools[kind] == seen[ego_id].pools[kind]
            expected_mask = 0
            for ent in seen[ego_id].vic_ids:
                expected_mask |= engine.sat_mask(view.qbits[ent])
            assert view.fi_mask == expected_mask
        world = step(
            world, {ego: rules.action_of(view.fi_mask) for ego, view in step_views.items()}
        )


def test_random_strategy_matches_the_standalone_sampler():
    cfg = scenario(cars=6, pedestrians=3, steps=6)
    rules = load_rule_set("core")
    engine = engine_for(rules)
    seed = 4
    traj = build_trajectory(cfg, rules, seed, engine)
    k = 2
    trace = evaluate_cell(traj, [SENSOR_GNA], [(RANDOM, k)], engine)
    keys = view_keys(traj)
    assert len(trace.records) == len(keys)
    for (step_no, ego_id), rec in zip(keys, trace.records):
        view = traj.views[step_no][ego_id]
        pool = view.pools[SENSOR_GNA]
        expected = 0
        for ent in view.fov_ids:
            expected |= engine.sat_mask(view.qbits[ent])
        if len(pool) > k:
            rng = random.Random(_record_seed(seed, step_no, ego_id))
            chosen = rng.sample(pool, k)
        else:
            chosen = pool
        for ent in chosen:
            expected |= engine.sat_mask(view.qbits[ent])
        assert rec.strategy_masks == (expected,)


def test_sweep_layout_and_determinism():
    cfg = scenario(cars=4, pedestrians=2, steps=4)
    rules = [load_rule_set("core")]
    archs = [SENSOR_GNA, MULTI_ZONE_LNA]
    rows = sweep(cfg, rules, archs, (SEMANTIC, RANDOM), (0, 1, 3), (1, 2))
    # 2 architectures x 1 rule set x 2 strategies x 3 budgets x 2 seeds
    assert len(rows) == 24
    assert rows == sorted(
        rows, key=lambda r: (r.architecture, r.rule_set, r.strategy, r.k, r.seed)
    )
    again = sweep(cfg, rules, archs, (SEMANTIC, RANDOM), (0, 1, 3), (1, 2))
    assert rows == again


def test_sweep_runs_in_parallel_identically():
    cfg = scenario(cars=4, pedestrians=2, steps=4)
    rules = [load_rule_set("core")]
    archs = [SENSOR_GNA]
    serial = sweep(cfg, rules, archs, (SEMANTIC, RANDOM), (0, 2), (1, 2, 3))
    parallel = sweep(cfg, rules, archs, (SEMANTIC, RANDOM), (0, 2), (1, 2, 3), jobs=2)
    assert serial == parallel


def recording_pool(monkeypatch):
    """Replace the process pool with an in-process fake; returns its max_workers log."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return sizes


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch):
    sizes = recording_pool(monkeypatch)
    cfg = scenario(cars=3, pedestrians=1, steps=2)
    rules = [load_rule_set("core")]
    archs = [SENSOR_GNA]
    serial = sweep(cfg, rules, archs, (SEMANTIC,), (0, 1), (1, 2), jobs=1)
    assert sizes == []
    assert sweep(cfg, rules, archs, (SEMANTIC,), (0, 1), (1, 2), jobs=512) == serial
    assert sizes == [2]
    assert sweep(cfg, rules, archs, (SEMANTIC,), (0, 1), (1,), jobs=8) == [
        r for r in serial if r.seed == 1
    ]
    assert sizes == [2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(monkeypatch, jobs):
    sizes = recording_pool(monkeypatch)
    cfg = scenario(cars=3, pedestrians=1, steps=2)
    rules = [load_rule_set("core")]
    with pytest.raises(ConfigurationError, match="jobs"):
        sweep(cfg, rules, [SENSOR_GNA], (SEMANTIC,), (1,), (1, 2), jobs=jobs)
    assert sizes == []


AXES = dict(
    rule_sets=("core",),
    architectures=(SENSOR_GNA, MULTI_ZONE_LNA),
    strategies=(SEMANTIC, RANDOM),
    ks=(0, 1, 2),
    seeds=(1, 2),
)


def sweep_axes(jobs=1, **overrides):
    """sweep on a small scenario over AXES, names standing for rule sets and kinds."""
    axes = dict(AXES, **overrides)
    return sweep(
        scenario(cars=3, pedestrians=1, steps=2),
        [load_rule_set(name) for name in axes["rule_sets"]],
        axes["architectures"],
        axes["strategies"], axes["ks"], axes["seeds"], jobs=jobs,
    )


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"ks": (1, 2, 1)}, "duplicate budget: 1"),
        ({"strategies": (SEMANTIC, SEMANTIC)}, "duplicate strategy: semantic"),
        ({"seeds": (3, 1, 3)}, "duplicate seed: 3"),
        ({"architectures": (SENSOR_GNA, SENSOR_GNA)}, "duplicate architecture kind: sensor-gna"),
        ({"rule_sets": ("core", "spatial", "core")}, "duplicate rule set name: core"),
        ({"strategies": (SEMANTIC, "psychic")}, "unknown strategy 'psychic'"),
        ({"ks": (0, 2, -1)}, "k must be non-negative"),
        ({"seeds": (-3, 3)}, "seed must be non-negative, got -3"),
        ({"architectures": (SENSOR_GNA, "carrier-pigeon")}, "unknown architecture 'carrier-pigeon'"),
        # membership comes first, so an unhashable entry is refused by name
        ({"strategies": ([SEMANTIC], [SEMANTIC])}, r"unknown strategy \['semantic'\]"),
        ({"architectures": ([SENSOR_GNA],)}, r"unknown architecture \['sensor-gna'\]"),
    ],
    ids=[
        "budget", "strategy", "seed", "kind", "rule-set", "unknown-strategy", "negative-k",
        "negative-seed", "unknown-kind", "unhashable-strategy", "unhashable-kind",
    ],
)
def test_sweep_rejects_repeated_axes_before_any_task_runs(monkeypatch, overrides, message):
    # each axis keys the rows: a repeat would merge two cells' seeds, and
    # seed -s draws the world of seed s; a bad request is refused as early,
    # not once per task in each worker
    monkeypatch.setattr(metrics, "_run_task", lambda task: pytest.fail("a task ran"))
    for jobs in (1, 2):
        with pytest.raises(ConfigurationError, match=message):
            sweep_axes(jobs, **overrides)


def test_sweep_rejects_bad_strategy_and_budgets():
    with pytest.raises(ConfigurationError, match="unknown strategy 'psychic'"):
        sweep_axes(strategies=("psychic",))
    with pytest.raises(ConfigurationError, match="k must be non-negative"):
        sweep_axes(ks=(-1,))
    with pytest.raises(ConfigurationError, match="duplicate seed: 1"):
        sweep_axes(seeds=(1, 1))


def test_sweep_writes_the_reference_sweeps_per_seed_csv(monkeypatch):
    # the whole sweep, caches and shortcuts included, against one built
    # from definitions only, on the smoke config, desk core seed 1 and a
    # crowded one-step dense world, where select's search runs
    searches = []
    search = KeyEngine._search

    def counted(self, patterns, k):
        searches.append(k)
        return search(self, patterns, k)

    monkeypatch.setattr(KeyEngine, "_search", counted)
    smoke = load_run_config(str(CONFIGS / "smoke.yaml"))
    desk = load_run_config(str(CONFIGS / "desk.yaml"))
    dense = load_run_config(str(CONFIGS.parent / "perfbench" / "dense.yaml"))
    crowded = dataclasses.replace(dense.scenarios[0], r_fov=3, r_vic=9)
    cases = [
        (smoke.scenarios[0], smoke.rule_sets, smoke.architectures, smoke.strategies,
         smoke.ks, smoke.seeds),
        (desk.scenarios[0], [r for r in desk.rule_sets if r.name == "core"],
         desk.architectures, desk.strategies, desk.ks, (1,)),
        (crowded, dense.rule_sets, dense.architectures, (SEMANTIC, RANDOM), (4, 8), (1, 2, 3)),
    ]
    for case in cases:
        assert per_seed_csv(sweep(*case)) == reference_sweep.per_seed_csv(*case)
    assert searches


# ------------------------------------------------------------ aggregation


def rows_fixture():
    return [
        MetricsRow("sensor-gna", "core", "semantic", 1, 1, 0.9, 0.8),
        MetricsRow("sensor-gna", "core", "semantic", 1, 2, 0.7, 0.6),
        MetricsRow("sensor-gna", "core", "random", 1, 1, 0.5, 0.4),
    ]


def test_aggregate_means_and_population_deviation():
    aggs = aggregate(rows_fixture())
    sem = next(a for a in aggs if a.strategy == "semantic")
    assert sem.seeds == 2
    assert sem.hdsr_mean == pytest.approx(0.8)
    assert sem.hdsr_std == pytest.approx(statistics.pstdev([0.9, 0.7]))
    assert sem.adsr_mean == pytest.approx(0.7)
    rnd = next(a for a in aggs if a.strategy == "random")
    assert rnd.seeds == 1 and rnd.hdsr_std == 0.0


def test_csv_bytes_are_pinned(tmp_path):
    aggs = [
        AggregateRow("sensor-gna", "core", "random", 1, 2, 0.5, 0.1, 0.25, 0.0),
        AggregateRow("sensor-gna", "core", "semantic", 1, 2, 1.0, 0.0, 1.0, 0.0),
    ]
    out = tmp_path / "agg.csv"
    write_csv(str(out), aggs)
    expected = (
        "architecture,rule_set,strategy,k,seeds,hdsr_mean,hdsr_std,adsr_mean,adsr_std\n"
        "sensor-gna,core,random,1,2,0.500000,0.100000,0.250000,0.000000\n"
        "sensor-gna,core,semantic,1,2,1.000000,0.000000,1.000000,0.000000\n"
    )
    assert out.read_bytes() == expected.encode("ascii")


def test_per_seed_csv_shape():
    lines = per_seed_csv(rows_fixture()).splitlines()
    assert lines[0] == "architecture,rule_set,strategy,k,seed,hdsr,adsr"
    assert len(lines) == 4
    assert lines[1] == "sensor-gna,core,semantic,1,1,0.900000,0.800000"


# ------------------------------------------------- dips and the advantage


def semantic_row(k, adsr, seed=1):
    return MetricsRow("sensor-gna", "core", "semantic", k, seed, adsr, adsr)


def test_monotonicity_dip_is_reported_not_hidden():
    rows = [semantic_row(0, 0.50), semantic_row(1, 0.80), semantic_row(2, 0.75)]
    dips = monotonicity_violations(rows)
    assert dips == [("sensor-gna", "core", 1, 1, 2)]
    clean = [semantic_row(0, 0.50), semantic_row(1, 0.80), semantic_row(2, 0.80)]
    assert monotonicity_violations(clean) == []


def test_random_rows_are_exempt_from_monotonicity():
    rows = [
        MetricsRow("sensor-gna", "core", "random", 0, 1, 0.9, 0.9),
        MetricsRow("sensor-gna", "core", "random", 1, 1, 0.2, 0.2),
    ]
    assert monotonicity_violations(rows) == []


def test_advantage_point_definition():
    rows = [
        semantic_row(0, 0.50, seed=1),
        semantic_row(0, 0.70, seed=2),
        semantic_row(ADVANTAGE_K, 0.90, seed=1),
        semantic_row(ADVANTAGE_K, 0.80, seed=2),
        MetricsRow("sensor-gna", "core", "random", ADVANTAGE_K, 1, 0.60, 0.60),
        MetricsRow("sensor-gna", "core", "random", ADVANTAGE_K, 2, 0.70, 0.70),
        # rows at any other budget are not read
        semantic_row(ADVANTAGE_K + 1, 0.10, seed=1),
    ]
    baseline, advantage = advantage_points(rows)
    assert baseline == pytest.approx(0.60)
    assert advantage == pytest.approx(0.85 - 0.65)


def test_advantage_requires_both_budgets():
    with pytest.raises(UndefinedMetricError):
        advantage_points([semantic_row(0, 0.5), semantic_row(ADVANTAGE_K, 0.9)])


def test_correlation_needs_three_points():
    with pytest.raises(UndefinedMetricError):
        advantage_correlation([(0.5, 0.1), (0.6, 0.2)])
    r = advantage_correlation([(0.2, 0.30), (0.5, 0.20), (0.8, 0.10)])
    assert r == pytest.approx(-1.0)


def test_degenerate_correlation_is_undefined():
    with pytest.raises(UndefinedMetricError):
        advantage_correlation([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)])
