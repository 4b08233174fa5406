"""Distortion metrics, the evaluation matrix, and CSV emission."""

import random
import statistics
from pathlib import Path

import pytest

from metrics_reference import action_dsr, hypothesis_dsr
from semcom.comms import (
    MULTI_ZONE_LNA,
    RANDOM,
    SEMANTIC,
    SENSOR_GNA,
    SINGLE_ZONE_GNA,
    Architecture,
    downlink,
    ego_pools,
)
from semcom.config import load_rule_set, load_run_config
from semcom import metrics
from semcom.errors import ConfigurationError, UndefinedMetricError
from semcom.logic import Hypothesis
from semcom.metrics import (
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
from semcom.selection import KeyEngine
from semcom.world import (
    ObservationConfig,
    RuleSet,
    ScenarioConfig,
    default_vocabulary,
    init_world,
    step,
)

VOCAB = default_vocabulary()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scenario(**overrides):
    base = dict(
        name="t",
        grid=40,
        roads=(10, 30),
        cars=6,
        pedestrians=3,
        observation=ObservationConfig(r_fov=4, r_vic=12),
        steps=8,
        vocabulary=VOCAB,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


RULES = RuleSet(
    name="two",
    hypotheses=(
        Hypothesis.from_constraints(0, {0: 1}, "Stop"),
        Hypothesis.from_constraints(1, {1: 1}, "Slow"),
    ),
    action_priority=("Stop", "Slow", "Normal"),
)  # action of a mask: bit 0 -> Stop, else bit 1 -> Slow, else Normal


def record(step_no, ego, fi_mask, *strategy_masks):
    return TraceRecord(
        step=step_no,
        agent_id=ego,
        fi_mask=fi_mask,
        fi_action=RULES.action_of(fi_mask),
        strategy_masks=strategy_masks,
    )


def trace_of(n_hypotheses, records):
    cells = tuple((SENSOR_GNA, SEMANTIC, k) for k in range(len(records[0].strategy_masks)))
    return EpisodeTrace(n_hypotheses=n_hypotheses, cells=cells, records=tuple(records))


def reference_rates(trace, rules):
    """(H-DSR, A-DSR) of every column by the per-column definitions."""
    return [
        (hypothesis_dsr(trace, column), action_dsr(trace, column, rules))
        for column in range(len(trace.cells))
    ]


# ------------------------------------------------------------------ metrics


def test_perfect_trace_scores_one():
    trace = trace_of(4, [record(0, 0, 0b1010, 0b1010), record(1, 0, 0b0001, 0b0001)])
    assert cell_rates(trace, RULES) == reference_rates(trace, RULES) == [(1.0, 1.0)]


def test_one_bit_off_in_a_hundred_evaluations():
    records = [record(s, 0, 0b1111111111, 0b1111111111) for s in range(9)]
    records.append(record(9, 0, 0b1111111111, 0b0111111111))
    trace = trace_of(10, records)
    assert cell_rates(trace, RULES) == reference_rates(trace, RULES) == [(0.99, 1.0)]


def test_action_dsr_counts_matching_records():
    trace = trace_of(
        2,
        [
            record(0, 0, 0b01, 0b01, 0b01),  # Stop, Stop
            record(0, 1, 0b01, 0b00, 0b01),  # Stop, Normal
            record(1, 0, 0b11, 0b01, 0b11),  # Stop, Stop with one hypothesis missed
            record(1, 1, 0b11, 0b10, 0b11),  # Stop, Slow
        ],
    )
    # each column's rates read only that column
    assert cell_rates(trace, RULES) == reference_rates(trace, RULES) == [(0.625, 0.5), (1.0, 1.0)]


def test_empty_trace_has_no_defined_score():
    empty = EpisodeTrace(n_hypotheses=3, cells=((SENSOR_GNA, SEMANTIC, 1),), records=())
    with pytest.raises(UndefinedMetricError):
        cell_rates(empty, RULES)
    with pytest.raises(UndefinedMetricError):
        hypothesis_dsr(empty, 0)
    with pytest.raises(UndefinedMetricError):
        action_dsr(empty, 0, RULES)


def test_record_order_does_not_matter():
    records = [
        record(s, e, (s * 7 + e) % 16, (s * 5 + e) % 16)
        for s in range(4)
        for e in range(3)
    ]
    trace = trace_of(4, records)
    shuffled = trace_of(4, list(reversed(records)))
    assert cell_rates(trace, RULES) == cell_rates(shuffled, RULES) == reference_rates(trace, RULES)


# ------------------------------------------------------- matrix evaluation


def engine_for(rules):
    return KeyEngine(rules.hypotheses, VOCAB.T)


def test_full_budget_under_sensor_uplink_is_lossless():
    cfg = scenario()
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    k_cover = cfg.cars + cfg.pedestrians - 1
    cells = [(SENSOR_GNA, strategy, k_cover) for strategy in (SEMANTIC, RANDOM)]
    for seed in (1, 2, 3):
        trace = evaluate_cell(build_trajectory(cfg, rules, seed), cells, engine)
        assert cell_rates(trace, rules) == [(1.0, 1.0)] * len(cells)


def test_perfect_hypothesis_recovery_implies_perfect_actions():
    cfg = scenario()
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, seed=5)
    cells = [
        (kind, SEMANTIC, k)
        for kind in (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)
        for k in (0, 1, 2, 13)
    ]
    trace = evaluate_cell(traj, cells, engine)
    for rec in trace.records:
        for mask in rec.strategy_masks:
            if rec.fi_mask == mask:
                assert rec.fi_action == rules.action_of(mask)


def test_zero_budget_loses_to_a_single_semantic_slot():
    cfg = scenario(cars=8, pedestrians=6, steps=10)
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    cells = [(SENSOR_GNA, SEMANTIC, 0), (SENSOR_GNA, SEMANTIC, 1)]
    base, one = [], []
    for seed in range(1, 25):
        trace = evaluate_cell(build_trajectory(cfg, rules, seed), cells, engine)
        (_, base_adsr), (_, one_adsr) = cell_rates(trace, rules)
        base.append(base_adsr)
        one.append(one_adsr)
    assert statistics.fmean(base) < statistics.fmean(one)


def test_matrix_cells_replay_one_shared_trajectory():
    # the full-information fields must not depend on the evaluated cells
    cfg = scenario()
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, seed=9)
    cells = [(SENSOR_GNA, s, k) for s in (SEMANTIC, RANDOM) for k in (0, 2)]
    traces = [evaluate_cell(traj, [cell], engine) for cell in cells]
    traces.append(evaluate_cell(traj, cells, engine))
    fi_sides = {
        tuple((r.step, r.agent_id, r.fi_mask, r.fi_action) for r in t.records)
        for t in traces
    }
    assert len(fi_sides) == 1


def per_cell_masks(traj, cells, engine):
    """strategy_masks by (step, ego), from one downlink call per (step, ego, cell)."""
    out = {}
    for step_no, step_views in enumerate(traj.views):
        for ego_id, view in step_views.items():
            rng_seed = _record_seed(traj.seed, step_no, ego_id)
            masks = []
            for kind, strategy, k in cells:
                chosen = downlink(view.pools[kind], view.qbits, k, strategy, engine, rng_seed)
                mask = 0
                for ent in view.fov_ids + chosen:
                    mask |= engine.sat_mask(view.qbits[ent])
                masks.append(mask)
            out[(step_no, ego_id)] = tuple(masks)
    return out


def downlink_requests(traj, cells):
    """(pool, strategy, k, rng seed) of every downlink call the scorer
    needs: one per view, distinct pool, strategy and 0 < k < len(pool)."""
    requests = set()
    for step_no, step_views in enumerate(traj.views):
        for ego_id, view in step_views.items():
            rng_seed = _record_seed(traj.seed, step_no, ego_id)
            for kind, strategy, k in cells:
                pool = view.pools[kind]
                if 0 < k < len(pool):
                    requests.add((pool, strategy, k, rng_seed))
    return requests


@pytest.mark.parametrize("rule_set", ["core", "extended"])
def test_one_pass_scorer_matches_one_downlink_call_per_cell(rule_set, monkeypatch):
    cfg = scenario(cars=8, pedestrians=5, steps=6)
    rules = load_rule_set(rule_set, VOCAB)
    engine = engine_for(rules)
    k_over = cfg.cars + cfg.pedestrians  # more than any pool holds
    kinds = (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)
    cells = [(kind, s, k) for kind in kinds for s in (SEMANTIC, RANDOM) for k in (0, 1, 2, 3, k_over)]
    calls = []

    def counting_downlink(pool, qbits, k, strategy, engine, rng_seed=0):
        calls.append((pool, strategy, k, rng_seed))
        return downlink(pool, qbits, k, strategy, engine, rng_seed)

    monkeypatch.setattr(metrics, "downlink", counting_downlink)
    # kind by kind, reversed, with the kinds interleaved, and with one
    # kind's (strategy, k) list shorter than the others'
    uneven = [c for c in cells if c[0] != SENSOR_GNA or c[2] != 2]
    orders = (cells, cells[::-1], sorted(cells, key=lambda c: (c[2], c[1], c[0])), uneven)
    shared = distinct = crowded = within = 0
    for seed in (1, 2, 3):
        traj = build_trajectory(cfg, rules, seed, engine=engine)
        for order in orders:
            calls.clear()
            trace = evaluate_cell(traj, order, engine)
            # k = 0 and k >= len(pool) send without a call, and equal pools
            # under one (strategy, k) list share one block, so each other
            # request is made once
            assert set(calls) == downlink_requests(traj, order)
            if order is not uneven:
                assert len(calls) == len(set(calls))
            assert trace.cells == tuple(order)
            assert trace.n_hypotheses == len(rules.hypotheses)
            expected = per_cell_masks(traj, order, engine)
            assert [(r.step, r.agent_id) for r in trace.records] == sorted(expected)
            for rec in trace.records:
                view = traj.views[rec.step][rec.agent_id]
                assert (rec.fi_mask, rec.fi_action) == (view.fi_mask, view.fi_action)
                assert rec.strategy_masks == expected[(rec.step, rec.agent_id)]
        for step_views in traj.views:
            for view in step_views.values():
                pools = [view.pools[kind] for kind in kinds]
                crowded += len(pools[0]) > 3
                shared += pools[0] == pools[1] != ()
                distinct += len(set(pools)) == 3
                within += 0 < len(pools[0]) <= 3
    # every case is exercised: pools above every k < k_over (where k = 0
    # must still send nothing), pools two architectures share, views where
    # all three differ, and nonempty pools that a k below k_over already
    # sends whole under both strategies
    assert crowded and shared and distinct and within


@pytest.mark.parametrize("rule_set", ["core", "extended"])
def test_cell_rates_match_the_per_column_reference_on_desk_traces(rule_set):
    run = load_run_config(str(CONFIGS / "desk.yaml"))
    desk = run.scenarios[0]
    rules = load_rule_set(rule_set, desk.vocabulary)
    engine = KeyEngine(rules.hypotheses, desk.vocabulary.T)
    cells = [
        (arch.kind, strategy, k)
        for arch in run.architectures for strategy in run.strategies for k in run.ks
    ]
    assert len(cells) == 36
    orders = (cells, cells[::-1], sorted(cells, key=lambda c: (c[2], c[1], c[0])))
    repeated = 0
    for seed in (1, 2, 3):
        traj = build_trajectory(desk, rules, seed, engine=engine)
        for order in orders:
            trace = evaluate_cell(traj, order, engine)
            assert cell_rates(trace, rules) == reference_rates(trace, rules)
        distinct = {(r.fi_mask, r.fi_action, r.strategy_masks) for r in trace.records}
        repeated += len(distinct) < len(trace.records)
    # the tally merges records on every seed
    assert repeated == 3


def test_trajectory_pools_and_masks_match_the_public_api():
    # replay the recorded episode through world/comms and compare
    cfg = scenario(cars=5, pedestrians=2, steps=5)
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    traj = build_trajectory(cfg, rules, seed=3)
    world = init_world(cfg, seed=3)
    for step_views in traj.views:
        seen = ego_pools(world, cfg.observation)
        for ego_id, view in step_views.items():
            for kind in (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA):
                assert view.pools[kind] == seen[ego_id].pools[kind]
            expected_mask = 0
            for ent in view.vic_ids:
                expected_mask |= engine.sat_mask(view.qbits[ent])
            assert view.fi_mask == expected_mask
        world = step(
            world, {ego: view.fi_action for ego, view in step_views.items()}
        )


def test_random_strategy_matches_the_standalone_sampler():
    cfg = scenario(cars=6, pedestrians=3, steps=6)
    rules = load_rule_set("core", VOCAB)
    engine = engine_for(rules)
    seed = 4
    traj = build_trajectory(cfg, rules, seed=seed)
    k = 2
    trace = evaluate_cell(traj, [(SENSOR_GNA, RANDOM, k)], engine)
    by_key = {(r.step, r.agent_id): r for r in trace.records}
    for step_no, step_views in enumerate(traj.views):
        for ego_id, view in step_views.items():
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
            assert by_key[(step_no, ego_id)].strategy_masks == (expected,)


def test_sweep_layout_and_determinism():
    cfg = scenario(cars=4, pedestrians=2, steps=4)
    rules = [load_rule_set("core", VOCAB)]
    archs = [Architecture(kind=SENSOR_GNA), Architecture(kind=MULTI_ZONE_LNA)]
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
    rules = [load_rule_set("core", VOCAB)]
    archs = [Architecture(kind=SENSOR_GNA)]
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

    monkeypatch.setattr(metrics, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch):
    sizes = recording_pool(monkeypatch)
    cfg = scenario(cars=3, pedestrians=1, steps=2)
    rules = [load_rule_set("core", VOCAB)]
    archs = [Architecture(kind=SENSOR_GNA)]
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
    rules = [load_rule_set("core", VOCAB)]
    with pytest.raises(ConfigurationError, match="jobs"):
        sweep(cfg, rules, [Architecture(kind=SENSOR_GNA)], (SEMANTIC,), (1,), (1, 2), jobs=jobs)
    assert sizes == []


def test_sweep_rejects_conflicting_zone_grids():
    cfg = scenario()
    rules = [load_rule_set("core", VOCAB)]
    archs = [
        Architecture(kind=MULTI_ZONE_LNA, zones=2),
        Architecture(kind=MULTI_ZONE_LNA, zones=3),
    ]
    with pytest.raises(ConfigurationError):
        sweep(cfg, rules, archs, (SEMANTIC,), (1,), (1,))


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
        semantic_row(3, 0.90, seed=1),
        semantic_row(3, 0.80, seed=2),
        MetricsRow("sensor-gna", "core", "random", 3, 1, 0.60, 0.60),
        MetricsRow("sensor-gna", "core", "random", 3, 2, 0.70, 0.70),
    ]
    baseline, advantage = advantage_points(rows, advantage_k=3)
    assert baseline == pytest.approx(0.60)
    assert advantage == pytest.approx(0.85 - 0.65)


def test_advantage_requires_both_budgets():
    with pytest.raises(UndefinedMetricError):
        advantage_points([semantic_row(0, 0.5)], advantage_k=3)


def test_correlation_needs_three_points():
    with pytest.raises(UndefinedMetricError):
        advantage_correlation([(0.5, 0.1), (0.6, 0.2)])
    r = advantage_correlation([(0.2, 0.30), (0.5, 0.20), (0.8, 0.10)])
    assert r == pytest.approx(-1.0)


def test_degenerate_correlation_is_undefined():
    with pytest.raises(UndefinedMetricError):
        advantage_correlation([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)])
