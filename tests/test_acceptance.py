"""Acceptance gate: one test per shipped behavioural guarantee.

Each test prints a single PASS/FAIL line with its measured numbers, so
`pytest -s tests/test_acceptance.py` doubles as the release checklist.
Criterion 2 is expected to fail: the lexicographic key orders some
subset pairs against the exact objective, which is documented in the
project decision notes rather than papered over here.
"""

import hashlib
import itertools
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

from semcom import cli
from semcom.comms import SENSOR_GNA
from semcom.config import load_run_config
from semcom.logic import Hypothesis, QSentence
from semcom.metrics import (
    ADVANTAGE_K,
    advantage_correlation,
    advantage_points,
    aggregate,
    aggregate_csv,
    build_trajectory,
    cell_rates,
    evaluate_cell,
    sweep,
)
from semcom.oracle import (
    ClosedFormParams,
    closed_form_confirmation,
    closed_form_evidence_probability,
    closed_form_objective,
    conditional_semantic_entropy,
    degree_of_confirmation,
    evidence_probability,
    semantic_entropy,
    semantic_mutual_information,
)
from semcom.selection import RANDOM, SEMANTIC, KeyEngine
from semcom.validation import validate_key_ordering
from semcom.world import T as WORLD_T

ROOT = Path(__file__).resolve().parents[1]
# sha256 of `semcom sweep` / `semcom run` on configs/smoke.yaml
SMOKE_SHA256 = "118eb6f1c71b771668984a75eb760d1ac1468ca7ac38fe20925fa5ccc45d52b9"
SMOKE_PER_SEED_SHA256 = "0556ca7a3df1c057f21d7cb0515141f3b07c67e56b78be54766a7ece8f6e62d2"
# sha256 of the aggregate CSV of configs/desk.yaml as shipped (seeds 1-20),
# the same bytes as perfbench's seed-0 desk digest
DESK_SHA256 = "bfe513fbb9f7375785997270d4b9a4b9165b168fdcbb5ff2604168ba504cd261"
# sha256 of the aggregate CSV of configs/contested.yaml as shipped (seeds 1-20)
CONTESTED_SHA256 = "e66b7f3573715fdcf8bb2761874f66c56507886cc08c029f1d0d59eec7266f5c"


def report(criterion, ok, detail):
    print("criterion %d: %s (%s)" % (criterion, "PASS" if ok else "FAIL", detail))
    return ok


def qset(bits_list, T):
    return frozenset(QSentence(bits=b, width=T) for b in bits_list)


def all_hypotheses_z12_t2():
    shapes = []
    for slot_choice in ([0], [1], [0, 1]):
        for signs in itertools.product((0, 1), repeat=len(slot_choice)):
            shapes.append(dict(zip(slot_choice, signs)))
    return [
        Hypothesis.from_constraints(i + 1, shape, "Stop")
        for i, shape in enumerate(shapes)
    ]


def test_criterion_1_closed_forms_match_exhaustive_enumeration():
    started = time.perf_counter()
    hyps = all_hypotheses_z12_t2()
    checked = 0
    for K in range(5):
        expected_ce = 1 - Fraction(1, 2 ** (2 ** (4 - K)))
        for ev_bits in itertools.combinations(range(4), K):
            ev = qset(ev_bits, 2)
            assert evidence_probability(ev, 2) == expected_ce
            params = ClosedFormParams.from_subset(ev, hyps, 2)
            assert closed_form_evidence_probability(params) == expected_ce
            for hp, h in zip(params.hypotheses, hyps):
                enum_c = degree_of_confirmation(h.compatible_qs(2), ev, 2)
                assert closed_form_confirmation(params, hp) == enum_c
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert report(1, True, "%d evidence/hypothesis pairs exact, %.1f s" % (checked, elapsed))


def test_criterion_2_key_order_reproduces_exact_order():
    started = time.perf_counter()
    rep = validate_key_ordering(trials=1000, seed=0)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert rep.trials == 1000 and rep.total_pairs > 0
    tie_rate = rep.key_ties_f_differs / rep.total_pairs
    assert tie_rate < 0.01, "key ties with unequal exact objective: %.4f" % tie_rate
    ok = rep.disagreements == 0
    report(
        2,
        ok,
        "%d/%d ordered pairs disagree, %d key ties all share exact F, %.1f s"
        % (rep.disagreements, rep.total_pairs, rep.f_ties_key_strict, elapsed),
    )
    assert ok, (
        "the (n_nonoverlap, K, -H...) key ranks %d of %d pairs against the exact "
        "objective; evidence-set size K dominates the true value but sits second "
        "in the key, so no key permutation fixes this. See the decision notes for "
        "the worked counterexamples." % (rep.disagreements, rep.total_pairs)
    )


def test_criterion_3_witnessed_hypotheses_are_certain_and_costless():
    rng = random.Random(2024)
    cases = 0
    # closed-form pipeline at widths 3..5: overlap detection from raw patterns
    for _ in range(6000):
        T = rng.choice((3, 4, 5))
        z = rng.randint(1, T)
        fixed = {s: rng.randint(0, 1) for s in rng.sample(range(T), z)}
        h = Hypothesis.from_constraints(1, fixed, "Stop")
        witness = 0
        for s in range(T):
            witness |= (fixed.get(s, rng.randint(0, 1)) << s)
        fillers = [rng.randrange(1 << T) for _ in range(rng.randint(0, 2))]
        params = ClosedFormParams.from_subset(qset([witness] + fillers, T), [h], T)
        assert params.hypotheses[0].overlaps
        assert closed_form_objective(params) == 0
        cases += 1
    # enumeration oracle at widths 1..2
    for _ in range(4000):
        T = rng.choice((1, 1, 1, 2))
        z = rng.randint(1, T)
        fixed = {s: rng.randint(0, 1) for s in rng.sample(range(T), z)}
        h = Hypothesis.from_constraints(1, fixed, "Stop")
        witness = 0
        for s in range(T):
            witness |= (fixed.get(s, rng.randint(0, 1)) << s)
        fillers = [rng.randrange(1 << T) for _ in range(rng.randint(0, 1))]
        ev = qset([witness] + fillers, T)
        assert degree_of_confirmation(h.compatible_qs(T), ev, T) == 1
        cases += 1
    assert report(3, True, "%d witnessed cases, all certain with zero cost" % cases)


def test_criterion_4_information_identity_is_exact():
    rng = random.Random(77)
    for _ in range(100):
        phi = []
        for _ in range(rng.randint(1, 4)):
            z = rng.randint(1, 2)
            fixed = {s: rng.randint(0, 1) for s in rng.sample((0, 1), z)}
            phi.append(Hypothesis.from_constraints(1, fixed, "Stop").compatible_qs(2))
        ev = qset(rng.sample(range(4), rng.randint(1, 3)), 2)
        gain = semantic_mutual_information(phi, ev, 2)
        assert gain == semantic_entropy(phi, 2) - conditional_semantic_entropy(phi, ev, 2)
    assert report(4, True, "100 hypothesis-set/evidence draws, rational equality")


def desk_run():
    return load_run_config(str(ROOT / "configs" / "desk.yaml"))


def test_criterion_5_semantic_dominates_random_at_desk_scale():
    started = time.perf_counter()
    run = desk_run()
    scenario = run.scenarios[0]
    assert len(run.seeds) >= 20
    rows = sweep(
        scenario, run.rule_sets, run.architectures, run.strategies, run.ks, run.seeds
    )
    aggregates = aggregate(rows)
    # pinned bytes: a speedup that moves any headline number fails here
    assert hashlib.sha256(aggregate_csv(aggregates).encode()).hexdigest() == DESK_SHA256
    means = {
        (a.architecture, a.rule_set, a.strategy, a.k): a.adsr_mean
        for a in aggregates
    }
    arch_names = sorted(run.architectures)
    rule_names = [r.name for r in run.rule_sets]
    worst_gap = 1.0
    for rule_set in rule_names:
        for arch in arch_names:
            for k in range(1, 6):
                gap = (
                    means[(arch, rule_set, SEMANTIC, k)]
                    - means[(arch, rule_set, RANDOM, k)]
                )
                worst_gap = min(worst_gap, gap)
                assert gap >= -0.02, (rule_set, arch, k, gap)
    worst_skip = min(
        means[(SENSOR_GNA, rs, SEMANTIC, 1)] - means[(SENSOR_GNA, rs, RANDOM, 3)]
        for rs in rule_names
    )
    assert worst_skip >= 0.0, worst_skip
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    assert report(
        5,
        True,
        "%d rule sets x %d architectures, worst k-matched gap %+.4f, "
        "worst semantic@1 vs random@3 margin %+.4f, %.0f s"
        % (len(rule_names), len(arch_names), worst_gap, worst_skip, elapsed),
    )


def test_criterion_5_semantic_dominates_random_where_the_budget_decides():
    # configs/contested.yaml is desk with a one-cell field of view and 12
    # pedestrians, so most decisions need the downlink; semantic mean
    # A-DSR over the rule sets is at least random's at every kind and k >= 1
    started = time.perf_counter()
    run = load_run_config(str(ROOT / "configs" / "contested.yaml"))
    scenario = run.scenarios[0]
    rows = sweep(
        scenario, run.rule_sets, run.architectures, run.strategies, run.ks, run.seeds, jobs=2
    )
    aggregates = aggregate(rows)
    assert hashlib.sha256(aggregate_csv(aggregates).encode()).hexdigest() == CONTESTED_SHA256
    means = {}
    for a in aggregates:
        means.setdefault((a.architecture, a.strategy, a.k), []).append(a.adsr_mean)
    mean = {cell: statistics.fmean(adsrs) for cell, adsrs in means.items()}
    margins = {
        (arch, k): mean[(arch, SEMANTIC, k)] - mean[(arch, RANDOM, k)]
        for arch in run.architectures
        for k in run.ks
        if k >= 1
    }
    for cell, margin in margins.items():
        assert margin >= 0.0, (cell, margin)
    assert report(
        5,
        True,
        "contested: sensor-gna A-DSR %.4f at k=0, semantic minus random %+.4f at k=1, "
        "worst of %d (kind, k) margins %+.4f, %.0f s"
        % (
            mean[(SENSOR_GNA, SEMANTIC, 0)],
            margins[(SENSOR_GNA, 1)],
            len(margins),
            min(margins.values()),
            time.perf_counter() - started,
        ),
    )


def test_criterion_6_baseline_predicts_advantage_inversely():
    run = load_run_config(str(ROOT / "configs" / "density_suite.yaml"))
    assert len(run.scenarios) >= 8
    assert 0 in run.ks and ADVANTAGE_K in run.ks
    points = []
    for scenario in run.scenarios:
        rows = sweep(
            scenario, run.rule_sets, run.architectures, run.strategies, run.ks, run.seeds
        )
        points.append(advantage_points(rows))
    r = advantage_correlation(points)
    ok = r < -0.3
    assert report(6, ok, "%d configurations, r = %.4f" % (len(points), r)) and ok


def test_criterion_7_covering_budget_is_lossless_on_every_seed():
    run = desk_run()
    scenario = run.scenarios[0]
    rules = run.rule_sets[0]
    engine = KeyEngine(rules.hypotheses, WORLD_T)
    k_cover = scenario.cars + scenario.pedestrians - 1
    budgets = [(strategy, k_cover) for strategy in (SEMANTIC, RANDOM)]
    seeds_checked = 0
    for seed in run.seeds:
        trajectory = build_trajectory(scenario, rules, seed, engine)
        occupancy = max(
            (len(view.qbits) for views in trajectory.views for view in views.values()),
            default=0,
        )
        assert k_cover >= occupancy
        trace = evaluate_cell(trajectory, [SENSOR_GNA], budgets, engine)
        assert cell_rates(trace, rules) == [(1.0, 1.0)] * len(budgets)
        seeds_checked += 1
    assert report(
        7, True, "k=%d covers every vicinity, %d seeds exact" % (k_cover, seeds_checked)
    )


def test_criterion_8_identical_configs_reproduce_byte_identical_csvs(tmp_path):
    config = str(ROOT / "configs" / "smoke.yaml")
    outs = [tmp_path / name for name in ("first", "second", "parallel")]
    assert cli.main(["sweep", "--config", config, "--out", str(outs[0])]) == 0
    assert cli.main(["sweep", "--config", config, "--out", str(outs[1])]) == 0
    assert cli.main(
        ["sweep", "--config", config, "--out", str(outs[2]), "--jobs", "2"]
    ) == 0
    blobs = [(p / "smoke.csv").read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    assert cli.main(["run", "--config", config, "--out", str(outs[0])]) == 0
    assert cli.main(["run", "--config", config, "--out", str(outs[1])]) == 0
    per_seed = [(p / "smoke_per_seed.csv").read_bytes() for p in outs[:2]]
    assert per_seed[0] == per_seed[1]
    # pinned bytes: a refactor that moves any output byte fails here, not
    # only a rerun that disagrees with itself
    assert hashlib.sha256(blobs[0]).hexdigest() == SMOKE_SHA256
    assert hashlib.sha256(per_seed[0]).hexdigest() == SMOKE_PER_SEED_SHA256
    assert report(
        8, True, "aggregate and per-seed CSVs byte-identical across reruns and to the pinned digests"
    )
