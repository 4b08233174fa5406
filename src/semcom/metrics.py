"""Episode evaluation against the full-information baseline.

One trajectory is simulated per (scenario, rule set, seed), driven by
full-information decisions.  Every (architecture, strategy, budget)
cell is then scored counterfactually on that shared trajectory, so a
semantic-vs-random difference on a seed isolates the selection strategy
rather than divergent world histories.

Truth vectors are stored as hypothesis bitmasks.  Because strategy
evidence (FOV plus downlink) is always a subset of full-information
evidence (the vicinity) and hypothesis evaluation is existential, a
strategy mask is a submask of the FI mask; mismatches are the FI bits
the strategy failed to witness.
"""

from __future__ import annotations

import csv
import io
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .comms import MULTI_ZONE_LNA, RANDOM, SEMANTIC, Architecture, downlink, ego_pools
from .errors import ConfigurationError, UndefinedMetricError
from .selection import KeyEngine
from .world import RuleSet, ScenarioConfig, ground_entity, init_world, step

CSV_HEADER = (
    "architecture",
    "rule_set",
    "strategy",
    "k",
    "seeds",
    "hdsr_mean",
    "hdsr_std",
    "adsr_mean",
    "adsr_std",
)

PER_SEED_HEADER = ("architecture", "rule_set", "strategy", "k", "seed", "hdsr", "adsr")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    agent_id: int
    fi_mask: int
    fi_action: str
    strategy_masks: Tuple[int, ...]  # one per cell of the trace, in its order


Cell = Tuple[str, str, int]  # (architecture kind, strategy, k)


@dataclass(frozen=True)
class EpisodeTrace:
    n_hypotheses: int
    cells: Tuple[Cell, ...]
    records: Tuple[TraceRecord, ...]


@dataclass(frozen=True)
class MetricsRow:
    architecture: str
    rule_set: str
    strategy: str
    k: int
    seed: int
    hdsr: float
    adsr: float


@dataclass(frozen=True)
class AggregateRow:
    architecture: str
    rule_set: str
    strategy: str
    k: int
    seeds: int
    hdsr_mean: float
    hdsr_std: float
    adsr_mean: float
    adsr_std: float


def hypothesis_dsr(trace: EpisodeTrace, column: int) -> float:
    """Fraction of (step, agent, hypothesis) evaluations of one cell matching FI."""
    if not trace.records or trace.n_hypotheses == 0:
        raise UndefinedMetricError("H-DSR over an empty trace")
    total = len(trace.records) * trace.n_hypotheses
    mismatches = sum((r.fi_mask ^ r.strategy_masks[column]).bit_count() for r in trace.records)
    return (total - mismatches) / total


def action_dsr(trace: EpisodeTrace, column: int, rules: RuleSet) -> float:
    """Fraction of (step, agent) decisions of one cell matching FI."""
    if not trace.records:
        raise UndefinedMetricError("A-DSR over an empty trace")
    action_of = rules.action_of
    matches = sum(1 for r in trace.records if action_of(r.strategy_masks[column]) == r.fi_action)
    return matches / len(trace.records)


# ---------------------------------------------------------------------------
# Trajectory precomputation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepView:
    """Everything one ego needs at one step, for any architecture."""

    fov_ids: Tuple[int, ...]
    vic_ids: Tuple[int, ...]
    qbits: Mapping[int, int]
    pools: Mapping[str, Tuple[int, ...]]
    fi_mask: int
    fi_action: str


@dataclass(frozen=True)
class Trajectory:
    seed: int
    n_hypotheses: int
    views: Tuple[Mapping[int, StepView], ...]


def build_trajectory(
    scenario: ScenarioConfig,
    rules: RuleSet,
    seed: int,
    zones: int = 2,
    engine: Optional[KeyEngine] = None,
) -> Trajectory:
    """Simulate one episode under full-information decisions.

    Cars are the deciding egos; pedestrians advance on their scripted
    routes.  Pools are precomputed for all three architecture kinds
    using the given zone grid, so every matrix cell replays the same
    states.
    """
    if engine is None:
        engine = KeyEngine(rules.hypotheses, scenario.vocabulary.T)
    obs = scenario.observation
    world = init_world(scenario, seed)
    per_step: List[Dict[int, StepView]] = []
    for _ in range(scenario.steps):
        by_id = {a.id: a for a in world.agents}
        views: Dict[int, StepView] = {}
        actions: Dict[int, str] = {}
        for ego_id, seen in ego_pools(world, obs, zones).items():
            ego = by_id[ego_id]
            qbits = {
                ent_id: ground_entity(world, ego, by_id[ent_id], scenario)
                for ent_id in seen.vic_ids
            }
            fi_mask = _witnessed(engine, qbits, seen.vic_ids)
            fi_action = rules.action_of(fi_mask)
            views[ego_id] = StepView(
                fov_ids=seen.fov_ids,
                vic_ids=seen.vic_ids,
                qbits=qbits,
                pools=seen.pools,
                fi_mask=fi_mask,
                fi_action=fi_action,
            )
            actions[ego_id] = fi_action
        per_step.append(views)
        world = step(world, actions)
    return Trajectory(
        seed=seed,
        n_hypotheses=len(rules.hypotheses),
        views=tuple(per_step),
    )


def _witnessed(engine: KeyEngine, qbits: Mapping[int, int], ids: Iterable[int]) -> int:
    """Bitmask of the hypotheses that some entity in ids satisfies."""
    mask = 0
    for ent_id in ids:
        mask |= engine.sat_mask(qbits[ent_id])
    return mask


def _record_seed(base_seed: int, step_idx: int, ego_id: int) -> int:
    return ((base_seed * 1000003 + step_idx) * 1000003 + ego_id) & 0x7FFFFFFF


def evaluate_cell(trajectory: Trajectory, cells: Sequence[Cell], engine: KeyEngine) -> EpisodeTrace:
    """Score every (architecture kind, strategy, budget) cell in one pass.

    Random downlink draws are seeded per (seed, step, ego), not per
    cell, so they are reproducible and shared across architectures and
    budgets.  A view's chosen evidence therefore depends only on
    (pool, strategy, min(k, len(pool))), and each such key runs
    downlink once per view.
    """
    cells = tuple(cells)
    records: List[TraceRecord] = []
    for step_idx, views in enumerate(trajectory.views):
        for ego_id in sorted(views):
            view = views[ego_id]
            rng_seed = _record_seed(trajectory.seed, step_idx, ego_id)
            fov_mask = _witnessed(engine, view.qbits, view.fov_ids)
            chosen: Dict[Tuple[Tuple[int, ...], str, int], int] = {}
            masks = []
            for kind, strategy, k in cells:
                pool = view.pools[kind]
                key = (pool, strategy, k if k < len(pool) else len(pool))
                mask = chosen.get(key)
                if mask is None:
                    ids = downlink(pool, view.qbits, k, strategy, engine, rng_seed)
                    mask = chosen[key] = fov_mask | _witnessed(engine, view.qbits, ids)
                masks.append(mask)
            records.append(TraceRecord(step_idx, ego_id, view.fi_mask, view.fi_action, tuple(masks)))
    return EpisodeTrace(trajectory.n_hypotheses, cells, tuple(records))


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _run_task(
    args: Tuple[ScenarioConfig, RuleSet, int, Tuple[Architecture, ...], Tuple[str, ...], Tuple[int, ...]]
) -> List[MetricsRow]:
    scenario, rules, seed, architectures, strategies, ks = args
    zones = max((a.zones for a in architectures if a.kind == MULTI_ZONE_LNA), default=2)
    engine = KeyEngine(rules.hypotheses, scenario.vocabulary.T)
    trajectory = build_trajectory(scenario, rules, seed, zones=zones, engine=engine)
    cells = [(arch.kind, strategy, k) for arch in architectures for strategy in strategies for k in ks]
    trace = evaluate_cell(trajectory, cells, engine)
    return [
        MetricsRow(
            architecture=kind,
            rule_set=rules.name,
            strategy=strategy,
            k=k,
            seed=seed,
            hdsr=hypothesis_dsr(trace, column),
            adsr=action_dsr(trace, column, rules),
        )
        for column, (kind, strategy, k) in enumerate(cells)
    ]


def sweep(
    scenario: ScenarioConfig,
    rule_sets: Sequence[RuleSet],
    architectures: Sequence[Architecture],
    strategies: Sequence[str],
    ks: Sequence[int],
    seeds: Sequence[int],
    jobs: int = 1,
) -> List[MetricsRow]:
    """Per-seed metrics for the full matrix, deterministically ordered.

    Tasks are independent per (rule set, seed); with jobs > 1 they run
    in at most one worker process per task and results are merged by
    sorting, so the output does not depend on the degree of parallelism.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1, got %d" % jobs)
    zone_grids = {a.zones for a in architectures if a.kind == MULTI_ZONE_LNA}
    if len(zone_grids) > 1:
        raise ConfigurationError(
            "one sweep supports a single multi-zone grid, got %s" % sorted(zone_grids)
        )
    tasks = [
        (scenario, rules, seed, tuple(architectures), tuple(strategies), tuple(ks))
        for rules in rule_sets
        for seed in seeds
    ]
    rows: List[MetricsRow] = []
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_task, tasks):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_run_task(task))
    rows.sort(key=lambda r: (r.architecture, r.rule_set, r.strategy, r.k, r.seed))
    return rows


def aggregate(rows: Iterable[MetricsRow]) -> List[AggregateRow]:
    """Mean and population std over seeds, one row per matrix cell."""
    groups: Dict[Tuple[str, str, str, int], List[MetricsRow]] = {}
    for row in rows:
        groups.setdefault(
            (row.architecture, row.rule_set, row.strategy, row.k), []
        ).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        hdsrs = [m.hdsr for m in members]
        adsrs = [m.adsr for m in members]
        out.append(
            AggregateRow(
                architecture=key[0],
                rule_set=key[1],
                strategy=key[2],
                k=key[3],
                seeds=len(members),
                hdsr_mean=statistics.fmean(hdsrs),
                hdsr_std=statistics.pstdev(hdsrs),
                adsr_mean=statistics.fmean(adsrs),
                adsr_std=statistics.pstdev(adsrs),
            )
        )
    return out


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV with "\n" line ends; floats print with six decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.6f" % v if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def aggregate_csv(aggregates: Iterable[AggregateRow]) -> str:
    """One row per matrix cell, columns as in CSV_HEADER."""
    return csv_text(CSV_HEADER, ([getattr(a, c) for c in CSV_HEADER] for a in aggregates))


def per_seed_csv(rows: Iterable[MetricsRow]) -> str:
    """One row per (cell, seed), columns as in PER_SEED_HEADER."""
    return csv_text(PER_SEED_HEADER, ([getattr(r, c) for c in PER_SEED_HEADER] for r in rows))


def write_csv(path: str, aggregates: Sequence[AggregateRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(aggregate_csv(aggregates))


def monotonicity_violations(rows: Iterable[MetricsRow]) -> List[Tuple[str, str, int, int, int]]:
    """Seeded runs where semantic A-DSR drops as k grows.

    Coverage never shrinks with budget, but a larger subset may trade a
    high-priority witness for broader coverage, so occasional dips are
    possible; they are reported, not forbidden.
    Returns (architecture, rule_set, seed, k_low, k_high) tuples.
    """
    by_cell: Dict[Tuple[str, str, int], List[MetricsRow]] = {}
    for row in rows:
        if row.strategy == SEMANTIC:
            by_cell.setdefault((row.architecture, row.rule_set, row.seed), []).append(row)
    violations = []
    for key in sorted(by_cell):
        members = sorted(by_cell[key], key=lambda r: r.k)
        for lo, hi in zip(members, members[1:]):
            if hi.adsr < lo.adsr - 1e-12:
                violations.append((key[0], key[1], key[2], lo.k, hi.k))
    return violations


# ---------------------------------------------------------------------------
# Baseline-vs-advantage correlation
# ---------------------------------------------------------------------------

def advantage_points(
    rows: Iterable[MetricsRow], advantage_k: int
) -> Tuple[float, float]:
    """(baseline, advantage) for one configuration's row set.

    Baseline is mean A-DSR at k=0; advantage is mean semantic A-DSR
    minus mean random A-DSR at the chosen budget.
    """
    baseline: List[float] = []
    semantic: List[float] = []
    rand: List[float] = []
    for row in rows:
        if row.k == 0 and row.strategy == SEMANTIC:
            baseline.append(row.adsr)
        elif row.k == advantage_k and row.strategy == SEMANTIC:
            semantic.append(row.adsr)
        elif row.k == advantage_k and row.strategy == RANDOM:
            rand.append(row.adsr)
    if not baseline or not semantic or not rand:
        raise UndefinedMetricError(
            "advantage point needs k=0 and k=%d rows for both strategies" % advantage_k
        )
    return (statistics.fmean(baseline), statistics.fmean(semantic) - statistics.fmean(rand))


def advantage_correlation(points: Sequence[Tuple[float, float]]) -> float:
    """Pearson correlation between baseline A-DSR and semantic advantage."""
    if len(points) < 3:
        raise UndefinedMetricError(
            "correlation needs at least 3 configurations, got %d" % len(points)
        )
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise UndefinedMetricError("correlation undefined: %s" % exc) from exc
