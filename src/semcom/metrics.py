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
from collections import Counter
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .comms import ARCHITECTURE_KINDS, ego_pools
from .errors import ConfigurationError, UndefinedMetricError, reject_repeats
from .selection import DEFAULT_ENUMERATION_CAP, RANDOM, SEMANTIC, STRATEGIES, KeyEngine, downlink
from .world import T, RuleSet, ScenarioConfig, ground_entity, init_world, step

@dataclass(frozen=True)
class TraceRecord:
    """One (step, ego) decision; records run by step, then by ego id."""

    fi_mask: int
    strategy_masks: Tuple[int, ...]  # one per cell of the trace, in its order


Cell = Tuple[str, str, int]  # (architecture kind, strategy, k)


@dataclass(frozen=True)
class EpisodeTrace:
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


PER_SEED_HEADER = tuple(f.name for f in fields(MetricsRow))
CSV_HEADER = tuple(f.name for f in fields(AggregateRow))


def cell_rates(trace: EpisodeTrace, rules: RuleSet) -> List[Tuple[float, float]]:
    """(H-DSR, A-DSR) of every column of the trace, in cell order.

    H-DSR is the fraction of (step, agent, hypothesis) evaluations that
    match FI, A-DSR the fraction of (step, agent) decisions whose action
    matches the FI action, rules.action_of(fi_mask).  Identical
    (fi_mask, strategy_masks) records are tallied first and each distinct
    one is scored once, weighted by its count, so every column's integer
    mismatch and match counts are those of a pass over all records.
    """
    if not trace.records:
        raise UndefinedMetricError("DSR over an empty trace")
    tally = Counter((r.fi_mask, r.strategy_masks) for r in trace.records)
    action_of = rules.action_of
    mismatches = [0] * len(trace.cells)
    matches = [0] * len(trace.cells)
    for (fi_mask, masks), count in tally.items():
        fi_action = action_of(fi_mask)
        for column, mask in enumerate(masks):
            if mask == fi_mask:
                matches[column] += count
            else:
                mismatches[column] += count * (fi_mask ^ mask).bit_count()
                if action_of(mask) == fi_action:
                    matches[column] += count
    decisions = len(trace.records)
    evaluations = decisions * len(rules.hypotheses)
    return [
        ((evaluations - missed) / evaluations, matched / decisions)
        for missed, matched in zip(mismatches, matches)
    ]


# ---------------------------------------------------------------------------
# Trajectory precomputation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepView:
    """Everything one ego needs at one step, for any architecture; the
    vicinity is the keys of qbits."""

    fov_ids: Tuple[int, ...]
    qbits: Mapping[int, int]
    pools: Mapping[str, Tuple[int, ...]]
    fi_mask: int


@dataclass(frozen=True)
class Trajectory:
    seed: int
    views: Tuple[Mapping[int, StepView], ...]


def build_trajectory(
    scenario: ScenarioConfig,
    rules: RuleSet,
    seed: int,
    engine: KeyEngine,
) -> Trajectory:
    """Simulate one episode under full-information decisions.

    Cars are the deciding egos; pedestrians advance on their scripted
    routes.  Pools are precomputed for all three architecture kinds,
    so every matrix cell replays the same states.
    """
    world = init_world(scenario, seed)
    per_step: List[Dict[int, StepView]] = []
    for t in range(scenario.steps):
        by_id = {a.id: a for a in world.agents}
        views: Dict[int, StepView] = {}
        actions: Dict[int, str] = {}
        for ego_id, seen in ego_pools(world, scenario.r_fov, scenario.r_vic).items():
            ego = by_id[ego_id]
            qbits = {
                ent_id: ground_entity(world, ego, by_id[ent_id])
                for ent_id in seen.vic_ids
            }
            fi_mask = _witnessed(engine, qbits, seen.vic_ids)
            views[ego_id] = StepView(
                fov_ids=seen.fov_ids,
                qbits=qbits,
                pools=seen.pools,
                fi_mask=fi_mask,
            )
            actions[ego_id] = rules.action_of(fi_mask)
        per_step.append(views)
        if t + 1 < scenario.steps:
            world = step(world, actions)
    return Trajectory(seed=seed, views=tuple(per_step))


def _witnessed(engine: KeyEngine, qbits: Mapping[int, int], ids: Iterable[int]) -> int:
    """Bitmask of the hypotheses that some entity in ids satisfies."""
    mask = 0
    for ent_id in ids:
        mask |= engine.sat_mask(qbits[ent_id])
    return mask


def _record_seed(base_seed: int, step_idx: int, ego_id: int) -> int:
    return ((base_seed * 1000003 + step_idx) * 1000003 + ego_id) & 0x7FFFFFFF


def evaluate_cell(
    trajectory: Trajectory,
    kinds: Sequence[str],
    budgets: Sequence[Tuple[str, int]],
    engine: KeyEngine,
) -> EpisodeTrace:
    """Score every cell of kinds x (strategy, k) budgets in one pass.

    The cells run kind by kind, each kind over the budgets in their
    order.  Random downlink draws are seeded per (seed, step, ego), not
    per cell, so they are reproducible and shared across architectures
    and budgets.  A view's masks for one kind therefore depend only on
    the kind's pool: each view builds one block of masks per distinct
    pool, and every kind with that pool reuses it.  The budgets are taken
    as checked: metrics.sweep refuses a bad one before any task.
    """
    largest = {s: max(k for t, k in budgets if t == s) for s, _ in budgets}
    records: List[TraceRecord] = []
    for step_idx, views in enumerate(trajectory.views):
        for ego_id in sorted(views):
            view = views[ego_id]
            rng_seed = _record_seed(trajectory.seed, step_idx, ego_id)
            fov_mask = _witnessed(engine, view.qbits, view.fov_ids)
            blocks: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
            masks: List[int] = []
            for kind in kinds:
                pool = view.pools[kind]
                block = blocks.get(pool)
                if block is None:
                    block = blocks[pool] = _mask_block(
                        engine, view.qbits, pool, budgets, largest, fov_mask, rng_seed
                    )
                masks += block
            records.append(TraceRecord(fi_mask=view.fi_mask, strategy_masks=tuple(masks)))
    cells = tuple((kind, strategy, k) for kind in kinds for strategy, k in budgets)
    return EpisodeTrace(cells, tuple(records))


def _mask_block(
    engine: KeyEngine,
    qbits: Mapping[int, int],
    pool: Tuple[int, ...],
    budgets: Sequence[Tuple[str, int]],
    largest: Mapping[str, int],
    fov_mask: int,
    rng_seed: int,
) -> Tuple[int, ...]:
    """Hypothesis masks of one view's FOV plus what one pool downlinks
    under each (strategy, k) of budgets, in order; largest maps each
    strategy of budgets to its largest k.

    Nothing is sent at k = 0.  Above that, a budget the pool's coverage
    C already fixes sends fov_mask | C without calling downlink:
    - random k > misses, where misses is the largest number of entries
      that miss any one hypothesis of C & ~fov_mask: every k-subset holds
      a witness of each of them.  k >= len(pool) is the case
      misses <= len(pool) - 1, and an empty pool adds nothing.
    - semantic k >= need, where need is the cover number of the pool,
      the fewest entries whose masks OR to C.  kappa counts uncovered
      hypotheses first.  If need <= k, one entry from each of need
      covering classes, padded to k entries (the pool holds more than k
      unless k >= len(pool), where the whole pool is sent), covers C, and
      no subset covers more, so every kappa-minimal k-subset covers
      exactly C, whatever ids win the tie-break.  If need > k, no
      k-subset covers C and downlink runs.
    Each threshold is counted only up to its strategy's largest budget,
    past which it decides no budget differently, and not at all for a
    strategy without a budget.
    Every other budget calls downlink.  Skipping a draw moves no other,
    since each is seeded per (seed, step, ego), and skipping a search only
    leaves the select memo without that entry, so the masks are those of
    one downlink call per budget.  A budget decided here runs no search,
    so it neither enumerates nor meets the enumeration cap.
    """
    sat_mask = engine.sat_mask
    masks = [sat_mask(qbits[i]) for i in pool]
    cover = 0
    for mask in masks:
        cover |= mask
    top = largest.get(RANDOM, 0)
    misses = 0
    rest = cover & ~fov_mask
    while rest and misses < top:
        bit = rest & -rest
        rest ^= bit
        miss = 0
        for mask in masks:
            if not mask & bit:
                miss += 1
        if miss > misses:
            misses = miss
    need = _cover_number(masks, cover, min(largest.get(SEMANTIC, 0), len(pool) - 1))
    whole = fov_mask | cover
    block = []
    for strategy, k in budgets:
        if k == 0:
            block.append(fov_mask)
        elif k >= need if strategy == SEMANTIC else k > misses:
            block.append(whole)
        else:
            sent = _witnessed(engine, qbits, downlink(pool, qbits, k, strategy, engine, rng_seed))
            block.append(fov_mask | sent)
    return tuple(block)


def _cover_number(masks: Sequence[int], cover: int, most: int) -> int:
    """The fewest of masks whose OR is cover, the OR of all of them, or
    most + 1 when that is more than most or when counting it would OR
    more than DEFAULT_ENUMERATION_CAP pairs.

    A mask that another contains is never needed: swapping it for the
    wider one keeps the OR.  Level s holds every distinct OR of at most s
    of the wider masks, and the count is the first level that holds cover.
    """
    if not cover:
        return 0
    if not most or cover in masks:
        return 1  # most + 1 when most is 0
    wide: List[int] = []  # the masks no other mask contains
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(mask | other != other for other in wide):
            wide.append(mask)
    reached = {0}
    work = 0
    for need in range(1, most + 1):
        work += len(reached) * len(wide)
        if work > DEFAULT_ENUMERATION_CAP:
            break
        reached = {r | mask for r in reached for mask in wide}
        if cover in reached:
            return need
    return most + 1


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _run_batch(
    tasks: Sequence[
        Tuple[ScenarioConfig, RuleSet, int, Tuple[str, ...], Tuple[str, ...], Tuple[int, ...]]
    ]
) -> List[MetricsRow]:
    """Rows of the (scenario, rules, seed, kinds, strategies, ks) tasks, run
    in order with one KeyEngine per rule set.  Its pattern and tail tables
    serve the whole batch; its select memo is cleared after each task."""
    engines: Dict[str, KeyEngine] = {}
    rows: List[MetricsRow] = []
    for scenario, rules, seed, kinds, strategies, ks in tasks:
        engine = engines.get(rules.name)
        if engine is None:
            engine = engines[rules.name] = KeyEngine(rules.hypotheses, T)
        trajectory = build_trajectory(scenario, rules, seed, engine)
        budgets = [(strategy, k) for strategy in strategies for k in ks]
        trace = evaluate_cell(trajectory, kinds, budgets, engine)
        engine.clear_selections()
        rows += [
            MetricsRow(
                architecture=kind,
                rule_set=rules.name,
                strategy=strategy,
                k=k,
                seed=seed,
                hdsr=hdsr,
                adsr=adsr,
            )
            for (kind, strategy, k), (hdsr, adsr) in zip(trace.cells, cell_rates(trace, rules))
        ]
    return rows


def sweep(
    scenario: ScenarioConfig,
    rule_sets: Sequence[RuleSet],
    architectures: Sequence[str],
    strategies: Sequence[str],
    ks: Sequence[int],
    seeds: Sequence[int],
    jobs: int = 1,
) -> List[MetricsRow]:
    """Per-seed metrics for the full matrix, deterministically ordered.

    Tasks are independent per (rule set, seed).  They run as one batch in
    this process at jobs = 1, else as one strided batch per worker, with
    at most one worker per task; rows are merged by sorting, so the bytes
    do not depend on the split.
    An unknown architecture kind or strategy raises ConfigurationError
    before any task runs, and is checked first, so an unhashable entry
    is refused by name.  A repeated rule-set name, kind, strategy, budget
    or seed would merge distinct cells' rows, and raises likewise; so do
    an empty axis (no cells to fill), a negative seed (random.Random(-s)
    seeds like random.Random(s), so seeds -s and s would count one world
    twice), a negative k and jobs < 1.
    """
    for what, values, known in (
        ("architecture", architectures, ARCHITECTURE_KINDS),
        ("strategy", strategies, STRATEGIES),
    ):
        for value in values:
            if value not in known:
                raise ConfigurationError(
                    "unknown %s %r (choose from %s)" % (what, value, ", ".join(known))
                )
    for what, values in (
        ("rule set name", [r.name for r in rule_sets]),
        ("architecture kind", architectures),
        ("strategy", strategies),
        ("budget", ks),
        ("seed", seeds),
    ):
        if not values:
            raise ConfigurationError("no %s given: the sweep has no cells" % what)
        reject_repeats(what, values)
    for seed in seeds:
        if seed < 0:
            raise ConfigurationError(
                "seed must be non-negative, got %d (it would draw the world of seed %d)"
                % (seed, -seed)
            )
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1, got %d" % jobs)
    if min(ks, default=0) < 0:
        raise ConfigurationError("k must be non-negative")
    tasks = [
        (scenario, rules, seed, tuple(architectures), tuple(strategies), tuple(ks))
        for rules in rule_sets
        for seed in seeds
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = pool.map(_run_batch, [tasks[i::workers] for i in range(workers)])
            rows = [row for batch in batches for row in batch]
    else:
        rows = _run_batch(tasks)
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

ADVANTAGE_K = 3  # the budget at which the semantic advantage is read


def advantage_points(rows: Iterable[MetricsRow]) -> Tuple[float, float]:
    """(baseline, advantage) for one configuration's row set.

    Baseline is mean A-DSR at k=0; advantage is mean semantic A-DSR
    minus mean random A-DSR at k = ADVANTAGE_K.
    """
    baseline: List[float] = []
    semantic: List[float] = []
    rand: List[float] = []
    for row in rows:
        if row.k == 0 and row.strategy == SEMANTIC:
            baseline.append(row.adsr)
        elif row.k == ADVANTAGE_K and row.strategy == SEMANTIC:
            semantic.append(row.adsr)
        elif row.k == ADVANTAGE_K and row.strategy == RANDOM:
            rand.append(row.adsr)
    if not baseline or not semantic or not rand:
        raise UndefinedMetricError(
            "advantage point needs k=0 and k=%d rows for both strategies" % ADVANTAGE_K
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
