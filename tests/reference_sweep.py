"""A sweep from definitions only, with no caches.

``semcom.metrics.sweep`` stacks several caches and shortcuts on its
path: the satisfaction-mask cache, the select memo and its pruned
search, per-pool mask blocks and the record tally.  This module writes
the same per-seed CSV from the reference definitions alone:

- pools from ``pools_reference`` (one rescan per ego and uploader);
- grounding from ``grounding_reference.PREDICATES``, one predicate at a
  time;
- satisfaction from ``satisfaction_reference.satisfies``;
- semantic selection as the minimum of (``reference_key``, ids) over
  every k-subset, and random selection as a fresh
  ``random.Random(seed).sample`` per cell;
- integer H-DSR and A-DSR counts per (step, ego) decision.

The world itself is stepped by ``semcom.world``, the only simulator, and
the per-(seed, step, ego) random seed is the sweep's own definition.
"""

import itertools
import random

from grounding_reference import PREDICATES
from pools_reference import ball, reference_pool_ids
from satisfaction_reference import reference_key, satisfies
from semcom.metrics import PER_SEED_HEADER, _record_seed, csv_text
from semcom.selection import SEMANTIC
from semcom.world import CAR, DEFAULT_ACTION, init_world, step


def ground(world, ego, ent):
    """Pattern of one entity: slot i is set iff the reference's i-th predicate holds."""
    bits = 0
    for slot, holds in enumerate(PREDICATES.values()):
        if holds(world, ego, ent):
            bits |= 1 << slot
    return bits


def witnessed(patterns, hypotheses):
    """Bitmask of the hypotheses that some pattern satisfies."""
    mask = 0
    for i, h in enumerate(hypotheses):
        if any(satisfies(q, h) for q in patterns):
            mask |= 1 << i
    return mask


def action(mask, rules):
    """Highest-priority action among the triggered hypotheses and Normal."""
    triggered = [h.action for i, h in enumerate(rules.hypotheses) if (mask >> i) & 1]
    return min([DEFAULT_ACTION] + triggered, key=rules.action_priority.index)


def sent(pool, qbits, k, strategy, hypotheses, T, rng_seed):
    """Ids the downlink sends from a pool under one (strategy, k)."""
    if k == 0:
        return ()
    if len(pool) <= k:
        return pool
    if strategy == SEMANTIC:
        best = min(
            itertools.combinations([(i, qbits[i]) for i in pool], k),
            key=lambda c: (reference_key(c, hypotheses, T), [i for i, _ in c]),
        )
        return [i for i, _ in best]
    return random.Random(rng_seed).sample(pool, k)


def task_rows(scenario, rules, seed, architectures, strategies, ks):
    """Per-seed rows of one (rule set, seed) as (architecture, rule set,
    strategy, k, seed, hdsr, adsr) tuples, one per cell."""
    hyps, T = rules.hypotheses, len(PREDICATES)
    r_fov, r_vic = scenario.r_fov, scenario.r_vic
    cells = [(arch, strategy, k) for arch in architectures for strategy in strategies for k in ks]
    hits = [0] * len(cells)  # (decision, hypothesis) pairs that match FI
    agreed = [0] * len(cells)  # decisions whose action matches FI
    decisions = 0
    world = init_world(scenario, seed)
    for step_idx in range(scenario.steps):
        by_id = {a.id: a for a in world.agents}
        actions = {}
        for ego_id in sorted(a.id for a in world.agents if a.kind == CAR):
            vicinity = ball(world, ego_id, r_vic)
            fov = ball(world, ego_id, r_fov)
            qbits = {i: ground(world, by_id[ego_id], by_id[i]) for i in vicinity}
            fi_mask = witnessed([qbits[i] for i in vicinity], hyps)
            actions[ego_id] = fi_action = action(fi_mask, rules)
            rng_seed = _record_seed(seed, step_idx, ego_id)
            pools = {arch: reference_pool_ids(world, ego_id, arch, r_fov, r_vic) for arch in architectures}
            for c, (arch, strategy, k) in enumerate(cells):
                ids = fov + tuple(sent(pools[arch], qbits, k, strategy, hyps, T, rng_seed))
                mask = witnessed([qbits[i] for i in ids], hyps)
                hits[c] += sum((fi_mask >> j) & 1 == (mask >> j) & 1 for j in range(len(hyps)))
                agreed[c] += action(mask, rules) == fi_action
            decisions += 1
        world = step(world, actions)
    evaluations = decisions * len(hyps)
    return [
        (arch, rules.name, strategy, k, seed, hits[c] / evaluations, agreed[c] / decisions)
        for c, (arch, strategy, k) in enumerate(cells)
    ]


def per_seed_csv(scenario, rule_sets, architectures, strategies, ks, seeds):
    """The per-seed CSV text that ``semcom run`` writes for one scenario."""
    rows = [
        row
        for rules in rule_sets
        for seed in seeds
        for row in task_rows(scenario, rules, seed, architectures, strategies, ks)
    ]
    rows.sort(key=lambda row: row[:5])
    return csv_text(PER_SEED_HEADER, rows)
