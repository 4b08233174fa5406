"""Per-layer instrumentation for the traced run.

:func:`instrument` wraps the public calls of each package layer with
spans (or, for the ~3 M ``KeyEngine.sat_mask`` calls on ``desk``, with a
counter only), and :func:`layer_metrics` turns the recorded spans and
counters into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict
from math import comb
from typing import Dict, List, Optional, Tuple

from semcom import comms, metrics, oracle, selection, validation

from measure import tail_percentile
from spans import WRAPPER_MARK, Span, Tracer, totals_by_name

ARCHS = comms.ARCHITECTURE_KINDS
BANDS = ((0, 8), (9, 16), (17, 32), (33, 99))
# (band, k) pairs the workloads reach: desk selects at k 1..5 from pools of
# at most 8 items at the shipped seeds (up to ~10 at others), dense at k 4
# from pools of 5 to ~38 items.
SELECT_BUCKETS = tuple((band, k) for band in ("n0-8", "n9-16") for k in range(1, 6)) + (
    ("n17-32", 4), ("n33-99", 4))


def _band(n: int) -> Optional[str]:
    for lo, hi in BANDS:
        if lo <= n <= hi:
            return "n%d-%d" % (lo, hi)
    return None


PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("config.load_s", "s", "lower"),
    ("world.ground.calls", "count", "lower"),
    ("world.ground.self_s", "s", "lower"),
    ("world.step.calls", "count", "lower"),
    ("world.step.self_s", "s", "lower"),
    *(
        ("comms.pool_items.%s.%s" % (arch, stat), "items", "lower")
        for arch in ARCHS for stat in ("mean", "max")
    ),
    ("metrics.trajectory.calls", "count", "lower"),
    ("metrics.trajectory.self_s", "s", "lower"),
    ("metrics.score.calls", "count", "lower"),
    ("metrics.score.self_s", "s", "lower"),
    ("metrics.decisions", "count", "higher"),
    ("metrics.aggregate_s", "s", "lower"),
    ("metrics.csv_s", "s", "lower"),
    ("metrics.csv_bytes", "B", "lower"),
    ("selection.select.calls", "count", "lower"),
    ("selection.select.self_s", "s", "lower"),
    *(
        ("selection.select.%s.k%d.%s" % (band, k, stat), unit, "lower")
        for band, k in SELECT_BUCKETS
        for stat, unit in (("calls", "count"), ("p50_us", "us"), ("tail_us", "us"))
    ),
    ("selection.subsets", "count", "lower"),
    ("selection.masks.mean", "count", "lower"),
    ("selection.masks.max", "count", "lower"),
    ("selection.sat_mask.calls", "count", "lower"),
    ("selection.sat_mask.miss_ratio", "ratio", "lower"),
    ("oracle.enum.calls", "count", "lower"),
    ("oracle.enum.self_s", "s", "lower"),
    ("oracle.enum.distinct_inputs", "count", "lower"),
    ("oracle.info.calls", "count", "lower"),
    ("oracle.info.self_s", "s", "lower"),
    ("oracle.closed.calls", "count", "lower"),
    ("oracle.closed.self_s", "s", "lower"),
    ("oracle.compare.calls", "count", "lower"),
    ("oracle.compare.self_s", "s", "lower"),
    ("validation.trials", "count", "higher"),
    ("validation.self_s", "s", "lower"),
    ("validation.pairs", "count", "higher"),
    ("validation.disagreements", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _qmask(qs) -> Optional[int]:
    """Bit set of Q-sentence patterns; None for a one-shot iterator."""
    if iter(qs) is qs:
        return None
    mask = 0
    for q in qs:
        mask |= 1 << q.bits
    return mask


class LayerStats:
    """Counters the observers fill while the traced job runs."""

    def __init__(self, sat_mask) -> None:
        self._sat_mask = sat_mask  # the unwrapped KeyEngine.sat_mask
        self.select_us: Dict[Tuple[str, int], List[float]] = defaultdict(list)
        self.subsets = 0
        self.masks: List[int] = []
        self.sat_calls = 0
        self.sat_seen: set = set()  # (engine, qbits); a first sighting is a cache miss
        self.pools = {arch: [0, 0, 0] for arch in ARCHS}  # sum, count, max
        self.decisions = 0
        self.enum_inputs: set = set()
        self.validation = [0, 0, 0]  # trials, pairs, disagreements
        self.csv_bytes = 0

    def on_select(self, args, result, duration_ns: int) -> None:
        engine, entries, k = args[0], args[1], args[2]
        n = len(entries)
        band = _band(n)
        if band is None:
            raise RuntimeError("select pool of %d items is outside every band" % n)
        self.select_us[(band, k)].append(duration_ns / 1e3)
        if n > k:
            self.subsets += comb(n, k)
        self.masks.append(len({self._sat_mask(engine, q) for _, q in entries}))

    def on_sat_mask(self, args) -> None:
        self.sat_calls += 1
        self.sat_seen.add((args[0], args[1]))

    def on_trajectory(self, args, trajectory, duration_ns: int) -> None:
        for views in trajectory.views:
            for view in views.values():
                for arch, pool in view.pools.items():
                    acc = self.pools[arch]
                    acc[0] += len(pool)
                    acc[1] += 1
                    acc[2] = max(acc[2], len(pool))

    def on_cell(self, args, trace, duration_ns: int) -> None:
        self.decisions += len(trace.records)

    def on_count(self, args, result, duration_ns: int) -> None:
        ev = _qmask(args[0])
        if ev is not None:
            self.enum_inputs.add((ev, None, args[1]))

    def on_joint_count(self, args, result, duration_ns: int) -> None:
        hyp, ev = _qmask(args[0]), _qmask(args[1])
        if hyp is not None and ev is not None:
            self.enum_inputs.add((ev, hyp, args[2]))

    def on_validation(self, args, report, duration_ns: int) -> None:
        self.validation[0] += report.trials
        self.validation[1] += report.total_pairs
        self.validation[2] += report.disagreements

    def on_csv(self, args, result, duration_ns: int) -> None:
        self.csv_bytes += os.path.getsize(args[0])


def instrument(tracer: Tracer) -> LayerStats:
    """Install every wrapper; the caller must call tracer.uninstall()."""
    engine_cls = selection.KeyEngine
    st = LayerStats(engine_cls.__dict__["sat_mask"])
    try:
        tracer.wrap(metrics, "sweep", "metrics.sweep")
        tracer.wrap(metrics, "build_trajectory", "metrics.trajectory", st.on_trajectory)
        tracer.wrap(metrics, "evaluate_cell", "metrics.score", st.on_cell)
        tracer.wrap(metrics, "aggregate", "metrics.aggregate")
        tracer.wrap(metrics, "write_csv", "metrics.csv", st.on_csv)
        # world functions are looked up through metrics' own namespace
        tracer.wrap(metrics, "ground_entity", "world.ground")
        tracer.wrap(metrics, "step", "world.step")
        tracer.wrap(engine_cls, "select", "selection.select", st.on_select)
        tracer.count(engine_cls, "sat_mask", st.on_sat_mask)
        tracer.wrap(oracle, "compatible_count", "oracle.enum", st.on_count)
        tracer.wrap(oracle, "joint_compatible_count", "oracle.enum", st.on_joint_count)
        for fn in ("semantic_entropy", "conditional_semantic_entropy", "semantic_mutual_information"):
            tracer.wrap(oracle, fn, "oracle.info")
        for fn in ("closed_form_evidence_probability", "closed_form_confirmation",
                   "closed_form_objective"):
            tracer.wrap(oracle, fn, "oracle.closed")
        # validation binds exact_objective_compare into its own namespace
        tracer.wrap(validation, "exact_objective_compare", "oracle.compare")
        tracer.wrap(oracle, "exact_objective_compare", "oracle.compare")
        tracer.wrap(validation, "validate_key_ordering", "validation", st.on_validation)
    except BaseException:
        tracer.uninstall()
        raise
    return st


def leftover_wrappers() -> List[str]:
    """Names of package attributes that still carry a benchmark wrapper."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if not (mod_name == "semcom" or mod_name.startswith("semcom.")):
            continue
        for owner_name, owner in [(mod_name, module)] + [
            ("%s.%s" % (mod_name, k), v) for k, v in vars(module).items() if isinstance(v, type)
        ]:
            for attr, value in vars(owner).items():
                if getattr(value, WRAPPER_MARK, False):
                    found.append("%s.%s" % (owner_name, attr))
    return found


def layer_metrics(
    spans: List[Span], st: LayerStats, config_load_s: float, overhead_s: float
) -> Dict[str, float]:
    totals = totals_by_name(spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0, 0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[1] / 1e9

    out: Dict[str, float] = {
        "config.load_s": config_load_s,
        "metrics.decisions": st.decisions,
        "metrics.aggregate_s": total_s("metrics.aggregate"),
        "metrics.csv_s": total_s("metrics.csv"),
        "metrics.csv_bytes": st.csv_bytes,
        "selection.subsets": st.subsets,
        "selection.masks.mean": statistics.fmean(st.masks) if st.masks else 0.0,
        "selection.masks.max": max(st.masks, default=0),
        "selection.sat_mask.calls": st.sat_calls,
        "selection.sat_mask.miss_ratio": (
            len(st.sat_seen) / st.sat_calls if st.sat_calls else 0.0),
        "oracle.enum.distinct_inputs": len(st.enum_inputs),
        "validation.trials": st.validation[0],
        "validation.self_s": self_s("validation"),
        "validation.pairs": st.validation[1],
        "validation.disagreements": st.validation[2],
        "trace.overhead_s": overhead_s,
    }
    for name in ("world.ground", "world.step", "metrics.trajectory", "metrics.score",
                 "selection.select", "oracle.enum", "oracle.info", "oracle.closed",
                 "oracle.compare"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for arch, (total, count, biggest) in st.pools.items():
        out["comms.pool_items.%s.mean" % arch] = total / count if count else 0.0
        out["comms.pool_items.%s.max" % arch] = biggest
    for band, k in SELECT_BUCKETS:
        lat = st.select_us.get((band, k), [])
        prefix = "selection.select.%s.k%d." % (band, k)
        tail = tail_percentile(lat)
        out[prefix + "calls"] = len(lat)
        out[prefix + "p50_us"] = statistics.median(lat) if lat else 0.0
        out[prefix + "tail_us"] = tail[1] if tail else 0.0
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    extra = [name for name in out if name not in {n for n, _, _ in PER_LAYER}]
    if missing or extra:
        raise RuntimeError("per-layer metrics out of sync: missing %s, extra %s" % (missing, extra))
    return out
