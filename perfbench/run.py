"""semcom benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # all workloads, untraced

``--trace 0`` sets up the package several times in fresh processes, then
repeats the workload's job (library path at ``--jobs 1``, then the CLI
path at its default ``--jobs``) until ``--seconds`` have passed, and
reports medians.  ``--trace 1`` runs the library job once untraced and
once with span wrappers installed, removes the wrappers and reports the
per-layer metrics.  Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import measure
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("wall_jobs_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="desk, dense, exact or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _require_sources() -> None:
    missing = [p for p in ("src/semcom/__init__.py", "configs/desk.yaml") if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit("perfbench: run from a semcom checkout; missing %s" % ", ".join(missing))
    sys.path.insert(0, str(ROOT / "src"))


def untraced(wl, seed: int, seconds: float, out_dir: Path) -> Tuple[Dict[str, float], int, int, List[str]]:
    ctx = wl.prepare(seed)
    setups = measure.setup_seconds(ROOT, wl.setup_config, SETUP_REPEATS)
    lib_walls: List[float] = []
    cli_walls: List[float] = []
    task_s: List[float] = []
    attempted = failed = 0
    work = per_job = 0
    start = perf_counter()
    while True:
        job = wl.run_library(ctx, seed, out_dir)
        via_cli = wl.run_cli(ctx, seed, out_dir, job.output)
        lib_walls.append(job.wall_s)
        cli_walls.append(via_cli.wall_s)
        task_s.extend(job.task_s)
        per_job, work = len(job.task_s), job.work
        attempted += job.attempted + via_cli.attempted
        failed += job.failed + via_cli.failed
        if perf_counter() - start >= seconds:
            break
    wall = statistics.median(lib_walls)
    tail = measure.tail_percentile(task_s, per_job)
    if tail is None:
        raise RuntimeError("%s has %d tasks per job; task_tail_ms needs at least 11" % (wl.name, per_job))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "work_per_s": work / wall,
        "task_p50_ms": statistics.median(task_s) * 1e3,
        "task_tail_ms": tail[1] * 1e3,
        "wall_jobs_s": statistics.median(cli_walls),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    notes = [
        "jobs: %d in %.1f s (wall_s %s); task_tail_ms is p%.2f of %d tasks (%d per job)"
        % (len(lib_walls), perf_counter() - start, " ".join("%.3f" % w for w in lib_walls),
           tail[0], len(task_s), per_job),
        "fail_ratio: %d/%d = %.6f ratio" % (failed, attempted, failed / attempted),
    ]
    return values, attempted, failed, notes


def traced(wl, seed: int, out_dir: Path) -> Tuple[Dict[str, float], int, int, List[str]]:
    import layers
    from semcom import config

    load_s = 0.0
    if wl.setup_config is not None:
        t = perf_counter()
        config.load_run_config(str(wl.setup_config))
        load_s = perf_counter() - t
    ctx = wl.prepare(seed)
    plain = wl.run_library(ctx, seed, out_dir)
    tracer = spans.Tracer()
    st = layers.instrument(tracer)
    try:
        job = wl.run_library(ctx, seed, out_dir, tracer)
    finally:
        tracer.uninstall()
    leftovers = layers.leftover_wrappers()
    same = job.output == plain.output
    if leftovers or not same:
        print("perfbench: traced run left wrappers %s or changed the output (%s)"
              % (leftovers, not same), file=sys.stderr)
    recorded = tracer.finished_spans()
    spans.write_spans(str(out_dir / "spans.csv"), recorded)
    values = layers.layer_metrics(recorded, st, load_s, job.wall_s - plain.wall_s)
    attempted = plain.attempted + job.attempted + 1
    failed = plain.failed + job.failed + int(bool(leftovers) or not same)
    notes = ["spans: %d written to %s" % (len(recorded), out_dir / "spans.csv"),
             "fail_ratio: %d/%d = %.6f ratio" % (failed, attempted, failed / attempted)]
    return values, attempted, failed, notes


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import workloads
    from layers import PER_LAYER

    wl = workloads.WORKLOADS[name]
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if trace:
        values, attempted, failed, notes = traced(wl, seed, out_dir)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values, attempted, failed, notes = untraced(wl, seed, seconds, out_dir)
        units = dict(END_TO_END)
    for metric, unit in units.items():
        print("%-6s %-44s %16.6f %s" % (name, metric, values[metric], unit))
    for note in notes:
        print("%-6s %s" % (name, note))
    print(json.dumps({"stamp": measure.stamp(ROOT, name, seed, bool(trace))}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
