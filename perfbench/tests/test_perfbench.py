"""Self-tests for the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from semcom import metrics, selection, world  # noqa: E402

SMOKE = workloads.SweepWorkload(
    name="smoke",
    config_path=ROOT / "configs" / "smoke.yaml",
    seeds_per_job=2,
    default_sha256="",
)
SMOKE_SEED = 1  # not DEFAULT_SEED: the smoke CSV has no recorded digest


# -- tail percentile ---------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_tasks_beyond():
    samples = [float(i) for i in range(1, 101)]
    level, value = measure.tail_percentile(samples)
    assert level == 90.0
    assert value == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_needs_eleven_tasks():
    assert measure.tail_percentile([1.0] * 10) is None
    level, value = measure.tail_percentile([float(i) for i in range(11)])
    assert value == 0.0
    assert level == pytest.approx(100.0 / 11)


def test_tail_over_pooled_repeats_keeps_the_per_job_percentile():
    one_job = [float(i) for i in range(1, 21)]
    level, value = measure.tail_percentile(one_job + one_job, per_job=20)
    assert level == 50.0
    assert value == 10.0
    assert sum(1 for s in one_job + one_job if s > value) == 20


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_the_time_children_cover():
    tree = [
        spans.Span("root", 0, 100, -1, 0),
        spans.Span("a", 10, 40, 0, 0),
        spans.Span("leaf", 20, 30, 1, 0),
        spans.Span("b", 50, 70, 0, 0),
        spans.Span("b", 80, 85, 0, 0),
    ]
    assert spans.self_times(tree) == [45, 20, 10, 20, 5]
    totals = spans.totals_by_name(tree)
    assert totals["b"] == (2, 25, 25)
    assert totals["root"] == (1, 100, 45)


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0, 100, -1, 0),
        spans.Span("c", 10, 40, 0, 0),
        spans.Span("c", 30, 60, 0, 0),
        spans.Span("c", 90, 120, 0, 0),
    ]
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_tracer_nests_spans_by_call():
    tracer = spans.Tracer()

    class Owner:
        @staticmethod
        def outer():
            return Owner.inner() + 1

        @staticmethod
        def inner():
            return 1

    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner")
    try:
        assert tracer.task(7, Owner.outer) == 2
    finally:
        tracer.uninstall()
    task, outer, inner = tracer.finished_spans()
    assert (task.name, outer.name, inner.name) == ("bench.task", "outer", "inner")
    assert (task.parent, outer.parent, inner.parent) == (-1, 0, 1)
    assert {s.task for s in (task, outer, inner)} == {7}
    assert not getattr(Owner.__dict__["outer"], spans.WRAPPER_MARK, False)


# -- traced run ----------------------------------------------------------------

def test_traced_run_removes_every_wrapper(tmp_path):
    originals = {
        "ground_entity": metrics.ground_entity,
        "step": metrics.step,
        "build_trajectory": metrics.build_trajectory,
        "select": selection.KeyEngine.__dict__["select"],
        "sat_mask": selection.KeyEngine.__dict__["sat_mask"],
    }
    values, attempted, failed, _ = run.traced(SMOKE, SMOKE_SEED, tmp_path)
    assert failed == 0 and attempted > 0
    assert layers.leftover_wrappers() == []
    assert metrics.ground_entity is world.ground_entity is originals["ground_entity"]
    assert metrics.step is world.step is originals["step"]
    assert metrics.build_trajectory is originals["build_trajectory"]
    assert selection.KeyEngine.__dict__["select"] is originals["select"]
    assert selection.KeyEngine.__dict__["sat_mask"] is originals["sat_mask"]
    assert values["metrics.trajectory.calls"] == 2
    assert values["world.ground.calls"] > 0
    assert values["selection.sat_mask.calls"] > 0
    assert values["oracle.enum.calls"] == 0
    assert (tmp_path / "spans.csv").is_file()


def test_smoke_sweep_runs_in_seconds_and_both_paths_agree(tmp_path):
    started = time.perf_counter()
    cfg = SMOKE.prepare(SMOKE_SEED)
    job = SMOKE.run_library(cfg, SMOKE_SEED, tmp_path)
    via_cli = SMOKE.run_cli(cfg, SMOKE_SEED, tmp_path, job.output)
    assert job.failed == 0 and via_cli.failed == 0
    assert job.output.startswith(b"architecture,rule_set,strategy,k,seeds,")
    assert job.work == 2 * 2 * 2 * 3 * 10 * 6  # seeds, archs, strategies, ks; steps x cars
    assert time.perf_counter() - started < 30.0


# -- benchmark definition --------------------------------------------------------

def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert spec["paths"] == ["perfbench"]
