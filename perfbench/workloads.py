"""The benchmark workloads: ``desk``, ``dense`` and ``exact``.

Every workload turns the bench seed into its own inputs, runs one job
through the library at ``--jobs 1`` and the same job through
``semcom.cli.main`` at the CLI's default parallelism, and checks both
outputs.  The package sees only the generated inputs.

Why these three:

* ``desk`` is the paper's headline experiment, ``configs/desk.yaml`` as
  shipped.  Its time goes to metrics scoring, trajectory building and
  grounding; selection is ~60k tiny enumerations over pools of at most
  8 items, and the oracle is never called.
* ``dense`` (``perfbench/dense.yaml``) packs 100 agents into the same
  grid, so pools reach ~30 items and ``KeyEngine.select`` does nearly
  all the work as a few large C(n, k) enumerations.
* ``exact`` is a stream of oracle instances: T=2 instances that run the
  2**16-constituent enumeration, and key-vs-objective validation trials
  at T=3..5.  It is the only workload that touches ``oracle`` and
  ``validation``, and it never calls ``world``, ``metrics`` or
  ``select``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from semcom import cli, config, metrics, oracle, validation
from semcom.logic import Hypothesis, QSentence

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0


@dataclass
class JobResult:
    """One run of a workload's job through one path."""

    wall_s: float
    task_s: List[float]
    work: int
    attempted: int
    failed: int
    output: Any  # what the other path must reproduce


def _guarded(fn: Callable[[], Any]) -> Tuple[bool, Any]:
    """Run one benchmark op; an exception counts as a failed op."""
    try:
        return True, fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


def _run_task(tracer, task_id: int, fn: Callable[[], Any]) -> Tuple[bool, Any]:
    if tracer is None:
        return _guarded(fn)
    return _guarded(lambda: tracer.task(task_id, fn))


def _quiet_cli(argv: Sequence[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    for child in path.iterdir():
        child.unlink()
    return path


# ---------------------------------------------------------------------------
# Sweep workloads: desk and dense
# ---------------------------------------------------------------------------

def _write_aggregate_csv(path: Path, rows: list) -> bytes:
    metrics.write_csv(str(path), metrics.aggregate(rows))
    return path.read_bytes()


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    config_path: Path
    seeds_per_job: int
    default_sha256: str  # aggregate CSV at DEFAULT_SEED, recorded from the library path

    @property
    def setup_config(self) -> Optional[Path]:
        return self.config_path

    def seeds(self, seed: int) -> List[int]:
        """A block of consecutive sweep seeds; DEFAULT_SEED gives 1..n."""
        base = (seed % 50_000) * self.seeds_per_job
        return list(range(base + 1, base + self.seeds_per_job + 1))

    def prepare(self, seed: int) -> config.RunConfig:
        return config.load_run_config(str(self.config_path), seeds_override=self.seeds(seed))

    def run_library(self, cfg: config.RunConfig, seed: int, out_dir: Path, tracer=None) -> JobResult:
        """One task per (rule set, seed), each a single-task metrics.sweep call."""
        scenario = cfg.scenarios[0]
        rows: list = []
        task_s: List[float] = []
        failed = 0
        start = perf_counter()
        for rules in cfg.rule_sets:
            for s in cfg.seeds:
                t = perf_counter()
                ok, got = _run_task(tracer, len(task_s), lambda: metrics.sweep(
                    scenario, [rules], cfg.architectures, cfg.strategies, cfg.ks, [s]))
                task_s.append(perf_counter() - t)
                if ok:
                    rows.extend(got)
                else:
                    failed += 1
        path = _fresh_dir(out_dir / "library") / ("%s.csv" % scenario.name)
        written, output = _guarded(lambda: _write_aggregate_csv(path, rows))
        correct = written and (seed != DEFAULT_SEED or _sha256(output) == self.default_sha256)
        wall = perf_counter() - start
        if written and not correct:
            print("%s: CSV sha256 %s != recorded %s" % (
                self.name, _sha256(output), self.default_sha256), file=sys.stderr)
        return JobResult(
            wall_s=wall,
            task_s=task_s,
            work=len(rows) * scenario.steps * scenario.cars,  # one row per cell; every car decides each step
            attempted=len(task_s) + 1,
            failed=failed + (not correct),
            output=output,
        )

    def run_cli(self, cfg: config.RunConfig, seed: int, out_dir: Path, expected: bytes) -> JobResult:
        """``semcom sweep`` at ``--jobs nproc``; its CSV must equal the library CSV."""
        cli_dir = _fresh_dir(out_dir / "cli")
        argv = [
            "sweep", "--config", str(self.config_path),
            "--seeds", ",".join(str(s) for s in cfg.seeds),
            "--jobs", str(os.cpu_count() or 1), "--out", str(cli_dir),
        ]
        t = perf_counter()
        ran, rc = _guarded(lambda: _quiet_cli(argv))
        wall = perf_counter() - t
        path = cli_dir / ("%s.csv" % cfg.scenarios[0].name)
        correct = ran and rc == 0 and path.is_file() and path.read_bytes() == expected
        if not correct:
            print("%s: CLI sweep output differs from the library path" % self.name, file=sys.stderr)
        return JobResult(wall, [wall], 0, 1, int(not correct), None)


# ---------------------------------------------------------------------------
# Exact workload: oracle instances and key validation
# ---------------------------------------------------------------------------

T2 = 2
Instance = Tuple[Tuple[Hypothesis, ...], Tuple[QSentence, ...]]


def check_t2_instance(hypotheses: Sequence[Hypothesis], evidence: Sequence[QSentence]) -> Tuple[bool, tuple]:
    """Mutual-information identity and closed form == enumeration, exactly."""
    qs = [h.compatible_qs(T2) for h in hypotheses]
    gain = oracle.semantic_mutual_information(qs, evidence, T2)
    identity = gain == (
        oracle.semantic_entropy(qs, T2) - oracle.conditional_semantic_entropy(qs, evidence, T2)
    )
    params = oracle.ClosedFormParams.from_subset(evidence, hypotheses, T2)
    ce = oracle.evidence_probability(evidence, T2)
    agree = oracle.closed_form_evidence_probability(params) == ce
    confirmations: List[Fraction] = []
    for hp, hq in zip(params.hypotheses, qs):
        c = oracle.degree_of_confirmation(hq, evidence, T2)
        agree = agree and oracle.closed_form_confirmation(params, hp) == c
        confirmations.append(c)
    return identity and agree, (gain, ce, tuple(confirmations))


def _report_counts(report: validation.ValidationReport) -> Tuple[int, ...]:
    return (
        report.trials, report.total_pairs, report.agreements, report.disagreements,
        report.key_ties_f_differs, report.f_ties_key_strict,
    )


_CLI_COUNT_LABELS = (
    "trials", "subset pairs compared", "agreements", "disagreements",
    "key ties with unequal objective", "objective ties with strict key order",
)


@dataclass(frozen=True)
class ExactWorkload:
    name: str
    instances_per_job: int
    hypotheses_per_instance: int
    trials: int
    # Recorded from this package at DEFAULT_SEED: the T=2 results digest and
    # the validation counts (trials, pairs, agreements, disagreements,
    # key ties with unequal F, F ties with strict key order).
    default_sha256: str
    default_counts: Tuple[int, ...]
    oracle_t2_sha256: str  # `semcom oracle --t 2` CSV, which has no seed

    setup_config = None

    def prepare(self, seed: int) -> List[Instance]:
        """Random T=2 hypothesis sets and evidence.

        Every instance has the same number of hypotheses, so each one
        makes the same number of enumeration counts.
        """
        rng = random.Random(seed)
        out = []
        for _ in range(self.instances_per_job):
            hyps = []
            for hid in range(self.hypotheses_per_instance):
                z = rng.randint(1, T2)
                fixed = {s: rng.randint(0, 1) for s in rng.sample(range(T2), z)}
                hyps.append(Hypothesis.from_constraints(hid, fixed, "Stop"))
            bits = sorted(rng.sample(range(1 << T2), rng.randint(1, 3)))
            out.append((tuple(hyps), tuple(QSentence(b, T2) for b in bits)))
        return out

    def run_library(self, instances: List[Instance], seed: int, out_dir: Path, tracer=None) -> JobResult:
        task_s: List[float] = []
        lines: List[str] = []
        failed = 0
        start = perf_counter()
        for hyps, evidence in instances:
            t = perf_counter()
            ran, got = _run_task(tracer, len(task_s), lambda: check_t2_instance(hyps, evidence))
            task_s.append(perf_counter() - t)
            if ran and got[0]:
                lines.append(repr(got[1]))
            else:
                failed += 1
                lines.append("failed")
        ran, report = _run_task(tracer, len(task_s), lambda: validation.validate_key_ordering(
            trials=self.trials, seed=seed))
        counts = _report_counts(report) if ran else ()
        valid = ran and counts[0] == self.trials and counts[1] == sum(counts[2:])
        if valid and seed == DEFAULT_SEED:
            valid = counts == self.default_counts
        lines.append(repr(counts))
        path = _fresh_dir(out_dir / "library") / "exact.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        digest = _sha256(path.read_bytes())
        output_ok = seed != DEFAULT_SEED or digest == self.default_sha256
        wall = perf_counter() - start
        if not (valid and output_ok):
            print("exact: counts %s, output sha256 %s" % (counts, digest), file=sys.stderr)
        return JobResult(
            wall_s=wall,
            task_s=task_s,
            work=len(instances) + self.trials,
            attempted=len(instances) + 2,
            failed=failed + (not valid) + (not output_ok),
            output=counts,
        )

    def run_cli(
        self, instances: List[Instance], seed: int, out_dir: Path, expected: Tuple[int, ...]
    ) -> JobResult:
        """``semcom validate-key`` on the same trials, then ``semcom oracle --t 2``."""
        cli_dir = _fresh_dir(out_dir / "cli")
        t = perf_counter()
        ran_v, rc_v = _guarded(lambda: _quiet_cli([
            "validate-key", "--trials", str(self.trials), "--seed", str(seed), "--out", str(cli_dir)]))
        ran_o, rc_o = _guarded(lambda: _quiet_cli(["oracle", "--t", str(T2), "--out", str(cli_dir)]))
        wall = perf_counter() - t
        correct = ran_v and ran_o and rc_o == 0 and len(expected) == len(_CLI_COUNT_LABELS)
        if correct:
            correct = _guarded(lambda: self._cli_output_matches(cli_dir, rc_v, expected))[1]
        if not correct:
            print("exact: CLI output differs from the library path", file=sys.stderr)
        return JobResult(wall, [wall], 0, 1, int(not correct), None)

    def _cli_output_matches(self, cli_dir: Path, rc_validate: int, expected: Tuple[int, ...]) -> bool:
        # validate-key exits 1 exactly when some pair disagrees
        if rc_validate != (1 if expected[3] else 0):
            return False
        found = {}
        for line in (cli_dir / "validate_key.txt").read_text(encoding="utf-8").splitlines():
            label, _, value = line.partition(": ")
            found[label] = value
        if any(found.get(label) != str(n) for label, n in zip(_CLI_COUNT_LABELS, expected)):
            return False
        return _sha256((cli_dir / "oracle.csv").read_bytes()) == self.oracle_t2_sha256


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="desk",
            config_path=ROOT / "configs" / "desk.yaml",
            seeds_per_job=20,
            default_sha256="bfe513fbb9f7375785997270d4b9a4b9165b168fdcbb5ff2604168ba504cd261",
        ),
        SweepWorkload(
            name="dense",
            config_path=ROOT / "perfbench" / "dense.yaml",
            seeds_per_job=96,
            default_sha256="b9e45fd68d2bcf590b75124b4757f2dd805bdbcd73d2ba72028c0f1124e098be",
        ),
        ExactWorkload(
            name="exact",
            instances_per_job=40,
            hypotheses_per_instance=3,
            trials=1000,
            default_sha256="6923532a226c5f58a66641cfc7fc10c6fd8fb36b1172e155d1c7cbd1de81efd0",
            default_counts=(1000, 151556, 133206, 13187, 0, 5163),
            oracle_t2_sha256="4799fb42619fd51fcdc84d81cc3a66eb9a8bae394b8327ec7743b26ea5c23897",
        ),
    )
}
