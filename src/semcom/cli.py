"""Command-line entry point.

Subcommands:
    oracle        dump the exact confirmation table of one slot count T:
                  c(e), c(phi|e) and the F term for every K in 0..2**T
                  and Z in 1..T
    run           per-seed metrics rows for a run config
    sweep         aggregated metrics CSV per scenario, plus a correlation
                  summary when the config lists three or more scenarios
    validate-key  compare lexicographic key ordering with the exact objective
                  on random instances of one fixed shape (see validation)

Output location: --out names a directory, made when its first file is
written (run and sweep check first that it can be); without it, tables
go to stdout.  All randomness flows from explicit seeds, so a fixed
config and seed list reproduces output byte for byte regardless of
--jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import metrics
from .config import RunConfig, load_run_config
from .errors import ConfigurationError, SemcomError

ORACLE_COLUMNS = ("T", "K", "Z", "overlap", "c_e", "c_phi_given_e", "F_term")


def _parse_seed_list(text: str) -> List[int]:
    """Comma-separated integers; 'a-b' spans an inclusive range."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo_text, hi_text = part.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError("empty seed range %r" % part)
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in %r" % text)
    return seeds


def _emit(out_dir: Optional[str], filename: str, text: str, echo: bool = False) -> None:
    """Write text to out_dir/filename, or to stdout without --out; echo prints it too."""
    if not out_dir or echo:
        sys.stdout.write(text)
    if out_dir:
        path = os.path.join(out_dir, filename)
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError("cannot write %s: %s" % (path, exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcom",
        description="Goal-oriented semantic communication experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="dump exact confirmation tables")
    p_oracle.add_argument("--t", type=int, default=2, help="predicate slot count")
    p_oracle.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="per-seed metrics rows")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seeds", type=_parse_seed_list, default=None)
    p_run.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    p_sweep = sub.add_parser("sweep", help="aggregated metrics CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--seeds", type=_parse_seed_list, default=None)
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    p_val = sub.add_parser("validate-key", help="key vs exact-objective ordering check")
    p_val.add_argument("--trials", type=int, default=1000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None, help="output directory")
    return parser


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import closed_form_table

    table = closed_form_table(args.t)
    rows = [[row[c] for c in ORACLE_COLUMNS] for row in table]
    _emit(args.out, "oracle.csv", metrics.csv_text(ORACLE_COLUMNS, rows))
    return 0


def _load(args: argparse.Namespace) -> RunConfig:
    """The run config; --out is refused before any task when it cannot be made."""
    cfg = load_run_config(args.config, seeds_override=args.seeds)
    path = args.out and os.path.abspath(args.out)
    while path and not os.path.lexists(path):  # the nearest existing path along --out
        path = os.path.dirname(path)
    if path and not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigurationError(
            "cannot write %s: %s is not a writable directory" % (args.out, path)
        )
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    for scenario in cfg.scenarios:
        rows = metrics.sweep(
            scenario, cfg.rule_sets, cfg.architectures, cfg.strategies,
            cfg.ks, cfg.seeds, jobs=args.jobs,
        )
        _emit(args.out, "%s_per_seed.csv" % scenario.name, metrics.per_seed_csv(rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    points = []
    summary: List[str] = []
    for scenario in cfg.scenarios:
        rows = metrics.sweep(
            scenario, cfg.rule_sets, cfg.architectures, cfg.strategies,
            cfg.ks, cfg.seeds, jobs=args.jobs,
        )
        aggregates = metrics.aggregate(rows)
        _emit(args.out, "%s.csv" % scenario.name, metrics.aggregate_csv(aggregates))
        dips = metrics.monotonicity_violations(rows)
        summary.append("scenario %s: %d rows, %d aggregate cells" % (
            scenario.name, len(rows), len(aggregates)))
        for arch, rule_set, seed, k_lo, k_hi in dips:
            summary.append(
                "  semantic A-DSR dip: %s/%s seed %d between k=%d and k=%d"
                % (arch, rule_set, seed, k_lo, k_hi)
            )
        if 0 in cfg.ks and metrics.ADVANTAGE_K in cfg.ks:
            try:
                points.append(metrics.advantage_points(rows))
            except SemcomError as exc:
                summary.append("  no advantage point for %s: %s" % (scenario.name, exc))
    if len(points) >= 3:
        r = metrics.advantage_correlation(points)
        summary.append(
            "advantage correlation (baseline A-DSR vs semantic-minus-random at k=%d, "
            "%d configurations): %.6f" % (metrics.ADVANTAGE_K, len(points), r)
        )
    _emit(args.out, "summary.txt", "\n".join(summary) + "\n", echo=True)
    return 0


def cmd_validate_key(args: argparse.Namespace) -> int:
    from .validation import validate_key_ordering

    report = validate_key_ordering(args.trials, args.seed)
    _emit(args.out, "validate_key.txt", "\n".join(report.summary_lines()) + "\n", echo=True)
    return 0 if report.disagreements == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "oracle": cmd_oracle,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "validate-key": cmd_validate_key,
    }
    try:
        return handlers[args.command](args)
    except SemcomError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
