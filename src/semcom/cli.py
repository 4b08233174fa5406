"""Command-line entry point.

Subcommands:
    oracle        dump exact confirmation tables (K, Z, c(e), c(phi|e), F term)
    run           per-seed metrics rows for a run config
    sweep         aggregated metrics CSV per scenario, plus a correlation
                  summary when the config lists three or more scenarios
    validate-key  compare lexicographic key ordering with the exact objective

Output location: --out names a directory, made when its first file is
written; when absent, the SEMCOM_OUT_DIR environment variable is used;
when neither is set, tables go to stdout.  All randomness flows from explicit seeds, so a fixed
config and seed list reproduces output byte for byte regardless of --jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import metrics
from .config import RunConfig, load_run_config
from .errors import SemcomError
from .oracle import closed_form_table
from .validation import DEFAULT_K_MAX, DEFAULT_N_MAX, DEFAULT_T_CHOICES, validate_key_ordering

OUT_DIR_ENV = "SEMCOM_OUT_DIR"

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


def _out_dir(args: argparse.Namespace) -> Optional[str]:
    return args.out or os.environ.get(OUT_DIR_ENV) or None


def _emit(out_dir: Optional[str], filename: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcom",
        description="Goal-oriented semantic communication experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="dump exact confirmation tables")
    p_oracle.add_argument("--t", type=int, default=2, help="predicate slot count")
    p_oracle.add_argument(
        "--k-values", type=_parse_seed_list, default=None,
        help="evidence sizes, comma separated (default: 0..2^T)",
    )
    p_oracle.add_argument(
        "--z-values", type=_parse_seed_list, default=None,
        help="fixed-slot counts, comma separated (default: 1..T)",
    )
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
    p_val.add_argument(
        "--t-values", type=_parse_seed_list, default=DEFAULT_T_CHOICES,
        help="slot counts sampled per trial",
    )
    p_val.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, help="max pool size")
    p_val.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, help="max budget")
    p_val.add_argument("--out", default=None, help="output directory")
    return parser


def cmd_oracle(args: argparse.Namespace) -> int:
    table = closed_form_table(args.t, args.k_values, args.z_values)
    rows = [[row[c] for c in ORACLE_COLUMNS] for row in table]
    _emit(_out_dir(args), "oracle.csv", metrics.csv_text(ORACLE_COLUMNS, rows))
    return 0


def _load(args: argparse.Namespace) -> RunConfig:
    return load_run_config(args.config, seeds_override=args.seeds)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out_dir = _out_dir(args)
    for scenario in cfg.scenarios:
        rows = metrics.sweep(
            scenario, cfg.rule_sets, cfg.architectures, cfg.strategies,
            cfg.ks, cfg.seeds, jobs=args.jobs,
        )
        _emit(out_dir, "%s_per_seed.csv" % scenario.name, metrics.per_seed_csv(rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out_dir = _out_dir(args)
    points = []
    summary: List[str] = []
    for scenario in cfg.scenarios:
        rows = metrics.sweep(
            scenario, cfg.rule_sets, cfg.architectures, cfg.strategies,
            cfg.ks, cfg.seeds, jobs=args.jobs,
        )
        aggregates = metrics.aggregate(rows)
        _emit(out_dir, "%s.csv" % scenario.name, metrics.aggregate_csv(aggregates))
        dips = metrics.monotonicity_violations(rows)
        summary.append("scenario %s: %d rows, %d aggregate cells" % (
            scenario.name, len(rows), len(aggregates)))
        for arch, rule_set, seed, k_lo, k_hi in dips:
            summary.append(
                "  semantic A-DSR dip: %s/%s seed %d between k=%d and k=%d"
                % (arch, rule_set, seed, k_lo, k_hi)
            )
        if 0 in cfg.ks and cfg.advantage_k in cfg.ks:
            try:
                points.append(metrics.advantage_points(rows, cfg.advantage_k))
            except SemcomError as exc:
                summary.append("  no advantage point for %s: %s" % (scenario.name, exc))
    if len(points) >= 3:
        r = metrics.advantage_correlation(points)
        summary.append(
            "advantage correlation (baseline A-DSR vs semantic-minus-random at k=%d, "
            "%d configurations): %.6f" % (cfg.advantage_k, len(points), r)
        )
    text = "\n".join(summary) + "\n"
    _emit(out_dir, "summary.txt", text)
    if out_dir is not None:
        sys.stdout.write(text)  # the summary is echoed even when written to a file
    return 0


def cmd_validate_key(args: argparse.Namespace) -> int:
    report = validate_key_ordering(
        trials=args.trials,
        seed=args.seed,
        T_choices=tuple(args.t_values),
        n_max=args.n_max,
        k_max=args.k_max,
    )
    text = "\n".join(report.summary_lines()) + "\n"
    out_dir = _out_dir(args)
    _emit(out_dir, "validate_key.txt", text)
    if out_dir is not None:
        sys.stdout.write(text)  # the report is echoed even when written to a file
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
