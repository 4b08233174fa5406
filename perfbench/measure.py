"""Timing statistics, set-up timing, memory and result stamps."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float], per_job: Optional[int] = None) -> Optional[Tuple[float, float]]:
    """(percentile, value): the highest percentile with >= 10 tasks beyond it.

    The percentile is fixed by the task count of one job (``per_job``,
    default ``len(samples)``): 100 * (n - 10) / n.  When the samples pool
    several repeats of that job, the value is read at the same
    percentile over the pool (nearest rank), so more repeats sharpen the
    estimate without moving the percentile.  None when one job has fewer
    than 11 tasks.
    """
    n = len(samples) if per_job is None else per_job
    if n <= TAIL_BEYOND or not samples:
        return None
    level = 100.0 * (n - TAIL_BEYOND) / n
    ordered = sorted(samples)
    rank = math.ceil(level / 100.0 * len(ordered) - 1e-9)
    return level, ordered[max(rank, 1) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import semcom.cli
from semcom import config
{load}
sys.stdout.write(repr(time.perf_counter() - t0))
"""


def setup_seconds(root: Path, config_path: Optional[Path], repeats: int) -> List[float]:
    """Times of importing semcom and loading the run config, each in a fresh process."""
    load = "config.load_run_config(%r)" % str(config_path) if config_path else ""
    code = _SETUP_CODE.format(src=str(root / "src"), load=load)
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=str(root), capture_output=True,
            text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout))
    return out


def src_line_count(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the repository rooted exactly at ``root``, else None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(root),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(str(root)):
        return None
    return lines[1]


def stamp(root: Path, workload: str, seed: int, traced: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_lines": src_line_count(root),
    }
