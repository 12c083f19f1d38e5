"""Compare two checkouts on benchmark workloads, in alternating pairs.

Usage: python tools/benchpairs.py BASE NEW [--workload NAME ...] [--pairs K]
           [--seconds S] [--seed SEED] [--json PATH]

Runs ``bench/run.py`` untraced from the root of each checkout, K times
each per workload, S seconds a run: by default the ``run_seconds`` of
NEW's ``BENCHMARK.json``, or 8 without one.  ``--workload`` takes one
or more names and may be repeated; without it, mc-certify runs.
Pair i runs both checkouts with seed SEED + i, BASE first when i is
even and NEW first when it is odd, so that a drift of the machine's
speed over the session falls on both alike.  A run's result is the last
line of its standard output, one JSON object.

Prints, per workload, one line per metric: BASE's median with its
quartiles, NEW's median with its quartiles, the change of the medians in
percent and, for a metric whose direction ``BENCHMARK.json`` (NEW's
copy) gives, the pairs in which NEW did better.  A metric whose median
moved the wrong way by more than its ``bound``, a fraction of BASE's
median, is marked ``WORSE BEYOND BOUND``.  One whose BASE quartiles lie
further apart than that bound, so that a change of the bound's size
hides in BASE's own spread, is marked ``UNRESOLVED``, unless every NEW
run did better than every BASE run.  Then each side's failed
operations, and whether every run was correct.  ``--json PATH`` writes
the same, with both checkouts' git commits, the machine (cores, Python,
numpy), the seeds, the pair count and the seconds per run.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``: its JSON result."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit(checkout: str) -> dict:
    """The git commit a checkout is at, and whether its tracked files
    differ from it; None for each outside a git work tree."""
    def git(*args):
        done = subprocess.run(
            ["git", "-C", checkout, *args], capture_output=True, text=True, check=False
        )
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if head else None
    return {"commit": head, "dirty": None if status is None else bool(status)}


def machine() -> dict:
    """Cores, Python and numpy of the interpreter that runs both sides."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


# Seconds per run when NEW has no BENCHMARK.json to give its own.
DEFAULT_SECONDS = 8.0


def read_spec(benchmark: Path) -> dict:
    """A BENCHMARK.json's contents; empty when the file is missing."""
    return json.loads(benchmark.read_text()) if benchmark.is_file() else {}


def directions(spec: dict) -> dict[str, str]:
    """End-to-end metric name -> "higher" or "lower"."""
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def bounds(spec: dict) -> dict[str, float]:
    """End-to-end metric name -> the fraction of BASE's median by which
    it may get worse."""
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def aggregate(
    base: list[dict],
    new: list[dict],
    better: dict[str, str],
    bound: dict[str, float] | None = None,
) -> list[dict]:
    """One row per metric found in every run, in the first run's order:
    the quartiles of ``base`` and of ``new``, the change of the
    medians in percent (None when BASE's is 0), ``wins``, the pairs in
    which NEW did better (None without a direction), ``worse``,
    whether NEW's median is worse than BASE's by more than ``bound``
    times BASE's, and ``unresolved``, whether BASE's interquartile
    distance exceeds that margin while some NEW run does no better than
    some BASE run (both None without a direction and a bound).  Run i of
    each list make pair i."""
    bound = bound or {}
    if len(base) != len(new) or not base:
        raise ValueError("need the same positive number of runs on each side")
    rows = []
    for name, first in base[0]["metrics"].items():
        if not all(name in r["metrics"] for r in base + new):
            continue
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        q1, b_med, q3 = quartiles(b)
        n_q1, n_med, n_q3 = quartiles(n)
        wins = worse = unresolved = None
        if better.get(name) in ("higher", "lower"):
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
            if name in bound:
                margin = bound[name] * abs(b_med)
                worse = sign * (b_med - n_med) > margin
                apart = min(sign * y for y in n) > max(sign * x for x in b)
                unresolved = q3 - q1 > margin and not apart
        rows.append({
            "metric": name,
            "unit": first.get("unit", ""),
            "base_q1": q1,
            "base_median": b_med,
            "base_q3": q3,
            "new_q1": n_q1,
            "new_median": n_med,
            "new_q3": n_q3,
            "change_pct": 100.0 * (n_med - b_med) / b_med if b_med else None,
            "wins": wins,
            "worse": worse,
            "unresolved": unresolved,
            "pairs": len(b),
        })
    return rows


def format_row(row: dict) -> str:
    change = "" if row["change_pct"] is None else f"{row['change_pct']:+7.2f}%"
    wins = "" if row["wins"] is None else f"  NEW better in {row['wins']}/{row['pairs']}"
    worse = "  WORSE BEYOND BOUND" if row["worse"] else ""
    unresolved = "  UNRESOLVED" if row["unresolved"] else ""
    return (
        f"{row['metric']:36s} base {row['base_median']:.6g} "
        f"[{row['base_q1']:.6g}, {row['base_q3']:.6g}] new {row['new_median']:.6g} "
        f"[{row['new_q1']:.6g}, {row['new_q3']:.6g}] "
        f"{row['unit']} {change}{wins}{worse}{unresolved}"
    )


def compare(args, spec: dict, seconds: float, workload: str, runner) -> dict:
    """K alternating pairs on one workload, printed as they are
    summarized: its metric rows, the metrics worse beyond their bound,
    and each side's failed operations and correctness."""
    # One list per side, so that BASE and NEW may be one checkout.
    base: list[dict] = []
    new: list[dict] = []
    sides = ((args.base, base), (args.new, new))
    for i in range(args.pairs):
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(runner(checkout, workload, args.seed + i, seconds))
    rows = aggregate(base, new, directions(spec), bounds(spec))
    print(f"workload {workload}: {args.pairs} pairs of {seconds:g} s runs")
    for row in rows:
        print(format_row(row))
    worse = [row["metric"] for row in rows if row["worse"]]
    print(f"worse beyond bound: {', '.join(worse) or 'none'}")
    summary = {"metrics": rows, "worse_beyond_bound": worse}
    for side, runs in (("base", base), ("new", new)):
        failed = [r["failed"] for r in runs]
        correct = all(r["correct"] for r in runs)
        print(f"{side}: failed operations per run {failed}, every run correct: {correct}")
        summary[side] = {"failed": failed, "correct": correct}
    return summary


def main(argv: list[str], runner=run) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    # "extend" would append to a list default, so None stands for it.
    p.add_argument("--workload", nargs="+", action="extend", default=None)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)
    args.workload = args.workload or ["mc-certify"]
    if args.pairs < 1:
        p.error("--pairs must be positive")
    for checkout in (args.base, args.new):
        if not (Path(checkout) / "bench" / "run.py").is_file():
            print(f"benchpairs: no bench/run.py under {checkout}", file=sys.stderr)
            return 2
    spec = read_spec(Path(args.new) / "BENCHMARK.json")
    seconds = args.seconds
    if seconds is None:
        seconds = spec.get("run_seconds", DEFAULT_SECONDS)
    workloads = {w: compare(args, spec, seconds, w, runner) for w in args.workload}
    if args.json is not None:
        record = {
            "base": commit(args.base),
            "new": commit(args.new),
            "machine": machine(),
            "seeds": [args.seed + i for i in range(args.pairs)],
            "pairs": args.pairs,
            "seconds_per_run": seconds,
            "workloads": workloads,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
