#!/usr/bin/env python
"""Benchmark trend gate: fail when a fresh run regresses a committed number.

Every full-scale benchmark writes a machine-readable trajectory to
``benchmarks/results/BENCH_<name>.json`` (see ``benchmarks/record.py``).
The files are committed, so an earlier commit's trajectory is the baseline:
this tool compares each working-tree trajectory against ``git show
<base>:<path>`` and exits non-zero when any tracked metric regressed by more
than ``--tolerance`` (default 20%).  ``--base`` defaults to ``HEAD~1``, the
parent of the commit under review: a full-scale run refreshed and committed
in this change is then compared with what the change started from.  (Not
``HEAD``: smoke runs never write trajectories, so inside ``make check``
every file would be compared with itself.)  A trajectory identical to its
base, or absent from it, is reported as *skipped* — nothing was compared,
which is not a pass.

What counts as a metric is keyed by suffix, recursively over the payload:

* ``*_seconds`` — lower is better (a rise beyond tolerance is a regression);
* ``*_per_s`` / ``*_per_sec`` (including ``_krows_per_s`` etc.) — higher is
  better (a fall beyond tolerance is a regression).

Everything else (counts, ratios, labels) is ignored: ratios and speedups
are already asserted by the benchmarks themselves, and sizes do not drift
with machine load.  Trajectories that exist only in the working tree (a
brand-new benchmark) or only in the base (a renamed one) are skipped with a
note — a baseline appears the first time the file is committed.

Absolute wall-clock shifts smaller than ``--min-delta-seconds`` (default
0.05s) are ignored even when the relative change is large: sub-50ms numbers
are dominated by scheduler noise, not code.

Usage:
    python tools/bench_trend.py [--base HEAD~1] [--tolerance 0.2]
        [--min-delta-seconds 0.05]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

LOWER_IS_BETTER = ("_seconds",)
HIGHER_IS_BETTER = ("_per_s", "_per_sec")


def committed_payload(rel_path: str, base: str) -> dict | None:
    """The trajectory as committed at *base*, or None when absent there."""
    result = subprocess.run(
        ["git", "show", f"{base}:{rel_path}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        return None


def metrics(payload, prefix="") -> dict[str, float]:
    """Flatten every tracked metric in *payload* to dotted-path -> value."""
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                found.update(metrics(value, path))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                lowered = str(key).lower()
                if lowered.endswith(LOWER_IS_BETTER) or lowered.endswith(
                    HIGHER_IS_BETTER
                ):
                    found[path] = float(value)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            found.update(metrics(value, f"{prefix}[{index}]"))
    return found


def compare(
    name: str,
    baseline: dict,
    current: dict,
    tolerance: float,
    min_delta_seconds: float,
) -> list[str]:
    """Return one problem string per metric regressed beyond *tolerance*."""
    problems = []
    base_metrics = metrics(baseline)
    for path, current_value in sorted(metrics(current).items()):
        baseline_value = base_metrics.get(path)
        if baseline_value is None or baseline_value <= 0:
            continue  # new metric, or a zero baseline nothing can regress from
        lowered = path.lower()
        if lowered.endswith(LOWER_IS_BETTER):
            if abs(current_value - baseline_value) < min_delta_seconds:
                continue
            change = current_value / baseline_value - 1.0
            if change > tolerance:
                problems.append(
                    f"{name}: {path} rose {change:+.0%} "
                    f"({baseline_value} -> {current_value})"
                )
        else:
            change = current_value / baseline_value - 1.0
            if change < -tolerance:
                problems.append(
                    f"{name}: {path} fell {change:+.0%} "
                    f"({baseline_value} -> {current_value})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base",
        default="HEAD~1",
        help="git ref whose committed trajectories are the baseline "
        "(default HEAD~1, the parent of the commit under review)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="maximum tolerated relative regression (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--min-delta-seconds",
        type=float,
        default=0.05,
        help="ignore wall-clock shifts smaller than this many seconds",
    )
    args = parser.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(RESULTS_DIR, "BENCH_*.json")))
    if not paths:
        print("bench-trend: no trajectory files under benchmarks/results/")
        return 0

    problems: list[str] = []
    checked = skipped = 0
    for path in paths:
        rel_path = os.path.relpath(path, REPO_ROOT)
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            current = json.load(handle)
        baseline = committed_payload(rel_path, args.base)
        if baseline is None or baseline == current:
            why = "no baseline in" if baseline is None else "unchanged since"
            print(f"bench-trend: {name}: {why} {args.base}, skipped")
            skipped += 1
            continue
        problems.extend(
            compare(name, baseline, current, args.tolerance, args.min_delta_seconds)
        )
        checked += 1

    if problems:
        print(
            f"bench-trend: {len(problems)} regression(s) beyond "
            f"{args.tolerance:.0%} vs {args.base}:"
        )
        for problem in problems:
            print(f"  - {problem}")
        return 1
    if not checked:
        print(
            f"bench-trend: SKIPPED, nothing to compare — all {skipped} trajectory "
            f"file(s) are identical to {args.base} or absent from it"
        )
        return 0
    print(
        f"bench-trend: {checked} trajectory file(s) within {args.tolerance:.0%} "
        f"of {args.base}, {skipped} skipped"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
