#!/usr/bin/env python
"""Import budget: what each entry point loads, gated against docs/architecture.md.

A new process is the paper's product (a rerun, Ally's run, a CLI call, a
spawned wire server) and its first act is an import.  For each entry point
this tool starts fresh interpreters and prints one table: modules loaded in
total, ``repro.*`` modules, whether numpy arrived, the process's max-RSS and
the best-of-7 whole-process wall time.

The *counts* are gated: the table of the "Import layering and cold start"
section of ``docs/architecture.md`` holds one budget row per entry point
(``| `<statement>` | <total> | <repro.*> | <numpy yes/no> | ...``) and this
tool exits 1 when a measured count exceeds its budget, numpy is loaded where
the row says ``no``, or a row is missing.  Seconds and megabytes are printed
for the reader and never gated — they do not transfer between machines.

Usage:
    python tools/import_budget.py        (``make import-check``, part of ``make check``)
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET_DOC = os.path.join("docs", "architecture.md")

ENTRY_POINTS = (
    "import repro",
    "from repro import CrowdContext",
    "import repro.platform.wire",
    "import repro.cli",
)

#: Appended to the statement under census; json and resource arrive after the
#: module list was taken, so the harness adds ``sys`` and nothing else.
_CENSUS = """
import sys
modules = sorted(sys.modules)
import json, resource
print(json.dumps({"modules": modules,
                  "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

_WALL_RUNS = 7


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def measure(statement: str) -> dict:
    """Census one entry point in a fresh interpreter, then time it ``_WALL_RUNS`` times."""
    census = json.loads(_run(statement + _CENSUS))
    modules = census["modules"]
    walls = []
    for _ in range(_WALL_RUNS):
        started = time.perf_counter()
        _run(statement)
        walls.append(time.perf_counter() - started)
    return {
        "total": len(modules),
        "repro": sum(1 for name in modules if name == "repro" or name.startswith("repro.")),
        "numpy": "numpy" in modules,
        "rss_mb": census["rss_kb"] / 1024.0,
        "wall_ms": min(walls) * 1000.0,
    }


def read_budgets() -> dict[str, tuple[int, int, bool]]:
    """``{statement: (total, repro, numpy allowed)}`` from the budget table."""
    with open(os.path.join(REPO_ROOT, BUDGET_DOC), encoding="utf-8") as handle:
        rows = re.findall(
            r"^\|\s*`([^`|]+)`\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(yes|no)\s*\|",
            handle.read(),
            re.MULTILINE,
        )
    return {
        statement: (int(total), int(ours), numpy == "yes")
        for statement, total, ours, numpy in rows
    }


def main() -> int:
    budgets = read_budgets()
    problems: list[str] = []
    print(
        f"{'entry point':<32} {'modules':>13} {'repro.*':>11} {'numpy':>6} "
        f"{'max-RSS MB':>11} {'wall ms':>8}"
    )
    for statement in ENTRY_POINTS:
        seen = measure(statement)
        budget = budgets.get(statement)
        if budget is None:
            problems.append(f"{BUDGET_DOC}: no budget row for `{statement}`")
            budget = (seen["total"], seen["repro"], True)
        total, ours, numpy_allowed = budget
        print(
            f"{statement:<32} {seen['total']:>5} (<= {total:>3}) {seen['repro']:>4} (<= {ours:>2}) "
            f"{'yes' if seen['numpy'] else 'no':>6} {seen['rss_mb']:>11.1f} {seen['wall_ms']:>8.1f}"
        )
        if seen["total"] > total:
            problems.append(f"`{statement}` loads {seen['total']} modules, budget {total}")
        if seen["repro"] > ours:
            problems.append(f"`{statement}` loads {seen['repro']} repro.* modules, budget {ours}")
        if seen["numpy"] and not numpy_allowed:
            problems.append(f"`{statement}` loads numpy, which its budget row forbids")
    print(f"(counts gated against {BUDGET_DOC}; max-RSS and best-of-{_WALL_RUNS} wall are informational)")
    for problem in problems:
        print(f"import-check: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
