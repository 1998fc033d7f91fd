#!/usr/bin/env python
"""Profile the hot-path benchmarks under cProfile (see ``make profile``).

Runs each selected benchmark module in its own subprocess under
``python -m cProfile``, writes the raw profile to
``benchmarks/results/<tag>_profile.pstats`` (load it later with
:mod:`pstats` or snakeviz-style viewers), and prints the top
``--top`` functions by cumulative time — the quickest way to see where a
storage-layer change actually moved the needle.

By default the benchmarks run at smoke scale so a full profile pass takes
seconds; pass ``--scale full`` for paper-scale profiles (minutes — the
profiler roughly doubles each benchmark's wall clock).

``--e0 <workload>`` is E0's drill-down: it profiles one cold repetition of
one of E0's requester programs (``benchmarks/e0/workloads.py``, imported
read-only) in this process, under the conditions E0 measures in
(``run.steady_conditions()``), at E0's frozen full sizes unless ``--scale
smoke`` is given.  E0's traced run says which *layer* the time is in; this
says which *function*.  Set-up is outside the profile, like it is outside
``run_s``.  Under the table it prints the sqlite ``COMMIT`` count of the
profiled repetition — the durability barriers this process paid, which no
E0 metric reports.

Either way ``--sort tottime`` ranks by a function's own time instead of
cumulative time, and ``--callers <pattern>`` adds who calls the functions
matching the regular expression (``pstats.print_callers``) — together the
two views that size an optimisation: where the time *is*, and who spends it.

Usage:
    PYTHONPATH=src python tools/profile_bench.py [--scale smoke|full]
        [--top 25] [--only E10,E13]
        [--sort cumulative|tottime] [--callers 'store.py.*get_tasks']
    python tools/profile_bench.py --e0 stream_sqlite [--scale smoke] [--seed 11]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import sqlite3
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
E0_DIR = os.path.join(REPO_ROOT, "benchmarks", "e0")

#: tag -> benchmark module profiled under that tag.
BENCHMARKS = {
    "E10": "bench_platform_store.py",
    "E12": "bench_pipelined_transport.py",
    "E13": "bench_ring_rebalance.py",
    "E16": "bench_hot_path.py",
}


def report(pstats_path: str, top: int, sort: str, callers: str | None) -> None:
    """Print the *top* functions of a saved profile by *sort*, then the
    callers of the functions matching *callers* (when given)."""
    stats = pstats.Stats(pstats_path).sort_stats(sort)
    stats.print_stats(top)
    if callers:
        stats.print_callers(callers)


def profile_one(tag: str, filename: str, scale: str, report_args: tuple) -> int:
    """Profile one benchmark module; return the subprocess's exit code."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    pstats_path = os.path.join(RESULTS_DIR, f"{tag}_profile.pstats")
    bench_path = os.path.join("benchmarks", filename)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    print(f"\n=== {tag}: {bench_path} (--bench-scale {scale}) ===", flush=True)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cProfile",
            "-o",
            pstats_path,
            "-m",
            "pytest",
            bench_path,
            "-q",
            f"--bench-scale={scale}",
        ],
        cwd=REPO_ROOT,
        env=env,
    )
    if result.returncode != 0:
        print(f"{tag}: benchmark failed (exit {result.returncode})")
        return result.returncode
    report(pstats_path, *report_args)
    print(f"{tag}: raw profile saved to {os.path.relpath(pstats_path, REPO_ROOT)}")
    return 0


def profile_e0(name: str, scale: str, seed: int, report_args: tuple) -> int:
    """Profile one cold repetition of E0 program *name*; return an exit code."""
    sys.path.insert(0, E0_DIR)
    import run as e0  # puts src/ on sys.path; exits if src/repro is missing
    from workloads import WORKLOADS, Env, Steps

    if name not in WORKLOADS:
        print(f"unknown E0 workload {name!r}; known: {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[name]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    pstats_path = os.path.join(RESULTS_DIR, f"E0_{name}_profile.pstats")
    run_dir = os.path.join(RESULTS_DIR, f"E0_{name}_profile_run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    print(f"\n=== E0: {name} (--scale {scale}, --seed {seed}) ===", flush=True)
    profiler = cProfile.Profile()
    commits: list[str] = []
    with e0.steady_conditions():
        # Every connection this process opens reports its COMMITs (the
        # spawned server of ``wire_stream`` is another process, unseen);
        # leaving steady_conditions() puts the real ``connect`` back.
        conditioned = sqlite3.connect

        def note_commit(statement: str) -> None:
            if statement == "COMMIT":
                commits.append(statement)

        def connect(*args, **kwargs):
            connection = conditioned(*args, **kwargs)
            connection.set_trace_callback(note_commit)
            return connection

        sqlite3.connect = connect
        inputs = workload.setup(seed, workload.sizes[scale], run_dir)
        try:
            steps = Steps()
            steps.start()
            del commits[:]  # set-up's are not the repetition's
            profiler.enable()
            try:
                workload.run(inputs, Env(steps))
            finally:
                profiler.disable()
            run_commits = len(commits)
        finally:
            workload.teardown(inputs)
            shutil.rmtree(run_dir, ignore_errors=True)
    profiler.dump_stats(pstats_path)
    report(pstats_path, *report_args)
    print(f"E0 {name}: sqlite commits in the profiled repetition: {run_commits}")
    print(f"E0 {name}: raw profile saved to {os.path.relpath(pstats_path, REPO_ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default=None,
        help="benchmark scale to profile at (default smoke; full with --e0)",
    )
    parser.add_argument(
        "--e0",
        metavar="WORKLOAD",
        help="profile one cold repetition of this E0 program instead "
        "(e.g. stream_sqlite)",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="workload seed for --e0 (default 11)"
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="how many functions to print (default 25)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
        help="rank functions by cumulative or by own time (default cumulative)",
    )
    parser.add_argument(
        "--callers",
        metavar="PATTERN",
        help="also print the callers of functions matching this regular "
        "expression (pstats print_callers)",
    )
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated benchmark tags to profile (default: all of "
        f"{', '.join(BENCHMARKS)})",
    )
    args = parser.parse_args(argv)
    report_args = (args.top, args.sort, args.callers)
    if args.e0:
        return profile_e0(args.e0, args.scale or "full", args.seed, report_args)
    scale = args.scale or "smoke"

    selected = [tag.strip() for tag in args.only.split(",") if tag.strip()] or list(
        BENCHMARKS
    )
    unknown = [tag for tag in selected if tag not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown benchmark tags {unknown}; known: {list(BENCHMARKS)}")

    status = 0
    for tag in selected:
        status = profile_one(tag, BENCHMARKS[tag], scale, report_args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
