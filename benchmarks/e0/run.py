"""E0 — the one canonical end-to-end benchmark, with per-layer attribution.

    python3 benchmarks/e0/run.py --seed 11                      # all seven workloads
    python3 benchmarks/e0/run.py --workload wire_stream --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e0/run.py --scale smoke                  # harness check, seconds
    python3 benchmarks/e0/run.py --compare A.json B.json        # B against A, per bound

Each workload (``workloads.py``) is set up and run cold many times from
one process and one thread; a time is the fastest of those untraced
repetitions in reference seconds (``calibration.py``), any other
end-to-end metric their median.  With ``--trace 1`` three more repetitions
run with a probe around every layer's public object (``probes.py``) and the
fastest yields the per-layer metrics.  Every invocation then reruns the program warm on the
last repetition's artifacts and checks the outputs.  Metric names, units,
directions and bounds live in ``BENCHMARK.json`` at the repository root;
``README.md`` beside this file defines each of them.

With ``--workload`` the last line printed is the result as one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
BASELINE = "BENCH_E0.json"

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("e0: src/repro not found next to benchmarks/ — nothing to measure")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibration  # noqa: E402
import probes as probing  # noqa: E402
from workloads import (  # noqa: E402
    PRICE_PER_ASSIGNMENT,
    WORKLOADS,
    Env,
    Outputs,
    Steps,
    Workload,
)

#: Repetitions every invocation makes, however slow: ten repetitions of a
#: ten-step program pool the hundred steps ``step_p90_ms`` needs.
MIN_REPS = 10
TRACED_REPS = 3
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Times are reported as the fastest repetition, in reference seconds
#: (``calibration.py``); every other metric as the median.  The reference
#: box is a shared host: what it adds to a time is never negative, and it
#: adds it for minutes on end.
FASTEST = frozenset({"setup_s", "run_s", "cpu_s"})
TIME_SUFFIXES = ("_s", "_ms", "_us_per_task")
CONDITIONS = (
    "StorageConfig.synchronous=True (one commit per write, no group commit) on files "
    "under benchmarks/e0/results; PRAGMA synchronous=OFF, so a commit reaches the page "
    "cache and does not wait for the device; client and spawned server pinned to one CPU"
)


def load_contract() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- process facts --------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def _peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS watermark, so each repetition reports
    its own peak instead of the invocation's."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="utf-8") as handle:
            handle.write("5")
    except OSError:
        pass  # not permitted here: peak_rss_mb is then the invocation's peak


def _os_write_bytes() -> int:
    with open("/proc/self/io", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    return 0


def _artifact_bytes(run_dir: str) -> int:
    """Bytes of the durable artifacts (database files) under *run_dir*."""
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(run_dir)
        for name in names
        if ".db" in name
    )


def _filesystem_type(path: str) -> str:
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            _, mount, fstype = line.split()[:3]
            if path.startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def fingerprint(seed: int, scale: str) -> dict[str, Any]:
    """Where and on what these numbers were taken."""
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "filesystem": _filesystem_type(RESULTS),
        "git_sha": sha,
        "seed": seed,
        "scale": scale,
        "sizes": {name: dict(w.sizes[scale]) for name, w in WORKLOADS.items()},
        "conditions": CONDITIONS,
    }


@contextmanager
def steady_conditions() -> Iterator[None]:
    """What every measurement runs under, so that it measures the program
    and not the host (README, *Repeatability*):

    * this process — and the wire server it spawns — stay on one CPU.  The
      client and the server of a closed loop never work at the same time,
      and on the reference VM a wake-up across CPUs costs what the host's
      scheduler makes it cost (the server's start took 0.31 s across CPUs
      and 0.25 s on one, every time);
    * every sqlite connection is opened with ``PRAGMA synchronous=OFF``.
      The program still commits after every write; the commit just does not
      wait for the host's disk, whose flush latency moves six-fold for a
      minute at a time.  The commits stay visible as ``storage.write_calls``.
    """
    allowed = os.sched_getaffinity(0)
    real = sqlite3.connect

    def connect(*args: Any, **kwargs: Any) -> sqlite3.Connection:
        connection = real(*args, **kwargs)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    os.sched_setaffinity(0, {max(allowed)})
    sqlite3.connect = connect
    try:
        yield
    finally:
        sqlite3.connect = real
        os.sched_setaffinity(0, allowed)


# -- one repetition ---------------------------------------------------------------


class Repetition:
    """One set-up plus one cold run of a workload, with everything measured."""

    def __init__(self, workload: Workload, seed: int, scale: str, run_dir: str, traced: bool):
        self.workload = workload
        self.run_dir = run_dir
        self.tracer = probing.Tracer() if traced else None
        probes = probing.Probes(self.tracer) if traced else None
        os.makedirs(run_dir)

        started = time.perf_counter()
        self.inputs = workload.setup(seed, workload.sizes[scale], run_dir, probes)
        self.setup_s = time.perf_counter() - started

        try:
            self._run(probes)
        except BaseException:
            self.close()
            raise

    def _run(self, probes: probing.Probes | None) -> None:
        workload, traced = self.workload, probes is not None
        server = self.inputs.get("server")
        self.server_pid = getattr(getattr(server, "process", None), "pid", None)
        self.steps = Steps(probes)
        env = Env(self.steps, probes)
        gc.collect()
        _reset_peak_rss()
        written = _os_write_bytes()
        server_cpu = self._server_cpu()
        cpu = time.process_time()
        self.steps.start()
        started = time.perf_counter()
        raw = workload.run(self.inputs, env)
        self.run_s = time.perf_counter() - started
        self.cpu_s = time.process_time() - cpu + self._server_cpu() - server_cpu
        self.os_write_bytes = _os_write_bytes() - written
        self.peak_rss_mb = _peak_rss_mb("self") + (
            _peak_rss_mb(self.server_pid) if self.server_pid else 0.0
        )
        self.spans = self.tracer.spans if traced else []
        if traced:
            self.tracer.spans = []  # untimed output reads below are not the program
        self.outputs: Outputs = workload.outputs(self.inputs, raw)
        self.db_bytes = _artifact_bytes(self.run_dir)
        marks = [self.steps.origin, *self.steps.marks]
        self.step_seconds = [b - a for a, b in zip(marks, marks[1:])]

    def _server_cpu(self) -> float:
        return _proc_cpu_seconds(self.server_pid) if self.server_pid else 0.0

    def warm_rerun(self) -> tuple[Outputs, float]:
        """The same program again: same artifacts, fresh context, untraced."""
        steps = Steps()
        steps.start()
        started = time.perf_counter()
        raw = self.workload.run(self.inputs, Env(steps))
        seconds = time.perf_counter() - started
        return self.workload.outputs(self.inputs, raw), seconds

    def close(self) -> None:
        self.workload.teardown(self.inputs)
        shutil.rmtree(self.run_dir, ignore_errors=True)

    # -- end-to-end metrics of this repetition -----------------------------------

    def end_to_end(self) -> dict[str, float]:
        out = self.outputs
        stored = self.db_bytes or len(out.answers.encode("utf-8"))
        return {
            "setup_s": self.setup_s,
            "run_s": self.run_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "db_bytes_per_answer": stored / out.answers_collected,
            "answers_purchased": float(out.purchased),
            "accuracy": out.accuracy,
        }


# -- per-layer metrics of a traced repetition ---------------------------------------


def per_layer(rep: Repetition, untraced_run_s: float, warm: Outputs, warm_s: float) -> dict[str, float]:
    """The layer table of one traced repetition (README.md defines each name)."""
    L, N, S, W, F = probing.LAYER, probing.NAME, probing.SECONDS, probing.WEIGHT, probing.FAILED
    spans, out = rep.spans, rep.outputs
    own = probing.layer_self_seconds(spans)
    tasks = max(1, out.platform_tasks)
    rows = max(1, out.table_rows)

    by_layer: dict[str, list[list[Any]]] = {}
    for span in spans:
        by_layer.setdefault(span[L], []).append(span)

    def of(layer: str, names: Any = None) -> list[list[Any]]:
        found = by_layer.get(layer, [])
        return found if names is None else [span for span in found if span[N] in names]

    def seconds(layer: str, names: Any) -> float:
        return sum(span[S] for span in of(layer, names))

    def weight(layer: str, names: Any) -> int:
        return sum(span[W] for span in of(layer, names))

    storage_reads = frozenset(probing.STORAGE_READS) | {"scan"}
    cache_reads = {f"cache.{name}" for name in probing.CACHE_READS}
    cache_writes = {f"cache.{name}" for name in probing.CACHE_WRITES}
    key_calls = rep.tracer.counts["core.cache.object_key"]
    transport = sorted(span[S] for span in of("platform.transport")) or [0.0]
    wire = own.get("platform.wire", 0.0)
    storage_rows_read = weight("storage", storage_reads)
    cache_rows_read = weight("core", cache_reads)
    metrics = {
        "operators.self_s": own.get("operators", 0.0),
        "operators.blocking_s": seconds("operators", {"block"}),
        "operators.machine_comparisons": out.layer_facts.get("operators.machine_comparisons", 0),
        "operators.rounds": out.layer_facts.get("operators.rounds", 0),
        "operators.crowd_tasks": out.layer_facts.get("operators.crowd_tasks", 0),
        "quality.aggregate_s": seconds("quality", {"aggregate"}),
        "quality.calls": len(of("quality", {"aggregate"})),
        "quality.votes_fed": weight("quality", {"aggregate"}),
        "core.extend_s": seconds("core", {"extend"}),
        "core.publish_task_s": seconds("core", {"publish_task"}),
        "core.get_result_s": seconds("core", {"get_result"}),
        "core.get_result_adaptive_s": seconds("core", {"get_result_adaptive"}),
        "core.self_s": own.get("core", 0.0),
        "core.object_key_calls": key_calls,
        "core.object_key_calls_per_row": key_calls / rows,
        "core.cache_rows_read": cache_rows_read,
        "core.cache_rows_written": weight("core", cache_writes),
        "core.cache_read_amp": cache_rows_read / rows,
        "core.log_records": weight("core", {"log.record", "log.record_many"}),
        "core.rerun_s": warm_s,
        "core.rerun_tasks_published": warm.platform_tasks
        - (out.platform_tasks if rep.workload.platform_persists else 0),
        "platform.client.calls": len(of("platform.client")),
        "platform.client.self_s": own.get("platform.client", 0.0),
        "platform.client.retries": sum(1 for span in of("platform.transport") if span[F]),
        "platform.transport.round_trips": len(transport),
        "platform.transport.round_trips_per_task": len(transport) / tasks,
        "platform.transport.self_s": own.get("platform.transport", 0.0),
        "platform.transport.call_p50_ms": statistics.median(transport) * 1e3,
        "platform.transport.call_p99_ms": transport[int(0.99 * len(transport))] * 1e3,
        "platform.wire.self_s": wire,
        "platform.wire.share_frac": wire / rep.run_s,
        "platform.server.create_tasks_s": seconds("platform.server", {"create_tasks"}),
        "platform.server.simulate_work_s": seconds("platform.server", {"simulate_work"}),
        "platform.server.read_s": seconds("platform.server", probing.SERVER_READS),
        "platform.server.self_s": own.get("platform.server", 0.0),
        "platform.server.create_tasks_us_per_task": seconds("platform.server", {"create_tasks"})
        / tasks
        * 1e6,
        "platform.store.calls": len(of("platform.store")),
        "platform.store.write_calls": len(of("platform.store", probing.STORE_WRITES)),
        "platform.store.calls_per_task": len(of("platform.store")) / tasks,
        "platform.store.self_s": own.get("platform.store", 0.0),
        "storage.calls": len(of("storage")),
        "storage.write_calls": len(of("storage", probing.STORAGE_BARRIERS)),
        "storage.write_calls_per_task": len(of("storage", probing.STORAGE_BARRIERS)) / tasks,
        "storage.rows_written": weight("storage", probing.STORAGE_WRITES),
        "storage.rows_read": storage_rows_read,
        "storage.read_amp": storage_rows_read / rows,
        "storage.busy_s": own.get("storage", 0.0),
        "storage.os_write_bytes": rep.os_write_bytes,
        "storage.db_bytes": rep.db_bytes,
        "workers.answers_given": len(of("workers", {"worker.answer"})),
        "workers.busy_s": own.get("workers", 0.0),
        "workload.generate_s": own.get("workload", 0.0) + rep.inputs.get("generate_s", 0.0),
        "trace.coverage_frac": sum(own.values()) / rep.run_s,
        "trace.overhead_frac": rep.run_s / untraced_run_s - 1.0,
        "trace.spans": len(spans),
    }
    return {name: float(value) for name, value in metrics.items()}


def layer_shares(rep: Repetition) -> dict[str, dict[str, float]]:
    """Self seconds and share of traced wall per layer, largest first."""
    own = probing.layer_self_seconds(rep.spans)
    return {
        layer: {"self_s": seconds, "share": seconds / rep.run_s}
        for layer, seconds in sorted(own.items(), key=lambda item: -item[1])
    }


# -- verification ---------------------------------------------------------------------


def verify(
    workload: Workload, cold: Outputs, warm: Outputs, reps: list[Repetition]
) -> dict[str, bool]:
    """The checks every invocation makes; a False is a failed operation.

    *cold* is the last untraced repetition, *warm* the rerun on its
    artifacts, *reps* all of the invocation's cold repetitions (the traced
    one included, so a probe that changed an answer fails here).
    """
    persists = workload.platform_persists
    published = warm.platform_tasks - (cold.platform_tasks if persists else 0)
    answered = warm.platform_task_runs - (cold.platform_task_runs if persists else 0)
    return {
        "every_object_answered": cold.complete,
        "nothing_published_twice": cold.platform_tasks == cold.to_publish,
        "spend_matches_answers": round(cold.spent / PRICE_PER_ASSIGNMENT) == cold.purchased
        and cold.purchased == cold.platform_task_runs,
        "steps_all_ran": all(len(rep.step_seconds) == rep.outputs.steps_expected for rep in reps),
        "warm_rerun_publishes_nothing": published == 0 and answered == 0,
        "warm_rerun_buys_nothing": warm.purchased == 0 and warm.spent == 0.0,
        "warm_rerun_same_answers": warm.answers == cold.answers,
        "repetitions_same_answers": len({rep.outputs.answers for rep in reps}) == 1,
    }


# -- measuring one workload ------------------------------------------------------------


def measure(
    name: str, seed: int, scale: str, seconds: float, reps: int | None, trace: bool
) -> dict[str, Any]:
    """Run workload *name*: untraced repetitions, the warm rerun on the last
    one's artifacts, then (with *trace*) the traced repetitions."""
    with steady_conditions():
        return _measure(name, seed, scale, seconds, reps, trace)


def _measure(
    name: str, seed: int, scale: str, seconds: float, reps: int | None, trace: bool
) -> dict[str, Any]:
    workload = WORKLOADS[name]
    work = os.path.join(RESULTS, f"run-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    done: list[Repetition] = []
    traced: Repetition | None = None
    raised = 0
    try:
        # Repetitions fill *seconds*: the next one starts only if, going by
        # the slowest so far, it and the warm rerun still end inside them.
        started = time.perf_counter()
        slowest = 0.0
        yardstick: list[float] = []
        while len(done) < (reps or MIN_REPS) or (
            reps is None and time.perf_counter() - started + 2 * slowest < seconds
        ):
            if done:
                done[-1].close()
            run_dir = os.path.join(work, f"rep{len(done) + raised}")
            begun = time.perf_counter()
            yardstick.append(calibration.kernel())
            try:
                done.append(Repetition(workload, seed, scale, run_dir, traced=False))
            except Exception:  # noqa: BLE001 - a program that raises is a failed operation
                traceback.print_exc()
                raised += 1
                if raised >= MIN_REPS:
                    raise
            slowest = max(slowest, time.perf_counter() - begun)
        warm, warm_s = done[-1].warm_rerun()
        done[-1].close()
        cold = list(done)
        if trace:
            # The fastest of a few traced repetitions, for the reason times
            # are the fastest untraced one; all of them are verified.
            for attempt in range(TRACED_REPS if reps is None else 1):
                again = Repetition(
                    workload, seed, scale, os.path.join(work, f"traced{attempt}"), traced=True
                )
                cold.append(again)
                if traced is None or again.run_s < traced.run_s:
                    traced, again = again, traced
                if again is not None:
                    again.close()
        checks = verify(workload, done[-1].outputs, warm, cold)
        attempted = raised + sum(rep.outputs.steps_expected for rep in cold) + len(checks)
        failed = raised + sum(1 for ok in checks.values() if not ok)
        to_reference = calibration.REFERENCE_S / min(yardstick)
        end_to_end = _summarise([rep.end_to_end() for rep in done], to_reference)
        end_to_end.update(_step_metrics(done, to_reference))
        end_to_end["ok_ops_frac"] = _stat([1.0 - failed / attempted])
        result: dict[str, Any] = {
            "why": workload.why,
            "stack": workload.stack,
            "sizes": dict(workload.sizes[scale]),
            "repetitions": len(done),
            "attempted": attempted,
            "failed": failed,
            "checks": checks,
            "answers_digest": hashlib.sha256(done[-1].outputs.answers.encode("utf-8")).hexdigest(),
            "calibration": {
                "reference_s": calibration.REFERENCE_S,
                "to_reference": to_reference,
                **_stat(yardstick, fastest=True),
            },
            "end_to_end": end_to_end,
        }
        if traced is not None:
            layers = per_layer(traced, end_to_end["run_s"]["min"], warm, warm_s)
            result["per_layer"] = {
                name: value * to_reference if name.endswith(TIME_SUFFIXES) else value
                for name, value in layers.items()
            }
            result["layers"] = layer_shares(traced)
            traced.tracer.spans = traced.spans
            traced.tracer.dump(
                os.path.join(RESULTS, f"trace-{name}.json"),
                workload=name,
                seed=seed,
                scale=scale,
                run_s=traced.run_s,
            )
        return result
    finally:
        for repetition in (*done[-1:], traced):
            if repetition is not None:
                repetition.close()  # stops the wire server, also after a failure
        shutil.rmtree(work, ignore_errors=True)


def _step_metrics(reps: list[Repetition], scale: float) -> dict[str, dict[str, float]]:
    """Latency of one requester-visible step, read off the step profile:
    per step position, the fastest over the repetitions.

    ``step_p50_ms`` and ``step_p90_ms`` are percentiles over the positions.
    The highest percentile with ten samples beyond it needs a hundred
    steps, which ``MIN_REPS`` repetitions pool from ten positions; a
    workload with fewer (bob_oneshot's single step) reports its median as
    p90 too.  ``step_growth`` is the mean of the second half of the profile
    over the mean of the first half: with twenty steps a tenth is two
    samples, the halves use them all.
    """
    profile = [min(column) for column in zip(*(rep.step_seconds for rep in reps))]
    ordered = sorted(profile)
    p50 = statistics.median(ordered)
    p90 = ordered[int(0.9 * len(ordered))] if len(ordered) >= 10 else p50
    half = len(profile) // 2
    growth = statistics.fmean(profile[half:]) / statistics.fmean(profile[:half]) if half else 1.0
    return {
        "step_p50_ms": _stat([p50 * 1e3], fastest=True, scale=scale),
        "step_p90_ms": _stat([p90 * 1e3], fastest=True, scale=scale),
        "step_growth": _stat([growth]),
    }


def measure_in_child(name: str, args: argparse.Namespace, trace: bool) -> dict[str, Any]:
    """Measure one workload of the whole set in a process of its own, as the
    driver does: peak RSS and heap state then do not depend on which
    workloads ran before it."""
    out = os.path.join(RESULTS, f"child-{name}-{os.getpid()}.json")
    command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--out", out]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale]
    command += ["--trace", str(int(trace))] + (["--reps", str(args.reps)] if args.reps else [])
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)["workloads"][name]
    finally:
        if os.path.exists(out):
            os.unlink(out)


def _stat(values: list[float], fastest: bool = False, scale: float = 1.0) -> dict[str, float]:
    """The reported value — the fastest times *scale* for a time, else the
    median — with the median, min, max and count, as measured, behind it."""
    return {
        "value": min(values) * scale if fastest else statistics.median(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _summarise(rows: list[dict[str, float]], scale: float) -> dict[str, dict[str, float]]:
    return {name: _stat([row[name] for row in rows], name in FASTEST, scale) for name in rows[0]}


# -- output ---------------------------------------------------------------------------


def print_workload(name: str, result: dict[str, Any], contract: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    print(f"\n== {name} — {result['stack']}")
    print(f"   sizes {result['sizes']}, {result['repetitions']} untraced repetitions")
    kernel = result["calibration"]
    print(
        f"   times: fastest repetition x {kernel['to_reference']:.4f} (calibration kernel "
        f"{kernel['min'] * 1e3:.1f} ms at its fastest, {kernel['reference_s'] * 1e3:.0f} ms on the reference box)"
    )
    for metric in (m["name"] for m in contract["end_to_end"]):
        stat = result["end_to_end"][metric]
        print(
            f"   {metric:<44}{stat['value']:>16.6g} {units[metric]:<6}"
            f" measured {stat['min']:.6g} .. {stat['median']:.6g} .. {stat['max']:.6g}"
        )
    for metric, value in result.get("per_layer", {}).items():
        print(f"   {metric:<44}{value:>16.6g} {units[metric]}")
    if "layers" in result:
        shares = ", ".join(
            f"{layer} {entry['share']:.0%}" for layer, entry in result["layers"].items()
        )
        print(f"   self-time share of traced wall: {shares}")
    bad = [check for check, ok in result["checks"].items() if not ok]
    print(f"   checks: {len(result['checks']) - len(bad)} passed" + (f", FAILED {bad}" if bad else ""))


def driver_line(result: dict[str, Any], contract: dict[str, Any], trace: bool) -> str:
    """The result object the benchmark contract asks for, as one line."""
    if trace:
        values = result["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in contract["per_layer"]}
    else:
        values = result["end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- comparing two result files ----------------------------------------------------------


def compare(path_a: str, path_b: str, contract: dict[str, Any]) -> int:
    """B (the change) against A (the parent): one row per workload and metric.

    An end-to-end metric may be worse in B by its bound.  When both files
    come from one seed and one set of sizes, every count-valued per-layer
    metric and the answers digest must be equal.  Returns the number of
    excesses.
    """
    files = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    a, b = (found["workloads"] for found in files)
    shared = [workload for workload in a if workload in b]
    excesses = 0
    for metric in contract["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.1%})")
        for workload in shared:
            old = a[workload]["end_to_end"][name]["value"]
            new = b[workload]["end_to_end"][name]["value"]
            worse = sign * (new - old) / old
            over = worse > metric["bound"]
            excesses += over
            print(f"   {workload:<16}{old:>14.6g} -> {new:<14.6g}{worse:>+8.1%} worse{'  EXCESS' if over else ''}")
    a_print, b_print = (found["fingerprint"] for found in files)
    if (a_print["seed"], a_print["sizes"]) != (b_print["seed"], b_print["sizes"]):
        print("\nseeds or sizes differ: counts and answers digests not compared")
        return excesses
    exact = ["answers_digest"] + [m["name"] for m in contract["per_layer"] if m["unit"] == "count"]
    print("\ncounts and answers digests (must be equal)")
    for workload in shared:
        old = {"answers_digest": a[workload]["answers_digest"], **a[workload].get("per_layer", {})}
        new = {"answers_digest": b[workload]["answers_digest"], **b[workload].get("per_layer", {})}
        differing = [name for name in exact if name in old and name in new and old[name] != new[name]]
        excesses += len(differing)
        for name in differing:
            print(f"   {workload:<16}{name:<36}{old[name]} -> {new[name]}  EXCESS")
        if not differing:
            print(f"   {workload:<16}equal")
    return excesses


# -- entry point ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help=f"repeat set-up + run, warm rerun included, for this long (at least {MIN_REPS} repetitions)")
    parser.add_argument("--reps", type=int, help="exactly this many untraced repetitions instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: add the traced repetition and the per-layer metrics "
                        "(default 1 for the whole set, 0 with --workload)")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace", help="same as --trace 1")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: toy sizes, one repetition, never the baseline")
    parser.add_argument("--out", help="write the results (with machine fingerprint) to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files against the bounds; exit 1 on any excess")
    args = parser.parse_args(argv)

    if args.compare:
        excesses = compare(*args.compare, contract)
        print(f"\n{excesses} excess(es)")
        return 1 if excesses else 0

    smoke = args.scale == "smoke"
    if smoke and args.out and os.path.basename(args.out) == BASELINE:
        parser.error("a smoke run never writes the baseline")
    trace = bool(args.trace if args.trace is not None else not args.workload)
    reps = args.reps or (1 if smoke else None)
    os.makedirs(RESULTS, exist_ok=True)
    results = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        if args.workload:
            results[name] = measure(name, args.seed, args.scale, args.seconds, reps, trace)
        else:
            results[name] = measure_in_child(name, args, trace)
        print_workload(name, results[name], contract)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "E0",
                    "fingerprint": fingerprint(args.seed, args.scale),
                    "workloads": results,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
        print(f"\nwrote {args.out}")
    failed = sum(result["failed"] for result in results.values())
    if args.workload:
        print(driver_line(results[args.workload], contract, trace))
    return 1 if failed and not args.workload else 0


if __name__ == "__main__":
    sys.exit(main())
