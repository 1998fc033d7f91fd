"""E12: pipelined async transport — publish+collect under injected latency.

Every call between client and server pays a wire round-trip in a real
deployment.  The serial client serialises those round-trips: publish is one
``create_tasks`` call, but collection walks ``ceil(tasks / page_size)``
cursor-chained pages, one blocking call each — throughput is gated by
transport latency, not storage.  The pipelined client keeps
``max_in_flight`` calls on the wire: publish splits into in-flight
sub-batches whose latencies overlap the server's storage work, and
collection pumps offset-addressed slices concurrently instead of chaining
cursors.

This benchmark injects a fixed per-call latency
(:class:`~repro.platform.transport.LatencyInjectingTransport`) under both
clients and runs the same experiment — publish 10k tasks, simulate the
crowd, collect every answer — asserting identical contents and, at full
scale, **>= 2x publish+collect throughput** for the pipelined client (~3x
measured, all of it in collection: 40 serial pages vs 5 waves of slices;
publish is one linear call either way).

Run ``pytest benchmarks/bench_pipelined_transport.py -q --bench-scale=smoke``
for a seconds-long sanity pass at toy scale.
"""

from __future__ import annotations

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import LatencyInjectingTransport
from repro.simulation import ExperimentRunner
from repro.utils.timing import Stopwatch
from repro.workers.pool import WorkerPool

from record import write_trajectory

pytestmark = pytest.mark.slow

NUM_TASKS = 10_000
SMOKE_TASKS = 300
PAGE_SIZE = 250
SMOKE_PAGE_SIZE = 25
LATENCY_SECONDS = 0.005
REDUNDANCY = 1
MAX_IN_FLIGHT = 8
MIN_SPEEDUP = 2.0


def build_client(mode: str, latency: float) -> PlatformClient:
    """One client of the requested *mode* over a latency-injected transport."""
    pool = WorkerPool.from_config(WorkerPoolConfig(size=50, mean_accuracy=0.9, seed=7))
    server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=7))
    transport = LatencyInjectingTransport(latency_seconds=latency)
    if mode == "pipelined":
        return PipelinedClient(
            server,
            transport=transport,
            max_in_flight=MAX_IN_FLIGHT,
            batch_size=PAGE_SIZE * 4,
        )
    return PlatformClient(server, transport=transport)


def run_mode(mode: str, num_tasks: int, page_size: int, latency: float) -> dict:
    """Publish, simulate and collect *num_tasks* tasks with one client mode."""
    client = build_client(mode, latency)
    project = client.create_project("pipeline-bench")
    specs = [
        {
            "info": {"url": f"img-{i:05d}", "_true_answer": "Yes"},
            "n_assignments": REDUNDANCY,
            "dedup_key": f"obj-{i:05d}",
        }
        for i in range(num_tasks)
    ]

    with Stopwatch() as publish:
        tasks = client.create_tasks(project.project_id, specs)
    created = client.simulate_work(project_id=project.project_id)
    with Stopwatch() as collect:
        collected = [
            (task_id, len(runs))
            for task_id, runs in client.iter_task_runs_for_project(
                project.project_id, page_size
            )
        ]

    assert len(tasks) == num_tasks
    assert created == num_tasks * REDUNDANCY
    assert len(collected) == num_tasks
    assert all(count == REDUNDANCY for _, count in collected)
    total = publish.elapsed + collect.elapsed
    client.close()
    return {
        "mode": mode,
        "tasks": num_tasks,
        "latency_ms": latency * 1000,
        "publish_seconds": round(publish.elapsed, 3),
        "collect_seconds": round(collect.elapsed, 3),
        "publish_collect_seconds": round(total, 3),
        "ktasks_per_s": round(num_tasks / max(total, 1e-9) / 1000, 2),
        "_total": total,
        "_collected": collected,
    }


def test_pipelined_vs_serial_throughput(record_table, bench_scale):
    smoke = bench_scale == "smoke"
    num_tasks = SMOKE_TASKS if smoke else NUM_TASKS
    page_size = SMOKE_PAGE_SIZE if smoke else PAGE_SIZE

    serial = run_mode("serial", num_tasks, page_size, LATENCY_SECONDS)
    pipelined = run_mode("pipelined", num_tasks, page_size, LATENCY_SECONDS)

    # Identical work before any speed claim: same tasks, same answer counts.
    assert serial.pop("_collected") == pipelined.pop("_collected")
    speedup = serial.pop("_total") / max(pipelined.pop("_total"), 1e-9)
    for row in (serial, pipelined):
        row["speedup_vs_serial"] = round(
            serial["publish_collect_seconds"]
            / max(row["publish_collect_seconds"], 1e-9),
            2,
        )

    runner = ExperimentRunner(
        f"E12 — pipelined vs serial transport ({num_tasks} tasks, "
        f"{LATENCY_SECONDS * 1000:.0f}ms/call latency, page_size {page_size}, "
        f"max_in_flight {MAX_IN_FLIGHT})"
    )
    sweep = runner.run([{}], lambda point: {})
    sweep.rows = [serial, pipelined]
    record_table(
        "E12_pipelined_transport",
        sweep.to_table(
            columns=[
                "mode",
                "tasks",
                "latency_ms",
                "publish_seconds",
                "collect_seconds",
                "publish_collect_seconds",
                "ktasks_per_s",
                "speedup_vs_serial",
            ]
        ),
    )
    if not smoke:
        assert speedup >= MIN_SPEEDUP, (
            f"pipelined transport is only {speedup:.2f}x over serial "
            f"(required >= {MIN_SPEEDUP}x)"
        )
        # The trajectory file is a committed artifact tracking full-scale
        # numbers across PRs; a toy-scale smoke pass must not clobber it.
        write_trajectory(
            "E12",
            {
                "scale": bench_scale,
                "rows": [serial, pipelined],
                "speedup": round(speedup, 2),
            },
        )
