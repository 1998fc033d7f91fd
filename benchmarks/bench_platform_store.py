"""E10: platform task-store backends — publish/simulate/collect throughput.

The platform server's state now lives behind a pluggable
:class:`~repro.platform.store.TaskStore`.  This benchmark runs the same
10k-task experiment — one ``create_tasks`` publish, one ``simulate_work``
pass, one streaming collection — against four backends:

* ``memory`` — the in-process dict store (the seed behaviour, the ceiling);
* ``durable-memory`` — the durable mapping measured without disk, isolating
  the serialisation + namespacing overhead;
* ``durable-sqlite`` — platform state in one SQLite file (restartable);
* ``durable-sharded`` — platform state hash-partitioned over 4 SQLite shard
  files with per-shard parallel batch writes.

Contents are asserted identical across backends (same task count, same
per-task answer count), so the rows compare equal work.  What the table
makes measurable is the price of a restartable platform: publish stays
batched (O(1) engine round-trips) and ``simulate_work`` pays four engine
writes per 500-task page (one id reservation, its counter hint, one bulk
run append, one bulk completion stamp) — one barrier per page on sqlite,
where the wave's write group makes them one transaction, four on the
sharded engine, whose every batch is durable on return.

Run ``pytest benchmarks/bench_platform_store.py -q --bench-scale=smoke`` for
a seconds-long sanity pass at toy scale.
"""

from __future__ import annotations

import os

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore, MemoryTaskStore
from repro.simulation import ExperimentRunner
from repro.storage import MemoryEngine, ShardedEngine, SqliteEngine
from repro.utils.timing import Stopwatch
from repro.workers.pool import WorkerPool

from record import write_trajectory

pytestmark = pytest.mark.slow

NUM_TASKS = 10_000
SMOKE_TASKS = 200
PAGE_SIZE = 500
REDUNDANCY = 1
BACKENDS = ("memory", "durable-memory", "durable-sqlite", "durable-sharded")


def build_store(backend: str, base_dir: str):
    """Build one task-store backend (owning its engine when durable)."""
    if backend == "memory":
        return MemoryTaskStore()
    if backend == "durable-memory":
        return DurableTaskStore(MemoryEngine(), owns_engine=True)
    if backend == "durable-sqlite":
        return DurableTaskStore(
            SqliteEngine(os.path.join(base_dir, "platform.db")), owns_engine=True
        )
    if backend == "durable-sharded":
        shards = [
            SqliteEngine(os.path.join(base_dir, f"platform-shard-{index:02d}.db"))
            for index in range(4)
        ]
        return DurableTaskStore(
            ShardedEngine(shards, shard_workers=4), owns_engine=True
        )
    raise ValueError(f"unknown backend {backend!r}")


def run_backend(backend: str, base_dir: str, num_tasks: int, page_size: int) -> dict:
    """Publish, simulate and collect *num_tasks* tasks on one backend."""
    pool = WorkerPool.from_config(WorkerPoolConfig(size=50, mean_accuracy=0.9, seed=7))
    server = PlatformServer(
        worker_pool=pool,
        config=PlatformConfig(seed=7),
        store=build_store(backend, base_dir),
    )
    client = PlatformClient(server)
    project = client.create_project("store-bench")
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
    with Stopwatch() as simulate:
        created = client.simulate_work(project_id=project.project_id)
    with Stopwatch() as collect:
        collected_runs = sum(
            len(runs)
            for _, runs in client.iter_task_runs_for_project(
                project.project_id, page_size
            )
        )

    assert len(tasks) == num_tasks
    assert created == num_tasks * REDUNDANCY
    assert collected_runs == num_tasks * REDUNDANCY
    row = {
        "backend": backend,
        "tasks": num_tasks,
        "publish_seconds": round(publish.elapsed, 3),
        "publish_ktasks_per_s": round(num_tasks / max(publish.elapsed, 1e-9) / 1000, 1),
        "simulate_seconds": round(simulate.elapsed, 3),
        "simulate_ktasks_per_s": round(num_tasks / max(simulate.elapsed, 1e-9) / 1000, 1),
        "collect_seconds": round(collect.elapsed, 3),
        "collect_ktasks_per_s": round(num_tasks / max(collect.elapsed, 1e-9) / 1000, 1),
    }
    server.close()
    return row


def test_platform_store_throughput(record_table, tmp_path, bench_scale):
    smoke = bench_scale == "smoke"
    num_tasks = SMOKE_TASKS if smoke else NUM_TASKS
    page_size = 50 if smoke else PAGE_SIZE
    rows = [
        run_backend(backend, str(tmp_path / backend), num_tasks, page_size)
        for backend in BACKENDS
    ]

    runner = ExperimentRunner(
        f"E10 — platform task-store backends ({num_tasks} tasks, redundancy "
        f"{REDUNDANCY}, page_size {page_size})"
    )
    sweep = runner.run([{}], lambda point: {})
    sweep.rows = rows
    record_table(
        "E10_platform_store",
        sweep.to_table(
            columns=[
                "backend",
                "tasks",
                "publish_seconds",
                "publish_ktasks_per_s",
                "simulate_seconds",
                "simulate_ktasks_per_s",
                "collect_seconds",
                "collect_ktasks_per_s",
            ]
        ),
    )
    if not smoke:
        # The trajectory file is a committed artifact tracking full-scale
        # numbers across PRs; a toy-scale smoke pass must not clobber it.
        write_trajectory("E10", {"scale": bench_scale, "rows": rows})
