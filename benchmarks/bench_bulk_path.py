"""E8: the bulk execution path — batched vs row-at-a-time publish+collect.

Row-at-a-time is the seed implementation: one ``StorageEngine.put`` and one
``PlatformClient.create_task`` / ``get_task_runs`` round-trip per row.
Batched is the bulk path this table of sizes exists to justify: one
``get_many``/``put_many`` against the cache, one ``create_tasks`` call and
one paged ``iter_task_runs_for_project`` stream.  The row mode's
``create_task`` is client sugar over a one-spec ``create_tasks``; the
benchmark asserts (``CountingTransport``) that it still costs one round-trip
per row, so the speedup keeps meaning what it says.  Both modes run the
identical workload (publish 5k tasks, simulate the crowd untimed, collect
5k results) against the SQLite engine — the default durable engine Bob
actually shares — and must end with identical cache contents.  The
acceptance floor is a 3x speedup for publish+collect combined.

Run ``make bench-smoke`` (or ``--bench-scale=smoke``) for a seconds-long
sanity pass at 60 objects; the speedup floor is only asserted at full scale.
"""

from __future__ import annotations

import os

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.core.cache import FaultRecoveryCache
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import CountingTransport
from repro.presenters import ImageLabelPresenter
from repro.simulation import ExperimentRunner
from repro.storage import SqliteEngine
from repro.utils.timing import Stopwatch
from repro.workers.pool import WorkerPool

from record import write_trajectory

pytestmark = pytest.mark.slow

NUM_OBJECTS = 5000
SMOKE_OBJECTS = 60
REDUNDANCY = 3
SPEEDUP_FLOOR = 3.0


def _make_platform(seed: int = 7) -> PlatformClient:
    pool = WorkerPool.from_config(WorkerPoolConfig(size=50, mean_accuracy=0.9, seed=seed))
    return PlatformClient(
        PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed)),
        transport=CountingTransport(),
    )


def _descriptor(task, key: str, task_type: str) -> dict:
    return {
        "task_id": task.task_id,
        "project_id": task.project_id,
        "object_key": key,
        "n_assignments": task.n_assignments,
        "published_at": task.created_at,
        "task_type": task_type,
        "priority": 0.0,
    }


def _result(descriptor: dict, runs: list) -> dict:
    return {
        "object_key": descriptor["object_key"],
        "task_id": descriptor["task_id"],
        "published_at": descriptor["published_at"],
        "complete": len(runs) >= descriptor["n_assignments"],
        "assignments": [run.to_dict() for run in runs],
    }


def run_mode(base_dir: str, mode: str, objects: list) -> dict:
    """Publish and collect *objects* in *mode*; return timings and counters."""
    engine = SqliteEngine(os.path.join(base_dir, f"{mode}.db"))
    client = _make_platform()
    project = client.create_project(f"bulk-bench-{mode}")
    cache = FaultRecoveryCache(engine, f"bulk_bench_{mode}")
    presenter = ImageLabelPresenter()
    keys = [cache.object_key(obj, presenter.task_type) for obj in objects]

    with Stopwatch() as publish:
        if mode == "row":
            for obj, key in zip(objects, keys):
                if cache.get_task(key) is not None:
                    continue
                info = presenter.build_task_info(obj)
                task = client.create_task(project.project_id, info, n_assignments=REDUNDANCY)
                cache.put_task(key, _descriptor(task, key, presenter.task_type))
        else:
            cached = cache.get_tasks(keys)
            pending = [
                (obj, key)
                for obj, key, hit in zip(objects, keys, cached)
                if hit is None
            ]
            specs = [
                {
                    "info": presenter.build_task_info(obj),
                    "n_assignments": REDUNDANCY,
                    "dedup_key": key,
                }
                for obj, key in pending
            ]
            tasks = client.create_tasks(project.project_id, specs)
            cache.put_tasks(
                {
                    key: _descriptor(task, key, presenter.task_type)
                    for (_, key), task in zip(pending, tasks)
                }
            )

    # The crowd answering is identical work in both modes and is not what
    # this benchmark measures — run it outside the timed sections.
    client.simulate_work(project_id=project.project_id)

    with Stopwatch() as collect:
        if mode == "row":
            for key in keys:
                if cache.get_result(key) is not None:
                    continue
                descriptor = cache.get_task(key)
                runs = client.get_task_runs(descriptor["task_id"])
                cache.put_result(key, _result(descriptor, runs))
        else:
            cached = cache.get_results(keys)
            missing = [key for key, hit in zip(keys, cached) if hit is None]
            descriptors = cache.get_tasks(missing)
            runs_by_task = dict(client.iter_task_runs_for_project(project.project_id))
            cache.put_results(
                {
                    key: _result(descriptor, runs_by_task.get(descriptor["task_id"], []))
                    for key, descriptor in zip(missing, descriptors)
                }
            )

    if mode == "row":
        # The baseline is only a baseline while it pays one round-trip per row.
        calls = client.transport.calls_by_name
        assert calls["create_tasks"] == calls["get_task_runs"] == len(objects)
    stats = client.statistics()
    summary = {
        "mode": mode,
        "objects": len(objects),
        "publish_seconds": round(publish.elapsed, 3),
        "collect_seconds": round(collect.elapsed, 3),
        "total_seconds": round(publish.elapsed + collect.elapsed, 3),
        "tasks": stats["tasks"],
        "task_runs": stats["task_runs"],
        "cached_tasks": cache.task_count(),
        "cached_results": cache.result_count(),
    }
    engine.close()
    return summary


def run_comparison(base_dir: str, num_objects: int) -> dict:
    """Run both modes on *num_objects* and return their rows plus the speedup."""
    objects = [f"image-{index:05d}.png" for index in range(num_objects)]
    row = run_mode(base_dir, "row", objects)
    bulk = run_mode(base_dir, "bulk", objects)
    # Identical workload, identical durable outcome.
    for field in ("tasks", "task_runs", "cached_tasks", "cached_results"):
        assert row[field] == bulk[field], f"{field}: {row[field]} != {bulk[field]}"
    assert row["cached_tasks"] == num_objects
    assert row["cached_results"] == num_objects
    speedup = row["total_seconds"] / max(bulk["total_seconds"], 1e-9)
    return {"row": row, "bulk": bulk, "speedup": round(speedup, 2)}


def test_bulk_path_speedup(record_table, tmp_path, bench_scale):
    smoke = bench_scale == "smoke"
    num_objects = SMOKE_OBJECTS if smoke else NUM_OBJECTS
    comparison = run_comparison(str(tmp_path), num_objects)

    runner = ExperimentRunner(
        f"E8 — bulk vs row-at-a-time publish+collect "
        f"({num_objects} objects, sqlite, speedup {comparison['speedup']}x)"
    )
    sweep = runner.run([{}], lambda point: {})
    sweep.rows = [comparison["row"], comparison["bulk"]]
    record_table(
        "E8_bulk_path",
        sweep.to_table(
            columns=["mode", "objects", "publish_seconds", "collect_seconds", "total_seconds"]
        ),
    )
    if not smoke:
        assert comparison["speedup"] >= SPEEDUP_FLOOR, (
            f"batched path must be at least {SPEEDUP_FLOOR}x faster, "
            f"got {comparison['speedup']}x"
        )
        # The trajectory file is a committed artifact tracking full-scale
        # numbers across PRs; a toy-scale smoke pass must not clobber it.
        write_trajectory(
            "E8",
            {
                "scale": bench_scale,
                "rows": [comparison["row"], comparison["bulk"]],
                "speedup": comparison["speedup"],
            },
        )
