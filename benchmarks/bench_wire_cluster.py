"""E14: wire cluster — aggregate throughput over real sockets and processes.

Every earlier benchmark measured the platform through in-process calls; E14
is the first to pay the real boundary: ``python -m repro.platform.wire``
server processes, ``WireClient`` processes, length-prefixed JSON over TCP,
and one shared durable SQLite store arbitrating ids and dedup keys with
engine-level atomics.

Three questions, three tables:

* **Scaling** — aggregate publish+simulate+collect throughput as 1 → 8
  client processes drive one server (each client owns its own project; the
  work is embarrassingly parallel, so this measures the wire + dispatch +
  store serialisation cost, not contention).
* **Contention** — the same fixed fleet against 1 server vs 2 servers
  sharing one durable store (``--shared``): the CAS id leases and
  first-writer-wins dedup claims cost extra engine round-trips only when a
  race actually happens; the overhead ratio prices them.
* **Shared-dedup race** — every client publishes the *same* dedup keys to
  the *same* project through both servers; the assert (exactly one task
  per key, identical ids everywhere) is PR 6's acceptance criterion at
  benchmark scale.

Unlike the text-table benchmarks before it, E14 also writes
``benchmarks/results/BENCH_E14.json`` — a machine-readable trajectory file
meant to be committed, so future PRs can diff throughput against this one.

Run ``pytest benchmarks/bench_wire_cluster.py -q --bench-scale=smoke`` for a
seconds-long sanity pass at toy scale.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.platform.wire import WireClient, spawn_server

from record import write_trajectory

pytestmark = [pytest.mark.slow, pytest.mark.wire]


SEED = 31
POOL_SIZE = 20
ACCURACY = 0.95
REDUNDANCY = 1

CLIENT_SWEEP = (1, 2, 4, 8)
SMOKE_CLIENT_SWEEP = (1, 2)
TASKS_PER_CLIENT = 120
SMOKE_TASKS_PER_CLIENT = 20
CONTENTION_CLIENTS = 4
SHARED_KEYS = 40
SMOKE_SHARED_KEYS = 12


def make_specs(prefix: str, count: int) -> list[dict]:
    return [
        {
            "info": {"url": f"{prefix}-{i:05d}", "_true_answer": "Yes"},
            "n_assignments": REDUNDANCY,
            "dedup_key": f"{prefix}-{i:05d}",
        }
        for i in range(count)
    ]


def _own_project_worker(index: int, addresses, tasks: int, queue) -> None:
    """One client process: full workflow against its own project."""
    host, port = addresses[index % len(addresses)]
    client = WireClient(host, port, max_retries=8, retry_backoff=0.05)
    try:
        project = client.create_project(f"e14-client-{index}")
        published = client.create_tasks(
            project.project_id, make_specs(f"c{index}", tasks)
        )
        created = client.simulate_work(project_id=project.project_id)
        runs = dict(client.iter_task_runs_for_project(project.project_id))
        assert len(published) == tasks
        assert created == tasks * REDUNDANCY
        assert len(runs) == tasks
        assert all(len(answers) == REDUNDANCY for answers in runs.values())
        queue.put({"index": index})
    except BaseException as exc:  # noqa: BLE001 - surfaced by the parent
        queue.put({"index": index, "error": repr(exc)})
    finally:
        client.close()


def _shared_keys_worker(index: int, addresses, keys: int, queue) -> None:
    """One client process racing the same dedup keys as every other."""
    host, port = addresses[index % len(addresses)]
    client = WireClient(host, port, max_retries=8, retry_backoff=0.05)
    try:
        project = client.create_project("e14-shared")
        published = client.create_tasks(project.project_id, make_specs("shared", keys))
        queue.put(
            {
                "index": index,
                "project_id": project.project_id,
                "task_ids": [task.task_id for task in published],
            }
        )
    except BaseException as exc:  # noqa: BLE001 - surfaced by the parent
        queue.put({"index": index, "error": repr(exc)})
    finally:
        client.close()


def _run_fleet(worker, count: int, addresses, payload: int) -> tuple[float, list[dict]]:
    """Run *count* client processes; return (wall seconds, their results)."""
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    processes = [
        context.Process(target=worker, args=(i, addresses, payload, queue))
        for i in range(count)
    ]
    start = time.perf_counter()
    for process in processes:
        process.start()
    results = [queue.get(timeout=300) for _ in processes]
    for process in processes:
        process.join(timeout=60)
    elapsed = time.perf_counter() - start
    errors = [r for r in results if "error" in r]
    assert not errors, errors
    return elapsed, results


def _spawn_cluster(base_dir: str, servers: int) -> list:
    os.makedirs(base_dir, exist_ok=True)
    db = os.path.join(base_dir, "platform.db")
    return [
        spawn_server(
            db=db,
            seed=SEED,
            pool_size=POOL_SIZE,
            accuracy=ACCURACY,
            shared=servers > 1,
        )
        for _ in range(servers)
    ]


def run_scaling_point(base_dir: str, clients: int, tasks: int, servers: int = 1) -> dict:
    """Aggregate throughput of *clients* processes against *servers* servers."""
    handles = _spawn_cluster(base_dir, servers)
    try:
        addresses = [(handle.host, handle.port) for handle in handles]
        elapsed, _ = _run_fleet(_own_project_worker, clients, addresses, tasks)
    finally:
        for handle in handles:
            handle.stop()
    total = clients * tasks
    return {
        "clients": clients,
        "servers": servers,
        "tasks_per_client": tasks,
        "total_tasks": total,
        "seconds": round(elapsed, 3),
        "tasks_per_second": round(total / max(elapsed, 1e-9), 1),
    }


def run_contention_pair(base_dir: str, clients: int, tasks: int) -> dict:
    """The same fleet against 1 server vs 2 servers on one store."""
    one = run_scaling_point(os.path.join(base_dir, "one"), clients, tasks, servers=1)
    two = run_scaling_point(os.path.join(base_dir, "two"), clients, tasks, servers=2)
    return {
        "clients": clients,
        "tasks_per_client": tasks,
        "one_server_seconds": one["seconds"],
        "two_server_seconds": two["seconds"],
        "overhead_ratio": round(two["seconds"] / max(one["seconds"], 1e-9), 2),
    }


def run_shared_dedup_race(base_dir: str, clients: int, keys: int) -> dict:
    """Every client publishes the same keys through a 2-server cluster."""
    handles = _spawn_cluster(base_dir, servers=2)
    try:
        addresses = [(handle.host, handle.port) for handle in handles]
        elapsed, results = _run_fleet(_shared_keys_worker, clients, addresses, keys)
        # Acceptance: one project, one task per key, same ids everywhere.
        assert len({r["project_id"] for r in results}) == 1
        id_lists = {tuple(r["task_ids"]) for r in results}
        assert len(id_lists) == 1, "clients disagree on the winning tasks"
        assert len(set(results[0]["task_ids"])) == keys
        census_client = WireClient(*addresses[0])
        try:
            tasks = census_client.list_tasks(results[0]["project_id"])
            assert len(tasks) == keys, f"duplicates: {len(tasks)} tasks for {keys} keys"
        finally:
            census_client.close()
    finally:
        for handle in handles:
            handle.stop()
    return {
        "clients": clients,
        "shared_keys": keys,
        "seconds": round(elapsed, 3),
        "exactly_once": True,
    }


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    widths = {
        column: max(len(column), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row[column]).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def test_wire_cluster_throughput(tmp_path, bench_scale, record_table):
    smoke = bench_scale == "smoke"
    sweep = SMOKE_CLIENT_SWEEP if smoke else CLIENT_SWEEP
    tasks = SMOKE_TASKS_PER_CLIENT if smoke else TASKS_PER_CLIENT
    keys = SMOKE_SHARED_KEYS if smoke else SHARED_KEYS
    contention_clients = min(CONTENTION_CLIENTS, max(sweep))

    scaling = [
        run_scaling_point(str(tmp_path / f"scale-{clients}"), clients, tasks)
        for clients in sweep
    ]
    contention = run_contention_pair(
        str(tmp_path / "contention"), contention_clients, tasks
    )
    dedup = run_shared_dedup_race(str(tmp_path / "dedup"), contention_clients, keys)

    record_table(
        "e14_wire_cluster",
        "E14: wire cluster aggregate throughput (publish+simulate+collect)\n"
        + format_table(scaling)
        + "\n\n2-server contention overhead on one shared store\n"
        + format_table([contention])
        + "\n\nShared-dedup race across 2 servers\n"
        + format_table([dedup]),
    )
    if not smoke:
        # The trajectory file is a committed artifact tracking full-scale
        # numbers across PRs; a toy-scale smoke pass must not clobber it.
        write_trajectory(
            "E14",
            {
                "scale": bench_scale,
                "scaling": scaling,
                "contention": contention,
                "shared_dedup": dedup,
            }
        )

    # Structural guarantees hold at every scale; wall-clock asserts would
    # only flake on shared CI hardware.
    assert all(row["tasks_per_second"] > 0 for row in scaling)
    assert dedup["exactly_once"]
