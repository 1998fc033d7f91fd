"""Cross-process wire cluster tests: real sockets, real server processes.

The unit suites prove the wire protocol and the store's multi-writer
atomics in-process; this suite is the acceptance gate of PR 6's tentpole —
``python -m repro.platform.wire`` server *processes* spawned over real TCP:

* a spawned server serves the exact same workflow a direct in-process
  client runs (parity);
* SIGKILL mid-experiment maps to ``PlatformUnavailableError`` and a fresh
  server on the same durable store resumes exactly-once;
* two servers sharing one durable store stay exactly-once while N client
  *processes* publish the same dedup keys concurrently;
* the spawn handshake: the entry point runs ``wire.py`` once, the port file
  is published whole and nothing of it outlives the handshake.

Run just this suite with ``make test-wire`` (marker: ``wire``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import subprocess
import sys
import tempfile

import pytest

from repro.config import PlatformConfig
from repro.exceptions import PlatformUnavailableError
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.wire import WireClient, _python_env, spawn_server
from repro.workers.pool import WorkerPool

pytestmark = pytest.mark.wire

SEED = 23
POOL_SIZE = 12
ACCURACY = 0.95


def make_specs(prefix: str, count: int, n_assignments: int = 1) -> list[dict]:
    return [
        {
            "info": {"url": f"{prefix}-{i}", "_true_answer": "Yes"},
            "n_assignments": n_assignments,
            "dedup_key": f"{prefix}-{i}",
        }
        for i in range(count)
    ]


def run_workflow(client: PlatformClient, project_name: str) -> dict:
    """The canonical publish → simulate → collect workflow, summarised."""
    project = client.create_project(project_name)
    tasks = client.create_tasks(project.project_id, make_specs("obj", 12, 2))
    created = client.simulate_work(project_id=project.project_id)
    runs = dict(client.iter_task_runs_for_project(project.project_id))
    return {
        "project_id": project.project_id,
        "task_ids": [task.task_id for task in tasks],
        "created": created,
        "answers": {
            task_id: sorted((run.worker_id, run.answer) for run in task_runs)
            for task_id, task_runs in runs.items()
        },
    }


class TestSpawnedServer:
    def test_spawned_server_matches_direct_client_exactly(self):
        pool = WorkerPool.uniform(POOL_SIZE, ACCURACY, seed=SEED)
        direct = PlatformClient(
            PlatformServer(worker_pool=pool, config=PlatformConfig(seed=SEED))
        )
        expected = run_workflow(direct, "parity")
        direct.close()

        handle = spawn_server(seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY)
        with handle:
            client = WireClient(handle.host, handle.port)
            try:
                actual = run_workflow(client, "parity")
            finally:
                client.close()
        # Same seeds, same pool, same verbs — the socket must be invisible:
        # identical ids, identical workers, identical answers.
        assert actual == expected

    def test_kill_is_unavailable_then_restart_resumes_exactly_once(self, tmp_path):
        db = str(tmp_path / "cluster.db")
        specs = make_specs("obj", 8)
        handle = spawn_server(db=db, seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY)
        # Seeded jitter: the retry delays (and so the test's wall-clock) are
        # exactly reproducible run to run — this suite must never flake on
        # timing.
        client = WireClient(
            handle.host,
            handle.port,
            max_retries=2,
            retry_backoff=0.01,
            retry_jitter=random.Random(SEED).random,
        )
        project = client.create_project("kill-me")
        first = client.create_tasks(project.project_id, specs)
        handle.kill()
        assert not handle.alive()
        with pytest.raises(PlatformUnavailableError):
            client.list_tasks(project.project_id)
        client.close()

        restarted = spawn_server(
            db=db, seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY
        )
        with restarted:
            client = WireClient(restarted.host, restarted.port)
            try:
                # The replayed publish resolves every dedup key to the task
                # the dead server created: same ids, nothing re-purchased.
                replayed = client.create_tasks(project.project_id, specs)
                assert [t.task_id for t in replayed] == [t.task_id for t in first]
                assert len(client.list_tasks(project.project_id)) == len(specs)
            finally:
                client.close()


class TestSpawnHandshake:
    def test_entry_point_executes_the_module_once(self):
        # An eager package __init__ imported repro.platform.wire before -m ran
        # it again as __main__ (RuntimeWarning, two copies of WireServer).
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.platform.wire", "--help"],
            env=_python_env(),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "--port-file" in done.stdout

    def test_memory_server_leaves_no_temp_directory_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        handle = spawn_server(seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY)
        try:
            # The handshake is over once spawn_server returns: already clean.
            assert os.listdir(tmp_path) == []
            client = WireClient(handle.host, handle.port)
            assert client.create_project("clean").name == "clean"
            client.close()
        finally:
            handle.stop()
        assert os.listdir(tmp_path) == []

    def test_durable_server_leaves_only_its_database_beside_it(self, tmp_path):
        db = str(tmp_path / "cluster.db")
        with spawn_server(db=db, seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY):
            pass
        assert [name for name in os.listdir(tmp_path) if "wire-port" in name] == []

    def test_stale_port_file_is_ignored_and_removed(self, tmp_path):
        port_file = tmp_path / "port.txt"
        port_file.write_text("1\n")  # a dead server's port: must never be dialled
        handle = spawn_server(
            seed=SEED, pool_size=POOL_SIZE, accuracy=ACCURACY, port_file=str(port_file)
        )
        with handle:
            assert handle.port != 1
            client = WireClient(handle.host, handle.port)
            assert client.create_project("fresh").name == "fresh"
            client.close()
        assert os.listdir(tmp_path) == []

    def test_failed_startup_cleans_up_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(PlatformUnavailableError, match="exited during startup"):
            spawn_server(accuracy=7.0)  # rejected by the worker pool
        assert os.listdir(tmp_path) == []

    def test_server_publishes_the_port_file_whole(self, tmp_path):
        # Written beside and renamed into place: whenever the file exists it
        # holds the complete port, and no staging file survives.
        port_file = tmp_path / "port.txt"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.platform.wire", "--port-file", str(port_file)],
            env=_python_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()  # printed after the file is published
            assert os.listdir(tmp_path) == ["port.txt"]
            assert banner.strip().endswith(f":{int(port_file.read_text())}")
        finally:
            process.kill()
            process.wait(timeout=10)
            process.stdout.close()


# -- N-process contention ----------------------------------------------------

CLIENT_PROCESSES = 4
SHARED_TASKS = 15
PRIVATE_TASKS = 10


def _contend(index: int, addresses: list[tuple[str, int]], queue) -> None:
    """One client process: race the shared publish, then publish own keys."""
    host, port = addresses[index % len(addresses)]
    client = WireClient(
        host,
        port,
        max_retries=8,
        retry_backoff=0.05,
        retry_jitter=random.Random(1000 + index).random,
    )
    try:
        project = client.create_project("contended")
        shared = client.create_tasks(
            project.project_id, make_specs("shared", SHARED_TASKS)
        )
        private = client.create_tasks(
            project.project_id, make_specs(f"private-{index}", PRIVATE_TASKS)
        )
        queue.put(
            {
                "index": index,
                "project_id": project.project_id,
                "shared_ids": [task.task_id for task in shared],
                "private_ids": [task.task_id for task in private],
            }
        )
    except BaseException as exc:  # noqa: BLE001 - surfaced by the parent
        queue.put({"index": index, "error": repr(exc)})
    finally:
        client.close()


class TestTwoServerContention:
    def test_n_client_processes_two_servers_exactly_once(self, tmp_path):
        db = str(tmp_path / "contended.db")
        servers = [
            spawn_server(
                db=db,
                seed=SEED,
                pool_size=POOL_SIZE,
                accuracy=ACCURACY,
                shared=True,
            )
            for _ in range(2)
        ]
        try:
            addresses = [(handle.host, handle.port) for handle in servers]
            context = multiprocessing.get_context("fork")
            queue = context.Queue()
            processes = [
                context.Process(target=_contend, args=(i, addresses, queue))
                for i in range(CLIENT_PROCESSES)
            ]
            for process in processes:
                process.start()
            results = [queue.get(timeout=120) for _ in processes]
            for process in processes:
                process.join(timeout=30)
            errors = [r for r in results if "error" in r]
            assert not errors, errors

            # Every process converged on one project...
            project_ids = {r["project_id"] for r in results}
            assert len(project_ids) == 1
            # ...and on the same task per shared dedup key, whichever
            # server it talked to.
            shared_lists = {tuple(r["shared_ids"]) for r in results}
            assert len(shared_lists) == 1
            shared_ids = set(results[0]["shared_ids"])
            assert len(shared_ids) == SHARED_TASKS
            # Private batches are disjoint from each other and from the
            # shared batch — no id is ever handed out twice.
            all_ids = list(shared_ids)
            for r in results:
                all_ids.extend(r["private_ids"])
            assert len(all_ids) == len(set(all_ids))

            # Both servers agree on the final task census.
            expected_total = SHARED_TASKS + CLIENT_PROCESSES * PRIVATE_TASKS
            for host, port in addresses:
                client = WireClient(host, port)
                try:
                    tasks = client.list_tasks(results[0]["project_id"])
                    assert len(tasks) == expected_total
                    assert sorted(t.task_id for t in tasks) == sorted(set(all_ids))
                finally:
                    client.close()
        finally:
            for handle in servers:
                handle.stop()
        assert os.path.exists(db)  # the artifact the cluster shares
