"""``simulate_work`` as page-wise waves: cost, idempotence and crash safety.

Each ``_work_page_size`` page of tasks is one wave — one task read, one run
read restricted to unstamped tasks, every missing answer drawn in memory,
then one id reservation, one bulk ``append_runs`` and one bulk
``update_tasks``.  Proofs:

* crash level — a :class:`CrashingEngine` sweep kills the process at *every*
  engine write inside one multi-page ``simulate_work``; the reopened store
  tops up to exactly ``n_assignments`` runs per task, never reuses a run id,
  stamps every complete task and never moves ``latest_timestamp`` back;
* cost level — engine write calls are O(pages), not O(tasks); a second call
  on a fully answered project writes nothing and reads no runs; a batched
  redundancy extension is one engine write whatever its size;
* determinism level — a ``max_assignments`` cut mid-page leaves a prefix
  that a rerun tops up to the same final state as an uninterrupted run.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.config import PlatformConfig
from repro.exceptions import CrashInjected, PlatformError
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.simulation.crash import CrashingEngine, CrashPlan
from repro.storage import MemoryEngine
from repro.storage.testing import build_engine
from repro.workers.pool import WorkerPool

NUM_TASKS = 7
REDUNDANCY = 2
PAGE_SIZE = 3  # 7 tasks -> 3 waves

WRITE_VERBS = ("put", "put_new", "put_many", "delete", "delete_many")
READ_VERBS = ("get", "get_many", "get_record", "scan")


def build_server(store, page_size=PAGE_SIZE, seed=5):
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=10, accuracy=0.95, seed=seed),
        config=PlatformConfig(seed=seed),
        store=store,
    )
    server._work_page_size = page_size
    return server


def publish(server, num_tasks=NUM_TASKS):
    project = server.create_project("exp")
    tasks = server.create_tasks(
        project.project_id,
        [
            {
                "info": {"i": i, "_true_answer": "Yes"},
                "n_assignments": REDUNDANCY,
                "dedup_key": f"k{i}",
            }
            for i in range(num_tasks)
        ],
    )
    return project, tasks


def final_state(server, project):
    """Every task and run of *project* as the dicts the store persists."""
    tasks = server.list_tasks(project.project_id)
    runs_by_task = server.get_task_runs_for_project(project.project_id)
    runs = [run for task_runs in runs_by_task.values() for run in task_runs]
    return (
        [task.to_dict() for task in tasks],
        [run.to_dict() for run in runs],
        server.store.latest_timestamp(),
    )


def count_calls(engine, verbs):
    """Count the calls *engine* receives per ``(verb, table)`` from here on.

    Only calls arriving from outside count: a verb the engine implements on
    top of another (``put_new`` over ``put``) is one call, not two.
    """
    calls: Counter[tuple[str, str]] = Counter()
    depth = [0]
    for verb in verbs:
        original = getattr(engine, verb)

        def counted(table_name, *args, _verb=verb, _original=original, **kwargs):
            if not depth[0]:
                calls[(_verb, table_name)] += 1
            depth[0] += 1
            try:
                return _original(table_name, *args, **kwargs)
            finally:
                depth[0] -= 1

        setattr(engine, verb, counted)
    return calls


class TestWaveCrashSweep:
    @pytest.mark.parametrize("engine_name", ["sqlite", "log"])
    def test_crash_at_every_engine_write_heals_on_rerun(self, engine_name, tmp_path):
        def prepared(label):
            engine = build_engine(engine_name, tmp_path / label)
            project, tasks = publish(build_server(DurableTaskStore(engine)))
            return engine, project, tasks

        # An uninterrupted pass through the counting wrapper sizes the sweep.
        engine, project, tasks = prepared("reference")
        plan = CrashPlan()
        build_server(DurableTaskStore(CrashingEngine(engine, plan))).simulate_work(
            project.project_id
        )
        total_writes = plan.writes_seen
        engine.close()
        waves = math.ceil(NUM_TASKS / PAGE_SIZE)
        assert waves >= 2
        assert total_writes > 3 * waves  # the sweep covers every window of each wave

        for crash_after in range(1, total_writes + 1):
            engine, project, tasks = prepared(f"crash-{crash_after}")
            crashing = CrashingEngine(engine, CrashPlan(crash_after_writes=crash_after))
            with pytest.raises(CrashInjected):
                build_server(DurableTaskStore(crashing)).simulate_work(
                    project.project_id
                )
            engine.close()

            # Reopen from the medium, as a restarted process would.
            engine = build_engine(engine_name, tmp_path / f"crash-{crash_after}")
            store = DurableTaskStore(engine)
            latest_at_crash = store.latest_timestamp()
            survivors = {
                run.run_id: run.submitted_at
                for runs in store.runs_for_tasks([task.task_id for task in tasks])
                for run in runs
            }
            assert all(at <= latest_at_crash for at in survivors.values())

            server = build_server(store)
            created = server.simulate_work(project.project_id)
            assert created == NUM_TASKS * REDUNDANCY - len(survivors), crash_after
            assert server.simulate_work(project.project_id) == 0

            run_ids = []
            for task in server.list_tasks(project.project_id):
                runs = store.runs_for_task(task.task_id)
                assert len(runs) == task.n_assignments, crash_after
                assert task.completed_at == max(run.submitted_at for run in runs)
                run_ids.extend(run.run_id for run in runs)
                for run in runs:
                    if run.run_id not in survivors:
                        assert run.submitted_at >= latest_at_crash, crash_after
            assert len(set(run_ids)) == len(run_ids), crash_after
            assert store.latest_timestamp() >= latest_at_crash
            # The restart left at most an id gap behind the frontier.
            assert store.allocate_run_ids(1) > max(run_ids)
            engine.close()


class TestWaveCost:
    @pytest.mark.parametrize("num_tasks", [4, 25, 60])
    def test_engine_writes_are_per_page_not_per_task(self, num_tasks):
        page_size = 10
        engine = MemoryEngine()
        server = build_server(DurableTaskStore(engine), page_size=page_size)
        project, _ = publish(server, num_tasks)
        writes = count_calls(engine, WRITE_VERBS)
        assert server.simulate_work(project.project_id) == num_tasks * REDUNDANCY
        assert sum(writes.values()) <= 4 * math.ceil(num_tasks / page_size) + 2

    def test_second_call_on_answered_project_is_read_only(self):
        engine = MemoryEngine()
        server = build_server(DurableTaskStore(engine))
        project, _ = publish(server)
        server.simulate_work(project.project_id)
        writes = count_calls(engine, WRITE_VERBS)
        reads = count_calls(engine, READ_VERBS)
        assert server.simulate_work(project.project_id) == 0
        assert sum(writes.values()) == 0
        assert not [table for _, table in reads if table.endswith("::runs")]
        assert reads  # it did look at the tasks

    @pytest.mark.parametrize("batch", [2, 50])
    def test_batched_extension_is_one_engine_write(self, batch):
        engine = MemoryEngine()
        server = build_server(DurableTaskStore(engine))
        project, tasks = publish(server, 50)
        writes = count_calls(engine, WRITE_VERBS)
        server.extend_tasks_redundancy({task.task_id: 1 for task in tasks[:batch]})
        assert sum(writes.values()) == 1
        assert server.pending_assignments(project.project_id) == 50 * REDUNDANCY + batch

    def test_rejected_extension_writes_nothing(self):
        engine = MemoryEngine()
        server = build_server(DurableTaskStore(engine))
        project, tasks = publish(server)
        writes = count_calls(engine, WRITE_VERBS)
        with pytest.raises(PlatformError):
            server.extend_tasks_redundancy({tasks[0].task_id: 1, tasks[1].task_id: 0})
        assert sum(writes.values()) == 0
        assert server.get_task(tasks[0].task_id).n_assignments == REDUNDANCY


class TestWaveDeterminism:
    @pytest.mark.parametrize("cut", [1, 3, 4, 5, 7, 13])
    def test_max_assignments_prefix_tops_up_to_the_uninterrupted_bytes(self, cut):
        reference = build_server(DurableTaskStore(MemoryEngine()))
        project, _ = publish(reference)
        assert reference.simulate_work(project.project_id) == NUM_TASKS * REDUNDANCY

        server = build_server(DurableTaskStore(MemoryEngine()))
        project, tasks = publish(server)
        # PAGE_SIZE * REDUNDANCY == 6 answers per wave: most cuts fall
        # mid-page, several mid-task.
        assert server.simulate_work(project.project_id, max_assignments=cut) == cut
        counts = server.store.run_counts_for_tasks([task.task_id for task in tasks])
        assert sum(counts) == cut
        full, rest = divmod(cut, REDUNDANCY)
        assert counts == [REDUNDANCY] * full + ([rest] if rest else []) + [0] * (
            NUM_TASKS - full - bool(rest)
        )
        assert (
            server.simulate_work(project.project_id) == NUM_TASKS * REDUNDANCY - cut
        )
        assert final_state(server, project) == final_state(reference, project)
