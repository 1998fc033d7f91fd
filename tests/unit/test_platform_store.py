"""Durable platform state: the TaskStore contract and restart recovery.

Four layers of proof:

* store level — :class:`DurableTaskStore` honours the contract on every
  storage engine (counters, page cursors, dedup resolution), and a store
  reopened on the same engine resumes where the dead one stopped;
* server level — the same seeded experiment produces identical task runs on
  the memory store and on a durable store (the stores are one equivalence
  class), and a server reconstructed on the same engine resumes with
  identical ids, dedup behaviour and page cursors — including a restart in
  the middle of ``iter_task_runs_for_project``;
* CrowdData level — publish through the full stack, kill the whole context
  (server included), reopen the same database file, and collection
  completes exactly-once with stable task ids;
* config level — ``PlatformConfig(store=...)`` / ``store_engine`` build the
  right store through ``open_task_store`` and ``ReprowdConfig.durable``.
"""

from __future__ import annotations

import pytest

from repro.config import PlatformConfig, ReprowdConfig, StorageConfig
from repro.core.session import ExperimentSession
from repro.exceptions import ConfigurationError, PlatformError
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import (
    DurableTaskStore,
    MemoryTaskStore,
    open_task_store,
)
from repro.presenters import ImageLabelPresenter
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool

NUM_TASKS = 17
PAGE_SIZE = 5


def build_server(store=None, seed=1, pool_size=10):
    pool = WorkerPool.uniform(size=pool_size, accuracy=0.95, seed=seed)
    return PlatformServer(
        worker_pool=pool, config=PlatformConfig(seed=seed), store=store
    )


def project_runs(server, project_id):
    """Every task run of the project, flattened in task order."""
    runs_by_task = server.get_task_runs_for_project(project_id)
    return [run for runs in runs_by_task.values() for run in runs]


def publish_project(server, num_tasks=NUM_TASKS, redundancy=2):
    project = server.create_project("exp")
    tasks = server.create_tasks(
        project.project_id,
        [
            {
                "info": {"i": i, "_true_answer": "Yes"},
                "n_assignments": redundancy,
                "dedup_key": f"k{i}",
            }
            for i in range(num_tasks)
        ],
    )
    return project, tasks


class TestDurableStoreContract:
    """DurableTaskStore semantics on every engine (via the shared fixture)."""

    def test_counters_are_durable_across_reopen(self, any_engine):
        store = DurableTaskStore(any_engine)
        assert store.allocate_project_id() == 1
        assert store.allocate_task_ids(5) == 1
        assert store.allocate_run_ids(3) == 1
        reopened = DurableTaskStore(any_engine)
        assert reopened.allocate_project_id() == 2
        assert reopened.allocate_task_ids(1) == 6
        assert reopened.allocate_run_ids(1) == 4

    def test_page_cursor_contract(self, any_engine):
        server = build_server(DurableTaskStore(any_engine))
        project, tasks = publish_project(server)
        ids = [task.task_id for task in tasks]
        first = server.list_project_task_ids(project.project_id, PAGE_SIZE)
        assert first == ids[:PAGE_SIZE]
        rest = server.list_project_task_ids(
            project.project_id, NUM_TASKS, start_after=first[-1]
        )
        assert first + rest == ids
        with pytest.raises(PlatformError):
            server.list_project_task_ids(project.project_id, PAGE_SIZE, start_after=999)

    def test_dedup_and_deletion(self, any_engine):
        server = build_server(DurableTaskStore(any_engine))
        project, tasks = publish_project(server, num_tasks=3)
        (replayed,) = server.create_tasks(
            project.project_id, [{"info": {"i": 0}, "dedup_key": "k0"}]
        )
        assert replayed.task_id == tasks[0].task_id
        server.delete_task(tasks[0].task_id)
        (fresh,) = server.create_tasks(
            project.project_id, [{"info": {"i": 0}, "dedup_key": "k0"}]
        )
        assert fresh.task_id != tasks[0].task_id  # deleted task not resurrected

    def test_delete_project_cascades(self, any_engine):
        store = DurableTaskStore(any_engine)
        server = build_server(store)
        project, _ = publish_project(server, num_tasks=4)
        server.simulate_work(project.project_id)
        assert store.counts()["task_runs"] > 0
        server.delete_project(project.project_id)
        assert store.counts() == {"projects": 0, "tasks": 0, "task_runs": 0}


class TestTornPublishHealing:
    """A crash inside a durable publish converges on replay.

    The durable store writes task records (``stage_tasks``), then dedup
    mappings (``claim_dedup_keys``), then index entries (``add_tasks``) —
    one engine batch each; a mapping to a record that is gone is what a
    deleted task leaves behind.  Every window a crash can fall into is
    simulated by hand-writing the corresponding prefix, and the replay of
    the same ``create_tasks`` batch must converge without double-publishing
    or leaving invisible tasks.
    """

    def test_dangling_dedup_mapping_is_overwritten(self, sqlite_engine):
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project = server.create_project("exp")
        # A mapping whose task record does not exist (a deleted task's).
        sqlite_engine.put_many(
            store._dedup_table(project.project_id), [("k0", 424242)]
        )
        (task,) = server.create_tasks(
            project.project_id, [{"info": {"i": 0}, "dedup_key": "k0"}]
        )
        assert task.task_id != 424242  # mapping to a never-written task ignored
        assert [t.task_id for t in server.list_tasks(project.project_id)] == [task.task_id]
        assert server.statistics()["tasks"] == 1
        # The replayed mapping now points at the real task.
        assert store.resolve_dedup_keys(project.project_id, ["k0"]) == {
            "k0": task.task_id
        }

    def test_missing_index_entries_are_healed_on_replay(self, sqlite_engine):
        from repro.platform.models import Task

        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project = server.create_project("exp")
        # Crash window 2: dedup + task records landed, index entries did not.
        task_id = store.allocate_task_ids(1)
        orphan = Task(task_id=task_id, project_id=project.project_id, info={"i": 0})
        sqlite_engine.put_many(store._dedup_table(project.project_id), [("k0", task_id)])
        sqlite_engine.put_many(
            store._tasks_table, [(store._id_key(task_id), orphan.to_dict())]
        )
        assert server.list_tasks(project.project_id) == []  # invisible pre-replay

        (replayed,) = server.create_tasks(
            project.project_id, [{"info": {"i": 0}, "dedup_key": "k0"}]
        )
        assert replayed.task_id == task_id  # no double publish
        assert [t.task_id for t in server.list_tasks(project.project_id)] == [task_id]
        assert server.statistics()["tasks"] == 1
        # Collection sees the healed task through the paged id stream too.
        assert server.list_project_task_ids(project.project_id, 10) == [task_id]

    def test_unindexed_orphan_record_is_invisible(self, sqlite_engine):
        """Crash window for a spec *without* a dedup key: the task record
        landed but its index entry did not.  No replay can recognise it, so
        it must stay invisible — to pages, lists and statistics alike."""
        from repro.platform.models import Task

        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish_project(server, num_tasks=3)
        orphan_id = store.allocate_task_ids(1)
        orphan = Task(task_id=orphan_id, project_id=project.project_id, info={})
        sqlite_engine.put_many(
            store._tasks_table, [(store._id_key(orphan_id), orphan.to_dict())]
        )
        assert server.statistics()["tasks"] == 3
        assert [t.task_id for t in server.list_tasks(project.project_id)] == [
            t.task_id for t in tasks
        ]
        assert server.list_project_task_ids(project.project_id, 10) == [
            t.task_id for t in tasks
        ]

    def test_unknown_cursor_is_translated_but_infra_errors_are_not(self, sqlite_engine):
        from repro.exceptions import TableNotFoundError

        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, _ = publish_project(server, num_tasks=3)
        with pytest.raises(PlatformError):
            store.task_id_page(project.project_id, 2, start_after=999)
        # A missing index table is an infrastructure failure, not a stale
        # cursor: it must propagate untranslated.
        with pytest.raises(TableNotFoundError):
            store.task_id_page(31337, 2, start_after=1)


class TestStoreEquivalence:
    """Memory and durable stores are one behavioural equivalence class."""

    def run_experiment(self, store):
        server = build_server(store, seed=5)
        project, tasks = publish_project(server)
        server.simulate_work(project.project_id)
        runs = [
            (run.run_id, run.task_id, run.worker_id, run.answer, run.assignment_order)
            for run in project_runs(server, project.project_id)
        ]
        stats = server.statistics()
        return (
            [task.task_id for task in tasks],
            runs,
            {key: stats[key] for key in ("projects", "tasks", "task_runs")},
        )

    def test_identical_experiment_on_both_stores(self, sqlite_engine):
        memory = self.run_experiment(MemoryTaskStore())
        durable = self.run_experiment(DurableTaskStore(sqlite_engine))
        assert memory == durable


class TestServerRestart:
    """A server reconstructed on the same engine resumes seamlessly."""

    def test_replay_after_restart_is_idempotent(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        project, tasks = publish_project(server)
        ids = [task.task_id for task in tasks]
        del server

        reopened = build_server(DurableTaskStore(sqlite_engine))
        _, replayed = publish_project(reopened)  # same dedup keys
        assert [task.task_id for task in replayed] == ids
        assert reopened.statistics()["tasks"] == NUM_TASKS
        # Fresh ids continue after the highest pre-restart id.
        (extra,) = reopened.create_tasks(
            project.project_id, [{"info": {"i": "x"}, "n_assignments": 1}]
        )
        assert extra.task_id == max(ids) + 1

    def test_restart_mid_simulation_completes_exactly_once(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        project, _ = publish_project(server, redundancy=2)
        done = server.simulate_work(project.project_id, max_assignments=9)
        assert done == 9
        del server  # the platform dies mid-collection

        reopened = build_server(DurableTaskStore(sqlite_engine))
        topped_up = reopened.simulate_work(project.project_id)
        assert topped_up == NUM_TASKS * 2 - 9
        assert reopened.is_project_complete(project.project_id)
        assert reopened.statistics()["task_runs"] == NUM_TASKS * 2
        # Every run id is distinct across the restart boundary.
        runs = project_runs(reopened, project.project_id)
        assert len({run.run_id for run in runs}) == len(runs)

    def test_timestamps_never_regress_across_restart(self, sqlite_engine):
        """A reopened server fast-forwards its fresh clock past every
        surviving answer, so post-restart work is never stamped earlier."""
        server = build_server(DurableTaskStore(sqlite_engine))
        project, _ = publish_project(server, redundancy=2)
        server.simulate_work(project.project_id, max_assignments=9)
        runs_before = project_runs(server, project.project_id)
        latest = max(run.submitted_at for run in runs_before)
        seen_ids = {run.run_id for run in runs_before}
        del server

        reopened = build_server(DurableTaskStore(sqlite_engine))
        assert reopened.clock.now >= latest
        reopened.simulate_work(project.project_id)
        for run in project_runs(reopened, project.project_id):
            if run.run_id not in seen_ids:
                assert run.submitted_at > latest
        for task in reopened.list_tasks(project.project_id):
            assert task.completed_at is not None
            assert task.completed_at >= task.created_at

    def test_rerun_heals_missing_completion_stamp(self, sqlite_engine):
        """Crash window between append_runs and update_tasks: the answers
        landed but completed_at did not — the rerun must stamp it."""
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish_project(server, num_tasks=3)
        server.simulate_work(project.project_id)
        victim = server.get_task(tasks[0].task_id)
        assert victim.completed_at is not None
        victim.completed_at = None
        store.update_tasks([victim])
        del server

        reopened = build_server(DurableTaskStore(sqlite_engine))
        assert reopened.simulate_work(project.project_id) == 0  # nothing re-collected
        assert reopened.get_task(victim.task_id).completed_at is not None

    def test_restart_mid_stream_resumes_from_cursor(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        project, _ = publish_project(server)
        server.simulate_work(project.project_id)
        expected = {
            task_id: [run.run_id for run in runs]
            for task_id, runs in server.get_task_runs_for_project(
                project.project_id
            ).items()
        }

        collected: dict[int, list[int]] = {}
        cursor = None
        for page_number in range(2):  # two pages, then the server dies
            page = server.get_task_runs_page(
                project.project_id, PAGE_SIZE, start_after=cursor
            )
            collected.update(
                (task_id, [run.run_id for run in runs]) for task_id, runs in page
            )
            cursor = page[-1][0]
        del server

        client = PlatformClient(build_server(DurableTaskStore(sqlite_engine)))
        while True:
            page = client.get_task_runs_page(
                project.project_id, PAGE_SIZE, start_after=cursor
            )
            collected.update(
                (task_id, [run.run_id for run in runs]) for task_id, runs in page
            )
            if len(page) < PAGE_SIZE:
                break
            cursor = page[-1][0]
        assert collected == expected


class TestCrowdDataRestartRecovery:
    """Kill the whole context (server included) mid-experiment; rerun heals.

    Parametrised over the storage backends a durable platform can live on:
    one sqlite file, a sharded directory, or a consistent-hash ring
    directory — including a ring that rebalances between the publish run
    and the collect run, with the platform state riding in the migrated
    engine.
    """

    OBJECTS = [f"img-{i:03d}.png" for i in range(NUM_TASKS)]

    @pytest.fixture(params=["sqlite", "sharded", "ring"])
    def storage_backend(self, request):
        return request.param

    def make_session(self, tmp_path, storage_backend="sqlite") -> ExperimentSession:
        artifact = "exp.db" if storage_backend == "sqlite" else "exp-store"
        return ExperimentSession(
            name="durable-platform",
            db_path=str(tmp_path / artifact),
            durable_platform=True,
            storage_engine=storage_backend,
            context_kwargs={"ground_truth": lambda obj: "Yes"},
        )

    def build_table(self, context):
        data = context.CrowdData(list(self.OBJECTS), "restart_tbl")
        data.collect_page_size = PAGE_SIZE
        data.set_presenter(ImageLabelPresenter())
        return data

    def test_collection_completes_exactly_once_after_server_death(
        self, tmp_path, storage_backend
    ):
        session = self.make_session(tmp_path, storage_backend)

        def publish_only(context):
            data = self.build_table(context)
            data.publish_task(n_assignments=2)
            return (
                context.client.statistics()["tasks"],
                [descriptor["task_id"] for descriptor in data.column("task")],
            )

        # Run 1 dies after publish: closing the context kills the server.
        tasks_published, ids_before = session.run(publish_only)
        assert tasks_published == NUM_TASKS

        if storage_backend == "ring":
            # Grow the ring between the runs: the *platform's* durable state
            # (tasks, runs, counters) migrates along with the cache, and the
            # reopened server must still resume exactly-once.
            from repro.storage import SqliteEngine, open_engine
            from repro.config import StorageConfig

            ring = open_engine(
                StorageConfig(engine="ring", path=session.db_path)
            )
            report = ring.rebalance(
                add={
                    "ring-99": SqliteEngine(
                        str(tmp_path / "exp-store" / "ring-99.db")
                    )
                }
            )
            assert report["keys_moved"] > 0
            ring.close()

        def finish(context):
            data = self.build_table(context)
            data.publish_task(n_assignments=2)
            data.get_result()
            return (
                context.client.statistics(),
                [descriptor["task_id"] for descriptor in data.column("task")],
                data.column("result"),
            )

        # Run 2 reopens the same file: a brand-new PlatformServer on the
        # same engine must serve the cached task ids, publish nothing new,
        # and complete the collection.
        stats, ids_after, results = session.run(finish)
        assert ids_after == ids_before  # stable task ids across the restart
        assert stats["tasks"] == NUM_TASKS  # zero duplicate publishes
        assert stats["task_runs"] == NUM_TASKS * 2
        assert all(result["complete"] for result in results)

        # Run 3 is a pure replay: no new tasks, no new answers.
        stats, ids_again, results = session.run(finish)
        assert ids_again == ids_before
        assert stats["tasks"] == NUM_TASKS
        assert stats["task_runs"] == NUM_TASKS * 2
        assert all(result["complete"] for result in results)

    def test_shared_artifact_carries_the_platform(self, tmp_path, storage_backend):
        session = self.make_session(tmp_path, storage_backend)

        def run_all(context):
            data = self.build_table(context)
            data.publish_task(n_assignments=2)
            data.get_result()
            return context.client.statistics()["task_runs"]

        assert session.run(run_all) == NUM_TASKS * 2
        ally = session.share(str(tmp_path / "ally" / "exp.db"))
        assert ally.durable_platform
        # Ally's rerun replays Bob's platform — nothing is re-collected.
        assert ally.run(run_all) == NUM_TASKS * 2


class TestOpenTaskStore:
    def test_default_is_memory(self):
        assert isinstance(open_task_store(PlatformConfig()), MemoryTaskStore)

    def test_durable_with_shared_engine(self, memory_engine):
        store = open_task_store(
            PlatformConfig(store="durable"), shared_engine=memory_engine
        )
        assert isinstance(store, DurableTaskStore)
        store.close()
        # The store does not own a shared engine: still usable afterwards.
        memory_engine.create_table("still-open")

    def test_durable_with_own_engine(self, tmp_path):
        config = PlatformConfig(
            store="durable",
            store_engine=StorageConfig(engine="sqlite", path=str(tmp_path / "own.db")),
        )
        store = open_task_store(config)
        assert isinstance(store, DurableTaskStore)
        assert store.allocate_task_ids(1) == 1
        store.close()

    def test_durable_without_engine_raises(self):
        with pytest.raises(ConfigurationError):
            open_task_store(PlatformConfig(store="durable"))

    def test_unknown_store_raises(self):
        with pytest.raises(ConfigurationError):
            open_task_store(PlatformConfig(store="quantum"))

    def test_reprowd_config_durable_factory(self, tmp_path):
        config = ReprowdConfig.durable(str(tmp_path / "exp.db"), seed=3)
        assert config.storage.engine == "sqlite"
        assert config.platform.store == "durable"
        assert config.platform.seed == 3

    def test_from_mapping_builds_store_engine(self, tmp_path):
        config = ReprowdConfig.from_mapping(
            {
                "platform": {
                    "store": "durable",
                    "store_engine": {
                        "engine": "sqlite",
                        "path": str(tmp_path / "platform.db"),
                    },
                }
            }
        )
        assert config.platform.store == "durable"
        assert isinstance(config.platform.store_engine, StorageConfig)
        assert config.platform.store_engine.engine == "sqlite"
