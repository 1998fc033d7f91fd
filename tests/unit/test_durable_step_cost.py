"""One more durable platform step costs what its batch costs.

With the platform's state on a storage engine, a publish → simulate →
collect step used to re-read and decode every task of the project and
write each published task record and dedup mapping twice.  Three moves
share one invariant — *the store never reads a task it knows is stamped
and never re-reads or re-writes a record it has just written* — and these
tests count it at the engine boundary, in machine-independent units:

* the open-task frontier: ``simulate_work`` and the completion checks read
  only tasks without a completion stamp, so a 12-batch stream reads each
  task record about once instead of once per later step;
* the write-once publish: a keyed ``create_tasks`` leaves every task
  record and dedup mapping at ``version == 1``;
* the frontier stays right where it could go stale: un-stamps, reopens,
  shared handles, healed index entries, stale-mapping takeovers, deletes;
* one barrier per verb: every platform verb and every CrowdData step's
  local tail is one ``write_group()`` — one sqlite ``COMMIT`` (counted with
  ``set_trace_callback``), however many batches it writes.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro import CrowdContext
from repro.config import PlatformConfig
from repro.exceptions import StorageError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.models import Task
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore, MemoryTaskStore
from repro.presenters import ImageLabelPresenter
from repro.storage import MemoryEngine, SqliteEngine
from repro.workers.pool import WorkerPool

BATCHES = 12
BATCH_SIZE = 10
REDUNDANCY = 3
TASKS_TABLE = "platform::tasks"
WRITE_VERBS = ("put", "put_new", "put_many", "delete", "delete_many")


class CountingEngine:
    """Pass-through engine wrapper counting rows read through ``get_many``
    and read / write calls, per table."""

    def __init__(self, inner):
        self._inner = inner
        self.rows_read = Counter()
        self.read_calls = Counter()
        self.write_calls = Counter()
        for verb in WRITE_VERBS:
            setattr(self, verb, self._counted(verb, self.write_calls))
        for verb in ("get", "get_record", "scan", "scan_keys"):
            setattr(self, verb, self._counted(verb, self.read_calls))

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _counted(self, verb, calls):
        inner = getattr(self._inner, verb)

        def counted(table_name, *args, **kwargs):
            calls[table_name] += 1
            return inner(table_name, *args, **kwargs)

        return counted

    def get_many(self, table_name, keys, *args, **kwargs):
        keys = list(keys)
        self.rows_read[table_name] += len(keys)
        self.read_calls[table_name] += 1
        return self._inner.get_many(table_name, keys, *args, **kwargs)


def build_server(store, seed=5):
    return PlatformServer(
        worker_pool=WorkerPool.uniform(size=10, accuracy=0.95, seed=seed),
        config=PlatformConfig(seed=seed),
        store=store,
    )


def specs(count, start=0, keyed=True):
    return [
        {
            "info": {"i": i, "_true_answer": "Yes"},
            "n_assignments": REDUNDANCY,
            **({"dedup_key": f"k{i}"} if keyed else {}),
        }
        for i in range(start, start + count)
    ]


def publish(server, count=6, name="exp"):
    project = server.create_project(name)
    return project, server.create_tasks(project.project_id, specs(count))


def assert_all_filled(server, project_id):
    tasks = server.list_tasks(project_id)
    assert tasks
    for task in tasks:
        assert task.completed_at is not None
        assert len(server.get_task_runs(task.task_id)) == task.n_assignments
    assert server.store.open_task_ids(project_id) == []
    assert server.is_project_complete(project_id)
    assert server.pending_assignments(project_id) == 0


@pytest.fixture
def sqlite_engine(tmp_path):
    engine = SqliteEngine(str(tmp_path / "platform.db"))
    yield engine
    engine.close()


class CommitCounter:
    """Counts the ``COMMIT`` statements a sqlite engine's connection runs."""

    def __init__(self, engine):
        self.count = 0
        engine._conn.set_trace_callback(self._trace)

    def _trace(self, sql):
        self.count += sql == "COMMIT"

    def take(self):
        """Commits since the last call."""
        taken, self.count = self.count, 0
        return taken


class TestStepCostFollowsTheBatch:
    def test_stream_reads_each_task_record_about_once(self, sqlite_engine):
        """The E0 ``durable_sqlite`` shape: one sqlite file under both the
        requester's cache and the durable task store."""
        engine = CountingEngine(sqlite_engine)
        server = build_server(DurableTaskStore(engine))
        context = CrowdContext(
            engine=engine, client=PlatformClient(server), ground_truth=lambda obj: "Yes"
        )
        data = context.CrowdData([], "stream").set_presenter(ImageLabelPresenter())
        steps = []
        for batch in range(BATCHES):
            before = engine.rows_read[TASKS_TABLE]
            data.extend(
                [f"img-{batch * BATCH_SIZE + i:04d}.png" for i in range(BATCH_SIZE)]
            )
            data.publish_task(n_assignments=REDUNDANCY).get_result()
            steps.append(engine.rows_read[TASKS_TABLE] - before)

        tasks = server.statistics()["tasks"]
        assert tasks == BATCHES * BATCH_SIZE
        assert all(result["complete"] for result in data.column("result"))
        # The parent of this change read (BATCHES + 1) / 2 = 6.5 rows per task.
        assert sum(steps) <= 3 * tasks, steps
        third = BATCHES // 3
        assert sum(steps[:third]) > 0
        assert sum(steps[-third:]) <= 1.5 * sum(steps[:third]), steps

    def test_second_simulate_on_an_answered_project_touches_no_task(self):
        engine = CountingEngine(MemoryEngine())
        server = build_server(DurableTaskStore(engine))
        project, _ = publish(server)
        server.simulate_work(project.project_id)
        engine.rows_read.clear()
        engine.read_calls.clear()
        engine.write_calls.clear()

        assert server.simulate_work(project.project_id) == 0
        assert server.is_project_complete(project.project_id)
        assert server.pending_assignments(project.project_id) == 0
        assert sum(engine.write_calls.values()) == 0
        for table in (TASKS_TABLE, "platform::runs"):
            assert engine.read_calls[table] == 0, table

    def test_keyed_publish_writes_every_record_once(self, sqlite_engine):
        engine = CountingEngine(sqlite_engine)
        store = DurableTaskStore(engine)
        server = build_server(store)
        project = server.create_project("exp")
        engine.write_calls.clear()
        commits = CommitCounter(sqlite_engine)
        tasks = server.create_tasks(project.project_id, specs(100))

        assert commits.take() == 1
        assert sum(engine.write_calls.values()) <= 6, engine.write_calls
        assert len({task.task_id for task in tasks}) == 100
        for table in (TASKS_TABLE, store._dedup_table(project.project_id)):
            records = list(sqlite_engine.scan(table))
            assert len(records) == 100
            assert {record.version for record in records} == {1}, table
        # A replay writes nothing at all and returns the same tasks.
        engine.write_calls.clear()
        replayed = server.create_tasks(project.project_id, specs(100))
        assert [task.task_id for task in replayed] == [task.task_id for task in tasks]
        assert sum(engine.write_calls.values()) == 0
        assert commits.take() == 0

    def test_unkeyed_and_mixed_batches_are_published_whole(self, sqlite_engine):
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project = server.create_project("exp")
        mixed = specs(3) + specs(3, start=3, keyed=False) + specs(1)  # k0 repeats
        tasks = server.create_tasks(project.project_id, mixed)
        ids = [task.task_id for task in tasks]
        assert ids[6] == ids[0] and len(set(ids)) == 6
        assert store.project_task_ids(project.project_id) == sorted(set(ids))
        assert {r.version for r in sqlite_engine.scan(TASKS_TABLE)} == {1}
        server.simulate_work()
        assert_all_filled(server, project.project_id)

    def test_extension_validates_with_one_bulk_task_read(self, sqlite_engine):
        engine = CountingEngine(sqlite_engine)
        server = build_server(DurableTaskStore(engine))
        _, tasks = publish(server, 20)
        engine.read_calls.clear()
        server.extend_tasks_redundancy({task.task_id: 1 for task in tasks})
        assert engine.read_calls[TASKS_TABLE] == 1


def run_stream(cache_engine, client, on_batch=lambda: None):
    """The 12-batch extend → publish → collect program; returns per row
    ``(task id, answers)``."""
    context = CrowdContext(
        engine=cache_engine, client=client, ground_truth=lambda obj: "Yes"
    )
    data = context.CrowdData([], "stream").set_presenter(ImageLabelPresenter())
    on_batch()
    for batch in range(BATCHES):
        data.extend([f"img-{batch * BATCH_SIZE + i:04d}.png" for i in range(BATCH_SIZE)])
        data.publish_task(n_assignments=REDUNDANCY).get_result()
        on_batch()
    assert len(data) == BATCHES * BATCH_SIZE
    return [
        (result["task_id"], [run["answer"] for run in result["assignments"]])
        for result in data.column("result")
    ]


class TestOneBarrierPerVerb:
    def test_platform_verbs_commit_once(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        commits = CommitCounter(sqlite_engine)
        project = server.create_project("exp")
        assert commits.take() == 1
        assert server.create_project("exp").project_id == project.project_id
        assert commits.take() == 0

        tasks = server.create_tasks(project.project_id, specs(20))
        assert commits.take() == 1
        # One wave: reservation + runs + stamps.
        assert server.simulate_work(project.project_id) == 20 * REDUNDANCY
        assert commits.take() == 1
        assert server.simulate_work(project.project_id) == 0
        assert commits.take() == 0

        server.extend_tasks_redundancy({tasks[0].task_id: 1, tasks[1].task_id: 2})
        server.delete_task(tasks[2].task_id)
        assert commits.take() == 2
        server.delete_project(project.project_id)
        assert commits.take() == 1

    def test_every_wave_of_a_paged_simulate_is_its_own_commit(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        server._work_page_size = 4
        project, _ = publish(server, 10)
        commits = CommitCounter(sqlite_engine)
        server.simulate_work(project.project_id)
        assert commits.take() == 3
        assert_all_filled(server, project.project_id)

    def test_stream_pays_at_most_five_commits_a_batch(self, sqlite_engine):
        """The E0 ``durable_sqlite`` shape (the parent paid about 15): extend,
        publish (``create_tasks``; descriptors + log record), collect (the
        simulate wave; results + log record)."""
        server = build_server(DurableTaskStore(sqlite_engine))
        commits = CommitCounter(sqlite_engine)
        steps = []
        run_stream(sqlite_engine, PlatformClient(server), lambda: steps.append(commits.take()))

        del steps[0]  # opening the table
        # The first batch also creates the project and caches its name.
        assert steps[0] <= 7 and max(steps[1:]) <= 5, steps
        third = BATCHES // 3
        assert sum(steps[-third:]) <= sum(steps[:third]), steps

    def test_same_answers_over_pipelined_transport_and_a_shared_handle(
        self, tmp_path, sqlite_engine
    ):
        """Where a group spanning a transport call would deadlock (a
        pipelined worker thread blocking on the engine lock) or time out (a
        second connection waiting for the file's write lock), the stream
        completes — the groups cover only local tails."""
        direct = run_stream(
            sqlite_engine, PlatformClient(build_server(DurableTaskStore(sqlite_engine)))
        )

        outcomes = {}

        def pipelined():
            engine = SqliteEngine(str(tmp_path / "pipelined.db"))
            client = PipelinedClient(
                build_server(DurableTaskStore(engine)), batch_size=4, max_in_flight=3
            )
            outcomes["pipelined"] = run_stream(engine, client)
            client.close()
            engine.close()

        def shared_handle():
            cache = SqliteEngine(str(tmp_path / "shared.db"))
            platform = SqliteEngine(str(tmp_path / "shared.db"))
            server = build_server(DurableTaskStore(platform, shared=True))
            outcomes["shared"] = run_stream(cache, PlatformClient(server))
            platform.close()
            cache.close()

        for program in (pipelined, shared_handle):
            thread = threading.Thread(target=program, daemon=True)
            thread.start()
            thread.join(60)
            assert not thread.is_alive(), f"{program.__name__} stream is stuck"
        assert outcomes == {"pipelined": direct, "shared": direct}


@pytest.mark.parametrize("store_kind", ["memory", "durable"])
class TestFrontierOnBothStores:
    def make_store(self, store_kind):
        return MemoryTaskStore() if store_kind == "memory" else DurableTaskStore(MemoryEngine())

    def test_frontier_follows_stamps_unstamps_and_deletes(self, store_kind):
        server = build_server(self.make_store(store_kind))
        project, tasks = publish(server)
        pid, ids = project.project_id, [task.task_id for task in tasks]
        assert server.store.open_task_ids(pid) == ids
        assert server.pending_assignments(pid) == len(ids) * REDUNDANCY

        server.simulate_work(pid, max_assignments=2 * REDUNDANCY + 1)
        assert server.store.open_task_ids(pid) == ids[2:]
        assert server.pending_assignments(pid) == 4 * REDUNDANCY - 1
        assert not server.is_project_complete(pid)
        server.simulate_work(pid)
        assert_all_filled(server, pid)

        # (a) an un-stamp long after completion re-enters, out of id order.
        server.extend_tasks_redundancy({ids[4]: 2, ids[1]: 1})
        assert server.store.open_task_ids(pid) == [ids[1], ids[4]]
        assert server.pending_assignments(pid) == 3
        # (d) a deleted task leaves the frontier.
        server.delete_task(ids[4])
        assert server.store.open_task_ids(pid) == [ids[1]]
        assert server.simulate_work(pid) == 1
        assert_all_filled(server, pid)

        server.extend_tasks_redundancy({ids[0]: 1})
        server.delete_project(pid)
        again, fresh = publish(server)
        assert server.store.open_task_ids(again.project_id) == [t.task_id for t in fresh]
        assert server.pending_assignments() == len(fresh) * REDUNDANCY

    def test_staged_records_never_enter_the_frontier(self, store_kind):
        store = self.make_store(store_kind)
        server = build_server(store)
        project, tasks = publish(server, 2)
        staged = Task(
            task_id=store.allocate_task_ids(1), project_id=project.project_id, info={}
        )
        store.stage_tasks([staged])
        store.update_tasks([staged])
        assert store.open_task_ids(project.project_id) == [t.task_id for t in tasks]


class TestFrontierSurvivesWhatCanStaleIt:
    def test_unstamped_task_is_topped_up_across_a_reopen(self, sqlite_engine):
        server = build_server(DurableTaskStore(sqlite_engine))
        project, tasks = publish(server)
        server.simulate_work(project.project_id)
        server.extend_tasks_redundancy({tasks[3].task_id: 2})
        del server  # the platform dies with the extension unanswered

        engine = CountingEngine(sqlite_engine)
        reopened = build_server(DurableTaskStore(engine))
        assert reopened.store.open_task_ids(project.project_id) == [tasks[3].task_id]
        # One pass over the project's records rebuilt it; no second one.
        assert engine.rows_read[TASKS_TABLE] == len(tasks)
        assert reopened.simulate_work(project.project_id) == 2
        assert engine.rows_read[TASKS_TABLE] == len(tasks) + 1
        assert len(reopened.get_task_runs(tasks[3].task_id)) == REDUNDANCY + 2
        assert_all_filled(reopened, project.project_id)

    def test_runs_without_stamps_count_complete_and_get_stamped(self, sqlite_engine):
        """The wave's crash window between ``append_runs`` and its stamps."""
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish(server, 3)
        server.simulate_work(project.project_id)
        torn = store.get_task(tasks[1].task_id)
        torn.completed_at = None
        sqlite_engine.put(TASKS_TABLE, store._id_key(torn.task_id), torn.to_dict())

        reopened = build_server(DurableTaskStore(sqlite_engine))
        assert reopened.store.open_task_ids(project.project_id) == [torn.task_id]
        assert reopened.is_project_complete(project.project_id)
        assert reopened.pending_assignments(project.project_id) == 0
        assert reopened.simulate_work(project.project_id) == 0
        assert_all_filled(reopened, project.project_id)

    def test_shared_handles_see_each_others_open_tasks(self, sqlite_engine):
        a = build_server(DurableTaskStore(sqlite_engine, shared=True), seed=5)
        b = build_server(DurableTaskStore(sqlite_engine, shared=True), seed=6)
        project, tasks = publish(a)
        pid = project.project_id
        assert b.store.open_task_ids(pid) == [task.task_id for task in tasks]
        assert b.simulate_work(pid) == len(tasks) * REDUNDANCY
        assert a.store.open_task_ids(pid) == []
        assert a.simulate_work(pid) == 0

        a.extend_tasks_redundancy({tasks[2].task_id: 2})
        assert b.pending_assignments(pid) == 2
        assert b.simulate_work(pid) == 2
        assert_all_filled(a, pid)

    def test_healed_index_entries_bring_their_tasks_to_the_frontier(self, sqlite_engine):
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish(server, 3)
        pid = project.project_id
        server.simulate_work(pid)
        assert store.open_task_ids(pid) == []
        # A torn publish: record and mapping landed, the index entry did not.
        torn = Task(task_id=store.allocate_task_ids(1), project_id=pid, info={"i": 9})
        store.stage_tasks([torn])
        store.claim_dedup_keys(pid, [("k9", torn.task_id)])
        assert store.open_task_ids(pid) == []  # invisible, like to every page

        (healed,) = server.create_tasks(pid, specs(1, start=9))
        assert healed.task_id == torn.task_id
        assert store.open_task_ids(pid) == [torn.task_id]
        server.simulate_work(pid)
        assert_all_filled(server, pid)

    def test_stale_mapping_takeover_ends_live_and_filled(self, sqlite_engine):
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish(server, 3)
        pid = project.project_id
        server.delete_task(tasks[1].task_id)  # k1 now names a dead task

        (fresh,) = server.create_tasks(pid, specs(1, start=1))
        assert fresh.task_id != tasks[1].task_id
        assert store.resolve_dedup_keys(pid, ["k1"]) == {"k1": fresh.task_id}
        assert store.get_task(fresh.task_id) is not None
        assert store.open_task_ids(pid) == [tasks[0].task_id, tasks[2].task_id, fresh.task_id]
        (replayed,) = server.create_tasks(pid, specs(1, start=1))
        assert replayed.task_id == fresh.task_id
        server.simulate_work(pid)
        assert_all_filled(server, pid)

    def test_orphan_of_a_torn_delete_does_not_reenter(self, sqlite_engine):
        store = DurableTaskStore(sqlite_engine)
        server = build_server(store)
        project, tasks = publish(server, 3)
        pid = project.project_id
        server.simulate_work(pid)
        # A delete that crashed after its index entry went: the record stays.
        orphan = tasks[0]
        sqlite_engine.delete(store._index_table(pid), store._id_key(orphan.task_id))

        reopened = build_server(DurableTaskStore(sqlite_engine))
        assert reopened.store.open_task_ids(pid) == []
        reopened.extend_tasks_redundancy({orphan.task_id: 1})
        assert reopened.store.open_task_ids(pid) == []
        assert reopened.simulate_work(pid) == 0


class TestEngineBatchesDecodeOnlyWhatTheyReturn:
    @pytest.fixture
    def decodes(self, sqlite_engine, monkeypatch):
        calls = []
        decode = sqlite_engine.codec.decode

        def counted(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(sqlite_engine.codec, "decode", counted)
        sqlite_engine.create_table("t")
        sqlite_engine.put_many("t", [(f"k{i}", {"i": i}) for i in range(5)])
        return calls

    def test_overwriting_put_many_reads_versions_not_values(self, sqlite_engine, decodes):
        records = sqlite_engine.put_many(
            "t", [("k1", "a"), ("k9", "b"), ("k1", "c")]
        )
        assert [(r.value, r.version) for r in records] == [("a", 2), ("b", 1), ("c", 3)]
        assert decodes == []
        assert sqlite_engine.get_record("t", "k1").version == 3

    def test_if_absent_decodes_only_keys_that_lost_to_other_bytes(
        self, sqlite_engine, decodes
    ):
        records = sqlite_engine.put_many(
            "t",
            [("k0", {"i": 0}), ("k1", {"i": "x"}), ("n", [1]), ("n", [2]), ("k1", 7)],
            if_absent=True,
        )
        assert [r.value for r in records] == [{"i": 0}, {"i": 1}, [1], [1], {"i": 1}]
        assert len(decodes) == 1  # k1, once for both of its occurrences


    # -- put_many(if_absent=True) trusts SQLite's change count: when every
    # distinct key of the batch was inserted by the statement itself nothing
    # is read back.  Statements are counted with ``set_trace_callback``.

    ROWS = 1000

    @pytest.fixture
    def statements(self, sqlite_engine):
        sqlite_engine.create_table("c")
        seen = []
        sqlite_engine._conn.set_trace_callback(seen.append)
        yield seen
        sqlite_engine._conn.set_trace_callback(None)

    @staticmethod
    def record_selects(statements):
        return [
            sql
            for sql in statements
            if sql.lstrip().upper().startswith("SELECT") and "FROM reprowd_records" in sql
        ]

    def batch(self):
        return [(f"k{i:04d}", {"i": i, "runs": [i, i + 1]}) for i in range(self.ROWS)]

    def test_cold_if_absent_batch_issues_no_select_on_the_records_table(
        self, sqlite_engine, statements
    ):
        items = self.batch()
        records = sqlite_engine.put_many("c", items, if_absent=True)
        assert self.record_selects(statements) == []
        assert [(r.key, r.value, r.version) for r in records] == [
            (key, value, 1) for key, value in items
        ]
        assert sqlite_engine.count("c") == self.ROWS
        assert sqlite_engine.get_record("c", "k0007") == records[7]

    def test_replayed_batch_reads_back_in_chunks_and_returns_what_is_stored(
        self, sqlite_engine, statements
    ):
        items = self.batch()
        sqlite_engine.put_many("c", items, if_absent=True)
        del statements[:]
        replay = [(key, {"other": key}) for key, _ in items]
        records = sqlite_engine.put_many("c", replay, if_absent=True)
        assert len(self.record_selects(statements)) == -(-self.ROWS // SqliteEngine._CHUNK)
        assert [(r.key, r.value, r.version) for r in records] == [
            (key, value, 1) for key, value in items
        ]

    def test_present_absent_and_repeated_keys_match_the_memory_engine(
        self, sqlite_engine, statements
    ):
        memory = MemoryEngine()
        memory.create_table("c")
        batch = [("new", [1]), ("old", {"mine": 1}), ("new", [2]), ("other", None)]
        outcomes = []
        for engine in (sqlite_engine, memory):
            engine.put_many("c", [("old", {"theirs": 0})])
            engine.put_many("c", [("old", {"theirs": 1})])  # version 2 survives
            outcomes.append(engine.put_many("c", batch, if_absent=True))
            assert [r.key for r in engine.scan("c")] == ["old", "new", "other"]
        assert outcomes[0] == outcomes[1]
        assert [(r.value, r.version) for r in outcomes[0]] == [
            ([1], 1), ({"theirs": 1}, 2), ([1], 1), (None, 1)
        ]
        assert self.record_selects(statements)  # a key was lost: read back

    def test_a_key_repeated_in_the_batch_alone_is_not_a_lost_key(
        self, sqlite_engine, statements
    ):
        records = sqlite_engine.put_many(
            "c", [("a", 1), ("b", 2), ("a", 3)], if_absent=True
        )
        assert [(r.key, r.value, r.version) for r in records] == [
            ("a", 1, 1), ("b", 2, 1), ("a", 1, 1)
        ]
        assert self.record_selects(statements) == []
        assert sqlite_engine.get("c", "a") == 1

    def test_an_unencodable_value_still_writes_nothing(self, sqlite_engine, statements):
        with pytest.raises(StorageError):
            sqlite_engine.put_many("c", [("a", 1), ("b", object())], if_absent=True)
        assert sqlite_engine.count("c") == 0
