"""Concurrency tests for the durable task store's multi-writer protocol.

PR 6's wire boundary lets two *server processes* share one durable store;
the correctness story rests on two engine-level atomics — ``put_new``
(compare-and-swap id leases, first-writer-wins name claims) and
``put_many(if_absent=True)`` (dedup-key claims).  These tests exercise the
same protocol in-process with threads, where races are cheap to provoke:
two ``DurableTaskStore`` handles opened ``shared=True`` on one engine stand
in for two servers.  The cross-process version of the same assertions runs
in ``tests/integration/test_wire_cluster.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.platform.models import Project, Task
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.storage import MemoryEngine, SqliteEngine
from repro.workers.pool import WorkerPool

#: Both engine families that back durable platforms must pass every
#: scenario: memory (threads in one server process) and sqlite (the
#: cross-process artifact the wire cluster shares).
ENGINES = ("memory", "sqlite")


@pytest.fixture(params=ENGINES)
def engine(request, tmp_path):
    if request.param == "memory":
        built = MemoryEngine()
    else:
        built = SqliteEngine(str(tmp_path / "store.db"))
    yield built
    built.close()


def open_store(engine) -> DurableTaskStore:
    """One 'server process' worth of store handle on the shared engine."""
    return DurableTaskStore(engine, shared=True)


def run_threads(workers) -> None:
    """Run the callables concurrently; re-raise the first worker failure."""
    errors: list[BaseException] = []

    def guarded(worker):
        try:
            worker()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    assert not any(thread.is_alive() for thread in threads)


class TestIdAllocation:
    def test_two_handles_never_hand_out_overlapping_ranges(self, engine):
        stores = [open_store(engine), open_store(engine)]
        per_thread = 40
        ranges: list[tuple[int, int]] = []
        lock = threading.Lock()

        def allocate(store):
            def worker():
                for _ in range(per_thread):
                    start = store.allocate_task_ids(3)
                    with lock:
                        ranges.append((start, 3))

            return worker

        run_threads([allocate(store) for store in stores for _ in range(2)])
        ids = [start + offset for start, count in ranges for offset in range(count)]
        assert len(ids) == len(set(ids)), "overlapping id ranges handed out"
        assert len(ids) == 2 * 2 * per_thread * 3

    def test_mixed_counters_stay_disjoint_per_counter(self, engine):
        stores = [open_store(engine), open_store(engine)]
        seen: dict[str, list[int]] = {"project": [], "task": [], "run": []}
        lock = threading.Lock()

        def worker_for(store):
            def worker():
                for _ in range(15):
                    allocations = (
                        ("project", store.allocate_project_id(), 1),
                        ("task", store.allocate_task_ids(2), 2),
                        ("run", store.allocate_run_ids(2, clock_time=1.0), 2),
                    )
                    with lock:
                        for kind, start, count in allocations:
                            seen[kind].extend(range(start, start + count))

            return worker

        run_threads([worker_for(store) for store in stores])
        for kind, ids in seen.items():
            assert len(ids) == len(set(ids)), f"duplicate {kind} ids"

    def test_fresh_handle_resumes_past_everything_allocated(self, engine):
        first = open_store(engine)
        top = max(first.allocate_task_ids(5) + 4, first.allocate_task_ids(1))
        # A handle opened later (a restarted server) must not re-issue ids.
        second = open_store(engine)
        assert second.allocate_task_ids(1) > top


class TestDedupClaims:
    def test_single_winner_per_key_across_handles(self, engine):
        stores = [open_store(engine), open_store(engine)]
        project = Project(project_id=1, name="race", short_name="race")
        stores[0].put_project(project)
        keys = [f"obj-{i}" for i in range(30)]
        outcomes: list[dict[str, int]] = []
        lock = threading.Lock()

        def claimer(store, base):
            def worker():
                claims = [(key, base + i) for i, key in enumerate(keys)]
                won = store.claim_dedup_keys(1, claims)
                with lock:
                    outcomes.append(won)

            return worker

        run_threads(
            [claimer(store, 1000 * (n + 1)) for n, store in enumerate(stores)]
        )
        assert len(outcomes) == 2
        # Every claimer observes the *same* winner for every key.
        assert outcomes[0] == outcomes[1]
        for key, task_id in outcomes[0].items():
            assert task_id in (1000 + keys.index(key), 2000 + keys.index(key))

    def test_claim_is_stable_after_the_race(self, engine):
        store = open_store(engine)
        store.put_project(Project(project_id=1, name="p", short_name="p"))
        first = store.claim_dedup_keys(1, [("k", 11)])
        second = store.claim_dedup_keys(1, [("k", 99)])
        assert first == second == {"k": 11}


def make_server(store) -> PlatformServer:
    pool = WorkerPool.from_config(
        WorkerPoolConfig(size=8, mean_accuracy=0.95, seed=5)
    )
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=5), store=store)


SPECS = [
    {
        "info": {"url": f"img-{i}", "_true_answer": "Yes"},
        "n_assignments": 1,
        "dedup_key": f"obj-{i}",
    }
    for i in range(20)
]


class TestTwoServersOneStore:
    def test_concurrent_create_tasks_is_exactly_once(self, engine):
        servers = [make_server(open_store(engine)) for _ in range(2)]
        project_id = servers[0].create_project("shared").project_id
        assert servers[1].create_project("shared").project_id == project_id

        results: list[list[Task]] = [[], []]

        def publisher(index):
            def worker():
                results[index] = servers[index].create_tasks(project_id, SPECS)

            return worker

        run_threads([publisher(0), publisher(1)])
        ids_a = [task.task_id for task in results[0]]
        ids_b = [task.task_id for task in results[1]]
        # Both servers return the same task per dedup key, in spec order...
        assert ids_a == ids_b
        # ...and the store holds exactly one task per key, visible to both.
        for server in servers:
            tasks = server.list_tasks(project_id)
            assert sorted(t.task_id for t in tasks) == sorted(ids_a)
            assert len(tasks) == len(SPECS)

    def test_concurrent_same_name_create_project_converges(self, engine):
        servers = [make_server(open_store(engine)) for _ in range(2)]
        created: list[Project] = [None, None]  # type: ignore[list-item]

        def creator(index):
            def worker():
                created[index] = servers[index].create_project("contested")

            return worker

        run_threads([creator(0), creator(1)])
        assert created[0].project_id == created[1].project_id
        # The loser's discarded project id must never resurface as a live
        # project on either server.
        for server in servers:
            assert server.find_project("contested").project_id == created[0].project_id
            assert len(server.list_projects()) == 1

    def test_interleaved_publish_work_collect_double_pays_nothing(self, engine):
        # The end-to-end duplicate-spend check: two servers race the same
        # publish, then the crowd answers once per task.
        servers = [make_server(open_store(engine)) for _ in range(2)]
        project_id = servers[0].create_project("spend").project_id
        servers[1].create_project("spend")

        run_threads(
            [
                (lambda s: lambda: s.create_tasks(project_id, SPECS))(server)
                for server in servers
            ]
        )
        created = servers[0].simulate_work(project_id=project_id)
        created += servers[1].simulate_work(project_id=project_id)
        assert created == len(SPECS)  # top-up idempotence: one answer per task
        runs = servers[1].get_task_runs_for_project(project_id)
        assert len(runs) == len(SPECS)
        assert all(len(answers) == 1 for answers in runs.values())


class TestTwoEngineHandlesOneFile:
    """Two ``SqliteEngine`` connections on one file — what two server
    processes hold.  ``put_many(if_absent=True)`` returns the caller's own
    values when SQLite's change count says the whole batch was inserted and
    reads back otherwise; either way both handles must end up holding the
    one surviving record per key."""

    @pytest.fixture
    def handles(self, tmp_path):
        path = str(tmp_path / "shared.db")
        engines = [SqliteEngine(path), SqliteEngine(path)]
        engines[0].create_table("claims")
        yield engines
        for built in engines:
            built.close()

    def test_overlapping_claims_have_one_survivor_both_handles_agree_on(self, handles):
        batch = 10
        # Handle 0 walks keys 0..59 upwards, handle 1 walks 89..30 downwards:
        # the outer thirds are uncontended (every call there wins its whole
        # batch), the middle third is claimed by both.
        key_ranges = [
            [range(lo, lo + batch) for lo in range(0, 60, batch)],
            [range(lo, lo + batch) for lo in range(80, 20, -batch)],
        ]
        returned: list[dict[str, object]] = [{}, {}]
        read_backs: list[list[int]] = [[], []]

        def claimer(index):
            engine = handles[index]
            selects: list[str] = []
            engine._conn.set_trace_callback(
                lambda sql: selects.append(sql)
                if sql.startswith("SELECT key,") and "reprowd_records" in sql
                else None
            )

            def worker():
                for keys in key_ranges[index]:
                    before = len(selects)
                    items = [(f"k{i:02d}", {"by": index, "i": i}) for i in keys]
                    for record in engine.put_many("claims", items, if_absent=True):
                        returned[index][record.key] = record
                    read_backs[index].append(len(selects) - before)
                engine._conn.set_trace_callback(None)

            return worker

        run_threads([claimer(0), claimer(1)])

        assert handles[0].count("claims") == 90
        for i in range(90):
            key = f"k{i:02d}"
            survivor = handles[0].get_record("claims", key)
            assert survivor == handles[1].get_record("claims", key)
            assert survivor.version == 1 and survivor.value["i"] == i
            owners = [index for index in (0, 1) if key in returned[index]]
            assert survivor.value["by"] in owners
            for index in owners:
                assert returned[index][key] == survivor, (key, index)
        for i in list(range(30)) + list(range(60, 90)):
            assert handles[0].get("claims", f"k{i:02d}")["by"] == (0 if i < 30 else 1)
        calls = read_backs[0] + read_backs[1]
        assert calls.count(0) >= 6  # all-won: nothing read back
        assert sum(1 for count in calls if count) >= 3  # some-lost: read back

    def test_dedup_claims_across_two_files_handles_yield_one_task_per_key(self, handles):
        stores = [open_store(built) for built in handles]
        stores[0].put_project(Project(project_id=1, name="race", short_name="race"))
        keys = [f"obj-{i}" for i in range(40)]
        outcomes: list[dict[str, int]] = [{}, {}]

        def claimer(index):
            def worker():
                # Opposite orders, four calls each: every key is claimed by
                # both handles, some first by one and some first by the other.
                order = keys if index == 0 else keys[::-1]
                for start in range(0, len(order), 10):
                    chunk = order[start : start + 10]
                    claims = [(key, 1000 * (index + 1) + keys.index(key)) for key in chunk]
                    outcomes[index].update(stores[index].claim_dedup_keys(1, claims))

            return worker

        run_threads([claimer(0), claimer(1)])
        assert outcomes[0] == outcomes[1]
        assert sorted(outcomes[0]) == sorted(keys)
        for key, task_id in outcomes[0].items():
            assert task_id in (1000 + keys.index(key), 2000 + keys.index(key))
        assert len(set(outcomes[0].values())) == len(keys)
