"""Streaming results pipeline: paged collection equals batched collection.

Three layers of proof:

* platform level — ``iter_task_runs_for_project`` / ``list_project_task_ids``
  page through a project with the storage-style exclusive cursor and
  reassemble to exactly the server's in-process whole-project oracle
  (``PlatformServer.get_task_runs_for_project``), with round-trip
  counts of ``ceil(tasks / page_size)`` (via :class:`CountingTransport`);
* CrowdData level — a project with more rows than ``collect_page_size``
  collects the identical result column through the streaming path and the
  one-page path, and cache flushes stay bounded by the page size;
* fault-recovery level — a crash injected mid-stream (inside a paged cache
  flush) reruns to the identical final state with zero re-collected answers
  and no overwritten cache records;
* resume level — both streams start after an exclusive ``start_after``
  cursor (the offset side of the page contract is
  ``tests/property/test_prop_paging.py``), and a collected prefix
  whose cursor a redeployed platform does not know falls back to the whole
  project and heals, on direct and pipelined clients.
"""

from __future__ import annotations

import math

import pytest

from repro import CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.exceptions import CrashInjected, PlatformError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import CountingTransport
from repro.presenters import ImageLabelPresenter
from repro.platform.store import DurableTaskStore
from repro.simulation import CrashPlan, CrashingEngine
from repro.storage import MemoryEngine, SqliteEngine
from repro.workers.pool import WorkerPool

NUM_OBJECTS = 23
PAGE_SIZE = 5
REDUNDANCY = 2


def make_client(transport=None, seed=13, store=None, kind="direct"):
    pool = WorkerPool.from_config(WorkerPoolConfig(size=20, mean_accuracy=0.9, seed=seed))
    server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed), store=store)
    if kind == "pipelined":
        return PipelinedClient(
            server, transport=transport, batch_size=PAGE_SIZE, max_in_flight=3
        )
    return PlatformClient(server, transport=transport)


@pytest.fixture(params=["memory", "durable"])
def populated_project(request):
    """Platform paging runs against both task stores: the cursor contract
    must hold whether the server's state is in dicts or on an engine."""
    transport = CountingTransport()
    store = None
    if request.param == "durable":
        store = DurableTaskStore(MemoryEngine(), owns_engine=True)
    client = make_client(transport, store=store)
    project = client.create_project("streaming")
    specs = [
        {"info": {"url": f"img-{i:03d}", "_true_answer": "Yes"}, "n_assignments": REDUNDANCY}
        for i in range(NUM_OBJECTS)
    ]
    client.create_tasks(project.project_id, specs)
    client.simulate_work(project_id=project.project_id)
    return client, project, transport


class TestPlatformPaging:
    def test_stream_reassembles_to_batched_map(self, populated_project):
        client, project, _ = populated_project
        batched = client.server.get_task_runs_for_project(project.project_id)
        streamed = dict(client.iter_task_runs_for_project(project.project_id, PAGE_SIZE))
        assert streamed == batched
        assert list(streamed) == list(batched)  # same publication order

    def test_paging_survives_task_deletion(self, populated_project):
        client, project, _ = populated_project
        ids = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        client.delete_task(ids[3])
        survivors = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        assert survivors == ids[:3] + ids[4:]
        # A deleted task id is no longer a valid cursor.
        with pytest.raises(PlatformError):
            client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=ids[3])

    def test_round_trips_are_one_per_page(self, populated_project):
        client, project, transport = populated_project
        transport.calls_by_name.clear()
        pages = []
        for _ in client.iter_task_runs_for_project(project.project_id, PAGE_SIZE):
            pages.append(_)
        assert transport.calls_by_name["get_task_runs_page"] == math.ceil(
            NUM_OBJECTS / PAGE_SIZE
        )

    def test_chained_cursor_requests_carry_no_offset(self, populated_project):
        """The serial pump addresses pages by cursor alone: its requests are
        the frames they were before pages had offsets."""
        client, project, transport = populated_project
        requests = []
        count = transport.call

        def spy(name, method, *args, **kwargs):
            requests.append((args, kwargs))
            return count(name, method, *args, **kwargs)

        transport.call = spy
        ids = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        list(client.iter_task_runs_for_project(project.project_id, PAGE_SIZE, ids[2]))
        assert len(requests) == 2 * math.ceil(NUM_OBJECTS / PAGE_SIZE)
        for args, kwargs in requests:
            assert args == (project.project_id, PAGE_SIZE)
            assert list(kwargs) == ["start_after"]

    def test_every_page_is_bounded_by_page_size(self, populated_project):
        client, project, _ = populated_project
        cursor, sizes = None, []
        while True:
            page = client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=cursor)
            sizes.append(len(page))
            if len(page) < PAGE_SIZE:
                break
            cursor = page[-1][0]
        assert max(sizes) <= PAGE_SIZE
        assert sum(sizes) == NUM_OBJECTS

    def test_task_id_stream_matches_task_list(self, populated_project):
        client, project, _ = populated_project
        ids = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        assert ids == [task.task_id for task in client.list_tasks(project.project_id)]

    def test_bad_cursor_and_bad_limit_raise(self, populated_project):
        client, project, _ = populated_project
        with pytest.raises(PlatformError):
            client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=99999)
        with pytest.raises(PlatformError):
            client.list_project_task_ids(project.project_id, 0)


def run_experiment(engine, client, page_size, table="stream_tbl"):
    context = CrowdContext(engine=engine, client=client, ground_truth=lambda obj: "Yes")
    data = context.CrowdData(
        [f"img-{i:03d}.png" for i in range(NUM_OBJECTS)], table
    )
    data.collect_page_size = page_size
    data.set_presenter(ImageLabelPresenter())
    data.publish_task(n_assignments=REDUNDANCY)
    data.get_result()
    return data


class TestStreamingCrowdDataCollection:
    def test_paged_and_single_page_paths_collect_identical_results(self, tmp_path):
        streamed = run_experiment(
            SqliteEngine(str(tmp_path / "paged.db")), make_client(), page_size=PAGE_SIZE
        )
        batched = run_experiment(
            SqliteEngine(str(tmp_path / "one_page.db")),
            make_client(),
            page_size=10 * NUM_OBJECTS,
        )
        assert streamed.column("result") == batched.column("result")
        assert all(result["complete"] for result in streamed.column("result"))

    def test_collection_round_trips_scale_with_pages_not_rows(self, tmp_path):
        transport = CountingTransport()
        run_experiment(
            SqliteEngine(str(tmp_path / "counted.db")),
            make_client(transport),
            page_size=PAGE_SIZE,
        )
        pages = math.ceil(NUM_OBJECTS / PAGE_SIZE)
        assert transport.calls_by_name["get_task_runs_page"] <= pages
        assert transport.calls_by_name["list_project_task_ids"] == pages
        # The seed behaviour this replaced: one get_task_runs call per row.
        assert "get_task_runs" not in transport.calls_by_name

    def test_cache_flushes_are_bounded_by_page_size(self, tmp_path):
        durable = SqliteEngine(str(tmp_path / "bounded.db"))

        batch_sizes = []
        original = SqliteEngine.put_many

        def spying_put_many(self, table_name, items, if_absent=False):
            items = list(items)
            if table_name.endswith("::results"):
                batch_sizes.append(len(items))
            return original(self, table_name, items, if_absent=if_absent)

        SqliteEngine.put_many = spying_put_many
        try:
            run_experiment(durable, make_client(), page_size=PAGE_SIZE)
        finally:
            SqliteEngine.put_many = original
        assert batch_sizes, "streaming collection never flushed the cache"
        assert max(batch_sizes) <= PAGE_SIZE
        assert sum(batch_sizes) == NUM_OBJECTS
        durable.close()


class TestCrashMidStream:
    @pytest.mark.parametrize("crash_offset", [2, 9, 18])
    def test_rerun_after_mid_stream_crash_is_exactly_once(self, tmp_path, crash_offset):
        client = make_client()
        durable = SqliteEngine(str(tmp_path / "crash_stream.db"))
        # Publish writes: __tables__ + init log + presenter meta + log +
        # project meta + 23 task descriptors + publish log = 28; the paged
        # result flushes span the following NUM_OBJECTS writes.
        crash_after = 28 + crash_offset
        with pytest.raises(CrashInjected):
            run_experiment(
                CrashingEngine(durable, CrashPlan(crash_after_writes=crash_after)),
                client,
                page_size=PAGE_SIZE,
            )
        runs_after_crash = client.statistics()["task_runs"]
        assert runs_after_crash == NUM_OBJECTS * REDUNDANCY
        cached = durable.count("stream_tbl::results")
        assert 0 < cached < NUM_OBJECTS

        data = run_experiment(durable, client, page_size=PAGE_SIZE)
        stats = client.statistics()
        assert stats["task_runs"] == runs_after_crash  # zero re-collected answers
        assert stats["tasks"] == NUM_OBJECTS  # zero duplicate publishes
        assert all(result["complete"] for result in data.column("result"))
        # The surviving page-prefix was never overwritten or version-bumped.
        assert [r.version for r in durable.scan("stream_tbl::results")] == [1] * NUM_OBJECTS
        durable.close()


@pytest.mark.parametrize("kind", ["direct", "pipelined"])
class TestResumeAfterCollectedPrefix:
    def test_streams_start_after_the_cursor(self, kind):
        client = make_client(kind=kind)
        project = client.create_project("resume")
        other = client.create_project("other")
        specs = [{"info": {"url": f"img-{i:03d}"}, "n_assignments": 1} for i in range(NUM_OBJECTS)]
        client.create_tasks(project.project_id, specs[:9])
        foreign = client.create_tasks(other.project_id, specs[:2])
        client.create_tasks(project.project_id, specs[9:])
        client.simulate_work(project_id=project.project_id)
        pid = project.project_id

        ids = list(client.iter_project_task_ids(pid, PAGE_SIZE))
        runs = list(client.iter_task_runs_for_project(pid, PAGE_SIZE))
        for position in (0, 6, NUM_OBJECTS - 1):
            cursor = ids[position]
            assert list(client.iter_project_task_ids(pid, PAGE_SIZE, start_after=cursor)) == (
                ids[position + 1 :]
            )
            assert list(
                client.iter_task_runs_for_project(pid, PAGE_SIZE, start_after=cursor)
            ) == runs[position + 1 :]
        # A cursor of another project is as unknown as one that never existed.
        for unknown in (foreign[0].task_id, 99999):
            with pytest.raises(PlatformError):
                list(client.iter_project_task_ids(pid, PAGE_SIZE, start_after=unknown))
            with pytest.raises(PlatformError):
                list(client.iter_task_runs_for_project(pid, PAGE_SIZE, start_after=unknown))
        client.close()

    def test_redeployed_platform_with_a_collected_prefix_self_heals(self, kind, tmp_path):
        """Ten rows are collected, thirteen more published, then the
        platform is redeployed: the rerun resumes after a task id the new
        server has never issued, must fall back to the whole project, and
        re-publish the thirteen in one cache write."""
        objects = [f"img-{i:03d}.png" for i in range(NUM_OBJECTS)]
        durable = SqliteEngine(str(tmp_path / "redeploy.db"))
        first = make_client(kind=kind)
        context = CrowdContext(engine=durable, client=first, ground_truth=lambda obj: "Yes")
        data = context.CrowdData(objects[:10], "stream_tbl")
        data.collect_page_size = PAGE_SIZE
        data.set_presenter(ImageLabelPresenter())
        data.publish_task(n_assignments=REDUNDANCY).get_result()
        data.extend(objects[10:]).publish_task(n_assignments=REDUNDANCY)
        prefix = data.column("result")[:10]
        first.close()

        task_writes = []
        originals = {name: getattr(SqliteEngine, name) for name in ("put", "put_many")}

        def spy(name):
            def write(self, table_name, *args, **kwargs):
                if table_name == "stream_tbl::tasks":
                    task_writes.append(name)
                return originals[name](self, table_name, *args, **kwargs)

            return write

        transport = CountingTransport()
        second = make_client(transport, seed=14, kind=kind)
        for name in originals:
            setattr(SqliteEngine, name, spy(name))
        try:
            rerun = run_experiment(durable, second, page_size=PAGE_SIZE)
        finally:
            for name, original in originals.items():
                setattr(SqliteEngine, name, original)

        assert rerun.column("result")[:10] == prefix  # from the cache, untouched
        assert all(result["complete"] for result in rerun.column("result"))
        stats = second.statistics()
        assert stats["tasks"] == NUM_OBJECTS - 10
        assert stats["task_runs"] == (NUM_OBJECTS - 10) * REDUNDANCY
        healed = sorted(task["task_id"] for task in rerun.column("task")[10:])
        assert healed == list(range(1, NUM_OBJECTS - 10 + 1))
        assert task_writes == ["put_many"]
        # The stale cursor cost one refused id page before the fallback.
        if kind == "direct":
            assert transport.calls_by_name["list_project_task_ids"] == 2
            assert transport.calls_by_name["get_task_runs_page"] == math.ceil(
                (NUM_OBJECTS - 10) / PAGE_SIZE
            )
        else:
            assert transport.calls_by_name["list_project_task_ids"] >= 2
        second.close()
        durable.close()
