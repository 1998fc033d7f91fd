"""Integration tests for the crash-and-rerun (sharable) guarantee.

"The system guarantees that any manipulation of CrowdData is fault recovery.
That is, when the program is crashed, rerunning the program is as if it has
never crashed."  These tests crash Bob's experiment at many points — while
publishing, while collecting, while aggregating — and assert that the final
rerun produces exactly the uninterrupted result and that the total number of
crowd tasks ever published equals the number an uninterrupted run publishes.

The durable cache is parametrised over every partitioning scheme (single
sqlite file, modulo-sharded, consistent-hash ring at R=1 and R=2), one
scenario grows the ring *between* publish and collect, and the replica
scenarios SIGKILL a ring member there instead (including mid-rebalance) —
neither the elastic-scale story nor the availability story may cost a
single re-published task.

An injected exception leaves a write group's *prefix* (by design: the
crash-stepping engine keeps modelling the per-item case), so the last class
kills a real child process with ``SIGKILL`` inside each kind of group and
checks that the reopened file holds none of it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro import CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.core.manipulations import ManipulationLog
from repro.datasets import make_image_label_dataset
from repro.exceptions import CrashInjected
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.platform.wire import WireClient, WireServer
from repro.presenters import ImageLabelPresenter
from repro.simulation import CrashPlan, CrashingEngine
from repro.storage import ConsistentHashEngine, SqliteEngine
from repro.storage.testing import build_child_engine, build_engine
from repro.workers.pool import WorkerPool

#: The crash-surviving cache backends every scenario must behave on.
DURABLE_CACHE_BACKENDS = ("sqlite", "sharded", "ring", "ring-r2")


@pytest.fixture
def dataset():
    return make_image_label_dataset(num_images=15, seed=17)


@pytest.fixture(params=DURABLE_CACHE_BACKENDS)
def durable_cache(request, tmp_path):
    """Factory building named crash-surviving cache engines of one backend;
    building the same name twice reopens the same durable data."""

    def make(name: str):
        return build_engine(request.param, tmp_path / f"cache-{name}")

    make.backend = request.param
    return make


def make_client(kind: str, seed: int = 17) -> PlatformClient:
    """A fresh platform client of the requested transport *kind*."""
    pool = WorkerPool.from_config(WorkerPoolConfig(size=20, mean_accuracy=0.95, seed=seed))
    server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed))
    if kind == "pipelined":
        # A small batch size forces real in-flight sub-batches even at the
        # 15-row scale of these experiments.
        return PipelinedClient(server, batch_size=4, max_in_flight=3)
    if kind == "wire":
        # A real TCP boundary in front of the same platform: every crash
        # scenario must replay identically when each verb crosses a socket.
        wire = WireServer(server)
        wire.start()
        client = WireClient(wire.host, wire.port)
        client._test_wire_server = wire  # torn down by the fixture
        return client
    return PlatformClient(server)


@pytest.fixture(params=["direct", "pipelined", "wire"])
def durable_platform(dataset, request):
    """A platform that outlives program crashes (PyBossa keeps running when
    Bob's script dies) — exercised over the serial, pipelined and wire
    clients, which must survive every crash point identically."""
    client = make_client(request.param)
    yield client
    client.close()  # tear down the async transport's worker threads
    wire = getattr(client, "_test_wire_server", None)
    if wire is not None:
        wire.stop()


def bob_experiment(engine, client, dataset):
    """Bob's experiment parametrised by the storage engine and client."""
    context = CrowdContext(engine=engine, client=client, ground_truth=dataset.ground_truth)
    data = context.CrowdData(dataset.images, "crashable")
    data.set_presenter(ImageLabelPresenter())
    data.publish_task(n_assignments=3)
    data.get_result()
    data.mv()
    return data.column("mv")


class TestCrashAndRerun:
    def test_uninterrupted_baseline(self, tmp_path, dataset, durable_platform):
        engine = SqliteEngine(str(tmp_path / "baseline.db"))
        labels = bob_experiment(engine, durable_platform, dataset)
        assert len(labels) == len(dataset)
        engine.close()

    @pytest.mark.parametrize("crash_after", [1, 3, 7, 12, 20, 31])
    def test_crash_then_rerun_matches_uninterrupted_run(
        self, tmp_path, dataset, durable_platform, durable_cache, crash_after
    ):
        # Reference run on its own platform/database.
        reference_engine = SqliteEngine(str(tmp_path / "reference.db"))
        reference_pool = WorkerPool.from_config(
            WorkerPoolConfig(size=20, mean_accuracy=0.95, seed=17)
        )
        reference_client = PlatformClient(
            PlatformServer(worker_pool=reference_pool, config=PlatformConfig(seed=17))
        )
        expected = bob_experiment(reference_engine, reference_client, dataset)
        reference_engine.close()

        # Crashing run: same durable cache across attempts (sqlite, sharded
        # or ring — the guarantee is backend-agnostic), same durable platform.
        durable = durable_cache("crashy")
        crashed = False
        try:
            bob_experiment(
                CrashingEngine(durable, CrashPlan(crash_after_writes=crash_after)),
                durable_platform,
                dataset,
            )
        except CrashInjected:
            crashed = True
        # Rerun after the crash (no crash plan this time).
        labels = bob_experiment(durable, durable_platform, dataset)
        assert labels == expected
        # No duplicate tasks were ever published: the platform has exactly
        # one task per image, regardless of where the crash hit.
        assert durable_platform.statistics()["tasks"] == len(dataset)
        assert crashed  # every chosen crash point is below the total write count
        durable.close()

    def test_many_successive_crashes_still_converge(self, tmp_path, dataset, durable_platform):
        durable = SqliteEngine(str(tmp_path / "multi_crash.db"))
        crash_points = [2, 4, 6, 9, 13, 18, 25, 33]
        crashes = 0
        for crash_after in crash_points:
            try:
                bob_experiment(
                    CrashingEngine(durable, CrashPlan(crash_after_writes=crash_after)),
                    durable_platform,
                    dataset,
                )
            except CrashInjected:
                crashes += 1
        labels = bob_experiment(durable, durable_platform, dataset)
        assert len(labels) == len(dataset)
        assert durable_platform.statistics()["tasks"] == len(dataset)
        assert crashes >= len(crash_points) - 2

    def test_crash_between_publish_and_collect(
        self, dataset, durable_platform, durable_cache
    ):
        """Crash exactly after all tasks are published but before any result
        is persisted, then rerun — on every durable cache backend."""
        durable = durable_cache("between")

        def publish_only(engine):
            context = CrowdContext(
                engine=engine, client=durable_platform, ground_truth=dataset.ground_truth
            )
            data = context.CrowdData(dataset.images, "crashable")
            data.set_presenter(ImageLabelPresenter())
            data.publish_task(n_assignments=3)
            raise CrashInjected("after publish")

        with pytest.raises(CrashInjected):
            publish_only(durable)
        labels = bob_experiment(durable, durable_platform, dataset)
        assert len(labels) == len(dataset)
        assert durable_platform.statistics()["tasks"] == len(dataset)
        durable.close()

    @pytest.mark.ring
    def test_ring_rebalance_between_publish_and_collect(
        self, tmp_path, dataset, durable_platform
    ):
        """Grow the ring-backed cache from 3 to 4 members after publishing
        but before collecting: the migrated cache must keep serving the
        published task ids, so collection completes without re-publishing a
        single task and the labels match an engine that never rebalanced."""
        reference_engine = SqliteEngine(str(tmp_path / "reference.db"))
        reference_client = PlatformClient(
            PlatformServer(
                worker_pool=WorkerPool.from_config(
                    WorkerPoolConfig(size=20, mean_accuracy=0.95, seed=17)
                ),
                config=PlatformConfig(seed=17),
            )
        )
        expected = bob_experiment(reference_engine, reference_client, dataset)
        reference_engine.close()

        durable = ConsistentHashEngine(
            {
                f"ring-{i:02d}": SqliteEngine(str(tmp_path / f"ring-{i:02d}.db"))
                for i in range(3)
            },
            virtual_nodes=16,
        )
        context = CrowdContext(
            engine=durable, client=durable_platform, ground_truth=dataset.ground_truth
        )
        data = context.CrowdData(dataset.images, "crashable")
        data.set_presenter(ImageLabelPresenter())
        data.publish_task(n_assignments=3)
        published = durable_platform.statistics()["tasks"]
        assert published == len(dataset)

        report = durable.rebalance(
            add={"ring-03": SqliteEngine(str(tmp_path / "ring-03.db"))}
        )
        assert report["keys_moved"] > 0  # the cache really was redistributed

        labels = bob_experiment(durable, durable_platform, dataset)
        assert labels == expected
        assert durable_platform.statistics()["tasks"] == published  # no re-publish
        durable.close()

    @pytest.mark.ring
    @pytest.mark.replica
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("victim", ["ring-00", "ring-01", "ring-02"])
    def test_kill_any_member_between_publish_and_collect(
        self, tmp_path, dataset, kind, victim
    ):
        """R=2 replication is the availability story: SIGKILL *any single*
        member of the replicated cache between publish and collect and the
        experiment finishes as if nothing happened — same labels, not one
        re-published task, and every cache table byte-identical to a run
        that never lost a member."""

        def publish_then_finish(engine, kill=None):
            """Publish, optionally kill a ring member, then run the full
            experiment to completion — identical op sequence either way."""
            client = make_client("direct")
            context = CrowdContext(
                engine=engine, client=client, ground_truth=dataset.ground_truth
            )
            data = context.CrowdData(dataset.images, "crashable")
            data.set_presenter(ImageLabelPresenter())
            data.publish_task(n_assignments=3)
            assert client.statistics()["tasks"] == len(dataset)
            if kill is not None:
                kill()
            labels = bob_experiment(engine, client, dataset)
            assert client.statistics()["tasks"] == len(dataset)  # no re-publish
            return labels

        reference_engine = SqliteEngine(str(tmp_path / "reference.db"))
        expected = publish_then_finish(reference_engine)
        cache_tables = [
            name
            for name in reference_engine.list_tables()
            if name.startswith("crashable::")
        ]
        expected_scan = {
            name: [
                (r.key, r.value, r.version) for r in reference_engine.scan(name)
            ]
            for name in cache_tables
        }
        reference_engine.close()

        durable = ConsistentHashEngine(
            {
                name: build_child_engine(kind, tmp_path / "ring", name)
                for name in ("ring-00", "ring-01", "ring-02")
            },
            virtual_nodes=16,
            replicas=2,
        )
        # SIGKILL between publish and collect: the child is abandoned.
        labels = publish_then_finish(durable, kill=lambda: durable.mark_down(victim))
        assert labels == expected
        assert {
            name: [(r.key, r.value, r.version) for r in durable.scan(name)]
            for name in cache_tables
        } == expected_scan
        durable.close()

    @pytest.mark.ring
    @pytest.mark.replica
    def test_kill_member_mid_rebalance_between_publish_and_collect(
        self, tmp_path, dataset
    ):
        """The compound failure: the ring is growing from 3 to 4 members
        between publish and collect when one of the old members dies in the
        middle of a migration wave.  The transition must complete on the
        survivors and collection must not re-publish a single task."""
        reference_engine = SqliteEngine(str(tmp_path / "reference.db"))
        expected = bob_experiment(reference_engine, make_client("direct"), dataset)
        reference_engine.close()

        durable = ConsistentHashEngine(
            {
                f"ring-{i:02d}": SqliteEngine(str(tmp_path / f"ring-{i:02d}.db"))
                for i in range(3)
            },
            virtual_nodes=16,
            replicas=2,
        )
        client = make_client("direct")
        context = CrowdContext(
            engine=durable, client=client, ground_truth=dataset.ground_truth
        )
        data = context.CrowdData(dataset.images, "crashable")
        data.set_presenter(ImageLabelPresenter())
        data.publish_task(n_assignments=3)
        published = client.statistics()["tasks"]

        killed = {"done": False}

        def kill_mid_wave(event):
            if not killed["done"] and event.startswith("copy:"):
                killed["done"] = True
                durable.mark_down("ring-01")

        durable.rebalance(
            add={"ring-03": SqliteEngine(str(tmp_path / "ring-03.db"))},
            on_event=kill_mid_wave,
        )
        assert killed["done"]
        assert durable.down_members == ["ring-01"]

        labels = bob_experiment(durable, client, dataset)
        assert labels == expected
        assert client.statistics()["tasks"] == published  # no re-publish
        durable.close()

    def test_platform_redeployment_self_heals(self, tmp_path, dataset):
        """If the platform loses its tasks between runs (redeployment), the
        cached task ids are stale; the rerun republishes and still finishes."""
        durable = SqliteEngine(str(tmp_path / "redeploy.db"))
        first_pool = WorkerPool.from_config(WorkerPoolConfig(size=20, seed=17))
        first_client = PlatformClient(
            PlatformServer(worker_pool=first_pool, config=PlatformConfig(seed=17))
        )

        def publish_only(engine, client):
            context = CrowdContext(engine=engine, client=client, ground_truth=dataset.ground_truth)
            data = context.CrowdData(dataset.images, "crashable")
            data.set_presenter(ImageLabelPresenter())
            data.publish_task(n_assignments=3)

        publish_only(durable, first_client)
        # The platform is redeployed: a brand-new empty server.
        second_pool = WorkerPool.from_config(WorkerPoolConfig(size=20, seed=18))
        second_client = PlatformClient(
            PlatformServer(worker_pool=second_pool, config=PlatformConfig(seed=18))
        )
        labels = bob_experiment(durable, second_client, dataset)
        assert len(labels) == len(dataset)
        durable.close()


#: Bob's program on ``ReprowdConfig.durable(path)`` as a process of its own:
#: ``python -c CHILD <db> <kill point> <output json>``.  A kill point patches
#: one method to ``SIGKILL`` the process where a write group is open.
CHILD = textwrap.dedent(
    """
    import json, os, signal, sys
    from repro import CrowdContext
    from repro.config import ReprowdConfig
    from repro.core.manipulations import ManipulationLog
    from repro.platform.store import DurableTaskStore
    from repro.presenters import ImageLabelPresenter

    path, kill_at, out = sys.argv[1:4]

    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    if kill_at == "add_tasks":  # create_tasks: after the lease, stage and claim
        DurableTaskStore.add_tasks = die
    elif kill_at == "publish_log":  # publish_task: after cache.put_tasks
        record = ManipulationLog.record

        def record_or_die(self, operation, **kwargs):
            if operation == "publish_task":
                die()
            return record(self, operation, **kwargs)

        ManipulationLog.record = record_or_die
    elif kill_at == "update_tasks":  # the simulate wave: after append_runs
        DurableTaskStore.update_tasks = die

    context = CrowdContext(
        config=ReprowdConfig.durable(path, seed=23), ground_truth=lambda obj: "Yes"
    )
    objects = [f"img-{i:03d}.png" for i in range(12)]
    data = context.CrowdData(objects, "killable").set_presenter(ImageLabelPresenter())
    data.publish_task(n_assignments=3).get_result().mv()
    statistics = context.client.statistics()
    with open(out, "w") as handle:
        json.dump(
            {"rows": data.rows(), "tasks": statistics["tasks"], "runs": statistics["task_runs"]},
            handle,
            sort_keys=True,
        )
    context.close()
    """
)


def run_child(db_path, kill_at, out_path):
    """Run :data:`CHILD`; return its exit status."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(db_path), kill_at, str(out_path)],
        env=env,
        timeout=120,
    ).returncode


class TestProcessKillInsideAWriteGroup:
    OBJECTS, REDUNDANCY = 12, 3

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        """What a child nobody kills leaves in its output file."""
        folder = tmp_path_factory.mktemp("uninterrupted")
        assert run_child(folder / "exp.db", "none", folder / "out.json") == 0
        return (folder / "out.json").read_text()

    @pytest.mark.parametrize("kill_at", ["add_tasks", "publish_log", "update_tasks"])
    def test_nothing_of_the_killed_group_and_everything_before_it(
        self, tmp_path, uninterrupted, kill_at
    ):
        db, out = tmp_path / "exp.db", tmp_path / "out.json"
        assert run_child(db, kill_at, out) == -signal.SIGKILL
        assert not out.exists()

        engine = SqliteEngine(str(db))
        store = DurableTaskStore(engine)
        project_id = store.find_project_id("killable")
        assert project_id is not None  # create_project: a verb before
        assert engine.get("killable::meta", "project")["id"] == project_id
        operations = ManipulationLog(engine, "killable").operations()
        counts = {
            name: engine.count(table)
            for name, table in {
                "tasks": "platform::tasks",
                "dedup": store._dedup_table(project_id),
                "index": store._index_table(project_id),
                "runs": "platform::runs",
                "cached_tasks": "killable::tasks",
                "cached_results": "killable::results",
            }.items()
        }
        meta_keys = engine.keys("platform::meta")
        if kill_at == "add_tasks":
            # No staged record, no dedup mapping, no consumed id lease.
            assert counts["tasks"] == counts["dedup"] == counts["index"] == 0
            assert not [key for key in meta_keys if key.startswith("next_task_id")]
            assert operations == ["init", "set_presenter"]
        else:
            assert counts["tasks"] == counts["dedup"] == counts["index"] == self.OBJECTS
        if kill_at == "publish_log":
            # No cached descriptor without its publish_task log entry.
            assert counts["cached_tasks"] == 0
            assert operations == ["init", "set_presenter"]
        if kill_at == "update_tasks":
            # No run without its stamp: none of the wave, reservation included.
            assert counts["cached_tasks"] == self.OBJECTS
            assert operations == ["init", "set_presenter", "publish_task"]
            assert store.open_task_ids(project_id) == store.project_task_ids(project_id)
            assert not [key for key in meta_keys if key.startswith("next_run_id")]
        assert counts["runs"] == counts["cached_results"] == 0
        engine.close()

        # The rerun — a new process on the same file — ends where a child
        # nobody killed ends: same table, one task per object, no answer
        # bought twice.
        assert run_child(db, "none", out) == 0
        assert out.read_text() == uninterrupted
        report = json.loads(out.read_text())
        assert report["tasks"] == self.OBJECTS
        assert report["runs"] == self.OBJECTS * self.REDUNDANCY
        run_ids = [
            run["id"] for row in report["rows"] for run in row["result"]["assignments"]
        ]
        assert len(set(run_ids)) == len(run_ids) == report["runs"]
