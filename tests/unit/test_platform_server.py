"""Unit tests for the simulated platform server."""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.config import PlatformConfig
from repro.exceptions import PlatformError, ProjectNotFoundError, TaskNotFoundError
from repro.platform.models import Project, Task, TaskRun
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool


@pytest.fixture(params=["memory", "durable"])
def server(request, tmp_path):
    """The whole suite runs once per task store: the two implementations
    behind PlatformServer must be behaviourally indistinguishable."""
    pool = WorkerPool.uniform(size=10, accuracy=0.95, seed=1)
    store = None
    if request.param == "durable":
        store = DurableTaskStore(
            SqliteEngine(str(tmp_path / "platform.db")), owns_engine=True
        )
    yield PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1), store=store)
    if store is not None:
        store.close()


def create_task(server, project_id, info, n_assignments=None, dedup_key=None):
    """Publish one task as a one-spec batch (the server's only publish verb)."""
    spec = {"info": info, "n_assignments": n_assignments, "dedup_key": dedup_key}
    return server.create_tasks(project_id, [spec])[0]


def project_runs(server, project_id):
    """Every task run of the project, flattened in task order."""
    runs_by_task = server.get_task_runs_for_project(project_id)
    return [run for runs in runs_by_task.values() for run in runs]


class TestModels:
    def test_project_roundtrip(self):
        project = Project(project_id=1, name="p", short_name="p", description="d")
        assert Project.from_dict(project.to_dict()) == project

    def test_task_roundtrip(self):
        task = Task(task_id=3, project_id=1, info={"object": "x"}, n_assignments=5)
        assert Task.from_dict(task.to_dict()) == task

    def test_task_run_roundtrip(self):
        run = TaskRun(
            run_id=9, task_id=3, project_id=1, worker_id="w1", answer="Yes",
            submitted_at=10.0, latency_seconds=4.0, assignment_order=2,
        )
        assert TaskRun.from_dict(run.to_dict()) == run


class TestProjects:
    def test_create_project(self, server):
        project = server.create_project("my experiment", description="d")
        assert project.project_id == 1
        assert project.short_name == "my-experiment"

    def test_create_is_idempotent_by_name(self, server):
        first = server.create_project("p")
        second = server.create_project("p")
        assert first.project_id == second.project_id
        assert len(server.list_projects()) == 1

    def test_find_project(self, server):
        server.create_project("p")
        assert server.find_project("p") is not None
        assert server.find_project("missing") is None

    def test_get_missing_project_raises(self, server):
        with pytest.raises(ProjectNotFoundError):
            server.get_project(99)

    def test_delete_project_removes_tasks(self, server):
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"object": "x"})
        server.delete_project(project.project_id)
        with pytest.raises(ProjectNotFoundError):
            server.get_project(project.project_id)
        with pytest.raises(TaskNotFoundError):
            server.get_task(task.task_id)

    def test_authentication(self, server):
        assert server.authenticate("test-api-key")
        assert not server.authenticate("wrong")
        with pytest.raises(PlatformError):
            server.require_auth("wrong")


class TestTasks:
    def test_create_task_uses_default_redundancy(self, server):
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"object": "x"})
        assert task.n_assignments == server.config.default_redundancy

    def test_create_task_overrides_redundancy(self, server):
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"object": "x"}, n_assignments=7)
        assert task.n_assignments == 7

    def test_create_task_rejects_bad_redundancy(self, server):
        project = server.create_project("p")
        with pytest.raises(PlatformError):
            create_task(server, project.project_id, {"object": "x"}, n_assignments=0)

    def test_create_task_unknown_project(self, server):
        with pytest.raises(ProjectNotFoundError):
            create_task(server, 42, {"object": "x"})

    def test_list_tasks_in_publication_order(self, server):
        project = server.create_project("p")
        ids = [create_task(server, project.project_id, {"i": i}).task_id for i in range(5)]
        assert [task.task_id for task in server.list_tasks(project.project_id)] == ids

    def test_delete_task(self, server):
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"object": "x"})
        server.delete_task(task.task_id)
        assert server.list_tasks(project.project_id) == []


class TestBatchPublish:
    def test_create_tasks_returns_tasks_in_spec_order(self, server):
        project = server.create_project("p")
        tasks = server.create_tasks(
            project.project_id, [{"info": {"i": i}} for i in range(5)]
        )
        assert [task.info["i"] for task in tasks] == list(range(5))
        assert [task.task_id for task in server.list_tasks(project.project_id)] == [
            task.task_id for task in tasks
        ]

    def test_batch_redundancy_matches_single_publish(self, server):
        project = server.create_project("p")
        single_default = create_task(server, project.project_id, {"object": "a"})
        single_custom = create_task(server, project.project_id, {"object": "b"}, 7)
        batch_default, batch_custom = server.create_tasks(
            project.project_id,
            [{"info": {"object": "c"}}, {"info": {"object": "d"}, "n_assignments": 7}],
        )
        assert batch_default.n_assignments == single_default.n_assignments
        assert batch_custom.n_assignments == single_custom.n_assignments

    def test_bad_spec_publishes_nothing(self, server):
        project = server.create_project("p")
        with pytest.raises(PlatformError):
            server.create_tasks(
                project.project_id,
                [{"info": {"i": 0}}, {"info": {"i": 1}, "n_assignments": 0}],
            )
        with pytest.raises(PlatformError):
            server.create_tasks(project.project_id, [{"n_assignments": 3}])
        assert server.list_tasks(project.project_id) == []

    def test_create_tasks_unknown_project(self, server):
        with pytest.raises(ProjectNotFoundError):
            server.create_tasks(42, [{"info": {}}])

    def test_dedup_key_makes_batch_publish_idempotent(self, server):
        project = server.create_project("p")
        specs = [{"info": {"i": i}, "dedup_key": f"k{i}"} for i in range(4)]
        first = server.create_tasks(project.project_id, specs)
        replayed = server.create_tasks(project.project_id, specs)
        assert [task.task_id for task in replayed] == [task.task_id for task in first]
        assert len(server.list_tasks(project.project_id)) == 4

    def test_dedup_is_shared_between_single_and_batch_publish(self, server):
        project = server.create_project("p")
        single = create_task(server, project.project_id, {"i": 0}, dedup_key="k0")
        (batched,) = server.create_tasks(
            project.project_id, [{"info": {"i": 0}, "dedup_key": "k0"}]
        )
        assert batched.task_id == single.task_id

    def test_dedup_is_scoped_per_project(self, server):
        first = server.create_project("p1")
        second = server.create_project("p2")
        task_a = create_task(server, first.project_id, {"i": 0}, dedup_key="k")
        task_b = create_task(server, second.project_id, {"i": 0}, dedup_key="k")
        assert task_a.task_id != task_b.task_id

    def test_deleted_task_is_not_resurrected_by_dedup(self, server):
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"i": 0}, dedup_key="k")
        server.delete_task(task.task_id)
        fresh = create_task(server, project.project_id, {"i": 0}, dedup_key="k")
        assert fresh.task_id != task.task_id

    def test_get_task_runs_for_project_covers_every_task(self, server):
        project = server.create_project("p")
        tasks = server.create_tasks(
            project.project_id,
            [{"info": {"i": i, "_true_answer": "Yes"}, "n_assignments": 2} for i in range(3)],
        )
        runs_map = server.get_task_runs_for_project(project.project_id)
        assert runs_map == {task.task_id: [] for task in tasks}
        server.simulate_work(project.project_id)
        runs_map = server.get_task_runs_for_project(project.project_id)
        assert set(runs_map) == {task.task_id for task in tasks}
        assert all(len(runs) == 2 for runs in runs_map.values())
        for task in tasks:
            assert [run.run_id for run in runs_map[task.task_id]] == [
                run.run_id for run in server.get_task_runs(task.task_id)
            ]

    def test_assignment_strategy_identical_between_single_and_batch(self):
        """The same crowd answers the same tasks whichever way they were
        published: worker selection must not depend on the publish batching."""
        from repro.platform.assignment import RoundRobinAssignment

        def build_server():
            pool = WorkerPool.uniform(size=6, accuracy=1.0, seed=5)
            return PlatformServer(
                worker_pool=pool,
                config=PlatformConfig(seed=5),
                assignment=RoundRobinAssignment(),
            )

        infos = [{"i": i, "candidates": ["Yes", "No"], "_true_answer": "Yes"} for i in range(4)]

        single = build_server()
        project = single.create_project("p")
        for info in infos:
            create_task(single, project.project_id, info, 3)
        single.simulate_work(project.project_id)

        batch = build_server()
        project_b = batch.create_project("p")
        batch.create_tasks(
            project_b.project_id, [{"info": info, "n_assignments": 3} for info in infos]
        )
        batch.simulate_work(project_b.project_id)

        single_runs = [
            (run.task_id, run.worker_id, run.answer)
            for run in project_runs(single, project.project_id)
        ]
        batch_runs = [
            (run.task_id, run.worker_id, run.answer)
            for run in project_runs(batch, project_b.project_id)
        ]
        assert single_runs == batch_runs

    def test_keyed_publish_cost_is_linear_in_the_batch(self):
        """Regression: ``_claim_and_store`` rebuilt ``dict(keyed)`` once per
        key, so per-spec cost grew ~8x from 500 to 4000 keyed specs."""

        def per_spec_seconds(count):
            best = float("inf")
            for _ in range(3):
                fresh = PlatformServer(
                    worker_pool=WorkerPool.uniform(size=4, accuracy=0.9, seed=1),
                    config=PlatformConfig(seed=1),
                )
                project = fresh.create_project("linear")
                specs = [
                    {"info": {"i": i}, "n_assignments": 1, "dedup_key": f"k{i}"}
                    for i in range(count)
                ]
                started = perf_counter()
                fresh.create_tasks(project.project_id, specs)
                best = min(best, perf_counter() - started)
            return best / count

        assert per_spec_seconds(4000) <= 3 * per_spec_seconds(500)


class TestBatchBudgetCharging:
    def test_bulk_publish_charges_like_single_publish(self, tmp_path):
        """One charge per row at the same price whichever path publishes."""
        from repro import CrowdContext
        from repro.core.budget import BudgetTracker
        from repro.presenters import ImageLabelPresenter

        def spend(objects) -> tuple[float, int]:
            budget = BudgetTracker(price_per_assignment=0.05)
            context = CrowdContext.in_memory(budget=budget)
            data = context.CrowdData(objects, "budgeted")
            data.set_presenter(ImageLabelPresenter())
            data.publish_task(n_assignments=3)
            context.close()
            return budget.spent, len(budget.charges)

        objects = [f"img-{i}.png" for i in range(6)]
        bulk_spent, bulk_charges = spend(objects)
        expected = sum(spend([obj])[0] for obj in objects)
        assert bulk_spent == pytest.approx(expected)
        assert bulk_charges == len(objects)

    def test_tight_budget_publishes_affordable_prefix_only(self):
        """Spend always equals crowd work actually purchased: a batch the
        budget cannot cover publishes its affordable prefix, charges exactly
        that, and raises so a rerun with more budget resumes."""
        from repro import CrowdContext
        from repro.core.budget import BudgetExceededError, BudgetTracker
        from repro.presenters import ImageLabelPresenter

        budget = BudgetTracker(price_per_assignment=0.10, budget=0.90)  # 3 tasks at r=3
        context = CrowdContext.in_memory(budget=budget)
        data = context.CrowdData([f"img-{i}.png" for i in range(5)], "tight")
        data.set_presenter(ImageLabelPresenter())
        with pytest.raises(BudgetExceededError):
            data.publish_task(n_assignments=3)
        assert context.client.statistics()["tasks"] == 3
        assert budget.total_assignments() == 9
        assert budget.spent == pytest.approx(0.90)

    def test_republished_rows_are_not_recharged(self):
        """A rerun with a warm cache publishes and charges nothing."""
        from repro import CrowdContext
        from repro.core.budget import BudgetTracker
        from repro.presenters import ImageLabelPresenter
        from repro.storage import MemoryEngine

        engine = MemoryEngine()
        first_budget = BudgetTracker()
        context = CrowdContext.in_memory(engine=engine, budget=first_budget)
        objects = [f"img-{i}.png" for i in range(4)]
        context.CrowdData(objects, "warm").set_presenter(
            ImageLabelPresenter()
        ).publish_task(n_assignments=3)

        rerun_budget = BudgetTracker()
        rerun = CrowdContext.in_memory(
            engine=engine, client=context.client, budget=rerun_budget
        )
        rerun.CrowdData(objects, "warm").set_presenter(
            ImageLabelPresenter()
        ).publish_task(n_assignments=3)
        assert rerun_budget.spent == 0.0
        assert context.client.statistics()["tasks"] == len(objects)


class TestWorkSimulation:
    def test_pending_assignments_counts_missing_answers(self, server):
        project = server.create_project("p")
        create_task(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        create_task(server, project.project_id, {"object": "y", "_true_answer": "No"}, 2)
        assert server.pending_assignments(project.project_id) == 5

    def test_simulate_work_fills_all_assignments(self, server):
        project = server.create_project("p")
        task = create_task(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "Yes"},
            3,
        )
        created = server.simulate_work(project.project_id)
        assert created == 3
        assert server.is_task_complete(task.task_id)
        assert server.pending_assignments(project.project_id) == 0

    def test_simulate_work_is_idempotent_once_complete(self, server):
        project = server.create_project("p")
        create_task(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        server.simulate_work(project.project_id)
        assert server.simulate_work(project.project_id) == 0

    def test_task_runs_have_distinct_workers(self, server):
        project = server.create_project("p")
        task = create_task(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "Yes"},
            5,
        )
        server.simulate_work(project.project_id)
        runs = server.get_task_runs(task.task_id)
        assert len({run.worker_id for run in runs}) == 5

    def test_redundancy_above_pool_size_reuses_workers(self):
        pool = WorkerPool.uniform(size=2, accuracy=0.9, seed=1)
        server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1))
        project = server.create_project("p")
        task = create_task(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 4)
        server.simulate_work(project.project_id)
        assert len(server.get_task_runs(task.task_id)) == 4

    def test_max_assignments_limits_progress(self, server):
        project = server.create_project("p")
        for index in range(4):
            create_task(server, project.project_id, {"object": index, "_true_answer": "Yes"}, 3)
        created = server.simulate_work(project.project_id, max_assignments=5)
        assert created == 5
        assert server.pending_assignments(project.project_id) == 7

    def test_assignment_order_and_timestamps_increase(self, server):
        project = server.create_project("p")
        task = create_task(
            server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3
        )
        server.simulate_work(project.project_id)
        runs = server.get_task_runs(task.task_id)
        assert [run.assignment_order for run in runs] == [1, 2, 3]
        times = [run.submitted_at for run in runs]
        assert times == sorted(times)
        assert all(run.latency_seconds > 0 for run in runs)

    def test_reliable_oracle_answers_match_truth(self):
        pool = WorkerPool.uniform(size=5, accuracy=1.0, seed=1)
        server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1))
        project = server.create_project("p")
        task = create_task(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "No"},
            3,
        )
        server.simulate_work(project.project_id)
        assert all(run.answer == "No" for run in server.get_task_runs(task.task_id))

    def test_custom_answer_oracle(self):
        pool = WorkerPool.uniform(size=5, accuracy=1.0, seed=1)
        server = PlatformServer(
            worker_pool=pool,
            config=PlatformConfig(seed=1),
            answer_oracle=lambda info: "Cat" if "cat" in str(info["object"]) else "Dog",
        )
        project = server.create_project("p")
        task = create_task(
            server,
            project.project_id,
            {"object": "a cat picture", "candidates": ["Cat", "Dog"]},
            2,
        )
        server.simulate_work()
        assert {run.answer for run in server.get_task_runs(task.task_id)} == {"Cat"}

    def test_statistics(self, server):
        project = server.create_project("p")
        create_task(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        server.simulate_work()
        stats = server.statistics()
        assert stats["projects"] == 1
        assert stats["tasks"] == 1
        assert stats["task_runs"] == 3
        assert stats["pending_assignments"] == 0
