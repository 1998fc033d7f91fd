"""The streaming adaptive loop: round trips, engines, faults and budgets.

PR 10's tentpole rebuilt ``get_result_adaptive`` around the paged task-run
stream and an incremental quality model.  These suites pin its contracts:

* the loop never issues a per-task ``get_task_runs`` call — its round-trip
  bill is O(pages) per round plus one batched ``extend_tasks_redundancy``
  (CountingTransport-proven);
* the same collection runs unchanged over every durable storage engine and
  over the serial, pipelined and wire transports, and a killed run reruns
  exactly-once from the fault-recovery cache;
* regression fixes: stats count per *task* (rows sharing a deduplicated
  task are no longer double-counted), a platform that returns nothing is
  classified ``items_below_minimum`` (not "resolved early"), and a failed
  extension round charges the budget nothing (extend first, charge after).
"""

from __future__ import annotations

import math

import pytest

from repro import AdaptivePolicy, BudgetExceededError, BudgetTracker, CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.datasets import make_image_label_dataset
from repro.exceptions import PlatformUnavailableError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import CountingTransport, Transport
from repro.presenters import ImageLabelPresenter
from repro.quality.incremental import OnlineDawidSkene
from repro.storage.testing import build_engine
from repro.workers.pool import WorkerPool

pytestmark = pytest.mark.quality

NUM_IMAGES = 24
SEED = 17
POLICY = AdaptivePolicy(
    initial_assignments=2, max_assignments=5, min_assignments=2,
    confidence_threshold=0.7, extra_per_round=2,
)

#: The durable registry engines the adaptive cache must survive on.
ADAPTIVE_ENGINES = ("sqlite", "sharded", "ring", "ring-r2")


def make_server(seed=SEED):
    pool = WorkerPool.from_config(WorkerPoolConfig(size=20, mean_accuracy=0.85, seed=seed))
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed))


def make_client(kind, transport=None, seed=SEED):
    server = make_server(seed)
    if kind == "pipelined":
        return PipelinedClient(server, transport=transport, batch_size=10, max_in_flight=4)
    return PlatformClient(server, transport=transport)


def run_adaptive(context, dataset, table="adaptive", policy=POLICY, aggregator=None):
    data = (
        context.CrowdData(dataset.images, table)
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=policy.initial_assignments)
    )
    return data.get_result_adaptive(policy, aggregator=aggregator)


@pytest.fixture
def dataset():
    return make_image_label_dataset(num_images=NUM_IMAGES, seed=SEED)


class TestAcrossEnginesAndTransports:
    @pytest.mark.parametrize("engine_name", ADAPTIVE_ENGINES)
    @pytest.mark.parametrize("client_kind", ["direct", "pipelined"])
    def test_adaptive_collection_on_every_stack(
        self, tmp_path, dataset, engine_name, client_kind
    ):
        engine = build_engine(engine_name, tmp_path)
        context = CrowdContext(
            engine=engine, client=make_client(client_kind), ground_truth=dataset.ground_truth
        )
        data = run_adaptive(context, dataset)
        results = data.column("result")
        assert all(r["complete"] and r["adaptive"] for r in results)
        for result in results:
            assert (
                POLICY.min_assignments
                <= len(result["assignments"])
                <= POLICY.max_assignments
            )
        stats = data.last_adaptive_stats
        tasks = {r["task_id"] for r in results}
        assert (
            stats.items_resolved_early + stats.items_at_cap + stats.items_below_minimum
            == len(tasks)
        )
        assert stats.answers_collected == sum(len(r["assignments"]) for r in results)
        context.close()

    @pytest.mark.parametrize("engine_name", ADAPTIVE_ENGINES)
    def test_kill_and_rerun_is_exactly_once(self, tmp_path, dataset, engine_name):
        def run(client):
            engine = build_engine(engine_name, tmp_path)
            context = CrowdContext(
                engine=engine, client=client, ground_truth=dataset.ground_truth
            )
            data = run_adaptive(context, dataset)
            labels = [r["task_id"] for r in data.column("result")]
            answers = data.last_adaptive_stats.answers_collected
            context.close()
            return labels, answers

        client = make_client("direct")
        first_labels, first_answers = run(client)
        platform_runs = client.statistics()["task_runs"]
        # "Kill": the context (and its engine handles) are gone; the rerun
        # reopens the same directory against the same live platform.
        second_labels, second_answers = run(client)
        assert second_labels == first_labels
        assert client.statistics()["task_runs"] == platform_runs  # nothing re-purchased
        assert client.statistics()["tasks"] == NUM_IMAGES  # nothing re-published
        # The rerun answered everything from the cache: zero rounds run.
        assert second_answers == 0


class TestRoundTripEconomy:
    def test_no_per_task_get_task_runs_and_one_extend_per_round(
        self, tmp_path, dataset
    ):
        transport = CountingTransport()
        context = CrowdContext(
            engine=build_engine("sqlite", tmp_path),
            client=make_client("direct", transport=transport),
            ground_truth=dataset.ground_truth,
        )
        data = run_adaptive(context, dataset)
        stats = data.last_adaptive_stats
        calls = transport.calls_by_name
        # The seed behaviour this replaced: one get_task_runs per task per round.
        assert "get_task_runs" not in calls
        # O(pages) per round (+1 stream for the final collection), with one
        # batched extension round trip for every round that bought answers
        # (a per-task extension storm would send the same op, many times).
        pages_per_sweep = math.ceil(NUM_IMAGES / data.collect_page_size)
        assert calls["get_task_runs_page"] <= (stats.rounds + 1) * pages_per_sweep
        assert calls["extend_tasks_redundancy"] <= stats.rounds
        assert stats.extensions_requested > 0
        context.close()

    def test_stats_count_tasks_not_rows(self, dataset):
        # Regression: two rows sharing one deduplicated task used to be
        # double-counted in every stats tally (and their answers twice).
        context = CrowdContext.in_memory(seed=SEED, ground_truth=lambda obj: "Yes")
        data = (
            context.CrowdData(["img-shared.png", "img-shared.png"], "shared")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=POLICY.initial_assignments)
            .get_result_adaptive(POLICY)
        )
        results = data.column("result")
        assert len(results) == 2
        assert results[0]["task_id"] == results[1]["task_id"]  # deduplicated
        stats = data.last_adaptive_stats
        assert (
            stats.items_resolved_early + stats.items_at_cap + stats.items_below_minimum
            == 1
        )
        assert stats.answers_collected == len(results[0]["assignments"])
        context.close()

    def test_unresponsive_platform_classified_below_minimum(self, dataset):
        # Regression: a platform that produces no answers used to file every
        # item under "resolved early"; it must stop (no infinite purchasing)
        # and report the items as below-minimum instead.
        context = CrowdContext.in_memory(seed=SEED, ground_truth=dataset.ground_truth)
        context.client.simulate_work = lambda **kwargs: 0
        data = run_adaptive(context, dataset)
        stats = data.last_adaptive_stats
        assert stats.items_below_minimum == NUM_IMAGES
        assert stats.items_resolved_early == 0
        assert stats.answers_collected == 0
        assert stats.rounds == 1  # the stall guard stopped the loop
        for result in data.column("result"):
            assert result["assignments"] == []
        context.close()


class FailingExtendTransport(Transport):
    """Direct transport that hard-fails every redundancy extension."""

    def __init__(self):
        self.extend_attempts = 0

    def call(self, name, method, *args, **kwargs):
        if name == "extend_tasks_redundancy":
            self.extend_attempts += 1
            raise PlatformUnavailableError("injected extension outage")
        return method(*args, **kwargs)


class TestBudgetOrdering:
    def test_failed_extension_round_charges_nothing(self, dataset):
        # Regression: the loop used to charge the budget before calling the
        # platform, so an extension outage leaked committed spend with no
        # purchased redundancy.
        budget = BudgetTracker(price_per_assignment=0.02)
        transport = FailingExtendTransport()
        context = CrowdContext(
            client=make_client("direct", transport=transport),
            ground_truth=dataset.ground_truth,
            budget=budget,
        )
        data = (
            context.CrowdData(dataset.images, "outage")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=POLICY.initial_assignments)
        )
        publish_spend = budget.spent
        assert publish_spend == pytest.approx(NUM_IMAGES * 2 * 0.02)
        with pytest.raises(PlatformUnavailableError):
            data.get_result_adaptive(POLICY)
        assert transport.extend_attempts > 0
        assert budget.spent == pytest.approx(publish_spend)
        context.close()

    def test_hard_budget_buys_affordable_prefix_then_raises(self, dataset):
        # Publish costs NUM_IMAGES * 2 assignments; leave room for only a
        # handful of extensions, so some round must overflow.
        price = 0.02
        budget = BudgetTracker(
            price_per_assignment=price, budget=(NUM_IMAGES * 2 + 6) * price
        )
        context = CrowdContext(
            client=make_client("direct"),
            ground_truth=dataset.ground_truth,
            budget=budget,
        )
        data = (
            context.CrowdData(dataset.images, "capped")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=POLICY.initial_assignments)
        )
        with pytest.raises(BudgetExceededError):
            data.get_result_adaptive(POLICY)
        # The affordable prefix was purchased and charged; never more.
        assert budget.spent <= budget.budget + 1e-9
        assert 0 < budget.total_assignments() - NUM_IMAGES * 2 <= 6
        context.close()


class TestIncrementalModels:
    def test_online_dawid_skene_drives_early_stopping(self, tmp_path, dataset):
        tracker = OnlineDawidSkene()
        context = CrowdContext(
            engine=build_engine("sqlite", tmp_path),
            client=make_client("direct"),
            ground_truth=dataset.ground_truth,
        )
        data = run_adaptive(context, dataset, aggregator=tracker)
        assert data.last_adaptive_aggregator is tracker
        aggregation = tracker.result()
        truth = {
            r["task_id"]: dataset.ground_truth(obj)
            for obj, r in zip(data.column("object"), data.column("result"))
        }
        assert aggregation.accuracy_against(truth) >= 0.8
        assert aggregation.worker_quality  # learned statistics survive
        context.close()


@pytest.mark.wire
class TestOverTheWire:
    def test_adaptive_collection_over_tcp(self, tmp_path, dataset):
        from repro.platform.wire import WireClient, WireServer

        with WireServer(make_server()) as server:
            client = WireClient(server.host, server.port)
            context = CrowdContext(
                engine=build_engine("sqlite", tmp_path),
                client=client,
                ground_truth=dataset.ground_truth,
            )
            try:
                data = run_adaptive(context, dataset)
                results = data.column("result")
                assert all(r["complete"] for r in results)
                assert data.last_adaptive_stats.extensions_requested > 0
            finally:
                context.close()
