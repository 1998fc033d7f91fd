"""Unit tests for the pipelined transport stack.

Covers the :class:`AsyncTransport` concurrency layer (bounded in-flight
window, ticket-ordered server application, flush-on-read barrier), the
:class:`PipelinedClient` facade (in-flight ``create_tasks`` sub-batches,
offset-pumped page iteration) and — the hard part — the fault-injection
scenarios where a failure lands on an in-flight batch: no duplicate tasks,
no lost appends, retries attributed to the right call name.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import pytest

from repro.config import PlatformConfig, ReprowdConfig
from repro.exceptions import ConfigurationError, PlatformError, PlatformUnavailableError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.platform.transport import (
    AsyncTransport,
    CountingTransport,
    DirectTransport,
    FaultInjectingTransport,
    LatencyInjectingTransport,
    Transport,
)
from repro.storage import MemoryEngine
from repro.workers.pool import WorkerPool


def make_server(seed: int = 2, store=None) -> PlatformServer:
    pool = WorkerPool.uniform(size=8, accuracy=0.95, seed=seed)
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed), store=store)


def task_specs(count: int, redundancy: int = 1) -> list[dict[str, Any]]:
    return [
        {
            "info": {"object": index, "_true_answer": "Yes"},
            "n_assignments": redundancy,
            "dedup_key": f"obj-{index:05d}",
        }
        for index in range(count)
    ]


class BlockingTransport(Transport):
    """Holds every call at the transport layer until ``release`` is set."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self._lock = threading.Lock()
        self.concurrent = 0
        self.max_concurrent = 0

    def call(self, name: str, method: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        try:
            assert self.release.wait(timeout=10)
            return method(*args, **kwargs)
        finally:
            with self._lock:
                self.concurrent -= 1


class JitterTransport(Transport):
    """Charges a per-call latency taken from a list, in submission order."""

    def __init__(self, delays: list[float]):
        self.delays = list(delays)
        self._lock = threading.Lock()

    def call(self, name: str, method: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            delay = self.delays.pop(0) if self.delays else 0.0
        time.sleep(delay)
        return method(*args, **kwargs)


class TestLatencyInjectingTransport:
    def test_delegates_and_reports_latency(self):
        inner = CountingTransport()
        transport = LatencyInjectingTransport(inner, latency_seconds=0.0)
        assert transport.call("add", lambda a, b: a + b, 1, 2) == 3
        stats = transport.statistics()
        assert stats["calls_by_name"] == {"add": 1}
        assert stats["latency_seconds"] == 0.0

    def test_sleeps_per_attempt(self):
        transport = LatencyInjectingTransport(latency_seconds=0.02)
        start = time.perf_counter()
        transport.call("noop", lambda: None)
        transport.call("noop", lambda: None)
        assert time.perf_counter() - start >= 0.04

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyInjectingTransport(latency_seconds=-0.1)


class TestAsyncTransport:
    def test_call_async_returns_future_results(self):
        transport = AsyncTransport(max_in_flight=4)
        futures = [
            transport.call_async("square", lambda value=v: value * value)
            for v in range(10)
        ]
        assert [future.result() for future in futures] == [v * v for v in range(10)]
        transport.close()

    def test_in_flight_bounded_and_backpressured(self):
        inner = BlockingTransport()
        transport = AsyncTransport(inner, max_in_flight=3)
        futures = [transport.call_async("noop", lambda: None) for _ in range(3)]

        submitted_fourth = threading.Event()

        def submit_fourth():
            futures.append(transport.call_async("noop", lambda: None))
            submitted_fourth.set()

        extra = threading.Thread(target=submit_fourth, daemon=True)
        extra.start()
        # With three calls parked in the transport, the fourth submission
        # must block on the in-flight window rather than queue up.
        assert not submitted_fourth.wait(timeout=0.2)
        assert transport.in_flight == 3
        inner.release.set()
        assert submitted_fourth.wait(timeout=10)
        extra.join(timeout=10)
        transport.drain()
        assert inner.max_concurrent <= 3
        assert all(future.done() for future in futures)
        transport.close()

    def test_server_application_follows_submission_order(self):
        # The first call sleeps longest in the transport; without the
        # ticket turnstile the later calls would reach the server first.
        transport = AsyncTransport(JitterTransport([0.08, 0.04, 0.0, 0.0]), max_in_flight=4)
        applied: list[int] = []
        futures = [
            transport.call_async("apply", lambda i=i: applied.append(i)) for i in range(4)
        ]
        for future in futures:
            future.result()
        assert applied == [0, 1, 2, 3]
        transport.close()

    def test_sync_call_is_a_barrier(self):
        inner = BlockingTransport()
        transport = AsyncTransport(inner, max_in_flight=2)
        order: list[str] = []
        async_future = transport.call_async("write", lambda: order.append("async"))
        release = threading.Timer(0.05, inner.release.set)
        release.start()
        # call() must drain the in-flight write before executing.
        transport.call("read", lambda: order.append("sync"))
        async_future.result()
        assert order == ["async", "sync"]
        release.cancel()
        transport.close()

    def test_retries_stay_inside_the_ticket(self):
        # Call 0 fails twice before succeeding; call 1 is submitted right
        # after and must still apply second.
        attempts = {"count": 0}
        applied: list[str] = []

        class FlakyTransport(Transport):
            def call(self, name, method, *args, **kwargs):
                if name == "flaky":
                    attempts["count"] += 1
                    if attempts["count"] <= 2:
                        raise PlatformUnavailableError("injected")
                return method(*args, **kwargs)

        transport = AsyncTransport(FlakyTransport(), max_in_flight=2)
        first = transport.call_async("flaky", lambda: applied.append("first"), retries=5)
        second = transport.call_async("steady", lambda: applied.append("second"))
        first.result()
        second.result()
        assert applied == ["first", "second"]
        assert attempts["count"] == 3
        transport.close()

    def test_exhausted_retries_surface_on_the_future(self):
        class AlwaysDown(Transport):
            def call(self, name, method, *args, **kwargs):
                if name == "doomed":
                    raise PlatformUnavailableError("down")
                return method(*args, **kwargs)

        transport = AsyncTransport(AlwaysDown(), max_in_flight=2)
        future = transport.call_async("doomed", lambda: None, retries=3)
        with pytest.raises(PlatformUnavailableError):
            future.result()
        # A failed call must not wedge the turnstile for later calls.
        assert transport.call_async("after", lambda: "ok").result() == "ok"
        transport.close()

    def test_statistics_compose_with_inner(self):
        transport = AsyncTransport(CountingTransport(), max_in_flight=2)
        transport.call_async("noop", lambda: None).result()
        transport.call("noop", lambda: None)
        stats = transport.statistics()
        assert stats["calls_by_name"] == {"noop": 2}
        assert stats["async"]["submitted"] == 1
        assert stats["async"]["completed"] == 1
        assert stats["async"]["max_in_flight"] == 2
        transport.close()

    def test_invalid_max_in_flight(self):
        with pytest.raises(ValueError):
            AsyncTransport(max_in_flight=0)


class TestPipelinedClientEquivalence:
    """The pipelined client is observationally identical to the serial one."""

    NUM_TASKS = 403

    def run_experiment(self, client: PlatformClient, page_size: int = 40):
        project = client.create_project("p")
        tasks = client.create_tasks(project.project_id, task_specs(self.NUM_TASKS))
        client.simulate_work(project.project_id)
        collected = [
            (task_id, [(run.worker_id, run.answer) for run in runs])
            for task_id, runs in client.iter_task_runs_for_project(
                project.project_id, page_size
            )
        ]
        ids = list(client.iter_project_task_ids(project.project_id, page_size))
        return [task.task_id for task in tasks], collected, ids

    def test_same_ids_answers_and_order_as_serial(self):
        serial = self.run_experiment(PlatformClient(make_server()))
        pipelined_client = PipelinedClient(
            make_server(), batch_size=50, max_in_flight=4
        )
        pipelined = self.run_experiment(pipelined_client)
        assert serial == pipelined
        pipelined_client.close()

    def test_create_tasks_returns_spec_order(self):
        client = PipelinedClient(make_server(), batch_size=25, max_in_flight=4)
        project = client.create_project("p")
        tasks = client.create_tasks(project.project_id, task_specs(130))
        assert [task.info["object"] for task in tasks] == list(range(130))
        client.close()

    def test_small_batch_uses_the_serial_path(self):
        counting = CountingTransport()
        client = PipelinedClient(
            make_server(), transport=counting, batch_size=100, max_in_flight=4
        )
        project = client.create_project("p")
        client.create_tasks(project.project_id, task_specs(40))
        assert counting.calls_by_name["create_tasks"] == 1
        client.close()

    def test_dedup_replay_returns_existing_tasks(self):
        client = PipelinedClient(make_server(), batch_size=30, max_in_flight=4)
        project = client.create_project("p")
        first = client.create_tasks(project.project_id, task_specs(90))
        replay = client.create_tasks(project.project_id, task_specs(90))
        assert [task.task_id for task in first] == [task.task_id for task in replay]
        assert client.statistics()["tasks"] == 90
        client.close()

    def test_abandoned_iteration_settles_in_flight_slices(self):
        client = PipelinedClient(make_server(), batch_size=50, max_in_flight=4)
        project = client.create_project("p")
        client.create_tasks(project.project_id, task_specs(300))
        client.simulate_work(project.project_id)
        stream = client.iter_task_runs_for_project(project.project_id, 20)
        for _ in range(5):
            next(stream)
        stream.close()
        # The barrier of the next sync verb must find nothing in flight.
        assert client.transport.in_flight == 0
        assert client.statistics()["tasks"] == 300
        client.close()

    def test_server_error_mid_batch_settles_all_sub_batches(self):
        client = PipelinedClient(make_server(), batch_size=10, max_in_flight=4)
        project = client.create_project("p")
        specs = task_specs(40)
        del specs[15]["info"]  # second sub-batch fails server-side validation
        with pytest.raises(PlatformError):
            client.create_tasks(project.project_id, specs)
        # Every other sub-batch was settled before the error propagated:
        # nothing still runs behind the caller's back.
        assert client.transport.in_flight == 0
        client.close()

    def test_page_stream_ends_at_the_first_short_page(self):
        """Nothing past the first short page is yielded — even when a
        speculative later page comes back non-empty (tasks appended
        mid-iteration), the stream must match the serial cursor chain,
        which ends at the short page rather than yielding a gapped tail."""
        client = PipelinedClient(make_server(), batch_size=10, max_in_flight=4)
        pages = {0: list(range(4)), 4: [4, 5], 8: [12, 13, 14, 15]}

        def fake_page(project_id, limit, start_after, offset):
            return pages.get(offset, [])

        client.server.list_project_task_ids = fake_page
        yielded = list(client._iter_pages("list_project_task_ids", 1, 4, None))
        assert yielded == [[0, 1, 2, 3], [4, 5]]
        assert client.transport.in_flight == 0
        client.close()

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            PipelinedClient(make_server(), batch_size=0)


class TestPipelinedFaultInjection:
    """A failure landing on an in-flight batch must not corrupt anything."""

    def test_failed_in_flight_batches_do_not_duplicate_tasks(self):
        # Which attempts fail is scheduling-dependent under the async
        # transport (shared RNG across workers), so the retry budget is
        # sized for the worst observable streak, and the assertions are
        # invariants, not exact failure placements.
        fault = FaultInjectingTransport(failure_rate=0.35, seed=11)
        client = PipelinedClient(
            make_server(), transport=fault, batch_size=25, max_in_flight=4, max_retries=20
        )
        project = client.create_project("p")
        tasks = client.create_tasks(project.project_id, task_specs(250))
        assert len(tasks) == 250
        assert len({task.task_id for task in tasks}) == 250
        assert client.statistics()["tasks"] == 250
        stats = fault.statistics()
        assert stats["failures_by_name"].get("create_tasks", 0) > 0
        # Attempt accounting: 10 sub-batches each retried until success, so
        # attempts == failures + successful batch applications.
        assert stats["calls_by_name"]["create_tasks"] == (
            stats["failures_by_name"].get("create_tasks", 0) + 250 // 25
        )
        client.close()

    def test_failures_during_slice_collection_are_retried_per_slice(self):
        fault = FaultInjectingTransport(failure_rate=0.3, seed=23)
        client = PipelinedClient(
            make_server(), transport=fault, batch_size=50, max_in_flight=4, max_retries=20
        )
        project = client.create_project("p")
        client.create_tasks(project.project_id, task_specs(300, redundancy=2))
        client.simulate_work(project.project_id)
        collected = dict(client.iter_task_runs_for_project(project.project_id, 30))
        assert len(collected) == 300
        assert all(len(runs) == 2 for runs in collected.values())
        assert fault.statistics()["failures_injected"] > 0
        client.close()

    def test_no_lost_appends_on_a_durable_store_under_faults(self):
        engine = MemoryEngine()
        store = DurableTaskStore(engine)
        fault = FaultInjectingTransport(failure_rate=0.3, duplicate_rate=0.2, seed=5)
        client = PipelinedClient(
            make_server(store=store),
            transport=fault,
            batch_size=40,
            max_in_flight=4,
            max_retries=20,
        )
        project = client.create_project("p")
        client.create_tasks(project.project_id, task_specs(160, redundancy=2))
        created = client.simulate_work(project.project_id)
        assert created == 320
        # Every append survived the faults (and the duplicated deliveries of
        # simulate_work), durably: a store reopened on the same engine sees
        # all of them.
        reopened = PlatformServer(
            worker_pool=WorkerPool.uniform(size=8, accuracy=0.95, seed=2),
            config=PlatformConfig(seed=2),
            store=DurableTaskStore(engine),
        )
        assert reopened.statistics()["task_runs"] == 320
        assert reopened.is_project_complete(project.project_id)
        client.close()

    def test_exhausted_retries_propagate_from_create_tasks(self):
        fault = FaultInjectingTransport(failure_rate=1.0, seed=3)
        server = make_server()
        project = server.create_project("p")  # created server-side: the
        # transport is fully down, so every client call must fail.
        client = PipelinedClient(
            server, transport=fault, batch_size=10, max_in_flight=2, max_retries=2
        )
        with pytest.raises(PlatformUnavailableError):
            client.create_tasks(project.project_id, task_specs(50))
        client.close()


class TestConfigWiring:
    def test_context_builds_pipelined_client(self):
        import dataclasses

        from repro import CrowdContext

        config = ReprowdConfig.in_memory(seed=3)
        config = dataclasses.replace(
            config,
            platform=dataclasses.replace(
                config.platform, transport="pipelined", max_in_flight=3
            ),
        )
        with CrowdContext(config=config) as context:
            assert isinstance(context.client, PipelinedClient)
            assert isinstance(context.client.transport, AsyncTransport)
            assert context.client.max_in_flight == 3

    def test_pipelined_context_wraps_fault_injection(self):
        import dataclasses

        from repro import CrowdContext

        config = ReprowdConfig.in_memory(seed=3)
        config = dataclasses.replace(
            config,
            platform=dataclasses.replace(
                config.platform, transport="pipelined", failure_rate=0.2
            ),
        )
        with CrowdContext(config=config) as context:
            assert isinstance(context.client.transport, AsyncTransport)
            assert isinstance(context.client.transport.inner, FaultInjectingTransport)

    def test_unknown_transport_rejected(self):
        import dataclasses

        from repro import CrowdContext

        config = ReprowdConfig.in_memory(seed=3)
        config = dataclasses.replace(
            config, platform=dataclasses.replace(config.platform, transport="quantum")
        )
        with pytest.raises(ConfigurationError):
            CrowdContext(config=config)
