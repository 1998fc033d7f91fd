"""One more extend → publish → collect step costs what its batch costs.

The program the paper describes is rerun and extended, so the requester pays
for the *step*, not for the table behind it.  These tests run a 12-batch
stream on a sqlite cache and count, per step and in machine-independent
units, the three kinds of work that used to grow with the table:

* ``cache.object_key`` calls — a row is hashed once, when it is created;
* cache rows read (keys handed to the engine's reads of the ``tasks`` and
  ``results`` tables) — only rows whose cell is still ``None`` are asked for;
* ``TaskRun``s the platform returns — both streams resume after the collected
  prefix instead of walking the project from task 1.

Totals are bounded against the rows / runs of the whole stream, and the last
third of the steps may cost at most 1.5x the first third (at the parent of
this change the last third cost about four times the first).  The same
stream also pins what the manipulation log's ``cache_hits`` means.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro import AdaptivePolicy, CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import CountingTransport, Transport
from repro.presenters import ImageLabelPresenter
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool

BATCHES = 12
BATCH_SIZE = 10
#: Each batch repeats this many objects of the one before it: ``extend``
#: hashes them, finds them present and adds no row.
REPEATS = 2
REDUNDANCY = 3
PAGE_SIZE = 25
SEED = 23
POLICY = AdaptivePolicy(
    initial_assignments=2, max_assignments=5, min_assignments=2,
    confidence_threshold=0.7, extra_per_round=2,
)
#: Crowd rounds one adaptive step can take: the first, then top-ups of
#: ``extra_per_round`` until ``max_assignments``.
ADAPTIVE_ROUNDS = 1 + -(-(POLICY.max_assignments - POLICY.initial_assignments) // POLICY.extra_per_round)
RUN_VERB = "get_task_runs_page"
CACHE_TABLES = ("stream::tasks", "stream::results")


class RunCountingTransport(Transport):
    """Counts the ``TaskRun``s the platform hands back through *inner*."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.runs_returned = 0
        self._lock = threading.Lock()

    def call(self, name, method, *args, **kwargs):
        result = self.inner.call(name, method, *args, **kwargs)
        if name == RUN_VERB:
            with self._lock:
                self.runs_returned += sum(len(runs) for _, runs in result)
        return result

    def close(self):
        self.inner.close()


class CountingEngine:
    """Pass-through engine wrapper counting rows read and write calls per table."""

    def __init__(self, inner):
        self._inner = inner
        self.rows_read = Counter()
        self.write_calls = Counter()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, table_name, key, default=None):
        self.rows_read[table_name] += 1
        return self._inner.get(table_name, key, default)

    def get_many(self, table_name, keys):
        keys = list(keys)
        self.rows_read[table_name] += len(keys)
        return self._inner.get_many(table_name, keys)

    def put(self, table_name, key, value):
        self.write_calls[table_name] += 1
        return self._inner.put(table_name, key, value)

    def put_many(self, table_name, items, if_absent=False):
        self.write_calls[table_name] += 1
        return self._inner.put_many(table_name, items, if_absent=if_absent)

    def cache_rows_read(self):
        return sum(self.rows_read[table] for table in CACHE_TABLES)


def make_server():
    pool = WorkerPool.from_config(WorkerPoolConfig(size=20, mean_accuracy=0.85, seed=SEED))
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=SEED))


def batches():
    """The stream's arrivals: ``BATCHES`` lists, each overlapping the last."""
    step = BATCH_SIZE - REPEATS
    return [
        [f"img-{i:04d}.png" for i in range(start, start + BATCH_SIZE)]
        for start in range(0, BATCHES * step, step)
    ]


class Stream:
    """Runs the stream one step at a time against *client*, counting."""

    def __init__(self, engine, client, counter, adaptive=False):
        self.engine = engine
        self.client = client
        self.counter = counter
        self.adaptive = adaptive
        self.key_calls = 0
        self.steps = []  # per step: (key calls, cache rows read, runs returned)

    def run(self):
        context = CrowdContext(
            engine=self.engine, client=self.client, ground_truth=lambda obj: "Yes"
        )
        data = context.CrowdData([], "stream")
        data.collect_page_size = PAGE_SIZE
        hash_row = data.cache.object_key

        def counted_object_key(obj, task_type):
            self.key_calls += 1
            return hash_row(obj, task_type)

        data.cache.object_key = counted_object_key
        data.set_presenter(ImageLabelPresenter())
        before = self._totals()
        for batch in batches():
            data.extend(batch)
            if self.adaptive:
                data.publish_task(n_assignments=POLICY.initial_assignments)
                data.get_result_adaptive(POLICY)
            else:
                data.publish_task(n_assignments=REDUNDANCY).get_result()
            after = self._totals()
            self.steps.append(tuple(b - a for a, b in zip(before, after)))
            before = after
        return data

    def _totals(self):
        return (self.key_calls, self.engine.cache_rows_read(), self.counter.runs_returned)

    def total(self, position):
        return sum(step[position] for step in self.steps)

    def thirds(self, position):
        third = len(self.steps) // 3
        counts = [step[position] for step in self.steps]
        return sum(counts[:third]), sum(counts[-third:])


def assert_step_costs_are_flat(stream, data, runs_bound):
    rows = len(data)
    assert rows == BATCHES * (BATCH_SIZE - REPEATS) + REPEATS
    purchased = stream.client.statistics()["task_runs"]
    assert all(result["complete"] for result in data.column("result"))

    assert stream.total(0) <= 3 * rows
    assert stream.total(1) <= 3 * rows
    assert stream.total(2) <= runs_bound * purchased
    for position in range(3):
        first, last = stream.thirds(position)
        assert first > 0
        assert last <= 1.5 * first, (position, stream.steps)


def assert_cache_hits_mean_rows_that_skipped_the_platform(data, verb, warm):
    """``cache_hits`` of a publish / collect log record counts the rows that
    did not need the platform — already filled in memory or found in the
    cache: every earlier row on a cold step, every row on a warm rerun."""
    records = [m for m in data.manipulation_history() if m.operation in ("publish_task", verb)]
    records = records[-2 * BATCHES :]  # a warm rerun appends to the cold run's log
    assert [m.operation for m in records] == ["publish_task", verb] * BATCHES
    rows_before = 0
    for publish, collect in zip(records[::2], records[1::2]):
        rows = publish.rows_affected
        assert collect.rows_affected == rows
        expected = rows if warm else rows_before
        assert (publish.cache_hits, collect.cache_hits) == (expected, expected)
        rows_before = rows


def make_client(kind, transport):
    if kind == "pipelined":
        return PipelinedClient(
            make_server(), transport=transport, batch_size=PAGE_SIZE, max_in_flight=3
        )
    return PlatformClient(make_server(), transport=transport)


@pytest.mark.parametrize("kind", ["direct", "pipelined"])
class TestStepCostFollowsTheBatch:
    def test_fixed_redundancy_stream(self, kind, tmp_path):
        counter = RunCountingTransport(CountingTransport())
        client = make_client(kind, counter)
        engine = CountingEngine(SqliteEngine(str(tmp_path / "stream.db")))
        stream = Stream(engine, client, counter)
        data = stream.run()
        assert_step_costs_are_flat(stream, data, runs_bound=2)
        assert_cache_hits_mean_rows_that_skipped_the_platform(data, "get_result", warm=False)
        # Round-trips per step do not grow either: the id check and the run
        # stream are one page each, whatever the table has grown to.
        calls = counter.inner.calls_by_name
        if kind == "direct":
            assert calls["list_project_task_ids"] == BATCHES
            assert calls["get_task_runs_page"] == BATCHES

        # Warm rerun on a fresh context: nothing is published, bought or
        # streamed, and every row of every step is a cache hit.
        tasks, runs = client.statistics()["tasks"], counter.runs_returned
        rerun = Stream(engine, client, counter)
        again = rerun.run()
        assert client.statistics()["tasks"] == tasks
        assert counter.runs_returned == runs
        assert again.column("result") == data.column("result")
        assert rerun.total(0) <= 3 * len(again)
        assert rerun.total(1) <= 3 * len(again)
        assert_cache_hits_mean_rows_that_skipped_the_platform(again, "get_result", warm=True)
        client.close()
        engine.close()

    def test_adaptive_stream(self, kind, tmp_path):
        counter = RunCountingTransport(CountingTransport())
        client = make_client(kind, counter)
        engine = CountingEngine(SqliteEngine(str(tmp_path / "adaptive.db")))
        stream = Stream(engine, client, counter, adaptive=True)
        data = stream.run()
        # Every crowd round re-reads the step's own tasks (their runs so
        # far), and the final collection reads them once more — a bound in
        # the batch and the policy, not in the table.
        assert_step_costs_are_flat(stream, data, runs_bound=ADAPTIVE_ROUNDS + 1)
        assert_cache_hits_mean_rows_that_skipped_the_platform(
            data, "get_result_adaptive", warm=False
        )
        client.close()
        engine.close()


@pytest.mark.wire
class TestStepCostOverTheWire:
    def test_fixed_redundancy_stream_over_tcp(self, tmp_path):
        from repro.platform.wire import WireClient, WireServer

        with WireServer(make_server()) as server:
            client = WireClient(server.host, server.port)
            counter = client.transport = RunCountingTransport(client.transport)
            engine = CountingEngine(SqliteEngine(str(tmp_path / "wire.db")))
            try:
                stream = Stream(engine, client, counter)
                data = stream.run()
                assert_step_costs_are_flat(stream, data, runs_bound=2)
            finally:
                client.close()
                engine.close()
