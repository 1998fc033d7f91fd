"""Property-based tests: one page contract, checked against one oracle.

``list_project_task_ids`` / ``get_task_runs_page`` are the only project-read
protocol; a page is addressed by an exclusive ``start_after`` cursor plus an
``offset`` counted from it.  The contract is plain slicing of the project's
publication-order task ids — ``ids[anchor + 1 + offset:][:limit]`` — and the
reference is the server's in-process whole-project reader
(``PlatformServer.get_task_runs_for_project``), which pages nothing.

* one page: any ``(n_tasks, limit, offset, cursor)`` on both task stores
  equals the slice; a position past the end is ``[]``; a cursor the project
  does not contain (never issued, or another project's) and a non-positive
  limit or negative offset raise :class:`PlatformError`;
* whole streams: the serial client's chained cursors, the pipelined
  client's anchored offsets and the oracle's tail after the cursor are the
  same sequence;
* the same page contract holds across a real socket (``wire``-marked).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlatformConfig
from repro.exceptions import PlatformError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.platform.wire import WireClient, WireServer
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool

STORES = ["memory", "durable-sqlite"]

task_counts = st.integers(0, 18)
limits = st.integers(-1, 7)
offsets = st.integers(-1, 22)
#: Where the page is anchored: no cursor, the task at a (wrapped) position
#: of the project, an id never issued, or a task of another project.
cursors = st.one_of(
    st.none(), st.integers(0, 17), st.sampled_from(["unknown", "foreign"])
)


def populate(store, n_tasks):
    """A server whose project holds *n_tasks* answered tasks.

    Another project's tasks are published in the middle, so the project's
    ids are not contiguous and a foreign id sorts *inside* their range.
    Returns ``(server, project_id, foreign_task_id)``.
    """
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=5, accuracy=0.9, seed=3),
        config=PlatformConfig(seed=3),
        store=store,
    )
    project = server.create_project("paged").project_id
    other = server.create_project("other").project_id
    specs = [{"info": {"i": i}, "n_assignments": 1} for i in range(n_tasks)]
    server.create_tasks(project, specs[: n_tasks // 2])
    foreign = server.create_tasks(other, [{"info": {"i": "foreign"}}])[0].task_id
    server.create_tasks(project, specs[n_tasks // 2 :])
    server.simulate_work(project)
    return server, project, foreign


def open_store(kind):
    if kind == "memory":
        return None
    return DurableTaskStore(SqliteEngine(":memory:"), owns_engine=True)


def resolve_cursor(cursor, ids, foreign):
    """Map a drawn cursor to ``(start_after, anchor index or None if bad)``."""
    if cursor is None:
        return None, -1
    if cursor == "unknown":
        return 99999, None
    if cursor == "foreign":
        return foreign, None
    if not ids:
        return 1, None  # an empty project knows no cursor at all
    anchor = cursor % len(ids)
    return ids[anchor], anchor


def assert_page_is_the_slice(client, project, oracle, limit, offset, start_after, anchor):
    ids = list(oracle)
    if anchor is None or limit <= 0 or offset < 0:
        with pytest.raises(PlatformError):
            client.list_project_task_ids(project, limit, start_after, offset)
        with pytest.raises(PlatformError):
            client.get_task_runs_page(project, limit, start_after, offset)
        return
    expected = ids[anchor + 1 + offset :][:limit]
    assert client.list_project_task_ids(project, limit, start_after, offset) == expected
    assert client.get_task_runs_page(project, limit, start_after, offset) == [
        (task_id, oracle[task_id]) for task_id in expected
    ]


@pytest.mark.parametrize("store_kind", STORES)
@settings(max_examples=60, deadline=None)
@given(n_tasks=task_counts, limit=limits, offset=offsets, cursor=cursors)
def test_one_page_is_a_slice_of_the_oracle(store_kind, n_tasks, limit, offset, cursor):
    server, project, foreign = populate(open_store(store_kind), n_tasks)
    try:
        oracle = server.get_task_runs_for_project(project)
        assert len(oracle) == n_tasks
        start_after, anchor = resolve_cursor(cursor, list(oracle), foreign)
        assert_page_is_the_slice(
            PlatformClient(server), project, oracle, limit, offset, start_after, anchor
        )
    finally:
        server.close()


@pytest.mark.parametrize("store_kind", STORES)
@settings(max_examples=40, deadline=None)
@given(
    n_tasks=task_counts,
    page_size=st.integers(1, 7),
    in_flight=st.integers(1, 4),
    cursor=cursors,
)
def test_chained_cursors_equal_anchored_offsets_equal_the_oracle(
    store_kind, n_tasks, page_size, in_flight, cursor
):
    server, project, foreign = populate(open_store(store_kind), n_tasks)
    serial = PlatformClient(server)
    pipelined = PipelinedClient(server, max_in_flight=in_flight)
    try:
        oracle = server.get_task_runs_for_project(project)
        start_after, anchor = resolve_cursor(cursor, list(oracle), foreign)
        for client in (serial, pipelined):
            id_stream = client.iter_project_task_ids(project, page_size, start_after)
            run_stream = client.iter_task_runs_for_project(project, page_size, start_after)
            if anchor is None:
                with pytest.raises(PlatformError):
                    list(id_stream)
                with pytest.raises(PlatformError):
                    list(run_stream)
                continue
            tail = list(oracle.items())[anchor + 1 :]
            assert list(id_stream) == [task_id for task_id, _ in tail]
            assert list(run_stream) == tail
    finally:
        pipelined.close()
        server.close()


@pytest.mark.wire
def test_pages_over_a_socket_are_slices_of_the_oracle():
    server, project, foreign = populate(None, 13)
    oracle = server.get_task_runs_for_project(project)
    with WireServer(server) as endpoint:
        client = WireClient(endpoint.host, endpoint.port)

        @settings(max_examples=40, deadline=None)
        @given(limit=limits, offset=offsets, cursor=cursors)
        def check(limit, offset, cursor):
            start_after, anchor = resolve_cursor(cursor, list(oracle), foreign)
            assert_page_is_the_slice(
                client, project, oracle, limit, offset, start_after, anchor
            )

        try:
            check()
            assert list(client.iter_task_runs_for_project(project, 4)) == list(
                oracle.items()
            )
        finally:
            client.close()
