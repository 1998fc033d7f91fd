"""Unit tests for the wire protocol: framing, value/error codecs, retry
backoff, and the in-process WireServer/WireClient pair.

The cross-process side (spawned ``python -m repro.platform.wire`` servers,
multi-process contention) lives in ``tests/integration/test_wire_cluster.py``;
here every socket stays inside the test process so failures are cheap to
reproduce and the byte-level edge cases (frames split across reads, EOF
inside a header, oversized frames in both directions) are deterministic.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import random
import socket
import threading
import time

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.exceptions import (
    DuplicateKeyError,
    PlatformError,
    PlatformUnavailableError,
    ProjectNotFoundError,
    StorageError,
    TaskNotFoundError,
)
from repro.platform.models import Project, Task, TaskRun
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.transport import CountingTransport, retry_call
from repro.platform import wire
from repro.platform.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLargeError,
    WIRE_OPS,
    WireClient,
    WireServer,
    decode_error,
    decode_value,
    encode_error,
    encode_value,
    read_frame,
    write_frame,
)
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool


# -- value codec -------------------------------------------------------------


class TestValueCodec:
    def roundtrip(self, value):
        return decode_value(encode_value(value))

    def test_scalars_pass_through(self):
        for value in (None, True, 0, 7, 2.5, "hello", ""):
            assert self.roundtrip(value) == value

    def test_lists_and_string_dicts(self):
        value = {"a": [1, 2, {"b": None}], "c": "x"}
        assert self.roundtrip(value) == value

    def test_tuple_survives_as_tuple(self):
        assert self.roundtrip((1, "two", [3])) == (1, "two", [3])
        assert isinstance(self.roundtrip((1,)), tuple)

    def test_model_objects_roundtrip(self):
        project = Project(project_id=3, name="p", short_name="p")
        task = Task(task_id=9, project_id=3, info={"url": "img"}, n_assignments=2)
        run = TaskRun(run_id=4, task_id=9, project_id=3, worker_id="w1", answer="Yes")
        assert self.roundtrip(project) == project
        assert self.roundtrip(task) == task
        assert self.roundtrip(run) == run
        assert self.roundtrip([task, run]) == [task, run]

    def test_int_keyed_dict_keeps_int_keys(self):
        runs = {
            7: [TaskRun(run_id=1, task_id=7, project_id=1, worker_id="w", answer="A")],
            8: [],
        }
        decoded = self.roundtrip(runs)
        assert set(decoded) == {7, 8}
        assert decoded[7][0].answer == "A"

    def test_dict_containing_tag_key_is_not_mistaken_for_tagged(self):
        # A user payload may legitimately contain the reserved key; it must
        # come back as data, not be interpreted as a tagged object.
        value = {"__wire__": "task", "data": {"anything": 1}}
        assert self.roundtrip(value) == value

    def test_unknown_tag_raises(self):
        with pytest.raises(PlatformError, match="unknown wire value tag"):
            decode_value({"__wire__": "no-such-tag"})

    def test_positional_field_order_is_the_dataclass_field_order(self):
        # Rows are rebuilt with ``Model(*row)``: a reordered dataclass that
        # left these tuples behind would scramble fields silently.
        for model, names in [
            (Project, wire._PROJECT_FIELDS),
            (Task, wire._TASK_FIELDS),
            (TaskRun, wire._RUN_FIELDS),
        ]:
            assert names == tuple(f.name for f in dataclasses.fields(model))

    def test_model_lists_travel_as_rows_only_when_homogeneous(self):
        task = Task(task_id=9, project_id=3, info={"url": "img"})
        run = TaskRun(run_id=4, task_id=9, project_id=3, worker_id="w1", answer="Yes")
        assert encode_value([run, run]) == {
            "__wire__": "runs",
            "rows": [(4, 9, 3, "w1", "Yes", 0.0, 0.0, 1)] * 2,
        }
        assert encode_value([task])["__wire__"] == "tasks"
        assert encode_value([]) == []
        mixed = encode_value([task, run, 5])
        assert [item["__wire__"] for item in mixed[:2]] == ["task", "run"]
        assert self.roundtrip([task, run, 5]) == [task, run, 5]

    def test_info_containing_the_tag_key_rides_raw_inside_the_row(self):
        task = Task(task_id=1, project_id=1, info={"__wire__": "run", "row": [1]})
        assert encode_value(task)["row"][2] is task.info
        assert self.roundtrip([task]) == [task]

    def test_subclasses_take_the_fallback_path(self):
        class Spec(dict):
            pass

        class Pair(tuple):
            pass

        class MyTask(Task):
            pass

        assert self.roundtrip(Spec(a=[1])) == {"a": [1]}
        assert self.roundtrip(Pair((1, 2))) == (1, 2)
        mine = MyTask(task_id=1, project_id=1, info={})
        assert self.roundtrip([mine]) == [Task(task_id=1, project_id=1, info={})]

    @pytest.mark.parametrize(
        "value",
        [
            {"__wire__": "task"},  # no row
            {"__wire__": "runs"},  # no rows
            {"__wire__": "run", "row": [1, 2, 3]},  # too short: defaults must not fill in
            {"__wire__": "tasks", "rows": [[1, 1, {}, 3, 0.0, 0.0, None, "extra"]]},
            {"__wire__": "tuple"},
            {"__wire__": "map", "items": [[1, 2, 3]]},
            {"__wire__": ["unhashable"]},
        ],
    )
    def test_malformed_tagged_values_raise(self, value):
        with pytest.raises((PlatformError, KeyError, TypeError, ValueError)):
            decode_value(value)


# -- error codec -------------------------------------------------------------


class TestErrorCodec:
    def test_project_not_found_rebuilds_with_id(self):
        error = decode_error(encode_error(ProjectNotFoundError(42)))
        assert isinstance(error, ProjectNotFoundError)
        assert error.project_id == 42

    def test_task_not_found_rebuilds_with_id(self):
        error = decode_error(encode_error(TaskNotFoundError(17)))
        assert isinstance(error, TaskNotFoundError)
        assert error.task_id == 17

    def test_duplicate_key_rebuilds_with_table_and_key(self):
        error = decode_error(encode_error(DuplicateKeyError("t", "k")))
        assert isinstance(error, DuplicateKeyError)
        assert (error.table_name, error.key) == ("t", "k")

    def test_reprowd_subclass_rebuilds_by_name(self):
        error = decode_error(encode_error(StorageError("disk on fire")))
        assert isinstance(error, StorageError)
        assert "disk on fire" in str(error)

    def test_non_reprowd_exception_ships_as_platform_error(self):
        error = decode_error(encode_error(KeyError("boom")))
        assert type(error) is PlatformError
        assert "KeyError" in str(error)

    def test_unknown_kind_falls_back_to_platform_error(self):
        error = decode_error({"kind": "NoSuchError", "message": "m"})
        assert type(error) is PlatformError
        assert "m" in str(error)


# -- framing -----------------------------------------------------------------


class FakeSocket:
    """A socket double whose recv() returns pre-programmed chunks.

    Lets the framing tests force arbitrary TCP segmentation — one byte per
    recv, EOF mid-header, EOF mid-body — without racing a real peer.
    """

    def __init__(self, data: bytes, chunk_size: int = 1):
        self._chunks = [
            data[i : i + chunk_size] for i in range(0, len(data), chunk_size)
        ]
        self.sent = b""

    def recv(self, size: int) -> bytes:
        if not self._chunks:
            return b""
        chunk = self._chunks.pop(0)
        if len(chunk) > size:
            chunk, rest = chunk[:size], chunk[size:]
            self._chunks.insert(0, rest)
        return chunk

    def sendall(self, data: bytes) -> None:
        self.sent += data


def frame_bytes(payload: dict) -> bytes:
    sink = FakeSocket(b"")
    write_frame(sink, payload, DEFAULT_MAX_FRAME_BYTES)
    return sink.sent


@pytest.fixture
def decode_calls(monkeypatch):
    """One entry per ``decode_value`` call, recursive ones included — counted
    by patching the name, as ``test_incremental_steps.py`` counts key hashes."""
    calls = []
    real = decode_value
    monkeypatch.setattr(wire, "decode_value", lambda value: calls.append(1) or real(value))
    return calls


class TestFraming:
    def test_frame_split_into_single_bytes_reads_back_whole(self):
        payload = {"op": "ping", "args": [1, 2, 3], "kwargs": {"k": "v"}}
        sock = FakeSocket(frame_bytes(payload), chunk_size=1)
        assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == payload

    def test_frame_is_a_length_header_plus_compact_insertion_ordered_json(self):
        payload = {"op": "ping", "args": [1, "é"], "kwargs": {"z": None, "a": 1.5}}
        body = b'{"op":"ping","args":[1,"\\u00e9"],"kwargs":{"z":null,"a":1.5}}'
        assert frame_bytes(payload) == len(body).to_bytes(4, "big") + body

    def test_two_frames_back_to_back_then_clean_eof(self):
        data = frame_bytes({"n": 1}) + frame_bytes({"n": 2})
        sock = FakeSocket(data, chunk_size=3)
        assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == {"n": 1}
        assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == {"n": 2}
        assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) is None

    def test_eof_inside_header_raises_connection_error(self):
        sock = FakeSocket(frame_bytes({"n": 1})[:2])
        with pytest.raises(ConnectionError, match="frame header"):
            read_frame(sock, DEFAULT_MAX_FRAME_BYTES)

    def test_eof_inside_body_raises_connection_error(self):
        data = frame_bytes({"n": 1})
        sock = FakeSocket(data[:-3])
        with pytest.raises(ConnectionError, match="frame bytes unread"):
            read_frame(sock, DEFAULT_MAX_FRAME_BYTES)

    def test_oversized_inbound_frame_rejected_from_header_alone(self):
        sock = FakeSocket(frame_bytes({"blob": "x" * 500}))
        with pytest.raises(FrameTooLargeError) as info:
            read_frame(sock, 64)
        assert info.value.max_frame_bytes == 64

    def test_oversized_outbound_frame_rejected_before_sending(self):
        sock = FakeSocket(b"")
        with pytest.raises(FrameTooLargeError):
            write_frame(sock, {"blob": "x" * 500}, 64)
        assert sock.sent == b""  # nothing hit the wire

    def test_runs_page_reply_frame_bytes_are_pinned(self):
        runs = [
            TaskRun(4, 7, 1, "w0028", "No", 51.5, 51.5, 1),
            TaskRun(5, 7, 1, "w0033", {"label": "B"}, 66.75, 15.25, 2),
        ]
        body = (
            b'{"ok":true,"result":[{"__wire__":"tuple","items":[7,{"__wire__":"runs",'
            b'"rows":[[4,7,1,"w0028","No",51.5,51.5,1],'
            b'[5,7,1,"w0033",{"label":"B"},66.75,15.25,2]]}]},'
            b'{"__wire__":"tuple","items":[8,[]]}]}'
        )
        reply = {"ok": True, "result": [(7, runs), (8, [])]}
        assert frame_bytes(reply) == len(body).to_bytes(4, "big") + body
        assert read_frame(FakeSocket(frame_bytes(reply), 7), DEFAULT_MAX_FRAME_BYTES) == reply

    def test_create_tasks_reply_frame_bytes_are_pinned(self):
        tasks = [
            Task(1, 1, {"url": "img-0", "candidates": ["Yes", "No"]}, 3, 0.0, 2.5, None),
            Task(2, 1, {"url": "img-1", "candidates": ["Yes", "No"]}, 2, 1.0, 2.5, 9.0),
        ]
        body = (
            b'{"ok":true,"result":{"__wire__":"tasks","rows":['
            b'[1,1,{"url":"img-0","candidates":["Yes","No"]},3,0.0,2.5,null],'
            b'[2,1,{"url":"img-1","candidates":["Yes","No"]},2,1.0,2.5,9.0]]}}'
        )
        reply = {"ok": True, "result": tasks}
        assert frame_bytes(reply) == len(body).to_bytes(4, "big") + body
        assert read_frame(FakeSocket(frame_bytes(reply), 64), DEFAULT_MAX_FRAME_BYTES) == reply

    def test_single_model_frame_is_a_positional_row(self):
        project = Project(3, "p", "p", "d", "<b/>", 1.5)
        body = b'{"ok":true,"result":{"__wire__":"project","row":[3,"p","p","d","<b/>",1.5]}}'
        reply = {"ok": True, "result": project}
        assert frame_bytes(reply)[4:] == body
        assert read_frame(FakeSocket(frame_bytes(reply), 5), DEFAULT_MAX_FRAME_BYTES) == reply

    def test_a_page_of_runs_costs_at_most_100_bytes_per_run(self):
        page = [
            (
                task_id,
                [
                    TaskRun(
                        run_id=task_id * 3 + k,
                        task_id=task_id,
                        project_id=1,
                        worker_id=f"w{k:04d}",
                        answer="Yes",
                        submitted_at=1234.567890123456 + k,
                        latency_seconds=12.345678901234567,
                        assignment_order=k + 1,
                    )
                    for k in range(3)
                ],
            )
            for task_id in range(1, 31)
        ]
        frame = frame_bytes({"ok": True, "result": page})
        assert len(frame) / 90 <= 100  # the named-field objects cost 211 B per run

    def test_tag_free_request_reaches_the_verb_without_a_decode_call(self, decode_calls):
        calls = decode_calls
        platform = make_platform()
        project = platform.create_project("counted").project_id
        seen_at_verb = []
        create_tasks = platform.create_tasks

        def counted_create_tasks(*args, **kwargs):
            seen_at_verb.append(len(calls))
            return create_tasks(*args, **kwargs)

        platform.create_tasks = counted_create_tasks
        server = WireServer(platform)
        try:
            request = {"op": "create_tasks", "args": [project, SPECS], "kwargs": {}}
            sock = FakeSocket(frame_bytes(request), 4096)
            response = server._dispatch(read_frame(sock, DEFAULT_MAX_FRAME_BYTES))
        finally:
            server.stop()
        assert response["ok"] and len(response["result"]) == len(SPECS)
        assert seen_at_verb == [0]

    def test_decoding_a_runs_page_makes_no_call_per_run(self, decode_calls):
        pairs = [
            (t, [TaskRun(t * 3 + k, t, 1, "w", "A", 1.0, 1.0, k + 1) for k in range(3)])
            for t in range(1, 31)
        ]
        frame = frame_bytes({"ok": True, "result": pairs})
        calls = decode_calls
        reply = read_frame(FakeSocket(frame, 4096), DEFAULT_MAX_FRAME_BYTES)
        assert reply["result"] == pairs
        assert 0 < len(calls) <= 4 * len(pairs)  # one per run on top, before rows

    def test_whole_frame_that_does_not_decode_is_a_plain_platform_error(self):
        for body in (b"{not json", b'{"r":{"__wire__":"runs"}}', b'{"__wire__":"zzz"}'):
            sock = FakeSocket(len(body).to_bytes(4, "big") + body + frame_bytes({"n": 1}), 3)
            with pytest.raises(PlatformError, match="malformed wire value") as info:
                read_frame(sock, DEFAULT_MAX_FRAME_BYTES)
            assert type(info.value) is PlatformError  # not retryable, not oversized
            # The stream is still in sync: the next frame reads back whole.
            assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == {"n": 1}

    def test_real_socketpair_roundtrip(self):
        left, right = socket.socketpair()
        try:
            payload = {"op": "create_tasks", "args": [[1, 2], {"k": "v"}]}
            write_frame(left, payload, DEFAULT_MAX_FRAME_BYTES)
            assert read_frame(right, DEFAULT_MAX_FRAME_BYTES) == payload
        finally:
            left.close()
            right.close()


# -- retry_call backoff ------------------------------------------------------


class TestRetryCall:
    def test_non_positive_retries_raises(self):
        with pytest.raises(ValueError, match="counts attempts"):
            retry_call(lambda: 1, retries=0)
        with pytest.raises(ValueError):
            retry_call(lambda: 1, retries=-3)

    def test_negative_backoff_raises(self):
        with pytest.raises(ValueError, match="backoff"):
            retry_call(lambda: 1, retries=1, backoff=-0.1)

    def test_retries_counts_attempts_not_retries(self):
        attempts = []

        def attempt():
            attempts.append(1)
            raise PlatformUnavailableError("down")

        with pytest.raises(PlatformUnavailableError):
            retry_call(attempt, retries=3)
        assert len(attempts) == 3

    def test_zero_backoff_never_sleeps(self):
        sleeps = []

        def attempt():
            raise PlatformUnavailableError("down")

        with pytest.raises(PlatformUnavailableError):
            retry_call(attempt, retries=4, backoff=0.0, sleep=sleeps.append)
        assert sleeps == []

    def test_backoff_grows_exponentially_with_jitter_and_cap(self):
        sleeps = []

        def attempt():
            raise PlatformUnavailableError("down")

        with pytest.raises(PlatformUnavailableError):
            retry_call(
                attempt,
                retries=6,
                backoff=0.1,
                max_backoff=0.5,
                rng=random.Random(7),
                sleep=sleeps.append,
            )
        # One delay between each consecutive attempt pair — none after the
        # final failure.
        assert len(sleeps) == 5
        nominal = [0.1, 0.2, 0.4, 0.5, 0.5]  # 0.1 * 2**k capped at 0.5
        for actual, expected in zip(sleeps, nominal):
            assert 0.5 * expected <= actual <= expected

    def test_jitter_hook_makes_delays_fully_deterministic(self):
        """The seedable ``jitter=`` hook pins every delay exactly — the
        fix that keeps wire fault-recovery timing assertions from flaking.
        It also takes precedence over any rng passed alongside."""
        sleeps = []

        def attempt():
            raise PlatformUnavailableError("down")

        with pytest.raises(PlatformUnavailableError):
            retry_call(
                attempt,
                retries=5,
                backoff=0.1,
                max_backoff=0.4,
                rng=random.Random(7),  # would vary the delays; must lose
                jitter=lambda: 1.0,
                sleep=sleeps.append,
            )
        assert sleeps == [0.1, 0.2, 0.4, 0.4]  # exact: no randomness left

    def test_seeded_jitter_is_reproducible_run_to_run(self):
        def attempt():
            raise PlatformUnavailableError("down")

        def delays():
            sleeps = []
            with pytest.raises(PlatformUnavailableError):
                retry_call(
                    attempt,
                    retries=6,
                    backoff=0.05,
                    jitter=random.Random(1234).random,
                    sleep=sleeps.append,
                )
            return sleeps

        first, second = delays(), delays()
        assert first == second
        assert all(0.5 * n <= d <= n for d, n in zip(first, [0.05, 0.1, 0.2, 0.4, 0.8]))

    def test_success_after_failures_returns_value(self):
        state = {"n": 0}

        def attempt():
            state["n"] += 1
            if state["n"] < 3:
                raise PlatformUnavailableError("down")
            return "ok"

        assert retry_call(attempt, retries=5) == "ok"
        assert state["n"] == 3


# -- in-process server/client ------------------------------------------------


def make_platform(store=None, seed: int = 11) -> PlatformServer:
    pool = WorkerPool.from_config(
        WorkerPoolConfig(size=10, mean_accuracy=0.95, seed=seed)
    )
    return PlatformServer(
        worker_pool=pool, config=PlatformConfig(seed=seed), store=store
    )


SPECS = [
    {
        "info": {"url": f"img-{i}", "_true_answer": "Yes"},
        "n_assignments": 2,
        "dedup_key": f"obj-{i}",
    }
    for i in range(5)
]


class TestWireServerClient:
    def test_full_workflow_over_loopback(self):
        with WireServer(make_platform()) as server:
            client = WireClient(server.host, server.port)
            try:
                project = client.create_project("wire-unit")
                tasks = client.create_tasks(project.project_id, SPECS)
                assert len(tasks) == len(SPECS)
                created = client.simulate_work(project_id=project.project_id)
                assert created == len(SPECS) * 2
                runs = dict(client.iter_task_runs_for_project(project.project_id, 2))
                assert list(runs) == [task.task_id for task in tasks]
                assert all(len(answers) == 2 for answers in runs.values())
                assert client.is_project_complete(project.project_id)
            finally:
                client.close()

    def test_create_tasks_replay_is_exactly_once(self):
        with WireServer(make_platform()) as server:
            client = WireClient(server.host, server.port)
            try:
                project = client.create_project("replay")
                first = client.create_tasks(project.project_id, SPECS)
                second = client.create_tasks(project.project_id, SPECS)
                assert [t.task_id for t in first] == [t.task_id for t in second]
                assert len(client.list_tasks(project.project_id)) == len(SPECS)
            finally:
                client.close()

    def test_server_errors_cross_the_wire_typed(self):
        with WireServer(make_platform()) as server:
            client = WireClient(server.host, server.port)
            try:
                with pytest.raises(ProjectNotFoundError) as info:
                    client.get_project(99999)
                assert info.value.project_id == 99999
                with pytest.raises(TaskNotFoundError):
                    client.get_task(99999)
            finally:
                client.close()

    def test_wrong_api_key_is_rejected_not_retried(self):
        with WireServer(make_platform()) as server:
            with pytest.raises(PlatformError, match="invalid API key"):
                WireClient(server.host, server.port, api_key="wrong-key")

    def test_unknown_verb_rejected_without_touching_platform(self):
        with WireServer(make_platform()) as server:
            client = WireClient(server.host, server.port)
            try:
                with pytest.raises(PlatformError, match="unknown wire operation"):
                    client.transport.call("drop_all_tables", None)
                # The connection survives a rejected verb: errors are
                # answers, not faults.
                assert client.transport.call("ping", None) == "pong"
            finally:
                client.close()

    def test_non_wire_attribute_of_remote_server_raises(self):
        with WireServer(make_platform()) as server:
            client = WireClient(server.host, server.port)
            try:
                with pytest.raises(AttributeError):
                    client.server.answer_oracle  # noqa: B018 - attribute probe
            finally:
                client.close()

    def test_stopped_server_raises_platform_unavailable(self):
        server = WireServer(make_platform())
        server.start()
        client = WireClient(server.host, server.port, max_retries=2)
        try:
            client.create_project("doomed")
            server.stop()
            with pytest.raises(PlatformUnavailableError):
                client.find_project("doomed")
        finally:
            client.close()

    def test_oversized_response_answers_with_frame_error(self):
        # Client request fits, server response does not: the server must
        # answer with a (small) typed error instead of the giant frame.
        platform = make_platform()
        with WireServer(platform, max_frame_bytes=2048) as server:
            client = WireClient(server.host, server.port, max_frame_bytes=2048)
            try:
                project = client.create_project("big")
                specs = [
                    {
                        "info": {"url": f"img-{i}", "blob": "x" * 64},
                        "n_assignments": 1,
                        "dedup_key": f"obj-{i}",
                    }
                    for i in range(64)
                ]
                with pytest.raises(PlatformError, match="exceeds") as info:
                    client.create_tasks(project.project_id, specs)
                assert not isinstance(info.value, PlatformUnavailableError)
                # Paged access still works on the same connection.
                assert client.transport.call("ping", None) == "pong"
            finally:
                client.close()

    def test_restarted_server_on_same_store_resumes_exactly_once(self, tmp_path):
        db = str(tmp_path / "platform.db")

        def open_platform():
            return make_platform(
                store=DurableTaskStore(SqliteEngine(db), owns_engine=True)
            )

        first_platform = open_platform()
        with WireServer(first_platform) as server:
            client = WireClient(server.host, server.port)
            project = client.create_project("durable")
            first = client.create_tasks(project.project_id, SPECS)
            client.close()
        first_platform.close()

        second_platform = open_platform()
        with WireServer(second_platform) as server:
            client = WireClient(server.host, server.port)
            replayed = client.create_tasks(project.project_id, SPECS)
            assert [t.task_id for t in replayed] == [t.task_id for t in first]
            assert len(client.list_tasks(project.project_id)) == len(SPECS)
            client.close()
        second_platform.close()

    def test_killed_connection_mid_call_maps_to_unavailable_then_heals(self):
        # Sever every live connection while a call is blocked server-side;
        # the client sees the retryable error and the next attempt (a fresh
        # connection) succeeds — the fault story of docs/wire.md.
        platform = make_platform()
        release = threading.Event()
        original = platform.find_project

        def slow_find(name):
            release.set()
            return original(name)

        platform.find_project = slow_find
        with WireServer(platform) as server:
            client = WireClient(server.host, server.port, max_retries=1)
            try:
                client.create_project("healing")
                worker_error: list[BaseException] = []

                def blocked_call():
                    try:
                        client.find_project("healing")
                    except BaseException as exc:  # noqa: BLE001
                        worker_error.append(exc)

                thread = threading.Thread(target=blocked_call)
                # Hold the dispatch lock so the wire call queues behind it.
                with server._dispatch_lock:
                    thread.start()
                    release_seen = release.wait(timeout=0.3)
                    assert release_seen is False  # still queued on the lock
                    with server._connections_lock:
                        for conn in list(server._connections):
                            conn.shutdown(socket.SHUT_RDWR)
                thread.join(timeout=5)
                assert worker_error
                assert isinstance(worker_error[0], PlatformUnavailableError)
                # A fresh client call reconnects and succeeds.
                found = client.find_project("healing")
                assert found is not None and found.name == "healing"
            finally:
                client.close()

    @pytest.mark.parametrize(
        "body",
        [
            b'{"op":"ping","args":[{"__wire__":"task"}]}',
            b'{"op":"ping","args":[{"__wire__":"no-such-tag"}]}',
            b'{"op":"ping","args":5}',
            b'{"op":"ping","kwargs":[1]}',
            b"[1,2]",
            b'{"op":"ping","args":[{"__wire__":"runs"}]}',
            b'{"op":"ping","args":[{"__wire__":"run","row":[1,2,3]}]}',
            b'{"op":"ping","args":[{"__wire__":"tasks","rows":[[1,2,3,4,5,6,7,8]]}]}',
            b"{not json at all",
        ],
    )
    def test_malformed_frame_gets_a_typed_answer_and_the_connection_lives(self, body):
        # Each of these killed the connection thread with an uncaught
        # exception: the client saw a bare EOF and retried the same frame.
        with WireServer(make_platform()) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(len(body).to_bytes(4, "big") + body)
                answer = read_frame(sock, DEFAULT_MAX_FRAME_BYTES)
                assert answer["ok"] is False
                assert answer["error"]["kind"] == "PlatformError"
                assert "malformed wire value" in answer["error"]["message"]
                write_frame(sock, {"op": "ping"}, DEFAULT_MAX_FRAME_BYTES)
                pong = {"ok": True, "result": "pong"}
                assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == pong
                (thread,) = server._threads
                assert thread.is_alive()

    def test_malformed_reply_raises_once_instead_of_retrying(self):
        # A peer that answers every request with a frame that does not
        # rebuild: the same bytes would come back, so no attempt is repeated.
        listener = socket.create_server(("127.0.0.1", 0))
        requests = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                while read_frame(conn, DEFAULT_MAX_FRAME_BYTES) is not None:
                    requests.append(1)
                    body = b'{"ok":true,"result":{"__wire__":"runs"}}'
                    conn.sendall(len(body).to_bytes(4, "big") + body)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(PlatformError, match="malformed wire value") as info:
                WireClient(*listener.getsockname()[:2], max_retries=4, retry_backoff=0.0)
            assert not isinstance(info.value, PlatformUnavailableError)
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert requests == [1]
        finally:
            listener.close()

    def test_finished_connection_threads_are_pruned(self):
        with WireServer(make_platform()) as server:
            for _ in range(50):
                client = WireClient(server.host, server.port)
                assert client.transport.call("ping", None) == "pong"
                client.close()
            deadline = time.monotonic() + 5
            while any(t.is_alive() for t in server._threads):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client = WireClient(server.host, server.port)  # one live connection
            try:
                assert client.transport.call("ping", None) == "pong"
                assert len(server._threads) <= 1 + 1
            finally:
                client.close()

    @pytest.mark.parametrize("client_class", [PlatformClient, PipelinedClient])
    def test_wire_ops_are_exactly_what_the_clients_send(self, client_class):
        # Equality in both directions: an op no client sends is dead
        # surface, and a client verb the wire cannot dispatch makes a
        # remote client strictly weaker than a local one.  WireClient
        # inherits every method driven here.
        transport = CountingTransport()
        if client_class is PipelinedClient:
            client = PipelinedClient(
                make_platform(), transport=transport, batch_size=2, max_in_flight=2
            )
        else:
            client = PlatformClient(make_platform(), transport=transport)
        try:
            driven = drive_every_public_method(client)
        finally:
            client.close()
        public = {
            name
            for name, _ in inspect.getmembers(client_class, inspect.isfunction)
            if not name.startswith("_")
        }
        # A new public method must be added to the drive list.
        assert driven | {"close"} == public
        sent = set(transport.calls_by_name)
        assert sent | {"require_auth", "ping", "flush"} == WIRE_OPS == FROZEN_WIRE_OPS
        assert len(WIRE_OPS) == 20


#: The wire surface, frozen: adding or dropping an op is a reviewed edit
#: here, in ``WIRE_OPS`` and in the ``docs/wire.md`` table at once.
FROZEN_WIRE_OPS = frozenset(
    """
    require_auth ping flush
    create_project find_project get_project delete_project
    create_tasks get_task list_tasks delete_task extend_tasks_redundancy
    get_task_runs list_project_task_ids get_task_runs_page
    is_task_complete is_project_complete pending_assignments
    simulate_work statistics
    """.split()
)


def drive_every_public_method(client: PlatformClient) -> set[str]:
    """Call each public client method once; return the method names called."""
    project = client.create_project("surface")
    pid = project.project_id
    tasks = client.create_tasks(pid, SPECS)  # > batch_size: pipelined sub-batches
    first = tasks[0].task_id
    doomed = client.create_project("doomed").project_id
    drives = {
        "find_project": lambda: client.find_project("surface"),
        "get_project": lambda: client.get_project(pid),
        "create_task": lambda: client.create_task(pid, {"url": "one"}, 1, "one"),
        "get_task": lambda: client.get_task(first),
        "list_tasks": lambda: client.list_tasks(pid),
        "extend_task_redundancy": lambda: client.extend_task_redundancy(first, 1),
        "extend_tasks_redundancy": lambda: client.extend_tasks_redundancy({first: 1}),
        "simulate_work": lambda: client.simulate_work(project_id=pid),
        "get_task_runs": lambda: client.get_task_runs(first),
        "list_project_task_ids": lambda: client.list_project_task_ids(pid, 2, first, 1),
        "get_task_runs_page": lambda: client.get_task_runs_page(pid, 2, first, 1),
        "iter_project_task_ids": lambda: list(client.iter_project_task_ids(pid, 2)),
        "iter_task_runs_for_project": lambda: list(
            client.iter_task_runs_for_project(pid, 2)
        ),
        "is_task_complete": lambda: client.is_task_complete(first),
        "is_project_complete": lambda: client.is_project_complete(pid),
        "pending_assignments": lambda: client.pending_assignments(pid),
        "statistics": lambda: client.statistics(),
        "delete_task": lambda: client.delete_task(first),
        "delete_project": lambda: client.delete_project(doomed),
    }
    for drive in drives.values():
        drive()
    return {"create_project", "create_tasks", *drives}
