"""A real socket boundary for the platform: length-prefixed JSON over TCP.

Everything before this module exercised the client→server path through an
in-process function call (``DirectTransport``).  This module puts the same
verbs behind an actual network endpoint:

* :class:`WireServer` hosts a :class:`~repro.platform.server.PlatformServer`
  behind a TCP listener — in this process (tests), or in its own process via
  ``python -m repro.platform.wire`` / :func:`spawn_server`;
* :class:`WireTransport` is a client-side
  :class:`~repro.platform.transport.Transport` speaking the wire protocol,
  so the existing retry/backoff/dedup machinery heals dropped connections
  exactly like injected faults;
* :class:`WireClient` is a :class:`~repro.platform.client.PlatformClient`
  wired to a remote server through a :class:`RemoteServer` proxy.

Protocol (see ``docs/wire.md``):

* **Framing** — every message is one *frame*: a 4-byte big-endian unsigned
  length followed by that many bytes of UTF-8 JSON.  Frames larger than
  ``max_frame_bytes`` (default 16 MiB) are rejected on both sides.
* **Requests** — ``{"op": <verb>, "args": [...], "kwargs": {...}}``; one
  request is outstanding per connection at a time.
* **Responses** — ``{"ok": true, "result": ...}`` or ``{"ok": false,
  "error": {"kind": ..., "message": ..., "attrs": {...}}}``.  Error kinds
  name :mod:`repro.exceptions` classes and are re-raised client-side as the
  matching exception.
* **Values** — plain JSON passes through; tuples and non-string-keyed dicts
  travel as tagged objects and models as positional rows (``{"__wire__":
  "runs", "rows": [[...], ...]}``), rebuilt on the far side by the framing.

Failure semantics: any connect/reset/EOF/timeout on the client raises
:class:`~repro.exceptions.PlatformUnavailableError` — the *retryable* error
the platform stack already knows — after dropping the connection, so the
next attempt reconnects from scratch.  Combined with dedup keys, a call
whose response was lost mid-wire replays exactly-once against the restarted
server.  Server-side errors — a whole frame that does not decode included —
keep the connection open; they are answers, not faults.

Composition limits: ``WireTransport`` is a per-attempt transport like
``DirectTransport``; wrapping it in an ``AsyncTransport`` (the pipelined
client) is **not** supported in this revision because the protocol allows
only one outstanding request per connection.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Sequence

from repro import exceptions as _exceptions
from repro.config import PlatformConfig, StorageConfig
from repro.exceptions import (
    ConfigurationError,
    DuplicateKeyError,
    PlatformError,
    PlatformUnavailableError,
    ProjectNotFoundError,
    ReprowdError,
    TaskNotFoundError,
)
from repro.platform.client import PlatformClient
from repro.platform.models import Project, Task, TaskRun
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore, MemoryTaskStore
from repro.platform.transport import Transport, retry_call
from repro.storage.engine import open_engine
from repro.workers.pool import WorkerPool

#: Largest frame either side will send or accept, in bytes.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Socket timeout for client calls (covers slow simulate_work batches).
DEFAULT_WIRE_TIMEOUT = 30.0

#: Base retry backoff for wire clients.  Unlike the in-process default of
#: 0.0, a real server restart takes wall-clock time; hammering it with
#: back-to-back attempts would exhaust the retry budget before it returns.
DEFAULT_WIRE_RETRY_BACKOFF = 0.05

#: Key marking a dict as a tagged wire value rather than a plain mapping.
_TAG = "__wire__"
_TAG_BYTES = _TAG.encode("ascii")

_HEADER = struct.Struct("!I")

#: The verbs a server will dispatch — everything PlatformClient speaks,
#: plus auth, flush and a liveness probe.  Anything else is rejected
#: without touching the platform.
WIRE_OPS = frozenset(
    {
        "require_auth",
        "ping",
        "flush",
        "create_project",
        "find_project",
        "get_project",
        "delete_project",
        "create_tasks",
        "get_task",
        "list_tasks",
        "delete_task",
        "extend_tasks_redundancy",
        "get_task_runs",
        "list_project_task_ids",
        "get_task_runs_page",
        "is_task_complete",
        "is_project_complete",
        "pending_assignments",
        "simulate_work",
        "statistics",
    }
)


class FrameTooLargeError(PlatformError):
    """A frame exceeded the negotiated maximum size.

    Deliberately *not* a :class:`PlatformUnavailableError`: retrying an
    oversized payload would send the same oversized payload again.
    """

    def __init__(self, length: int, max_frame_bytes: int):
        super().__init__(
            f"wire frame of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte maximum"
        )
        self.length = length
        self.max_frame_bytes = max_frame_bytes


# -- value encoding ----------------------------------------------------------

#: Models cross the wire positionally, in dataclass field order
#: (tests/unit/test_wire_protocol.py pins these against the dataclasses).
_PROJECT_FIELDS = (
    "project_id", "name", "short_name", "description", "task_presenter", "created_at",
)  # fmt: skip
_TASK_FIELDS = (
    "task_id", "project_id", "info", "n_assignments", "priority", "created_at",
    "completed_at",
)  # fmt: skip
_RUN_FIELDS = (
    "run_id", "task_id", "project_id", "worker_id", "answer", "submitted_at",
    "latency_seconds", "assignment_order",
)  # fmt: skip
_FIELDS = {Project: _PROJECT_FIELDS, Task: _TASK_FIELDS, TaskRun: _RUN_FIELDS}
_ROW_OF = {cls: operator.attrgetter(*names) for cls, names in _FIELDS.items()}

#: Tag of one model (``"row"``) and of a homogeneous list of them (``"rows"``).
_ROW_TAGS = {"project": Project, "task": Task, "run": TaskRun}
_ROWS_TAGS = {"tasks": Task, "runs": TaskRun}
_LIST_TAG_OF = {cls: tag for tag, cls in _ROWS_TAGS.items()}

#: Every tag the codec emits and accepts (tabled in ``docs/wire.md``).
WIRE_TAGS = frozenset({"tuple", "map", *_ROW_TAGS, *_ROWS_TAGS})

#: Exact types both walkers hand back untouched, checked before recursing.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def encode_value(value: Any) -> Any:
    """Encode *value* into the JSON-safe wire representation.

    Plain JSON shapes pass through; tuples and dicts with non-string keys
    (or that collide with the tag key) become tagged objects, and models
    positional rows whose ``info`` / ``answer`` ride as they are — one
    ``rows`` object per homogeneous list.  :func:`decode_value` rebuilds
    each exactly.  Dispatch is on the exact type, subclasses fall through.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        first = type(value[0]) if value else None
        if first in _LIST_TAG_OF and len(set(map(type, value))) == 1:
            return {_TAG: _LIST_TAG_OF[first], "rows": list(map(_ROW_OF[first], value))}
        return [v if type(v) in _SCALARS else encode_value(v) for v in value]
    if kind is dict:
        for key in value:
            if type(key) is not str or key == _TAG:
                # Non-string keys (task ids) or a payload spelling the tag key:
                # explicit pairs, so nothing is mistaken for a tagged object.
                pairs = [[encode_value(k), encode_value(v)] for k, v in value.items()]
                return {_TAG: "map", "items": pairs}
        return {
            k: v if type(v) in _SCALARS else encode_value(v) for k, v in value.items()
        }
    if kind is tuple:
        return {_TAG: "tuple", "items": [encode_value(item) for item in value]}
    for tag, cls in _ROW_TAGS.items():
        if isinstance(value, cls):
            return {_TAG: tag, "row": _ROW_OF[cls](value)}
    for base in (list, dict, tuple):
        if isinstance(value, base):
            return encode_value(base(value))
    return value


def _build_models(cls: type, rows: list) -> list:
    width = len(_FIELDS[cls])
    if set(map(len, rows)) - {width}:  # a short row must not pick up defaults
        raise PlatformError(f"a {cls.__name__} row has exactly {width} fields")
    return [cls(*row) for row in rows]


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (given what ``json.loads`` hands back)."""
    if type(value) is list:
        return [v if type(v) in _SCALARS else decode_value(v) for v in value]
    if type(value) is not dict:
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {
            k: v if type(v) in _SCALARS else decode_value(v) for k, v in value.items()
        }
    if tag in _ROWS_TAGS:
        return _build_models(_ROWS_TAGS[tag], value["rows"])
    if tag in _ROW_TAGS:
        return _build_models(_ROW_TAGS[tag], [value["row"]])[0]
    if tag == "tuple":
        return tuple(decode_value(item) for item in value["items"])
    if tag == "map":
        return {decode_value(key): decode_value(item) for key, item in value["items"]}
    raise PlatformError(f"unknown wire value tag {tag!r}")


# -- error encoding ----------------------------------------------------------

#: Exception kinds rebuilt client-side, by class name.  Registered from the
#: exceptions module so new ReprowdError subclasses are wire-known for free.
_ERROR_KINDS: dict[str, type] = {
    name: cls
    for name, cls in vars(_exceptions).items()
    if isinstance(cls, type) and issubclass(cls, ReprowdError)
}

#: Exception attributes worth shipping so the client can rebuild the
#: errors whose constructors need more than a message.
_ERROR_ATTRS = ("project_id", "task_id", "table_name", "key", "step", "detail")


def encode_error(exc: BaseException) -> dict[str, Any]:
    """Encode an exception as the wire error object."""
    attrs: dict[str, Any] = {}
    for name in _ERROR_ATTRS:
        attr = getattr(exc, name, None)
        if isinstance(attr, (str, int, float, bool)):
            attrs[name] = attr
    kind = type(exc).__name__ if isinstance(exc, ReprowdError) else "PlatformError"
    message = str(exc) if isinstance(exc, ReprowdError) else f"{type(exc).__name__}: {exc}"
    return {"kind": kind, "message": message, "attrs": attrs}


def decode_error(error: dict[str, Any]) -> ReprowdError:
    """Rebuild the closest client-side exception for a wire error object."""
    kind = error.get("kind", "PlatformError")
    message = error.get("message", "")
    attrs = error.get("attrs") or {}
    if kind == "ProjectNotFoundError":
        return ProjectNotFoundError(attrs.get("project_id"))
    if kind == "TaskNotFoundError":
        return TaskNotFoundError(attrs.get("task_id"))
    if kind == "DuplicateKeyError":
        return DuplicateKeyError(attrs.get("table_name", "?"), attrs.get("key", "?"))
    cls = _ERROR_KINDS.get(kind)
    if cls is not None:
        try:
            return cls(message)
        except TypeError:
            pass
    return PlatformError(message or f"server error of kind {kind!r}")


# -- framing -----------------------------------------------------------------

_encode_frame = json.JSONEncoder(separators=(",", ":")).encode


def write_frame(sock: socket.socket, payload: Any, max_frame_bytes: int) -> None:
    """Encode and send one frame; :class:`FrameTooLargeError` before sending."""
    data = _encode_frame(encode_value(payload)).encode("utf-8")
    if len(data) > max_frame_bytes:
        raise FrameTooLargeError(len(data), max_frame_bytes)
    # One sendall for header+body: a killed peer then fails the whole
    # frame rather than leaving a bare header on the wire.
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ConnectionError(
                f"connection closed with {remaining} of {count} frame bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket, max_frame_bytes: int) -> Any:
    """Read one frame as live values; None on a clean EOF *between* frames.

    EOF inside a frame (header or body) raises :class:`ConnectionError` —
    a peer died mid-message, which the client maps to
    :class:`PlatformUnavailableError`.  Partial ``recv`` returns are
    reassembled, so a frame split across arbitrarily many TCP segments
    reads back whole.  A whole frame that is not JSON or does not rebuild
    raises a plain :class:`PlatformError`; the stream is still in sync.
    """
    header = b""
    while len(header) < _HEADER.size:
        chunk = sock.recv(_HEADER.size - len(header))
        if not chunk:
            if not header:
                return None
            raise ConnectionError("connection closed inside a frame header")
        header += chunk
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    body = _recv_exact(sock, length)
    try:
        value = json.loads(body.decode("utf-8"))
        # Decoding a structure that never spells the tag key rebuilds an
        # equal one, and an honest peer's ASCII-escaped JSON spells it
        # literally: one C substring scan stands in for the whole walk.
        return decode_value(value) if _TAG_BYTES in body else value
    except Exception as exc:  # noqa: BLE001 - hostile bytes fail in many ways
        raise PlatformError(f"malformed wire value ({exc!r})") from exc


# -- client side -------------------------------------------------------------


class WireTransport(Transport):
    """Client-side transport speaking the wire protocol to one server.

    Implements the per-attempt :class:`Transport` contract: every
    :meth:`call` is one request/response exchange, any transport-level
    failure (connect refused, reset, EOF, timeout) drops the connection and
    raises :class:`PlatformUnavailableError`, and the next call reconnects.
    The *method* argument of :meth:`call` — a bound method under direct
    transports — is ignored here; the verb *name* is what goes on the wire.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = DEFAULT_WIRE_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def call(self, name: str, method: Any, *args: Any, **kwargs: Any) -> Any:
        request = {"op": name, "args": list(args), "kwargs": kwargs}
        try:
            sock = self._connect()
            write_frame(sock, request, self.max_frame_bytes)
            response = read_frame(sock, self.max_frame_bytes)
        except PlatformError:
            # Oversized (nothing sent, or the stream is desynced) or malformed
            # (a retry reads the same bytes): drop, and never look retryable.
            self._drop()
            raise
        except OSError as exc:  # connect/reset/EOF/timeout
            self._drop()
            raise PlatformUnavailableError(
                f"wire call {name!r} to {self.host}:{self.port} failed: {exc}"
            ) from exc
        if response is None:
            self._drop()
            raise PlatformUnavailableError(
                f"server closed the connection during {name!r}"
            )
        if not isinstance(response, dict):
            raise PlatformError(f"malformed wire value: {name!r} reply is no object")
        if response.get("ok"):
            return response.get("result")
        raise decode_error(response.get("error") or {})

    def close(self) -> None:
        self._drop()


class RemoteServer:
    """Client-side proxy standing where :class:`PlatformServer` stands.

    :class:`PlatformClient` holds a server object and passes its bound
    methods to the transport; against a remote platform there is no such
    object, so this proxy synthesises one verb handle per attribute access.
    The handles are callable (they perform the wire call) but under a
    :class:`WireTransport` they are never invoked — the transport dispatches
    on the verb *name*.
    """

    def __init__(self, transport: WireTransport, config: PlatformConfig):
        self._transport = transport
        #: Client-side view of the platform config (api_key in particular);
        #: authoritative state lives in the server process.
        self.config = config

    def __getattr__(self, name: str) -> "_RemoteVerb":
        if name.startswith("_") or name not in WIRE_OPS:
            raise AttributeError(
                f"{type(self).__name__!s} exposes only wire verbs, not {name!r}"
            )
        return _RemoteVerb(self._transport, name)

    def require_auth(self, api_key: str) -> None:
        """Authenticate over the wire, retrying while the server starts up."""
        retry_call(
            lambda: self._transport.call("require_auth", None, api_key),
            retries=5,
            backoff=DEFAULT_WIRE_RETRY_BACKOFF,
        )

    def flush(self) -> None:
        """Ask the remote platform to flush its store durably."""
        self._transport.call("flush", None)

    def close(self) -> None:
        """No-op: the server's lifecycle belongs to its own process."""


class _RemoteVerb:
    """One callable verb handle vended by :class:`RemoteServer`."""

    def __init__(self, transport: WireTransport, name: str):
        self._transport = transport
        self.__name__ = name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._transport.call(self.__name__, self, *args, **kwargs)


class WireClient(PlatformClient):
    """A :class:`PlatformClient` whose server lives across a socket.

    Same verbs, same retry/dedup behaviour — only the transport differs,
    and the retry backoff defaults to a small base
    (:data:`DEFAULT_WIRE_RETRY_BACKOFF`) instead of 0 because real
    reconnects take wall-clock time.
    """

    def __init__(
        self,
        host: str,
        port: int,
        api_key: str | None = None,
        max_retries: int = 5,
        retry_backoff: float = DEFAULT_WIRE_RETRY_BACKOFF,
        retry_jitter: "Callable[[], float] | None" = None,
        timeout: float = DEFAULT_WIRE_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        owned_server: "WireServerHandle | None" = None,
    ):
        """Connect to the server at ``host:port``.

        Args:
            host: Server host.
            port: Server port.
            api_key: API key; the default platform key when omitted.
            max_retries: Transport attempts per call, first included.
            retry_backoff: Base delay between retried attempts.
            retry_jitter: Deterministic jitter source for the retry delays
                (see :class:`~repro.platform.client.PlatformClient`); tests
                seed it so reconnect timing cannot flake.
            timeout: Socket timeout per request/response exchange.
            max_frame_bytes: Frame-size cap (must match the server's).
            owned_server: A handle from :func:`spawn_server` this client
                should stop when it closes — how a private per-experiment
                server process gets its lifetime tied to the experiment.
        """
        config = PlatformConfig() if api_key is None else PlatformConfig(api_key=api_key)
        transport = WireTransport(
            host, port, timeout=timeout, max_frame_bytes=max_frame_bytes
        )
        self._owned_server = owned_server
        super().__init__(
            RemoteServer(transport, config),
            api_key=api_key,
            transport=transport,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            retry_jitter=retry_jitter,
        )

    def close(self) -> None:
        super().close()
        if self._owned_server is not None:
            self._owned_server.stop()
            self._owned_server = None


# -- server side -------------------------------------------------------------


class WireServer:
    """TCP front-end for one :class:`PlatformServer`.

    Threaded: one accept loop, one thread per connection, and one dispatch
    lock serialising every platform call — the platform server (clock,
    worker pool, store caches) is not internally thread-safe, and the wire
    contract only promises one outstanding request per *connection*, not
    true server-side parallelism.  Cross-process parallelism is the shared
    store's job (see ``--shared``).
    """

    def __init__(
        self,
        platform: PlatformServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        """Bind (but do not start serving) on ``host:port``.

        Port 0 binds an ephemeral port; read the chosen one from ``.port``.
        The caller keeps ownership of *platform* — :meth:`stop` never
        closes it.
        """
        self.platform = platform
        self.max_frame_bytes = max_frame_bytes
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._dispatch_lock = threading.Lock()
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start accepting connections on a background thread."""
        if self._accept_thread is not None:
            return
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="wire-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` is called."""
        self.start()
        assert self._accept_thread is not None
        while self._accept_thread.is_alive():
            self._accept_thread.join(timeout=0.5)

    def stop(self) -> None:
        """Stop accepting, sever every connection, and join the threads.

        In-flight calls see their sockets closed — clients observe
        :class:`PlatformUnavailableError`, exactly like a killed process.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        # Closing a listener does not wake a blocked accept() on Linux;
        # connect once so the accept loop observes the stop flag instead of
        # idling until its join timeout.
        try:
            socket.create_connection((self.host, self.port), timeout=1.0).close()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "WireServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- serving -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._connections_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = read_frame(conn, self.max_frame_bytes)
                except PlatformError as exc:
                    # A malformed frame is answered like any server error; an
                    # oversized one too, but its unread body ends the stream.
                    error = {"ok": False, "error": encode_error(exc)}
                    if not self._respond(conn, error) or isinstance(exc, FrameTooLargeError):
                        return
                    continue
                except OSError:
                    return  # peer died mid-frame; nothing to answer
                if request is None:
                    return  # clean disconnect between frames
                if not self._respond(conn, self._dispatch(request)):
                    return
        finally:
            with self._connections_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _respond(self, conn: socket.socket, response: dict[str, Any]) -> bool:
        try:
            write_frame(conn, response, self.max_frame_bytes)
            return True
        except FrameTooLargeError as exc:
            # The *result* outgrew the frame cap (a page of very large
            # runs).  Tell the caller, who can lower the page size.
            try:
                write_frame(conn, {"ok": False, "error": encode_error(exc)}, self.max_frame_bytes)
                return True
            except OSError:
                return False
        except OSError:
            return False

    def _dispatch(self, request: Any) -> dict[str, Any]:
        try:
            if not isinstance(request, dict):
                raise PlatformError("malformed wire value: a request is an object")
            op = request.get("op")
            if not isinstance(op, str) or op not in WIRE_OPS:
                raise PlatformError(f"unknown wire operation {op!r}")
            args, kwargs = request.get("args") or [], request.get("kwargs") or {}
            if not (isinstance(args, list) and isinstance(kwargs, dict)):
                raise PlatformError("malformed wire value: args [...], kwargs {...}")
            with self._dispatch_lock:
                if op == "ping":
                    result: Any = "pong"
                elif op == "flush":
                    result = self.platform.flush()
                else:
                    result = getattr(self.platform, op)(*args, **kwargs)
            return {"ok": True, "result": result}
        except Exception as exc:  # noqa: BLE001 - every failure must cross the wire
            return {"ok": False, "error": encode_error(exc)}


# -- server process management ----------------------------------------------


class WireServerHandle:
    """A spawned server process: address, liveness, and termination."""

    def __init__(self, process: subprocess.Popen, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    def alive(self) -> bool:
        """True while the server process is running."""
        return self.process.poll() is None

    def kill(self) -> None:
        """Kill the process hard (SIGKILL) — the chaos-test path."""
        if self.alive():
            self.process.kill()
        self.process.wait(timeout=10)

    def stop(self) -> None:
        """Terminate the process and reap it."""
        if self.alive():
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait(timeout=10)

    def __enter__(self) -> "WireServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _python_env() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` can import :mod:`repro`."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


def spawn_server(
    db: str | None = None,
    host: str = "127.0.0.1",
    api_key: str | None = None,
    seed: int = 0,
    pool_size: int = 20,
    accuracy: float = 0.95,
    shared: bool = False,
    namespace: str = "platform",
    port_file: str | None = None,
    timeout: float = 20.0,
) -> WireServerHandle:
    """Launch ``python -m repro.platform.wire`` and wait until it listens.

    Args:
        db: SQLite file for a durable platform store; None serves from an
            in-memory store (state dies with the process).  Two servers
            spawned on the *same* ``db`` (pass ``shared=True``) form the
            multi-server cluster the contention suite exercises.
        host: Interface to bind.
        api_key: Platform API key (default key when omitted).
        seed: Worker-pool seed.
        pool_size: Simulated workers in the pool.
        accuracy: Uniform worker accuracy.
        shared: Mark the durable store as concurrently written by other
            server processes (disables its single-writer caches).
        namespace: Durable store table-name prefix.
        port_file: Where the server publishes its bound port; a throwaway
            sibling of *db* (or of a temp dir) when omitted.  Removed once
            the port was read, with the temp dir if one was made.
        timeout: Seconds to wait for the server to come up.

    Returns:
        A :class:`WireServerHandle`; the caller owns the process.
    """
    own_dir = None
    if port_file is None:
        import tempfile

        if db is None:
            own_dir = tempfile.mkdtemp()
        port_file = os.path.join(
            own_dir or os.path.dirname(os.path.abspath(db)),
            f".wire-port-{os.getpid()}-{id(object()):x}.txt",
        )
    if os.path.exists(port_file):
        os.unlink(port_file)
    command = [
        sys.executable,
        "-m",
        "repro.platform.wire",
        "--host",
        host,
        "--port",
        "0",
        "--port-file",
        port_file,
        "--seed",
        str(seed),
        "--pool-size",
        str(pool_size),
        "--accuracy",
        str(accuracy),
        "--namespace",
        namespace,
    ]
    if db is not None:
        command += ["--store", "durable", "--db", db]
    if api_key is not None:
        command += ["--api-key", api_key]
    if shared:
        command.append("--shared")
    process = subprocess.Popen(
        command,
        env=_python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        return WireServerHandle(process, host, _await_port(process, port_file, timeout))
    finally:
        # The handshake is over either way: leave nothing behind.
        try:
            os.unlink(port_file)
        except OSError:
            pass
        if own_dir is not None:
            import shutil

            shutil.rmtree(own_dir, ignore_errors=True)


def _await_port(process: subprocess.Popen, port_file: str, timeout: float) -> int:
    """Poll *port_file* (1 ms doubling to 20 ms) until the server publishes its port."""
    deadline = time.monotonic() + timeout
    pause = 0.001
    while time.monotonic() < deadline:
        if process.poll() is not None:
            stderr = process.stderr.read() if process.stderr else ""
            raise PlatformUnavailableError(
                "wire server exited during startup "
                f"(code {process.returncode}): {stderr.strip()[-500:]}"
            )
        try:
            # The server renames a complete file into place: present means whole.
            with open(port_file, "r", encoding="utf-8") as handle:
                return int(handle.read())
        except (OSError, ValueError):
            pass
        time.sleep(pause)
        pause = min(pause * 2, 0.02)
    process.kill()
    raise PlatformUnavailableError(
        f"wire server did not publish a port within {timeout} seconds"
    )


# -- command line ------------------------------------------------------------


def build_platform(args: argparse.Namespace) -> PlatformServer:
    """Build the :class:`PlatformServer` a CLI invocation asked for."""
    if args.store == "durable":
        if not args.db:
            raise ConfigurationError("--store durable requires --db PATH")
        store = DurableTaskStore(
            open_engine(StorageConfig(engine="sqlite", path=args.db)),
            namespace=args.namespace,
            owns_engine=True,
            shared=args.shared,
        )
    else:
        store = MemoryTaskStore()
    config_kwargs: dict[str, Any] = {"seed": args.seed}
    if args.api_key is not None:
        config_kwargs["api_key"] = args.api_key
    return PlatformServer(
        worker_pool=WorkerPool.uniform(args.pool_size, args.accuracy, seed=args.seed),
        config=PlatformConfig(**config_kwargs),
        store=store,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.platform.wire``: serve until killed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.platform.wire",
        description="Serve a reprowd platform over a TCP socket.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (spawn handshake)",
    )
    parser.add_argument(
        "--store",
        choices=("memory", "durable"),
        default="memory",
        help="platform state: in-process dicts, or a durable SQLite store",
    )
    parser.add_argument("--db", default=None, help="SQLite file for --store durable")
    parser.add_argument(
        "--namespace", default="platform", help="durable store table prefix"
    )
    parser.add_argument(
        "--shared",
        action="store_true",
        help="other server processes write the same durable store",
    )
    parser.add_argument("--api-key", default=None, help="accepted API key")
    parser.add_argument("--seed", type=int, default=0, help="worker-pool seed")
    parser.add_argument(
        "--pool-size", type=int, default=20, help="simulated workers in the pool"
    )
    parser.add_argument(
        "--accuracy", type=float, default=0.95, help="uniform worker accuracy"
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=DEFAULT_MAX_FRAME_BYTES,
        help="reject frames larger than this",
    )
    args = parser.parse_args(argv)

    platform = build_platform(args)
    server = WireServer(
        platform, host=args.host, port=args.port, max_frame_bytes=args.max_frame_bytes
    )
    if args.port_file:
        # Written beside, then renamed: a reader sees no file or the whole port.
        staging = args.port_file + ".tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
        os.replace(staging, args.port_file)
    print(f"wire server listening on {server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.stop()
        platform.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
