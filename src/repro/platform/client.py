"""PyBossa-shaped client used by the CrowdData layer.

The client is the only part of the platform package that the core library
talks to.  It mirrors the subset of the ``pbclient`` API the original
Reprowd uses — create/find project, create task, fetch task runs — plus a
``simulate_work`` call that stands in for "wait for humans to answer".

All calls go through a :class:`repro.platform.transport.Transport`, and every
write is retried on transport failure, which together with the server's
idempotent project creation exercises the same robustness the original needs
against a flaky PyBossa deployment.

Two clients share that surface:

* :class:`PlatformClient` — one blocking round-trip per call (the seed
  behaviour, and the serial baseline every pipelining claim is measured
  against);
* :class:`PipelinedClient` — the same verbs over an
  :class:`~repro.platform.transport.AsyncTransport`: large ``create_tasks``
  publishes are split into sub-batches kept in flight concurrently, and the
  streaming iterators pump ``max_in_flight`` offset-addressed pages at once
  (the same two paging verbs, scheduled differently),
  so transport latency overlaps with server-side storage work while every
  ordering and idempotence contract of the serial client still holds.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import PlatformError
from repro.platform.models import Project, Task, TaskRun
from repro.platform.server import PlatformServer
from repro.platform.transport import (
    AsyncTransport,
    DirectTransport,
    Transport,
    retry_call,
)


class PlatformClient:
    """Client facade over :class:`repro.platform.server.PlatformServer`."""

    def __init__(
        self,
        server: PlatformServer,
        api_key: str | None = None,
        transport: Transport | None = None,
        max_retries: int = 5,
        retry_backoff: float = 0.0,
        retry_jitter: Callable[[], float] | None = None,
    ):
        """Connect to *server* with *api_key*.

        Args:
            server: The in-process platform server.
            api_key: API key; defaults to the server's configured key.
            transport: Transport used for every call (direct when omitted).
            max_retries: Maximum transport attempts per call (the first
                attempt included) before the transport error is propagated.
            retry_backoff: Base delay between retried attempts (exponential
                with jitter; see
                :func:`~repro.platform.transport.retry_call`).  0 retries
                immediately — the right default in-process; wire clients use
                a small base so a restarting server is not hammered.
            retry_jitter: Deterministic jitter source for the retry delays
                (a zero-argument callable returning [0, 1]); tests pass a
                seeded ``random.Random(...).random`` so fault-recovery
                timing is reproducible.  None keeps the module-level rng.
        """
        self.server = server
        self.api_key = api_key if api_key is not None else server.config.api_key
        self.transport = transport or DirectTransport()
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_jitter = retry_jitter
        server.require_auth(self.api_key)

    # -- internals -------------------------------------------------------------

    def _call(self, name: str, method, *args: Any, **kwargs: Any) -> Any:
        """Invoke a server method through the transport with retries."""
        return retry_call(
            lambda: self.transport.call(name, method, *args, **kwargs),
            self.max_retries,
            backoff=self.retry_backoff,
            jitter=self.retry_jitter,
        )

    def _fetch_page(
        self,
        name: str,
        project_id: int,
        limit: int,
        start_after: int | None,
        offset: int,
    ) -> list:
        """One retried call of the paging verb *name*.

        ``offset`` travels only when it is non-zero, so a cursor-only
        request is the same frame the serial page pump sends.
        """
        position: dict[str, Any] = {"start_after": start_after}
        if offset:
            position["offset"] = offset
        return self._call(
            name, getattr(self.server, name), project_id, limit, **position
        )

    def _iter_pages(
        self, name: str, project_id: int, page_size: int, start_after: int | None
    ) -> Iterator[list]:
        """Yield the non-empty pages of paging verb *name* after *start_after*.

        The serial pump: one retried round trip per page, each page's last
        task id the exclusive cursor of the next, never an offset — a
        cursor chain stays gap-free when tasks are deleted mid-walk, which
        anchored offsets do not.  The stream ends at the first short page.
        """
        method = getattr(self.server, name)
        cursor = start_after
        while True:
            page = self._call(name, method, project_id, page_size, start_after=cursor)
            if page:
                yield page
            if len(page) < page_size:
                return
            # A run page carries (task_id, runs) pairs, an id page bare ids.
            cursor = page[-1][0] if name == "get_task_runs_page" else page[-1]

    # -- projects ---------------------------------------------------------------

    def create_project(
        self, name: str, description: str = "", task_presenter: str = ""
    ) -> Project:
        """Create (or fetch, if it already exists) the project named *name*."""
        return self._call(
            "create_project",
            self.server.create_project,
            name,
            description=description,
            task_presenter=task_presenter,
        )

    def find_project(self, name: str) -> Project | None:
        """Return the project named *name*, or None."""
        return self._call("find_project", self.server.find_project, name)

    def get_project(self, project_id: int) -> Project:
        """Return the project with *project_id*."""
        return self._call("get_project", self.server.get_project, project_id)

    def delete_project(self, project_id: int) -> None:
        """Delete the project and all of its tasks and answers."""
        self._call("delete_project", self.server.delete_project, project_id)

    # -- tasks -------------------------------------------------------------------

    def create_task(
        self,
        project_id: int,
        info: dict[str, Any],
        n_assignments: int | None = None,
        dedup_key: str | None = None,
    ) -> Task:
        """Publish one task: a one-spec :meth:`create_tasks` batch."""
        spec = {"info": info, "n_assignments": n_assignments, "dedup_key": dedup_key}
        return self.create_tasks(project_id, [spec])[0]

    def create_tasks(
        self, project_id: int, task_specs: Sequence[dict[str, Any]]
    ) -> list[Task]:
        """Publish a batch of tasks in one round-trip; return them in order.

        Each spec carries ``info`` plus optional ``n_assignments`` and
        ``dedup_key``.  Give every spec a ``dedup_key`` when publishing from
        durable state: the retry loop may replay the whole batch after an
        ambiguous failure, and only dedup keys make that replay harmless.
        """
        return self._call(
            "create_tasks", self.server.create_tasks, project_id, list(task_specs)
        )

    def get_task(self, task_id: int) -> Task:
        """Return the task with *task_id*."""
        return self._call("get_task", self.server.get_task, task_id)

    def list_tasks(self, project_id: int) -> list[Task]:
        """Return every task of *project_id*."""
        return self._call("list_tasks", self.server.list_tasks, project_id)

    def delete_task(self, task_id: int) -> None:
        """Delete one task and its task runs."""
        self._call("delete_task", self.server.delete_task, task_id)

    def extend_task_redundancy(self, task_id: int, extra: int) -> Task:
        """Request *extra* more assignments for one task: a one-entry
        :meth:`extend_tasks_redundancy` batch."""
        return self.extend_tasks_redundancy({task_id: extra})[0]

    def extend_tasks_redundancy(self, extensions: dict[int, int]) -> list[Task]:
        """Request extra assignments for a batch of tasks in one round-trip.

        *extensions* maps task id to the number of additional assignments;
        the adaptive collection loop uses this to top up every unresolved
        task of a round with a single platform call.
        """
        return self._call(
            "extend_tasks_redundancy",
            self.server.extend_tasks_redundancy,
            dict(extensions),
        )

    # -- task runs ------------------------------------------------------------------

    def get_task_runs(self, task_id: int) -> list[TaskRun]:
        """Return the answers collected so far for *task_id*."""
        return self._call("get_task_runs", self.server.get_task_runs, task_id)

    def list_project_task_ids(
        self,
        project_id: int,
        limit: int,
        start_after: int | None = None,
        offset: int = 0,
    ) -> list[int]:
        """One page of the project's task ids.

        The page starts *offset* tasks after the exclusive *start_after*
        cursor (after the project's first task when it is None).  Pages at
        different offsets from one cursor are independent of each other;
        a position at or past the end returns ``[]``.
        """
        return self._fetch_page(
            "list_project_task_ids", project_id, limit, start_after, offset
        )

    def iter_project_task_ids(
        self, project_id: int, page_size: int = 500, start_after: int | None = None
    ) -> Iterator[int]:
        """Generate the project's task ids, one retried call per page.

        *start_after* is the exclusive cursor the first page starts from: a
        caller that already holds a prefix of the project resumes after it
        and none of the prefix crosses the transport again.  None walks the
        whole project.
        """
        for page in self._iter_pages(
            "list_project_task_ids", project_id, page_size, start_after
        ):
            yield from page

    def get_task_runs_page(
        self,
        project_id: int,
        limit: int,
        start_after: int | None = None,
        offset: int = 0,
    ) -> list[tuple[int, list[TaskRun]]]:
        """One page of ``(task_id, runs)`` pairs.

        Same cursor and offset contract as :meth:`list_project_task_ids`.
        """
        return self._fetch_page(
            "get_task_runs_page", project_id, limit, start_after, offset
        )

    def iter_task_runs_for_project(
        self, project_id: int, page_size: int = 500, start_after: int | None = None
    ) -> Iterator[tuple[int, list[TaskRun]]]:
        """Generate the tasks' ``(task_id, runs)`` pairs, page by page.

        Each transport round-trip carries at most *page_size* tasks' runs,
        and each page is retried independently — a transport failure
        mid-stream re-fetches one page, not the whole project.
        *start_after* is the exclusive cursor of the first page, as in
        :meth:`iter_project_task_ids`: the runs of tasks up to and including
        it are never shipped.
        """
        for page in self._iter_pages(
            "get_task_runs_page", project_id, page_size, start_after
        ):
            yield from page

    def is_task_complete(self, task_id: int) -> bool:
        """Return True when the task has all requested answers."""
        return self._call("is_task_complete", self.server.is_task_complete, task_id)

    def is_project_complete(self, project_id: int) -> bool:
        """Return True when every task of the project is answered."""
        return self._call("is_project_complete", self.server.is_project_complete, project_id)

    def pending_assignments(self, project_id: int | None = None) -> int:
        """Return the number of outstanding assignments."""
        return self._call("pending_assignments", self.server.pending_assignments, project_id)

    # -- crowd simulation ---------------------------------------------------------------

    def simulate_work(
        self, project_id: int | None = None, max_assignments: int | None = None
    ) -> int:
        """Stand-in for waiting on human workers: fill pending assignments."""
        return self._call(
            "simulate_work",
            self.server.simulate_work,
            project_id=project_id,
            max_assignments=max_assignments,
        )

    def statistics(self) -> dict[str, Any]:
        """Return server-side counters."""
        return self._call("statistics", self.server.statistics)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release transport resources (worker threads for async transports)."""
        self.transport.close()


class PipelinedClient(PlatformClient):
    """Client facade that keeps up to ``max_in_flight`` calls on the wire.

    Drop-in replacement for :class:`PlatformClient` (select it with
    :class:`~repro.config.PlatformConfig`\\ ``(transport="pipelined")``).
    Two things are scheduled differently; every verb, and every verb name
    on the transport, is the serial client's:

    * :meth:`create_tasks` splits a large publish into sub-batches of
      ``batch_size`` specs and keeps up to ``max_in_flight`` of them in
      flight, so each batch's transport latency overlaps the server's
      storage work on its predecessors.  Sub-batches are applied to the
      server **in submission order** (the transport's ticket turnstile) and
      each one retries independently inside its slot — give every spec a
      ``dedup_key`` so a replayed sub-batch is idempotent, exactly like the
      serial client's retried single batch.
    * The page pump behind :meth:`iter_task_runs_for_project` /
      :meth:`iter_project_task_ids` keeps ``max_in_flight`` pages of the
      same paging verb in flight at successive offsets from one fixed
      cursor instead of chaining exclusive cursors, turning ``ceil(n /
      page_size)`` serial round-trips into ``ceil(n / page_size /
      max_in_flight)`` waves.  Pages are yielded in publication order
      regardless of arrival order; at most ``max_in_flight * page_size``
      tasks' runs are in flight at once.
    * Every synchronous verb is a **flush-on-read barrier**: it goes
      through :meth:`AsyncTransport.call <repro.platform.transport.AsyncTransport.call>`,
      which drains all in-flight calls first — a read can never observe the
      platform mid-pipeline.

    Failure semantics: a sub-batch whose retries are exhausted raises from
    the verb, like the serial client; earlier sub-batches may already be
    applied, which is the same torn-publish shape a crash leaves and which
    dedup keys make a rerun heal.
    """

    def __init__(
        self,
        server: PlatformServer,
        api_key: str | None = None,
        transport: Transport | None = None,
        max_retries: int = 5,
        max_in_flight: int = 8,
        batch_size: int = 500,
        retry_backoff: float = 0.0,
    ):
        """Connect to *server*, wrapping *transport* in an async layer.

        Args:
            server: The in-process platform server.
            api_key: API key; defaults to the server's configured key.
            transport: Inner transport each attempt goes through (fault
                injection, latency, counting...).  An
                :class:`~repro.platform.transport.AsyncTransport` is used
                as-is; anything else is wrapped in one.
            max_retries: Attempts per call (sync and per in-flight batch).
            max_in_flight: Concurrent calls kept on the wire (ignored when
                *transport* is already an AsyncTransport, which brings its
                own bound).
            batch_size: Specs per ``create_tasks`` sub-batch.
            retry_backoff: Base delay between retried attempts, applied to
                the synchronous path here and to the async layer's per-slot
                retries (ignored when *transport* is already an
                AsyncTransport, which brings its own backoff).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not isinstance(transport, AsyncTransport):
            transport = AsyncTransport(
                transport, max_in_flight=max_in_flight, retry_backoff=retry_backoff
            )
        super().__init__(
            server,
            api_key=api_key,
            transport=transport,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        self.max_in_flight = transport.max_in_flight
        self.batch_size = batch_size

    # -- internals ----------------------------------------------------------------

    def _call_async(self, name: str, method, *args: Any, **kwargs: Any) -> Future:
        """Submit one retried call to the async transport."""
        return self.transport.call_async(
            name, method, *args, retries=self.max_retries, **kwargs
        )

    def _iter_pages(
        self, name: str, project_id: int, page_size: int, start_after: int | None
    ) -> Iterator[list]:
        """Yield pages in offset order while ``max_in_flight`` are fetched ahead.

        Every page is anchored to the same exclusive *start_after* cursor
        (offsets count from the task after it), so the pages in flight
        stay independent of each other while the stream as a whole resumes
        where the serial cursor chain would.  The window submits the page
        at each successive offset until one comes back short — the end of
        the project, and the end of the stream: like the serial pump,
        nothing past the first short page is yielded, so tasks appended
        mid-iteration can lengthen the final page but never produce a
        gapped stream.  Pages already submitted past that point are legal
        (they return ``[]`` against a quiescent project) — they are the
        price of not knowing the project size in advance, and they overlap
        with useful fetches instead of extending the critical path; they
        are settled, not yielded.
        """
        method = getattr(self.server, name)
        window: deque[Future] = deque()
        offset = 0
        try:
            while True:
                while len(window) < self.max_in_flight:
                    window.append(
                        self._call_async(
                            name,
                            method,
                            project_id,
                            page_size,
                            start_after=start_after,
                            offset=offset,
                        )
                    )
                    offset += page_size
                page = window.popleft().result()
                if page:
                    yield page
                if len(page) < page_size:
                    return
        finally:
            # A consumer may stop mid-stream (streaming collection breaks
            # as soon as every row is filled); settle the speculative
            # fetches so no future outlives the iterator unobserved.
            while window:
                try:
                    window.popleft().result()
                except PlatformError:
                    # Outage or a cursor the platform does not know: the
                    # page that was consumed has already raised it.
                    pass

    # -- pipelined verbs ----------------------------------------------------------

    def create_tasks(
        self, project_id: int, task_specs: Sequence[dict[str, Any]]
    ) -> list[Task]:
        """Publish a batch with up to ``max_in_flight`` sub-batches in flight.

        Returns the tasks in spec order, exactly like the serial client.
        See the class docstring for the retry/idempotence contract.
        """
        specs = list(task_specs)
        if len(specs) <= self.batch_size:
            return super().create_tasks(project_id, specs)
        futures = [
            self._call_async(
                "create_tasks",
                self.server.create_tasks,
                project_id,
                specs[start : start + self.batch_size],
            )
            for start in range(0, len(specs), self.batch_size)
        ]
        tasks: list[Task] = []
        first_error: Exception | None = None
        for future in futures:
            # Settle every future even after a failure — transport or
            # server-side alike: an abandoned sub-batch must not stay in
            # flight behind the caller's back.
            try:
                result = future.result()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                continue
            tasks.extend(result)
        if first_error is not None:
            raise first_error
        return tasks
