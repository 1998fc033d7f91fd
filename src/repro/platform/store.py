"""TaskStore: pluggable persistence for the platform server's state.

The server used to hold every project, task and task run in six in-process
dicts, so the simulated platform could neither survive a restart nor exceed
memory.  This module extracts that state behind one contract with two
implementations:

* :class:`MemoryTaskStore` — the original dicts, still the default and the
  reference semantics the durable store is tested against;
* :class:`DurableTaskStore` — maps the same state onto any
  :class:`~repro.storage.engine.StorageEngine` (memory, sqlite, log,
  sharded) using namespaced tables, the engines' ``put_many`` /
  ``scan(limit, start_after)`` bulk contract, and the ``to_dict`` /
  ``from_dict`` serialisers already on the platform models.

Key namespacing (``DurableTaskStore``, default namespace ``platform``):

=============================  =============================================
table                          contents
=============================  =============================================
``platform::projects``         zero-padded project id -> ``Project.to_dict``
``platform::project_names``    project name -> project id
``platform::tasks``            zero-padded task id -> ``Task.to_dict``
``platform::runs``             zero-padded task id -> list of
                               ``TaskRun.to_dict`` (one record per task)
``platform::meta``             id-counter hints (``next_project_id``,
                               ``next_task_id``, ``next_run_id``) plus one
                               immutable *lease record* per allocated id
                               range (``<counter>::alloc::<first-id>`` ->
                               count) — the put-if-absent leases, not the
                               hints, are what make allocation safe under
                               concurrent writers
``platform::task_index::<p>``  per-project publication-order task-id index
``platform::dedup::<p>``       per-project dedup key -> task id
=============================  =============================================

Task ids come from a durable monotonic counter and their keys are
zero-padded, so sorting a table's keys restores publication order no matter
what physical insertion order a crash (or a later heal) left behind; the
per-project index table therefore serves the server's exclusive task-id
page cursor from its sorted key list — a cursor handed out before a server
restart keeps working on the reopened store.

Recovery invariants (what a reopened server is promised):

* **Identical ids** — the next project/task/run id is read back from the
  ``meta`` table; a crash between counter bump and entity write can only
  leave an unused id gap, never a reused id.
* **Identical dedup behaviour** — dedup keys live next to the tasks they
  name; replaying a ``create_tasks`` batch after a restart returns the
  surviving tasks instead of duplicates.
* **Identical page cursors** — the task-id index is durable, so a streaming
  collection interrupted mid-``iter_task_runs_for_project`` resumes from its
  last cursor on the reopened server.
"""

from __future__ import annotations

import abc
import bisect
import threading
from typing import Any, ContextManager, Mapping, Sequence

from repro.config import PlatformConfig
from repro.exceptions import ConfigurationError, DuplicateKeyError, PlatformError
from repro.platform.models import Project, Task, TaskRun
from repro.storage.engine import NO_WRITE_GROUP, StorageEngine, open_engine


def _cursor_error(start_after: int, project_id: int) -> PlatformError:
    """The error every store raises for a page cursor the project lacks."""
    return PlatformError(
        f"cursor task {start_after} is not a task of project {project_id}"
    )


def _find_task_id(task_ids: Sequence[int], task_id: int) -> int | None:
    """Position of *task_id* in the sorted *task_ids*, or None when absent."""
    position = bisect.bisect_left(task_ids, task_id)
    if position < len(task_ids) and task_ids[position] == task_id:
        return position
    return None


def _page_task_ids(
    task_ids: Sequence[int],
    limit: int,
    start_after: int | None,
    project_id: int,
    offset: int = 0,
) -> list[int]:
    """Apply the exclusive-cursor page contract to a sorted task-id list.

    Shared by both store implementations so their cursor semantics cannot
    drift: ids come from a monotonic counter, so the per-project list is
    sorted and the cursor resolves by bisection rather than a linear scan.
    *offset* skips that many ids after the cursor; a position at or past
    the end yields ``[]``.
    """
    if start_after is None:
        position = 0
    else:
        position = _find_task_id(task_ids, start_after)
        if position is None:
            raise _cursor_error(start_after, project_id)
        position += 1
    position += offset
    return list(task_ids[position : position + limit])


class TaskStore(abc.ABC):
    """Persistence contract behind :class:`~repro.platform.server.PlatformServer`.

    The server is the only consumer: it owns validation, redundancy and
    worker simulation, and goes through the store for every read and write
    of projects, tasks, task runs, dedup mappings and id counters.  Stores
    return model objects (:class:`Project`, :class:`Task`,
    :class:`TaskRun`), never raw records.
    """

    #: Name reported by :meth:`describe`, overridden by subclasses.
    store_name = "abstract"

    # -- id counters -------------------------------------------------------

    @abc.abstractmethod
    def allocate_project_id(self) -> int:
        """Reserve and return the next project id (durable before use)."""

    @abc.abstractmethod
    def allocate_task_ids(self, count: int) -> int:
        """Reserve *count* consecutive task ids; return the first."""

    @abc.abstractmethod
    def allocate_run_ids(self, count: int, clock_time: float | None = None) -> int:
        """Reserve *count* consecutive task-run ids; return the first.

        *clock_time*, when given, is recorded as the store's latest
        persisted timestamp in the same write (see
        :meth:`latest_timestamp`) — the server passes its clock after the
        answers being persisted were stamped, so the record rides the
        counter write instead of costing one of its own.
        """

    # -- projects ----------------------------------------------------------

    @abc.abstractmethod
    def put_project(self, project: Project) -> Project:
        """Store a new project (and prepare its per-project indexes).

        Returns the authoritative project for the name: *project* itself
        normally, or — when another writer concurrently created a project
        with the same name — that earlier winner (first writer wins, and
        the loser's record is cleaned up).  Callers must use the returned
        project, not the one they passed in.
        """

    @abc.abstractmethod
    def get_project(self, project_id: int) -> Project | None:
        """Return the project with *project_id*, or None."""

    @abc.abstractmethod
    def find_project_id(self, name: str) -> int | None:
        """Return the id of the project named *name*, or None."""

    @abc.abstractmethod
    def list_project_ids(self) -> list[int]:
        """Return every project id in ascending order."""

    @abc.abstractmethod
    def remove_project(self, project: Project) -> None:
        """Delete *project* together with its tasks, runs and dedup keys."""

    # -- tasks -------------------------------------------------------------

    @abc.abstractmethod
    def add_tasks(self, tasks: Sequence[Task], dedup_keys: Sequence[str | None]) -> None:
        """Publish staged *tasks* (one batch): they join their project's
        publication order and its open-task frontier.

        The records are already on the store (:meth:`stage_tasks`) and are
        not written again.  ``dedup_keys`` is positionally aligned with
        ``tasks``; a None entry registers nothing for that task — the case
        of an un-keyed task and of a key this caller's
        :meth:`claim_dedup_keys` already owns.  A key that is given
        overwrites whatever it maps to: that is how a claim that lost to a
        deleted task's stale mapping takes the mapping over (liveness is
        re-checked at resolve time, so a stale mapping can never resurrect
        a deleted task).
        """

    @abc.abstractmethod
    def stage_tasks(self, tasks: Sequence[Task]) -> None:
        """Write candidate task records — the one write a task record gets
        at publication — *before* their dedup claim.

        The multi-writer publish protocol mirrors :meth:`put_project`'s
        record-first ordering: a server stages its candidate tasks (record
        only — no index entry, no dedup mapping, no runs), then calls
        :meth:`claim_dedup_keys`.  Because every writer stages before
        claiming, a claim that *lost* is guaranteed to find the live
        winner's record via :meth:`get_tasks` — without this step, a loser
        racing the winner's ``add_tasks`` would mistake the not-yet-written
        winner for a stale mapping and double-publish.  A staged task that
        wins (or has no key) is published by :meth:`add_tasks`; one that
        loses is dropped via :meth:`discard_staged`.  A crash between
        stage and publication leaks an unreachable record, invisible to
        every page and count.
        """

    @abc.abstractmethod
    def discard_staged(self, tasks: Sequence[Task]) -> None:
        """Delete staged task records whose dedup claim lost."""

    @abc.abstractmethod
    def get_task(self, task_id: int) -> Task | None:
        """Return the task with *task_id*, or None."""

    @abc.abstractmethod
    def get_tasks(self, task_ids: Sequence[int]) -> list[Task | None]:
        """Return one task (or None) per requested id, in request order."""

    @abc.abstractmethod
    def update_tasks(self, tasks: Sequence[Task]) -> None:
        """Persist mutated fields of existing *tasks* (redundancy,
        completion) as one durable write; a task that gained its completion
        stamp leaves the open-task frontier, one that lost it re-enters."""

    @abc.abstractmethod
    def remove_task(self, task: Task) -> None:
        """Delete *task* and its runs (its dedup mapping may go stale)."""

    @abc.abstractmethod
    def project_task_ids(self, project_id: int) -> list[int]:
        """Return every task id of *project_id* in publication order."""

    @abc.abstractmethod
    def open_task_ids(self, project_id: int) -> list[int]:
        """Return the project's *open-task frontier*: the ids of its tasks
        with no completion stamp, ascending.

        Maintained as tasks are added, stamped, un-stamped and removed, so
        reading it costs O(frontier), not O(project) — it is what lets
        ``simulate_work`` and the completion checks skip every task they
        already know is answered.
        """

    @abc.abstractmethod
    def task_id_page(
        self, project_id: int, limit: int, start_after: int | None, offset: int = 0
    ) -> list[int]:
        """One publication-order page of task ids after the exclusive cursor.

        Plain list slicing of the ids that follow *start_after* (the whole
        project when it is None): ``ids[offset:offset + limit]``, with
        positions past the end yielding ``[]``.  *limit* is positive and
        *offset* non-negative — the server checks both before calling.
        Raises :class:`~repro.exceptions.PlatformError` when *start_after*
        is not currently a task of the project — the same contract
        (transplanted from the storage ``scan``) on every implementation.
        """

    @abc.abstractmethod
    def resolve_dedup_keys(self, project_id: int, keys: Sequence[str]) -> dict[str, int]:
        """Map each known dedup key of *project_id* to the task id it names.

        Returned ids are raw mappings; callers must re-check task liveness
        (a mapping may survive its task's deletion).
        """

    @abc.abstractmethod
    def claim_dedup_keys(
        self, project_id: int, claims: Sequence[tuple[str, int]]
    ) -> dict[str, int]:
        """Atomically claim dedup keys for task ids; first writer wins.

        Each ``(key, task_id)`` claim either installs the mapping (the
        caller won) or loses to a mapping that already exists; the returned
        dict maps every claimed key to the task id that *owns* it after the
        call.  A caller whose claim lost must discard its candidate task and
        adopt the winner — this is the arbiter that keeps concurrent
        ``create_tasks`` of the same keys exactly-once across server
        processes.  Winning ids are raw mappings like
        :meth:`resolve_dedup_keys`'s: liveness is the caller's problem.
        """

    def ensure_indexed(self, tasks: Sequence[Task]) -> None:
        """Repair the publication-order index entries of existing *tasks*.

        Called by the server for dedup *hits* of a ``create_tasks`` replay:
        on a durable store a crash inside a previous :meth:`add_tasks` can
        have persisted the dedup mapping and task records without their
        index entries, and the replay is the natural place to heal that
        torn batch.  A no-op when every entry is present (and always for
        the memory store, whose ``add_tasks`` cannot tear).
        """

    def latest_timestamp(self) -> float:
        """Return the largest simulated-clock timestamp the store persisted.

        The server fast-forwards its clock past this value on construction,
        so a platform reopened after a restart (whose fresh clock starts at
        zero) never stamps new answers *before* answers that already exist.
        0.0 for stores with no persisted state.
        """
        return 0.0

    # -- task runs ---------------------------------------------------------

    @abc.abstractmethod
    def runs_for_task(self, task_id: int) -> list[TaskRun]:
        """Return the runs of *task_id* in submission order ([] when none)."""

    @abc.abstractmethod
    def runs_for_tasks(self, task_ids: Sequence[int]) -> list[list[TaskRun]]:
        """Bulk :meth:`runs_for_task`: one run list per id, in request order."""

    @abc.abstractmethod
    def append_runs(self, runs_by_task: Mapping[int, Sequence[TaskRun]]) -> None:
        """Append each task's new runs to its answer list — one durable
        write for the whole batch, however many tasks it names."""

    # -- derived reads shared by both implementations ----------------------

    def run_count(self, task_id: int) -> int:
        """Return how many runs *task_id* has collected."""
        return len(self.runs_for_task(task_id))

    def run_counts_for_tasks(self, task_ids: Sequence[int]) -> list[int]:
        """Bulk :meth:`run_count`, positionally aligned with *task_ids*."""
        return [len(runs) for runs in self.runs_for_tasks(task_ids)]

    # -- introspection and lifecycle ---------------------------------------

    def write_group(self) -> ContextManager[None]:
        """Scope the store writes of one server verb to one durability
        barrier — the backing engine's
        :meth:`~repro.storage.engine.StorageEngine.write_group`, whose one
        rule (straight-line writes of one thread, no waiting inside) the
        caller inherits.  A no-op for a store with no barrier to share."""
        return NO_WRITE_GROUP

    @abc.abstractmethod
    def counts(self) -> dict[str, int]:
        """Return ``{"projects": n, "tasks": n, "task_runs": n}``."""

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly summary for dashboards and tests."""
        return {"store": self.store_name, **self.counts()}

    def flush(self) -> None:
        """Force buffered writes to durable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources held by the store (no-op by default)."""


class MemoryTaskStore(TaskStore):
    """The seed behaviour: every dict the server used to hold, unchanged.

    Model objects are stored by reference (a task returned by the server is
    the stored task), which is exactly what the in-process simulator always
    did; :meth:`update_tasks` is therefore a no-op for objects obtained from
    this store.
    """

    store_name = "memory"

    def __init__(self) -> None:
        self._projects: dict[int, Project] = {}
        self._projects_by_name: dict[str, int] = {}
        self._tasks: dict[int, Task] = {}
        self._tasks_by_project: dict[int, list[int]] = {}
        #: Open-task frontier: per project, the ids of its unstamped tasks.
        self._open_by_project: dict[int, set[int]] = {}
        self._tasks_by_dedup: dict[tuple[int, str], int] = {}
        self._task_runs: dict[int, list[TaskRun]] = {}
        self._next_project_id = 1
        self._next_task_id = 1
        self._next_run_id = 1
        #: Guards the check-then-act paths (counters, name claims, dedup
        #: claims) so two threads sharing one store — the in-process shape
        #: of the multi-server suites — cannot double-allocate.
        self._mutex = threading.Lock()

    # -- id counters -------------------------------------------------------

    def allocate_project_id(self) -> int:
        with self._mutex:
            allocated = self._next_project_id
            self._next_project_id += 1
            return allocated

    def allocate_task_ids(self, count: int) -> int:
        with self._mutex:
            first = self._next_task_id
            self._next_task_id += count
            return first

    def allocate_run_ids(self, count: int, clock_time: float | None = None) -> int:
        with self._mutex:
            first = self._next_run_id
            self._next_run_id += count
            return first

    # -- projects ----------------------------------------------------------

    def put_project(self, project: Project) -> Project:
        with self._mutex:
            existing_id = self._projects_by_name.get(project.name)
            if existing_id is not None and existing_id != project.project_id:
                existing = self._projects.get(existing_id)
                if existing is not None:
                    return existing
            self._projects[project.project_id] = project
            self._projects_by_name[project.name] = project.project_id
            self._tasks_by_project.setdefault(project.project_id, [])
            self._open_by_project.setdefault(project.project_id, set())
            return project

    def get_project(self, project_id: int) -> Project | None:
        return self._projects.get(project_id)

    def find_project_id(self, name: str) -> int | None:
        return self._projects_by_name.get(name)

    def list_project_ids(self) -> list[int]:
        return sorted(self._projects)

    def remove_project(self, project: Project) -> None:
        for task_id in self._tasks_by_project.pop(project.project_id, []):
            self._tasks.pop(task_id, None)
            self._task_runs.pop(task_id, None)
        self._open_by_project.pop(project.project_id, None)
        self._tasks_by_dedup = {
            key: task_id
            for key, task_id in self._tasks_by_dedup.items()
            if key[0] != project.project_id
        }
        self._projects_by_name.pop(project.name, None)
        self._projects.pop(project.project_id, None)

    # -- tasks -------------------------------------------------------------

    def add_tasks(self, tasks: Sequence[Task], dedup_keys: Sequence[str | None]) -> None:
        for task, dedup_key in zip(tasks, dedup_keys):
            self._tasks_by_project[task.project_id].append(task.task_id)
            self._task_runs[task.task_id] = []
            if task.completed_at is None:
                self._open_by_project[task.project_id].add(task.task_id)
            if dedup_key is not None:
                self._tasks_by_dedup[(task.project_id, dedup_key)] = task.task_id

    def stage_tasks(self, tasks: Sequence[Task]) -> None:
        # Record only: no project index entry, no runs list, no dedup
        # mapping — unreachable until add_tasks publishes it.
        for task in tasks:
            self._tasks[task.task_id] = task

    def discard_staged(self, tasks: Sequence[Task]) -> None:
        for task in tasks:
            self._tasks.pop(task.task_id, None)

    def get_task(self, task_id: int) -> Task | None:
        return self._tasks.get(task_id)

    def get_tasks(self, task_ids: Sequence[int]) -> list[Task | None]:
        return [self._tasks.get(task_id) for task_id in task_ids]

    def update_tasks(self, tasks: Sequence[Task]) -> None:
        for task in tasks:
            self._tasks[task.task_id] = task
            if task.completed_at is not None:
                self._open_by_project[task.project_id].discard(task.task_id)
            elif task.task_id in self._task_runs:  # published, not just staged
                self._open_by_project[task.project_id].add(task.task_id)

    def remove_task(self, task: Task) -> None:
        self._tasks_by_project[task.project_id].remove(task.task_id)
        self._open_by_project[task.project_id].discard(task.task_id)
        self._task_runs.pop(task.task_id, None)
        self._tasks.pop(task.task_id, None)

    def project_task_ids(self, project_id: int) -> list[int]:
        return list(self._tasks_by_project[project_id])

    def open_task_ids(self, project_id: int) -> list[int]:
        return sorted(self._open_by_project[project_id])

    def task_id_page(
        self, project_id: int, limit: int, start_after: int | None, offset: int = 0
    ) -> list[int]:
        return _page_task_ids(
            self._tasks_by_project[project_id], limit, start_after, project_id, offset
        )

    def resolve_dedup_keys(self, project_id: int, keys: Sequence[str]) -> dict[str, int]:
        resolved: dict[str, int] = {}
        for key in keys:
            task_id = self._tasks_by_dedup.get((project_id, key))
            if task_id is not None:
                resolved[key] = task_id
        return resolved

    def claim_dedup_keys(
        self, project_id: int, claims: Sequence[tuple[str, int]]
    ) -> dict[str, int]:
        with self._mutex:
            # setdefault is the whole first-writer-wins protocol: a key
            # repeated within *claims* keeps its first task id too.
            return {
                key: self._tasks_by_dedup.setdefault((project_id, key), task_id)
                for key, task_id in claims
            }

    # -- task runs ---------------------------------------------------------

    def runs_for_task(self, task_id: int) -> list[TaskRun]:
        return list(self._task_runs.get(task_id, []))

    def runs_for_tasks(self, task_ids: Sequence[int]) -> list[list[TaskRun]]:
        return [list(self._task_runs.get(task_id, [])) for task_id in task_ids]

    def append_runs(self, runs_by_task: Mapping[int, Sequence[TaskRun]]) -> None:
        for task_id, runs in runs_by_task.items():
            self._task_runs.setdefault(task_id, []).extend(runs)

    def run_count(self, task_id: int) -> int:
        return len(self._task_runs.get(task_id, ()))

    def run_counts_for_tasks(self, task_ids: Sequence[int]) -> list[int]:
        return [len(self._task_runs.get(task_id, ())) for task_id in task_ids]

    # -- introspection -----------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            "projects": len(self._projects),
            "tasks": len(self._tasks),
            "task_runs": sum(len(runs) for runs in self._task_runs.values()),
        }


class DurableTaskStore(TaskStore):
    """Platform state on a :class:`StorageEngine` — restartable and sharable.

    See the module docstring for the table layout and recovery invariants.
    Writes are batched through the engine's ``put_many`` wherever the server
    hands over a batch (``create_tasks``, a ``simulate_work`` page's run
    appends and completion stamps), so the durable cost of the bulk
    execution path stays O(1) engine round-trips in the batch size.  Every
    write is committed when the verb — or the :meth:`write_group` the server
    opened around its verb — returns.
    """

    store_name = "durable"

    def __init__(
        self,
        engine: StorageEngine,
        namespace: str = "platform",
        owns_engine: bool = False,
        shared: bool = False,
    ) -> None:
        """Open the store on *engine*.

        Args:
            engine: Any open storage engine; may be shared with the
                fault-recovery cache (the platform's tables are namespaced).
            namespace: Table-name prefix isolating this store's tables.
            owns_engine: When True, :meth:`close` also closes the engine.
            shared: Declare that *other* store handles (threads, or whole
                server processes on a file-backed engine) write the same
                tables concurrently.  Correctness of id allocation and
                dedup claims never depends on this flag — those go through
                the engine's atomic ``put_new`` / ``put_many(if_absent)``
                either way — but shared mode additionally bypasses the
                single-writer read caches (counters, per-project id lists,
                run totals, latest timestamp) that would otherwise serve
                stale answers about another writer's data.
        """
        self._engine = engine
        self._namespace = namespace
        self._owns_engine = owns_engine
        self._shared = shared
        self._projects_table = f"{namespace}::projects"
        self._names_table = f"{namespace}::project_names"
        self._tasks_table = f"{namespace}::tasks"
        self._runs_table = f"{namespace}::runs"
        self._meta_table = f"{namespace}::meta"
        for table in (
            self._projects_table,
            self._names_table,
            self._tasks_table,
            self._runs_table,
            self._meta_table,
        ):
            engine.create_table(table)
        #: Cached next-id counters; authoritative copy lives in the meta
        #: table and is re-read lazily after a reopen.
        self._counters: dict[str, int] = {}
        #: Cached total run count; recovered by one scan on first use.
        self._total_runs: int | None = None
        #: Cached copy of the persisted latest-timestamp meta record.
        self._latest_timestamp: float | None = None
        #: Cached sorted task-id list per project, loaded from the index
        #: table on first use and maintained incrementally — pages are then
        #: O(page), not one index scan per page.  Like the counters, the
        #: cache assumes this store object is the engine's only writer.
        self._project_ids: dict[int, list[int]] = {}
        #: Cached open-task frontier per project (ids of unstamped tasks):
        #: rebuilt by one pass over the project's task records on first use
        #: after (re)open, maintained incrementally afterwards, dropped
        #: wherever ``_project_ids`` is, and — single-writer like it —
        #: never kept in shared mode.
        self._open_ids: dict[int, set[int]] = {}

    # -- keys and tables ---------------------------------------------------

    @staticmethod
    def _id_key(entity_id: int) -> str:
        """Zero-padded id key: lexicographic order == numeric order."""
        return f"{entity_id:012d}"

    def _index_table(self, project_id: int) -> str:
        return f"{self._namespace}::task_index::{self._id_key(project_id)}"

    def _dedup_table(self, project_id: int) -> str:
        return f"{self._namespace}::dedup::{self._id_key(project_id)}"

    # -- id counters -------------------------------------------------------

    def _allocate(
        self, counter: str, count: int, clock_time: float | None = None
    ) -> int:
        """Reserve *count* consecutive ids via a put-if-absent lease.

        The previous implementation read the counter, bumped it in memory
        and wrote it back — a read-modify-write that is only correct with
        exactly one writer.  Ownership of an id range is now decided by
        inserting a *lease record* keyed by the range's first id: the
        engine's ``put_new`` is atomic even across processes sharing a
        database file, so exactly one contender claims any given range and
        every loser re-probes further along.  On a lost probe the next
        candidate comes from whichever is larger: skipping past the
        winner's claimed range, or the freshly re-read counter hint.

        The counter record itself is demoted to a *hint* — written after a
        successful claim so the next allocation (and a reopened store)
        starts probing near the frontier, but never trusted for ownership.
        Two hint writes racing can leave it behind the true frontier; the
        probe loop walks forward over the surviving leases regardless.  A
        crash between claim and hint write leaves an unused id gap, never a
        reused id — the same gap-only guarantee the single-writer path had.
        A clock record rides in the same hint batch for free.
        """
        next_id = self._counters.get(counter)
        if next_id is None or self._shared:
            next_id = int(self._engine.get(self._meta_table, counter, default=1))
        while True:
            lease_key = f"{counter}::alloc::{next_id:012d}"
            try:
                self._engine.put_new(self._meta_table, lease_key, count)
                break
            except DuplicateKeyError:
                claimed = int(self._engine.get(self._meta_table, lease_key, default=1))
                hint = int(self._engine.get(self._meta_table, counter, default=1))
                next_id = max(next_id + max(1, claimed), hint)
        self._counters[counter] = next_id + count
        items: list[tuple[str, Any]] = [(counter, next_id + count)]
        if clock_time is not None and clock_time > self.latest_timestamp():
            self._latest_timestamp = clock_time
            items.append(("latest_timestamp", clock_time))
        self._engine.put_many(self._meta_table, items)
        return next_id

    def _record_latest(self, clock_time: float) -> None:
        """Persist *clock_time* as the latest timestamp when it advances it."""
        if clock_time > self.latest_timestamp():
            self._latest_timestamp = clock_time
            self._engine.put_many(self._meta_table, [("latest_timestamp", clock_time)])

    def latest_timestamp(self) -> float:
        if self._latest_timestamp is None or self._shared:
            self._latest_timestamp = float(
                self._engine.get(self._meta_table, "latest_timestamp", default=0.0)
            )
        return self._latest_timestamp

    def allocate_project_id(self) -> int:
        return self._allocate("next_project_id", 1)

    def allocate_task_ids(self, count: int) -> int:
        return self._allocate("next_task_id", count)

    def allocate_run_ids(self, count: int, clock_time: float | None = None) -> int:
        return self._allocate("next_run_id", count, clock_time=clock_time)

    # -- projects ----------------------------------------------------------

    def put_project(self, project: Project) -> Project:
        # Record first, name claim second.  The name claim (an atomic
        # put_new) is the arbiter of concurrent same-name creates, and this
        # ordering means whoever wins it has already written a complete
        # project record — a loser can never observe a won name whose
        # project does not exist yet.  A crash between the two writes
        # leaves an unnamed orphan record (invisible to find_project_id;
        # the replayed create simply makes a fresh project), the same
        # orphan class the task path tolerates.
        self._engine.create_table(self._index_table(project.project_id))
        self._engine.create_table(self._dedup_table(project.project_id))
        self._engine.put(
            self._projects_table, self._id_key(project.project_id), project.to_dict()
        )
        try:
            self._engine.put_new(self._names_table, project.name, project.project_id)
        except DuplicateKeyError:
            existing_id = self.find_project_id(project.name)
            if existing_id is not None and existing_id != project.project_id:
                existing = self.get_project(existing_id)
                if existing is not None:
                    # Lost the race: discard our record and adopt the winner.
                    self._engine.delete(
                        self._projects_table, self._id_key(project.project_id)
                    )
                    self._engine.drop_table(self._index_table(project.project_id))
                    self._engine.drop_table(self._dedup_table(project.project_id))
                    return existing
            # The mapping is ours already (a replay) or points at a deleted
            # project: take it over.  Two creators can race this takeover
            # only after an explicit delete_project; last writer wins and
            # the other's record becomes an unnamed orphan — documented as
            # out of scope for concurrent delete+create of one name.
            self._engine.put(self._names_table, project.name, project.project_id)
        if not self._shared:
            self._project_ids[project.project_id] = []
            self._open_ids[project.project_id] = set()
        self._record_latest(project.created_at)
        return project

    def get_project(self, project_id: int) -> Project | None:
        payload = self._engine.get(self._projects_table, self._id_key(project_id))
        return Project.from_dict(payload) if payload is not None else None

    def find_project_id(self, name: str) -> int | None:
        project_id = self._engine.get(self._names_table, name)
        return int(project_id) if project_id is not None else None

    def list_project_ids(self) -> list[int]:
        # Ids are monotonic, so insertion order is ascending id order.
        return [int(key) for key in self._engine.scan_keys(self._projects_table)]

    def remove_project(self, project: Project) -> None:
        # Index entries first (never a dangling id), then runs, then the
        # records; project record last, so an interrupted delete can simply
        # be retried — the project stays discoverable until everything it
        # owns is gone.  One batched delete per table instead of one commit
        # per task per table.
        index_table = self._index_table(project.project_id)
        keys = [
            self._id_key(task_id)
            for task_id in self.project_task_ids(project.project_id)
        ]
        if keys:
            if self._total_runs is not None:
                for payload in self._engine.get_many(
                    self._runs_table, keys, default=[]
                ):
                    self._total_runs -= len(payload)
            self._engine.delete_many(index_table, keys)
            self._engine.delete_many(self._runs_table, keys)
            self._engine.delete_many(self._tasks_table, keys)
        self._project_ids.pop(project.project_id, None)
        self._open_ids.pop(project.project_id, None)
        self._engine.drop_table(index_table)
        self._engine.drop_table(self._dedup_table(project.project_id))
        self._engine.delete(self._names_table, project.name)
        self._engine.delete(self._projects_table, self._id_key(project.project_id))

    # -- tasks -------------------------------------------------------------

    def add_tasks(self, tasks: Sequence[Task], dedup_keys: Sequence[str | None]) -> None:
        if not tasks:
            return
        # A publish is four engine batches, each record written once, in
        # crash-safe order (a crash can only fall *between* batches — and
        # inside the server's write group not even there, where the engine
        # makes the group one transaction).
        # Records first (stage_tasks) — alone they are unreachable, a
        # storage leak only, invisible to every page and to :meth:`counts`,
        # which reads the index; the replay re-creates under fresh ids.
        # Dedup mappings second (claim_dedup_keys; here only the overwrite
        # of a mapping whose claim lost to a deleted task) — a mapping
        # always names a written record, so a replay resolves to live tasks
        # and returns them instead of duplicating crowd work.  Index
        # entries last — a replay that resolves a hit heals any entries the
        # crash swallowed via :meth:`ensure_indexed`.  No ordering leaves a
        # window where a replay double-publishes.  (A spec *without* a
        # dedup key cannot be recognised by any replay; a crash before its
        # index entry leaves its record in that same unreachable state.)
        by_project: dict[int, list[Task]] = {}
        dedup_items: dict[int, list[tuple[str, Any]]] = {}
        for task, dedup_key in zip(tasks, dedup_keys):
            by_project.setdefault(task.project_id, []).append(task)
            if dedup_key is not None:
                dedup_items.setdefault(task.project_id, []).append(
                    (dedup_key, task.task_id)
                )
        for project_id, items in dedup_items.items():
            self._engine.put_many(self._dedup_table(project_id), items)
        for project_id, group in by_project.items():
            self._engine.put_many(
                self._index_table(project_id),
                [(self._id_key(task.task_id), task.task_id) for task in group],
            )
            cached = self._project_ids.get(project_id)
            if cached is not None:
                # Fresh ids come from the monotonic counter, so they all
                # sort after anything already cached.
                cached.extend(task.task_id for task in group)
            open_ids = self._open_ids.get(project_id)
            if open_ids is not None:
                open_ids.update(
                    task.task_id for task in group if task.completed_at is None
                )
        self._record_latest(max(task.created_at for task in tasks))

    def stage_tasks(self, tasks: Sequence[Task]) -> None:
        if not tasks:
            return
        # Record only (see the base-class contract): the one durable write
        # of these records, which also makes this writer's candidates
        # resolvable by a racing claimer.
        self._put_task_records(tasks)

    def discard_staged(self, tasks: Sequence[Task]) -> None:
        self._engine.delete_many(
            self._tasks_table, [self._id_key(task.task_id) for task in tasks]
        )

    def ensure_indexed(self, tasks: Sequence[Task]) -> None:
        by_project: dict[int, list[Task]] = {}
        for task in tasks:
            by_project.setdefault(task.project_id, []).append(task)
        for project_id, group in by_project.items():
            table = self._index_table(project_id)
            keys = [self._id_key(task.task_id) for task in group]
            present = self._engine.get_many(table, keys)
            missing = [
                (key, task.task_id)
                for key, task, value in zip(keys, group, present)
                if value is None
            ]
            if missing:
                # Healed entries land at the engine's tail; harmless,
                # because per-project pages are served from the *sorted*
                # key list, never from physical insertion order.  The
                # cached list is reloaded rather than patched in place.
                self._engine.put_many(table, missing)
                self._project_ids.pop(project_id, None)
                self._open_ids.pop(project_id, None)

    def get_task(self, task_id: int) -> Task | None:
        payload = self._engine.get(self._tasks_table, self._id_key(task_id))
        return Task.from_dict(payload) if payload is not None else None

    def get_tasks(self, task_ids: Sequence[int]) -> list[Task | None]:
        payloads = self._engine.get_many(
            self._tasks_table, [self._id_key(task_id) for task_id in task_ids]
        )
        return [
            Task.from_dict(payload) if payload is not None else None
            for payload in payloads
        ]

    def _put_task_records(self, tasks: Sequence[Task]) -> None:
        """Write *tasks*' records as one engine batch."""
        self._engine.put_many(
            self._tasks_table,
            [(self._id_key(task.task_id), task.to_dict()) for task in tasks],
        )

    def update_tasks(self, tasks: Sequence[Task]) -> None:
        if not tasks:
            return
        self._put_task_records(tasks)
        for task in tasks:
            open_ids = self._open_ids.get(task.project_id)
            if open_ids is None:
                continue
            if task.completed_at is not None:
                open_ids.discard(task.task_id)
                continue
            # Only an indexed task re-enters: the orphan record of a torn
            # delete stays as invisible as a reopen would find it.
            indexed = self._sorted_task_ids(task.project_id)
            if _find_task_id(indexed, task.task_id) is not None:
                open_ids.add(task.task_id)

    def remove_task(self, task: Task) -> None:
        key = self._id_key(task.task_id)
        if self._total_runs is not None:
            self._total_runs -= len(self._engine.get(self._runs_table, key, default=[]))
        # Index entry first: a crash mid-delete then leaves an *invisible*
        # orphan (task/runs no project lists) rather than a dangling index
        # entry that resolves to nothing.
        self._engine.delete(self._index_table(task.project_id), key)
        self._engine.delete(self._runs_table, key)
        self._engine.delete(self._tasks_table, key)
        cached = self._project_ids.get(task.project_id)
        if cached is not None:
            position = _find_task_id(cached, task.task_id)
            if position is not None:
                del cached[position]
        open_ids = self._open_ids.get(task.project_id)
        if open_ids is not None:
            open_ids.discard(task.task_id)

    def _sorted_task_ids(self, project_id: int) -> list[int]:
        """The project's task ids, ascending — cached after one index scan.

        Zero-padded keys make lexicographic order numeric order, and ids
        are monotonic, so sorting restores publication order regardless of
        the index's physical insertion order (entries healed by
        ``ensure_indexed`` after a torn batch land at the engine's tail).
        """
        if self._shared:
            # Another server may have appended to this project; the cache
            # cannot know, so shared mode reads the index every time.
            return sorted(
                int(key)
                for key in self._engine.scan_keys(self._index_table(project_id))
            )
        cached = self._project_ids.get(project_id)
        if cached is None:
            cached = sorted(
                int(key)
                for key in self._engine.scan_keys(self._index_table(project_id))
            )
            self._project_ids[project_id] = cached
        return cached

    def project_task_ids(self, project_id: int) -> list[int]:
        return list(self._sorted_task_ids(project_id))

    def open_task_ids(self, project_id: int) -> list[int]:
        open_ids = self._open_ids.get(project_id)
        if open_ids is None:
            task_ids = self._sorted_task_ids(project_id)
            payloads = self._engine.get_many(
                self._tasks_table, [self._id_key(task_id) for task_id in task_ids]
            )
            open_ids = {
                task_id
                for task_id, payload in zip(task_ids, payloads)
                if payload is not None and payload.get("completed_at") is None
            }
            if not self._shared:
                # Another server may stamp or un-stamp this project's tasks;
                # shared mode reads the records every time.
                self._open_ids[project_id] = open_ids
        return sorted(open_ids)

    def task_id_page(
        self, project_id: int, limit: int, start_after: int | None, offset: int = 0
    ) -> list[int]:
        return _page_task_ids(
            self._sorted_task_ids(project_id), limit, start_after, project_id, offset
        )

    def resolve_dedup_keys(self, project_id: int, keys: Sequence[str]) -> dict[str, int]:
        if not keys:
            return {}
        values = self._engine.get_many(self._dedup_table(project_id), list(keys))
        return {
            key: int(task_id)
            for key, task_id in zip(keys, values)
            if task_id is not None
        }

    def claim_dedup_keys(
        self, project_id: int, claims: Sequence[tuple[str, int]]
    ) -> dict[str, int]:
        if not claims:
            return {}
        # put_many(if_absent=True) is atomic first-writer-wins on every
        # engine (the SQLite engine pushes it into INSERT OR IGNORE, so it
        # holds across processes too) and hands back the surviving record
        # per key — winner or not, the returned id is the owner's.
        records = self._engine.put_many(
            self._dedup_table(project_id), list(claims), if_absent=True
        )
        return {record.key: int(record.value) for record in records}

    # -- task runs ---------------------------------------------------------

    def _decode_runs(self, payload: Any) -> list[TaskRun]:
        return [TaskRun.from_dict(entry) for entry in payload]

    def runs_for_task(self, task_id: int) -> list[TaskRun]:
        payload = self._engine.get(self._runs_table, self._id_key(task_id), default=[])
        return self._decode_runs(payload)

    def runs_for_tasks(self, task_ids: Sequence[int]) -> list[list[TaskRun]]:
        keys = [self._id_key(task_id) for task_id in task_ids]
        payloads = self._engine.get_many(self._runs_table, keys, default=[])
        return [self._decode_runs(payload) for payload in payloads]

    def append_runs(self, runs_by_task: Mapping[int, Sequence[TaskRun]]) -> None:
        """One ``get_many`` to fetch the touched tasks' stored run lists, one
        ``put_many`` to write them back extended — O(1) engine round-trips
        no matter how many tasks the batch names.  The write is atomic per
        engine batch semantics, so a crash lands either the whole batch or
        (on the crash-stepping and partitioned engines) whole tasks of it;
        both heal by re-running ``simulate_work``.
        """
        if not runs_by_task:
            return
        keys = [self._id_key(task_id) for task_id in runs_by_task]
        stored_lists = self._engine.get_many(self._runs_table, keys, default=[])
        # Copy before extending: the memory engine hands out its stored list
        # by reference, and the stored value must only change via put.
        self._engine.put_many(
            self._runs_table,
            [
                (key, list(stored) + [run.to_dict() for run in runs])
                for key, stored, runs in zip(keys, stored_lists, runs_by_task.values())
            ],
        )
        if self._total_runs is not None:
            self._total_runs += sum(len(runs) for runs in runs_by_task.values())

    def run_count(self, task_id: int) -> int:
        return len(self._engine.get(self._runs_table, self._id_key(task_id), default=[]))

    def run_counts_for_tasks(self, task_ids: Sequence[int]) -> list[int]:
        keys = [self._id_key(task_id) for task_id in task_ids]
        return [
            len(payload)
            for payload in self._engine.get_many(self._runs_table, keys, default=[])
        ]

    # -- introspection and lifecycle ---------------------------------------

    def _count_total_runs(self) -> int:
        if self._shared:
            # Other writers append runs this handle never sees; count what
            # is actually on the engine, every time.
            return sum(
                len(record.value) for record in self._engine.scan(self._runs_table)
            )
        if self._total_runs is None:
            # One recovery scan on the first counts() after (re)open;
            # maintained incrementally afterwards.  (Deliberately *not* a
            # persisted counter: the scan reflects what actually survived a
            # crash, which a counter written ahead of the runs would not.)
            self._total_runs = sum(
                len(record.value) for record in self._engine.scan(self._runs_table)
            )
        return self._total_runs

    def counts(self) -> dict[str, int]:
        project_ids = self.list_project_ids()
        return {
            "projects": len(project_ids),
            # Count *indexed* tasks: an unreachable record left by a crash
            # before its index entry (see add_tasks) must not skew stats.
            "tasks": sum(
                self._engine.count(self._index_table(project_id))
                for project_id in project_ids
            ),
            "task_runs": self._count_total_runs(),
        }

    def write_group(self) -> ContextManager[None]:
        return self._engine.write_group()

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["engine"] = self._engine.engine_name
        description["namespace"] = self._namespace
        description["shared"] = self._shared
        return description

    def flush(self) -> None:
        self._engine.flush()

    def close(self) -> None:
        if self._owns_engine:
            self._engine.close()


def open_task_store(
    config: PlatformConfig, shared_engine: StorageEngine | None = None
) -> TaskStore:
    """Build the task store described by ``config.store`` / ``config.store_engine``.

    Args:
        config: Platform configuration.  ``store`` selects ``"memory"``
            (default) or ``"durable"``; for a durable store,
            ``store_engine`` (a :class:`~repro.config.StorageConfig`) names
            the engine to open — the store then owns and closes it.
        shared_engine: An already-open engine to piggyback on when
            ``store == "durable"`` and no ``store_engine`` is configured.
            This is how :class:`~repro.core.context.CrowdContext` keeps the
            whole experiment — client cache *and* platform state — in one
            sharable artifact.

    Raises:
        ConfigurationError: Unknown ``store`` kind, or a durable store with
            neither ``store_engine`` nor *shared_engine*.
    """
    if config.store == "memory":
        return MemoryTaskStore()
    if config.store == "durable":
        if config.store_engine is not None:
            return DurableTaskStore(open_engine(config.store_engine), owns_engine=True)
        if shared_engine is not None:
            return DurableTaskStore(shared_engine)
        raise ConfigurationError(
            "PlatformConfig(store='durable') needs a store_engine (or an engine "
            "to share, as CrowdContext provides)"
        )
    raise ConfigurationError(
        f"unknown platform task store {config.store!r}; expected 'memory' or 'durable'"
    )
