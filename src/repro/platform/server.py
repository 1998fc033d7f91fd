"""The simulated crowdsourcing platform server.

Holds projects, tasks and task runs in a pluggable
:class:`~repro.platform.store.TaskStore`; when asked to ``simulate_work`` it
draws workers from the pool, has them answer every pending assignment and
records one :class:`repro.platform.models.TaskRun` per answer.  Ground truth
for the simulated workers comes from an *answer oracle*: a callable mapping a
task's ``info`` payload to the hidden true answer (or None when no ground
truth is known, in which case workers guess among the candidates).

The server owns validation, redundancy policy and the work simulation; all
state — projects, tasks, task runs, dedup keys and id counters — lives in the
store.  With the default :class:`~repro.platform.store.MemoryTaskStore` the
behaviour is the original in-process simulator; with a
:class:`~repro.platform.store.DurableTaskStore` the platform itself survives
crash-and-rerun: a server reconstructed on the same storage engine resumes
with identical ids, identical dedup behaviour and working page cursors.

Result retrieval comes in two shapes:

* ``get_task_runs(task_id)`` — one task's answers (one round-trip per task,
  the seed behaviour);
* **pages** — ``list_project_task_ids`` / ``get_task_runs_page`` return
  fixed-size pages in publication order, addressed by an exclusive task-id
  cursor (the storage layer's ``scan`` contract transplanted to the
  platform) plus an offset counted from it; the client chains them into a
  generator so a project larger than memory can be collected in bounded
  space.  Pages are stable under appends: tasks created while iterating
  (e.g. a republish) only ever land after the cursor.

``get_task_runs_for_project`` reads a whole project in one in-process call;
it is not a wire verb — it is the oracle the paging tests compare against.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable, Iterator, Sequence

from repro.config import PlatformConfig
from repro.exceptions import PlatformError, ProjectNotFoundError, TaskNotFoundError
from repro.platform.assignment import AssignmentStrategy, RandomAssignment
from repro.platform.models import Project, Task, TaskRun
from repro.platform.store import TaskStore, open_task_store
from repro.utils.timing import SimulatedClock
from repro.workers.pool import WorkerPool

AnswerOracle = Callable[[dict[str, Any]], Any]

#: A validated task spec: (info, resolved redundancy, dedup key or None).
_ValidatedSpec = tuple[dict[str, Any], int, "str | None"]


def _default_oracle(task_info: dict[str, Any]) -> Any:
    """Oracle used when none is registered: look for a ``_true_answer`` field."""
    return task_info.get("_true_answer")


class PlatformServer:
    """In-process stand-in for a PyBossa server."""

    #: Tasks fetched per store page when walking a whole project internally.
    _work_page_size = 500

    def __init__(
        self,
        worker_pool: WorkerPool,
        config: PlatformConfig | None = None,
        assignment: AssignmentStrategy | None = None,
        clock: SimulatedClock | None = None,
        answer_oracle: AnswerOracle | None = None,
        store: TaskStore | None = None,
    ):
        """Create a server backed by *worker_pool*.

        Args:
            worker_pool: The simulated crowd answering tasks.
            config: Platform configuration (API key, default redundancy...).
            assignment: Worker-selection policy; random when omitted.
            clock: Simulated clock shared with the rest of the experiment.
            answer_oracle: Maps a task's ``info`` to its hidden true answer.
            store: Task store holding the server's state.  When omitted it
                is built from ``config.store`` / ``config.store_engine``
                (the default configuration yields the in-memory store).
                Passing a :class:`DurableTaskStore` opened on a previously
                used engine *reopens* that platform: ids, dedup keys and
                page cursors resume where the dead server left off.
        """
        self.config = config or PlatformConfig()
        self.worker_pool = worker_pool
        self.assignment = assignment or RandomAssignment()
        self.clock = clock or SimulatedClock()
        self.answer_oracle = answer_oracle or _default_oracle
        self.store = store or open_task_store(self.config)
        # A reopened durable store may carry timestamps from a previous
        # life while this clock starts fresh; fast-forward so nothing new
        # is ever stamped before the surviving answers.
        latest = self.store.latest_timestamp()
        if latest > self.clock.now:
            self.clock.advance(latest - self.clock.now)

    # -- authentication -------------------------------------------------------

    def authenticate(self, api_key: str) -> bool:
        """Return True when *api_key* matches the configured key."""
        return api_key == self.config.api_key

    def require_auth(self, api_key: str) -> None:
        """Raise :class:`PlatformError` unless *api_key* is valid."""
        if not self.authenticate(api_key):
            raise PlatformError("invalid API key")

    # -- projects -----------------------------------------------------------------

    def create_project(
        self, name: str, description: str = "", task_presenter: str = ""
    ) -> Project:
        """Create a project; returns the existing one if *name* is taken.

        Idempotent creation is what lets a re-run of Bob's code map onto the
        same server-side project instead of creating a duplicate.
        """
        existing_id = self.store.find_project_id(name)
        if existing_id is not None:
            existing = self.store.get_project(existing_id)
            if existing is not None:
                return existing
            # The name maps to a project whose record is gone (a deleted
            # project's stale mapping): fall through and create fresh —
            # put_project takes the dead mapping over.
        with self.store.write_group():
            project = Project(
                project_id=self.store.allocate_project_id(),
                name=name,
                short_name=self._short_name(name),
                description=description,
                task_presenter=task_presenter,
                created_at=self.clock.now,
            )
            # put_project arbitrates concurrent same-name creates; whoever
            # won is the project every caller must see.
            return self.store.put_project(project)

    @staticmethod
    def _short_name(name: str) -> str:
        slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
        return slug or "project"

    def get_project(self, project_id: int) -> Project:
        """Return the project with *project_id*."""
        project = self.store.get_project(project_id)
        if project is None:
            raise ProjectNotFoundError(project_id)
        return project

    def find_project(self, name: str) -> Project | None:
        """Return the project named *name*, or None."""
        project_id = self.store.find_project_id(name)
        return self.store.get_project(project_id) if project_id is not None else None

    def list_projects(self) -> list[Project]:
        """Return every project ordered by id."""
        return [self.store.get_project(pid) for pid in self.store.list_project_ids()]

    def delete_project(self, project_id: int) -> None:
        """Delete a project together with its tasks and task runs."""
        project = self.get_project(project_id)
        with self.store.write_group():
            self.store.remove_project(project)

    # -- tasks -----------------------------------------------------------------------

    def create_tasks(
        self, project_id: int, task_specs: Sequence[dict[str, Any]]
    ) -> list[Task]:
        """Publish a batch of tasks in one call; return them in spec order.

        Each spec is a dict with ``info`` (required: the task payload shown
        to workers), ``n_assignments`` (requested redundancy; the platform
        default when absent or None) and ``dedup_key`` (optional
        client-supplied idempotency key).  All specs are validated before
        any task is created, so a bad spec can never leave the batch
        half-published; a spec whose ``dedup_key`` names a live task of the
        same project returns that task instead of a duplicate — the
        property that makes retried and re-run batch publishes safe.
        """
        self.get_project(project_id)
        validated: list[_ValidatedSpec] = []
        for spec in task_specs:
            if "info" not in spec:
                raise PlatformError(f"task spec is missing 'info': {spec!r}")
            redundancy = self._check_redundancy(spec.get("n_assignments"))
            validated.append((spec["info"], redundancy, spec.get("dedup_key")))
        with self.store.write_group():
            return self._create_tasks(project_id, validated)

    def _create_tasks(
        self, project_id: int, validated: Sequence[_ValidatedSpec]
    ) -> list[Task]:
        """Create the already-validated *validated* specs as one store batch.

        Dedup keys are resolved in bulk first (one store lookup for the
        whole batch plus one liveness check on the named tasks — a stale
        mapping left by a deleted task must not resurrect it).  The
        remaining specs get consecutive ids from one counter reservation and
        land in the store as one ``stage_tasks`` / ``claim_dedup_keys`` /
        ``add_tasks`` sequence that writes each record once, so the durable
        cost of a publish stays O(1) engine round-trips in the batch size —
        and, inside the caller's store write group, one durability barrier.

        The resolve step is only an advisory fast path: between it and the
        write, *another server process* on the same store may create the
        same keys.  Ownership is therefore decided by
        ``store.claim_dedup_keys`` (atomic first-writer-wins): specs whose
        claim lost discard their candidate task — its reserved id becomes
        an unused gap — and return the concurrent winner instead, which is
        what keeps a batch exactly-once under cross-process races.
        """
        dedup_keys = [key for _, _, key in validated if key is not None]
        live: dict[str, Task] = {}
        if dedup_keys:
            resolved = self.store.resolve_dedup_keys(project_id, dedup_keys)
            if resolved:
                keys = list(resolved)
                tasks = self.store.get_tasks([resolved[key] for key in keys])
                live = {key: task for key, task in zip(keys, tasks) if task is not None}
            if live:
                # A replay after a crash inside a previous add_tasks batch
                # may find live tasks whose index entries were never
                # written; healing them here is what makes the publish
                # replay converge instead of leaving invisible tasks.
                distinct = {task.task_id: task for task in live.values()}
                self.store.ensure_indexed(list(distinct.values()))

        # Plan each spec: an existing task (dedup hit) or an index into the
        # to-be-created list.  A dedup key repeated within the batch dedupes
        # onto its first occurrence, exactly like sequential single creates.
        new_specs: list[_ValidatedSpec] = []
        slots: list[Task | int] = []
        claimed: dict[str, int] = {}
        for info, redundancy, dedup_key in validated:
            if dedup_key is not None:
                if dedup_key in live:
                    slots.append(live[dedup_key])
                    continue
                if dedup_key in claimed:
                    slots.append(claimed[dedup_key])
                    continue
                claimed[dedup_key] = len(new_specs)
            slots.append(len(new_specs))
            new_specs.append((info, redundancy, dedup_key))

        created: list[Task] = []
        if new_specs:
            first_id = self.store.allocate_task_ids(len(new_specs))
            now = self.clock.now
            created = [
                Task(
                    task_id=first_id + offset,
                    project_id=project_id,
                    info=dict(info),
                    n_assignments=redundancy,
                    created_at=now,
                )
                for offset, (info, redundancy, _) in enumerate(new_specs)
            ]
            created = self._claim_and_store(project_id, new_specs, created)
        return [slot if isinstance(slot, Task) else created[slot] for slot in slots]

    def _claim_and_store(
        self,
        project_id: int,
        new_specs: Sequence[_ValidatedSpec],
        created: Sequence[Task],
    ) -> list[Task]:
        """Claim the keyed specs' dedup keys, store what we won, and return
        one task per spec — ours where the claim won (or no key was given),
        the concurrent winner's where it lost.
        """
        keyed = [
            (key, task.task_id)
            for task, (_, _, key) in zip(created, new_specs)
            if key is not None
        ]
        # Stage our candidate records *before* claiming (record-first,
        # like put_project): any server whose claim beats ours has
        # already staged, so a lost claim always resolves to a live
        # winner record rather than racing the winner's add_tasks.  This
        # is the one write the records get; un-keyed ones ride along.
        self.store.stage_tasks(created)
        winners = self.store.claim_dedup_keys(project_id, keyed) if keyed else {}

        # A lost claim names a task some other server just created; fetch
        # those tasks in one read.  A winner id whose task is *dead* means
        # the claim lost to a stale mapping (its task was deleted after the
        # liveness fast path) — treat that as won: keep our task, and hand
        # add_tasks the key so it overwrites the mapping, exactly as the
        # store contract for stale keys has always promised.
        ours = dict(keyed)
        lost = {
            key: task_id for key, task_id in winners.items() if task_id != ours[key]
        }
        winner_tasks: dict[int, Task] = {}
        if lost:
            for task in self.store.get_tasks(sorted(set(lost.values()))):
                if task is not None:
                    winner_tasks[task.task_id] = task
            if winner_tasks:
                # Same torn-batch healing as the resolve fast path: the
                # winner's index entries may not have landed yet.
                self.store.ensure_indexed(list(winner_tasks.values()))

        materialised: list[Task] = []
        kept: list[Task] = []
        kept_keys: list[str | None] = []
        discarded: list[Task] = []
        for task, (_, _, key) in zip(created, new_specs):
            winner = winner_tasks.get(lost.get(key)) if key is not None else None
            if winner is not None:
                materialised.append(winner)
                discarded.append(task)
                continue
            materialised.append(task)
            kept.append(task)
            # A claim we won already wrote its mapping.
            kept_keys.append(key if key in lost else None)
        if discarded:
            # Our staged records for lost claims would otherwise leak as
            # unreachable rows.
            self.store.discard_staged(discarded)
        if kept:
            self.store.add_tasks(kept, kept_keys)
        return materialised

    def _check_redundancy(self, n_assignments: int | None) -> int:
        redundancy = (
            self.config.default_redundancy if n_assignments is None else n_assignments
        )
        if redundancy <= 0:
            raise PlatformError(f"n_assignments must be positive, got {redundancy}")
        return redundancy

    def get_task(self, task_id: int) -> Task:
        """Return the task with *task_id*."""
        task = self.store.get_task(task_id)
        if task is None:
            raise TaskNotFoundError(task_id)
        return task

    def list_tasks(self, project_id: int) -> list[Task]:
        """Return every task of *project_id* in publication order."""
        self.get_project(project_id)
        tasks = self.store.get_tasks(self.store.project_task_ids(project_id))
        # A crash mid-delete can leave an index entry whose task record is
        # already gone; surface the live tasks, not a None.
        return [task for task in tasks if task is not None]

    def delete_task(self, task_id: int) -> None:
        """Delete a task and its task runs."""
        task = self.get_task(task_id)
        with self.store.write_group():
            self.store.remove_task(task)

    def extend_tasks_redundancy(self, extensions: dict[int, int]) -> list[Task]:
        """Request extra assignments for a batch of tasks in one round-trip.

        Used by adaptive quality control: ambiguous tasks get more answers
        after their initial assignments disagree.  *extensions* maps task
        id to the number of additional assignments.

        The whole batch is validated before anything mutates — an unknown
        task id or non-positive extra leaves every task untouched, so a
        caller that charges budget per accepted extension never observes a
        half-applied batch from a rejected request.  Returns the updated
        tasks in the batch's iteration order.
        """
        tasks = self.store.get_tasks(list(extensions))
        for task, (task_id, extra) in zip(tasks, extensions.items()):
            if extra <= 0:
                raise PlatformError(
                    f"extra assignments must be positive, got {extra} "
                    f"for task {task_id}"
                )
            if task is None:
                raise TaskNotFoundError(task_id)
        for task, extra in zip(tasks, extensions.values()):
            task.n_assignments += extra
            task.completed_at = None
        with self.store.write_group():
            self.store.update_tasks(tasks)
        return tasks

    # -- task runs --------------------------------------------------------------------

    def get_task_runs(self, task_id: int) -> list[TaskRun]:
        """Return the task runs collected so far for *task_id*."""
        self.get_task(task_id)
        return self.store.runs_for_task(task_id)

    def get_task_runs_for_project(self, project_id: int) -> dict[int, list[TaskRun]]:
        """Return every task's runs of *project_id*, keyed by task id.

        The one whole-project reader, in-process only (no client or wire
        verb reaches it): the oracle the paging tests compare against.
        Tasks with no answers yet map to an empty list.
        """
        self.get_project(project_id)
        task_ids = self.store.project_task_ids(project_id)
        return dict(zip(task_ids, self.store.runs_for_tasks(task_ids)))

    def _task_id_page(
        self, project_id: int, limit: int, start_after: int | None, offset: int
    ) -> list[int]:
        """One page of task ids of *project_id* — the single place a page
        request is validated before it reaches the store."""
        if limit <= 0:
            raise PlatformError(f"page limit must be positive, got {limit}")
        if offset < 0:
            raise PlatformError(f"page offset must be >= 0, got {offset}")
        self.get_project(project_id)
        return self.store.task_id_page(project_id, limit, start_after, offset)

    def list_project_task_ids(
        self,
        project_id: int,
        limit: int,
        start_after: int | None = None,
        offset: int = 0,
    ) -> list[int]:
        """One page of the project's task ids, in publication order.

        ``start_after`` is an exclusive task-id cursor (the last id of the
        previous page); an id the project does not contain raises
        :class:`PlatformError`.  This is the cheap membership stream the
        collection path uses to detect stale cached tasks without shipping
        any task runs.  On a durable store the cursor survives a server
        restart: the reopened server serves the next page as if nothing
        happened.

        *offset* skips that many tasks after the cursor (after the
        project's first task when it is None).  Pages at different offsets
        from one cursor are independent of each other, so a pipelined
        client can fetch several concurrently, and a client that already
        holds a prefix of the project anchors every in-flight page to the
        same id and ships none of the prefix again.  Offsets are stable
        under appends (new tasks only ever land at higher offsets) but
        *not* under concurrent deletions, which shift later offsets down —
        chaining cursors at offset 0 remains the general-purpose stream.
        A position at or past the end returns ``[]`` rather than raising,
        because a speculative fetch beyond the (unknown) end of the project
        is how the pipelined iterator discovers that end.
        """
        return self._task_id_page(project_id, limit, start_after, offset)

    def get_task_runs_page(
        self,
        project_id: int,
        limit: int,
        start_after: int | None = None,
        offset: int = 0,
    ) -> list[tuple[int, list[TaskRun]]]:
        """One page of ``(task_id, task_runs)`` pairs, in publication order.

        Same cursor and offset contract as :meth:`list_project_task_ids`;
        at most *limit* tasks' runs are materialised per call, which is
        what bounds the memory footprint of a streaming collection.
        """
        page = self._task_id_page(project_id, limit, start_after, offset)
        return list(zip(page, self.store.runs_for_tasks(page)))

    def _iter_open_pages(self, project_id: int) -> Iterator[list[int]]:
        """Walk the project's open-task frontier (the ids of its unstamped
        tasks, ascending) in ``_work_page_size`` pages — everything else in
        the project is stamped, hence complete, and is never read."""
        open_ids = self.store.open_task_ids(project_id)
        for start in range(0, len(open_ids), self._work_page_size):
            yield open_ids[start : start + self._work_page_size]

    def _iter_open_task_run_counts(self, project_id: int) -> Iterator[tuple[Task, int]]:
        """Walk ``(task, collected-run count)`` pairs of the open tasks.

        One bulk task read and one bulk run-count read per frontier page,
        so completion checks cost what is still unstamped, not the project.
        """
        for page in self._iter_open_pages(project_id):
            counts = self.store.run_counts_for_tasks(page)
            for task, count in zip(self.store.get_tasks(page), counts):
                if task is not None:
                    yield task, count

    def pending_assignments(self, project_id: int | None = None) -> int:
        """Return the number of assignments still waiting for a worker."""
        if project_id is None:
            project_ids = self.store.list_project_ids()
        else:
            self.get_project(project_id)
            project_ids = [project_id]
        return sum(
            max(0, task.n_assignments - count)
            for pid in project_ids
            for task, count in self._iter_open_task_run_counts(pid)
        )

    def is_task_complete(self, task_id: int) -> bool:
        """Return True when the task has received all requested answers."""
        task = self.get_task(task_id)
        return self.store.run_count(task_id) >= task.n_assignments

    def is_project_complete(self, project_id: int) -> bool:
        """Return True when every task of the project is complete (an
        unstamped task that has all its answers counts as complete)."""
        self.get_project(project_id)
        return all(
            count >= task.n_assignments
            for task, count in self._iter_open_task_run_counts(project_id)
        )

    # -- work simulation -----------------------------------------------------------------

    def simulate_work(
        self, project_id: int | None = None, max_assignments: int | None = None
    ) -> int:
        """Have simulated workers answer pending assignments.

        The work proceeds in page-wise *waves* (see :meth:`_fill_page`), and
        every answer it created is on the store when the call returns.

        Args:
            project_id: Restrict the simulation to one project (all when None).
            max_assignments: Stop after this many new answers (no limit when
                None) — used by crash-injection experiments to crash the
                experiment mid-collection.

        Returns:
            The number of task runs created.
        """
        created = 0
        if project_id is None:
            project_ids = self.store.list_project_ids()
        else:
            self.get_project(project_id)
            project_ids = [project_id]
        for pid in project_ids:
            for page in self._iter_open_pages(pid):
                budget = None if max_assignments is None else max_assignments - created
                created += self._fill_page(page, budget)
                if max_assignments is not None and created >= max_assignments:
                    return created
        return created

    def _fill_page(self, task_ids: Sequence[int], budget: int | None) -> int:
        """One wave: fill the missing assignments of a frontier page.

        A stamped task (``completed_at`` set) is complete by construction,
        so only the store's open-task frontier is walked, in task-id order
        (a shared store's frontier may be stale: a task another server
        stamped or deleted meanwhile is skipped).  Every missing answer
        of the page is drawn in memory — task by task, assignment by
        assignment, the order the RNG and the clock have always seen — and
        then lands in three store writes: one run-id reservation (the final
        clock riding along), one bulk ``append_runs`` and one bulk
        ``update_tasks`` stamping each finished task with its own last
        answer's submission time.  *budget* caps the answers drawn (None is
        uncapped); the wave flushes whatever was drawn before the cap.

        The three writes are one store write group: on an engine that can
        (sqlite, log) a killed process leaves all of the wave or none.  On
        the others a crash can fall in three windows, each healed by a
        rerun's idempotent top-up: after the reservation (an unused id gap,
        never a reused id), after some or all runs landed without their
        completion stamps (the rerun re-reads those tasks, tops up what is
        missing and stamps the rest), or before anything was written.

        Returns the number of answers created.
        """
        open_tasks = [
            task
            for task in self.store.get_tasks(task_ids)
            if task is not None and task.completed_at is None
        ]
        if not open_tasks:
            return 0
        stored_runs = self.store.runs_for_tasks([task.task_id for task in open_tasks])
        new_runs: dict[int, list[TaskRun]] = {}
        stamps: list[tuple[Task, float]] = []
        created = 0
        for task, runs in zip(open_tasks, stored_runs):
            missing = task.n_assignments - len(runs)
            if missing <= 0:
                # Heals the crash window between a durable append_runs and
                # its update_tasks: the answers landed but the completion
                # stamp did not, and no further answers will ever be
                # created to set it.  Stamp with the final answer's own
                # submission time, never before it.
                stamps.append(
                    (task, max((run.submitted_at for run in runs), default=self.clock.now))
                )
            elif budget is None or created < budget:
                if budget is not None:
                    missing = min(missing, budget - created)
                answers = self._draw_answers(task, runs, missing)
                new_runs[task.task_id] = answers
                created += missing
                if len(runs) + missing >= task.n_assignments:
                    stamps.append((task, answers[-1].submitted_at))
            if budget is not None and created >= budget:
                break
        with self.store.write_group():
            if new_runs:
                # Ids are reserved after the answers so the store can persist
                # the advanced clock in the same counter write; the
                # reservation still lands before the runs themselves, so a
                # crash in between leaves an id gap, never a reused id.
                first_run_id = self.store.allocate_run_ids(
                    created, clock_time=self.clock.now
                )
                for run_id, run in enumerate(
                    itertools.chain.from_iterable(new_runs.values()), first_run_id
                ):
                    run.run_id = run_id
                self.store.append_runs(new_runs)
            if stamps:
                # Stamped only now: a task must never read as complete before
                # its answers are on the store.
                for task, completed_at in stamps:
                    task.completed_at = completed_at
                self.store.update_tasks([task for task, _ in stamps])
        return created

    def _draw_answers(
        self, task: Task, runs: Sequence[TaskRun], missing: int
    ) -> list[TaskRun]:
        """Draw *missing* answers for *task*, advancing the clock per answer.

        The runs come back unnumbered (``run_id`` 0): the caller reserves
        ids for the whole wave only once every answer is drawn.
        """
        already_assigned = {run.worker_id for run in runs}
        true_answer = self.answer_oracle(task.info)
        candidates = list(task.info.get("candidates") or [])
        if not candidates:
            # Without declared candidates, workers at least see the true
            # answer (if any) plus a generic binary choice, so behaviours
            # always have something to pick from.
            candidates = ["Yes", "No"] if true_answer is None else [true_answer, "No"]
        task_type = task.info.get("task_type")
        answers: list[TaskRun] = []
        for _ in range(missing):
            collected = len(runs) + len(answers)
            worker = self._pick_worker(
                task, already_assigned, task.n_assignments - collected
            )
            already_assigned.add(worker.worker_id)
            answer, latency = worker.answer(
                candidates,
                true_answer,
                self.worker_pool.rng,
                task_type=task_type,
            )
            self.clock.advance(latency)
            answers.append(
                TaskRun(
                    run_id=0,
                    task_id=task.task_id,
                    project_id=task.project_id,
                    worker_id=worker.worker_id,
                    answer=answer,
                    submitted_at=self.clock.now,
                    latency_seconds=latency,
                    assignment_order=collected + 1,
                )
            )
        return answers

    def _pick_worker(self, task: Task, exclude: set[str], remaining: int):
        """Pick a worker for *task* honouring distinct-worker redundancy."""
        if len(exclude) >= len(self.worker_pool):
            # Redundancy exceeds pool size; fall back to reusing workers
            # rather than deadlocking the experiment.
            return self.worker_pool.draw()
        workers = self.assignment.assign(self.worker_pool, 1) if remaining else []
        if workers and workers[0].worker_id not in exclude:
            return workers[0]
        return self.worker_pool.draw(exclude=exclude)

    # -- introspection -------------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Return platform-wide counters for dashboards and tests."""
        # describe() embeds counts(), so read them from it rather than
        # paying the store's table counts twice.
        store_info = self.store.describe()
        return {
            "projects": store_info["projects"],
            "tasks": store_info["tasks"],
            "task_runs": store_info["task_runs"],
            "pending_assignments": self.pending_assignments(),
            "clock": self.clock.now,
            "workers": self.worker_pool.statistics(),
            "store": store_info,
        }

    # -- lifecycle -----------------------------------------------------------------------

    def flush(self) -> None:
        """Flush the task store's buffered writes to durable storage."""
        self.store.flush()

    def close(self) -> None:
        """Close the task store (and any engine the store owns)."""
        self.store.close()
