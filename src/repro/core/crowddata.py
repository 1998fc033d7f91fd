"""CrowdData: a crowdsourcing experiment as manipulations of a table.

The five steps of Bob's experiment (Figure 2) map onto CrowdData verbs:

1. ``CrowdContext.CrowdData(object_list, table_name)`` — initialise the table
   with ``id`` and ``object`` columns.
2. ``set_presenter(presenter)`` — choose the web UI (table unchanged).
3. ``publish_task(n_assignments)`` — add the ``task`` column (persisted).
4. ``get_result()`` — add the ``result`` column (persisted).
5. ``mv()`` / ``em()`` / ``wmv()`` — add a derived quality-control column.

Task and result columns go through the :class:`FaultRecoveryCache`, so
re-running the same program — after a crash or on Ally's machine — publishes
no duplicate tasks and re-collects no answers.  Every verb is appended to the
manipulation log and every answer carries lineage, which is what makes the
experiment examinable.

Bulk execution path
-------------------

``publish_task`` and ``get_result`` are batched end to end: one
``get_many`` against the cache, one ``create_tasks`` platform round-trip,
and one ``put_many`` back to the cache — the cost of a verb is O(1)
round-trips in the number of rows instead of O(n).  The fault-recovery
contract is unchanged:

* every ``create_tasks`` spec carries the row's object key as a platform
  ``dedup_key``, so replaying a batch (client retry, crash before the cache
  write, rerun on Ally's machine against Bob's still-running server) returns
  the existing tasks instead of duplicating them;
* cache batch writes use ``put_new`` semantics per key
  (``put_many(..., if_absent=True)``): a crash mid-batch leaves a durable
  prefix that the rerun never overwrites or version-bumps;
* a verb's *local tail* — its last cache batch and its manipulation-log
  record, everything after the last platform call — is one engine
  ``write_group()``: one durability barrier, and rows and lineage land
  together or (a killed process) not at all.  The group never spans a
  platform call: a pipelined transport's worker threads and a server
  sharing the file need the engine while the call is in flight.

A step costs what its batch costs.  The program the paper describes is
rerun and *extended* — extend → publish → collect, again and again on one
growing table — so each verb works on the rows that still need it and one
invariant holds throughout: **a row already filled in memory is never
re-derived**.

* A row's object key is hashed once, when the row is created (under the
  presenter's ``task_type``; rows created before any presenter is known are
  keyed when ``set_presenter`` is called).  ``extend``, ``publish_task`` and
  both collection verbs read that memo.
* ``publish_task`` asks the cache only for rows whose ``task`` cell is still
  ``None``, and the collection verbs only for rows whose ``result`` cell is
  ``None``.  A fresh context — the crash rerun, Ally's machine — starts with
  every cell ``None``, so it reads the whole cache exactly as before and
  every ``if_absent`` write is untouched.

Streaming collection
--------------------

Collection never materialises a whole project's answers at once.
``get_result`` reads the cache through ``FaultRecoveryCache.iter_results``
(one ``get_many`` per page of unfilled rows), checks for stale cached tasks
against the platform's id-only page stream (``iter_project_task_ids`` — one
integer per task, no runs shipped), then walks ``PlatformClient.
iter_task_runs_for_project(page_size, start_after)``: each page carries at
most ``collect_page_size`` tasks' runs, rows are filled as their page
arrives, and complete results are flushed to the cache one ``put_many`` per
page.  At no point are more than one page of task runs resident in the
pipeline, so a project larger than memory collects in space bounded by the
page size — and a crash between page flushes leaves durable page-prefixes
that the rerun's ``if_absent`` batch writes heal, exactly like the
single-batch path did.

Both platform streams resume after the collected prefix.  Task ids are
handed out in publication order, so every row still missing a result has a
larger id than the rows collected before it was published: the streams start
at the exclusive cursor ``start_after`` = the largest already-collected task
id below the smallest missing one, and neither the ids nor the runs of the
prefix cross the transport again.  A table with nothing collected yet has no
prefix to skip — ``start_after=None``, the whole-project walk, is the same
path — and a rerun that found a prefix in the cache resumes after it just
like the run that collected it.  A cursor the platform does not know (it
was redeployed since) is reported on the first page; the walk falls back
once to ``start_after=None`` and the stale-task check re-publishes as usual.

Pipelined transport
-------------------

Nothing in this module is transport-aware: when the context is configured
with ``PlatformConfig(transport="pipelined")``, the client handed in is a
:class:`~repro.platform.client.PipelinedClient` and the same verbs overlap
transport latency for free — ``publish_task``'s single ``create_tasks``
batch is split into in-flight sub-batches (each spec already carries its
``dedup_key``, so a retried sub-batch is as harmless as a retried single
batch), and the two page streams ``get_result`` walks (the id-only
staleness check and the task-run pages) are pumped ``max_in_flight``
pages at a time instead of one cursor-chained round-trip per page.  Every
non-streaming verb is a flush-on-read barrier, so the fault-recovery
reasoning above is unchanged.  The in-flight pages are all anchored to the
same ``start_after`` cursor (their offsets count from it), so resuming after
the collected prefix costs the pipeline none of its independence.
``docs/transport.md`` works the round-trip counts through.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.budget import BudgetExceededError, BudgetTracker
from repro.core.cache import FaultRecoveryCache
from repro.core.lineage import AnswerLineage, LineageQuery
from repro.core.manipulations import Manipulation, ManipulationLog
from repro.exceptions import CrowdDataError, PlatformError, PlatformUnavailableError
from repro.platform.client import PlatformClient
from repro.presenters.base import BasePresenter, registry as presenter_registry
from repro.quality.adaptive import AdaptiveCollectionStats, AdaptivePolicy
from repro.quality.aggregation import AggregationResult, get_aggregator
from repro.quality.incremental import IncrementalAggregator, IncrementalMajorityVote
from repro.storage.schema import TableSchema


class CrowdData:
    """A tabular crowdsourcing experiment.

    Instances are created through :meth:`repro.core.context.CrowdContext.CrowdData`
    rather than directly; the context supplies the platform client, the
    storage-backed cache, and the shared simulated clock.

    A row's cache key — the content hash of its object and the presenter's
    ``task_type`` — is fixed when the row is created (when the presenter is
    set, for rows that existed before one was known) and memoised for the
    life of the row: mutating an object already in the table does not re-key
    its row.  ``filter()`` and ``clear()`` drop the keys of the rows they
    drop, and a ``set_presenter()`` that changes the ``task_type`` re-keys
    every row.
    """

    def __init__(
        self,
        table_name: str,
        objects: Sequence[Any],
        client: PlatformClient,
        cache: FaultRecoveryCache,
        manipulation_log: ManipulationLog,
        clock,
        ground_truth: Callable[[Any], Any] | None = None,
        budget: BudgetTracker | None = None,
    ):
        """Initialise the table with ``id`` and ``object`` columns.

        Args:
            table_name: Name of the experiment table (also the platform
                project name).
            objects: The input objects, one per row.
            client: Platform client used to publish tasks and fetch answers.
            cache: Fault-recovery cache backing the task/result columns.
            manipulation_log: Durable log of the verbs applied to this table.
            clock: Simulated clock shared with the platform.
            ground_truth: Optional callable mapping an object to its hidden
                true answer, forwarded to the simulated workers.
            budget: Optional budget tracker; every requested assignment is
                charged against it at publication time.
        """
        self.table_name = table_name
        self.client = client
        self.cache = cache
        self.log = manipulation_log
        self.clock = clock
        self.ground_truth = ground_truth
        self.budget = budget

        self.presenter: BasePresenter | None = None
        self.project_id: int | None = None
        self.schema = TableSchema.standard(table_name)

        self.data: dict[str, list[Any]] = {
            "id": list(range(1, len(objects) + 1)),
            "object": list(objects),
            "task": [None] * len(objects),
            "result": [None] * len(objects),
        }
        # Row keys memoised by _object_keys(): a prefix of the rows, hashed
        # under _keys_task_type.
        self._keys: list[str] = []
        self._keys_task_type: str | None = None
        self._restore_presenter()
        self.log.record(
            "init",
            parameters={"rows": len(objects)},
            columns_added=["id", "object"],
            rows_affected=len(objects),
            timestamp=self.clock.now,
        )

    # -- basic table access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data["id"])

    @property
    def columns(self) -> list[str]:
        """Column names currently present, in creation order."""
        return list(self.data.keys())

    def column(self, name: str) -> list[Any]:
        """Return one column as a list (copy)."""
        try:
            return list(self.data[name])
        except KeyError:
            raise CrowdDataError(
                f"table {self.table_name!r} has no column {name!r}; "
                f"available: {self.columns}"
            ) from None

    def rows(self) -> list[dict[str, Any]]:
        """Return the table as a list of row dictionaries."""
        names = self.columns
        return [
            {name: self.data[name][index] for name in names} for index in range(len(self))
        ]

    def row(self, index: int) -> dict[str, Any]:
        """Return the row at *index* (0-based) as a dictionary."""
        if not 0 <= index < len(self):
            raise CrowdDataError(f"row index {index} out of range for {len(self)} rows")
        return {name: self.data[name][index] for name in self.columns}

    # -- step 2: presenter -------------------------------------------------------------

    def set_presenter(self, presenter: BasePresenter) -> "CrowdData":
        """Choose the web user interface used to publish this table's tasks."""
        self.presenter = presenter
        self._object_keys()
        self.cache.put_meta("presenter", presenter.describe())
        self.log.record(
            "set_presenter",
            parameters=presenter.describe(),
            timestamp=self.clock.now,
        )
        return self

    def _restore_presenter(self) -> None:
        """Rebuild the presenter Bob used, if one is stored in the cache."""
        description = self.cache.get_meta("presenter")
        if description:
            self.presenter = presenter_registry.build(description)
            self._object_keys()

    def _require_presenter(self) -> BasePresenter:
        if self.presenter is None:
            raise CrowdDataError(
                "no presenter set — call set_presenter(...) before publish_task()"
            )
        return self.presenter

    # -- step 3: publish tasks ------------------------------------------------------------

    def publish_task(
        self, n_assignments: int = 3, priority: float = 0.0
    ) -> "CrowdData":
        """Publish one task per row, adding the persistent ``task`` column.

        Rows whose task is already in the fault-recovery cache are *not*
        re-published; this is what makes a rerun free of duplicate crowd
        work.
        """
        presenter = self._require_presenter()
        self._ensure_project(presenter)
        keys = self._object_keys()
        unfilled = self._unfilled_rows("task")
        cache_hits = len(self) - len(unfilled)
        # Row indexes awaiting a descriptor, grouped by object key so a key
        # repeated across rows is published (and charged) exactly once.
        pending: dict[str, list[int]] = {}
        cached = self.cache.get_tasks([keys[index] for index in unfilled])
        for index, descriptor in zip(unfilled, cached):
            if descriptor is not None:
                self.data["task"][index] = descriptor
                cache_hits += 1
            else:
                pending.setdefault(keys[index], []).append(index)
        descriptors: dict[str, dict[str, Any]] = {}
        overflow = 0
        if pending:
            # Under a hard budget, publish only the affordable prefix: its
            # crowd work is durable (platform + cache), spend matches tasks
            # actually purchased, and the overflow raises below so a rerun
            # with more budget resumes from where this one stopped.
            publish_keys = list(pending)
            if self.budget is not None and self.budget.budget is not None:
                per_task = n_assignments * self.budget.price_per_assignment
                if per_task > 0:
                    remaining = max(0.0, self.budget.budget - self.budget.spent)
                    affordable = min(
                        len(publish_keys), int((remaining + 1e-9) // per_task)
                    )
                    overflow = len(publish_keys) - affordable
                    publish_keys = publish_keys[:affordable]
            if publish_keys:
                specs = []
                for key in publish_keys:
                    obj = self.data["object"][pending[key][0]]
                    true_answer = self.ground_truth(obj) if self.ground_truth else None
                    specs.append(
                        {
                            "info": presenter.build_task_info(obj, true_answer=true_answer),
                            "n_assignments": n_assignments,
                            "dedup_key": key,
                        }
                    )
                tasks = self.client.create_tasks(self.project_id, specs)
                # Charge only once the platform accepted the batch, so
                # recorded spend never exceeds crowd work actually purchased.
                if self.budget is not None:
                    for key in publish_keys:
                        self.budget.charge(
                            n_assignments, label=f"{self.table_name}:{key}"
                        )
                for key, task in zip(publish_keys, tasks):
                    descriptors[key] = {
                        "task_id": task.task_id,
                        "project_id": task.project_id,
                        "object_key": key,
                        "n_assignments": task.n_assignments,
                        "published_at": task.created_at,
                        "task_type": presenter.task_type,
                        "priority": priority,
                    }
        # The local tail — descriptors and the verb's log record — is one
        # write group: no transport call from here on.
        with self.cache.engine.write_group():
            if descriptors:
                self.cache.put_tasks(descriptors)
                for key, descriptor in descriptors.items():
                    for index in pending[key]:
                        self.data["task"][index] = descriptor
            if overflow:
                raise BudgetExceededError(
                    overflow * n_assignments * self.budget.price_per_assignment,
                    self.budget.spent,
                    self.budget.budget,
                )
            self.log.record(
                "publish_task",
                parameters={"n_assignments": n_assignments, "priority": priority},
                columns_added=["task"],
                rows_affected=len(self),
                cache_hits=cache_hits,
                timestamp=self.clock.now,
            )
        return self

    def _object_keys(self) -> list[str]:
        """Return each row's durable cache key, in row order.

        The list is the memo itself (callers must not mutate it): a row is
        hashed once, the first time its key is needed under the current
        presenter's ``task_type``, and a presenter of another type rebuilds
        the memo from scratch.
        """
        task_type = self._task_type_hint()
        if task_type != self._keys_task_type:
            self._keys, self._keys_task_type = [], task_type
        for obj in self.data["object"][len(self._keys) :]:
            self._keys.append(self.cache.object_key(obj, task_type))
        return self._keys

    def _unfilled_rows(self, column: str) -> list[int]:
        """Indexes of the rows whose *column* cell is still ``None``."""
        return [
            index for index, value in enumerate(self.data[column]) if value is None
        ]

    def _ensure_project(self, presenter: BasePresenter) -> None:
        """Create (or re-attach to) the platform project for this table."""
        if self.project_id is not None:
            return
        cached_project = self.cache.get_meta("project")
        if cached_project is not None:
            existing = self.client.find_project(cached_project["name"])
            if existing is not None:
                self.project_id = existing.project_id
                return
        project = self.client.create_project(
            name=self.table_name,
            description=f"Reprowd experiment table {self.table_name!r}",
            task_presenter=presenter.template_html(),
        )
        self.project_id = project.project_id
        self.cache.put_meta("project", {"name": project.name, "id": project.project_id})

    # -- step 4: collect results -------------------------------------------------------------

    #: Tasks per platform round-trip and results per cache batch write when
    #: collecting — the bound on how many task runs are resident at once.
    collect_page_size = 500

    def get_result(self, blocking: bool = True) -> "CrowdData":
        """Collect crowd answers, adding the persistent ``result`` column.

        Collection streams: cached results are read one page at a time, the
        platform's answers arrive in pages of :attr:`collect_page_size`
        tasks, and complete results are flushed to the fault-recovery cache
        per page — a project larger than memory collects in bounded space.

        Args:
            blocking: When True (default) the call simulates crowd work until
                every task is complete.  When False it only picks up answers
                that already exist — rows without enough answers keep a
                partial result, mirroring the original's non-blocking mode.
        """
        self._require_presenter()
        cache_hits = self._load_cached_results()
        missing = self._missing_rows("get_result()")
        last_page: dict[str, Any] = {}
        if missing:
            self._heal_stale_tasks(missing)
            if blocking:
                self.client.simulate_work(project_id=self.project_id)

            def build(descriptor: dict[str, Any], runs: list) -> tuple[dict[str, Any], bool]:
                complete = len(runs) >= descriptor["n_assignments"]
                result = {
                    "object_key": descriptor["object_key"],
                    "task_id": descriptor["task_id"],
                    "published_at": descriptor["published_at"],
                    "complete": complete,
                    "assignments": [run.to_dict() for run in runs],
                }
                # Only complete results are persisted: a partial result must
                # be re-fetched on the next run so late answers are picked up.
                return result, complete

            last_page = self._collect_streaming(missing, build)
        self._finish_collection(
            last_page, "get_result", {"blocking": blocking}, cache_hits
        )
        return self

    def _finish_collection(
        self,
        last_page: dict[str, Any],
        operation: str,
        parameters: dict[str, Any],
        cache_hits: int,
    ) -> None:
        """The local tail of a collection verb — the last page of results
        and the verb's log record — as one write group (no transport call
        in here)."""
        with self.cache.engine.write_group():
            if last_page:
                self.cache.put_results(last_page)
            self.log.record(
                operation,
                parameters=parameters,
                columns_added=["result"],
                rows_affected=len(self),
                cache_hits=cache_hits,
                timestamp=self.clock.now,
            )

    def _load_cached_results(self) -> int:
        """Fill unfilled rows from the cache, one page at a time.

        Returns the hit count: the rows that need no platform answer, either
        filled already or found in the cache now.
        """
        keys = self._object_keys()
        unfilled = self._unfilled_rows("result")
        cache_hits = len(self) - len(unfilled)
        for position, result in self.cache.iter_results(
            [keys[index] for index in unfilled], self.collect_page_size
        ):
            if result is not None:
                self.data["result"][unfilled[position]] = result
                cache_hits += 1
        return cache_hits

    def _missing_rows(self, verb: str) -> list[int]:
        """Rows still lacking a result, validated as collectable."""
        missing = self._unfilled_rows("result")
        if not missing:
            return missing
        if self.project_id is None:
            raise CrowdDataError(
                f"no tasks have been published — call publish_task() before {verb}"
            )
        for index in missing:
            if self.data["task"][index] is None:
                raise CrowdDataError(
                    f"row {index} has no published task; publish_task() must cover every row"
                )
        return missing

    def _heal_stale_tasks(self, missing: list[int]) -> None:
        """Re-publish cached tasks the current platform does not know.

        A cached descriptor may reference a task id from a platform that was
        since redeployed.  Membership is checked against the platform's
        id-only page stream — one integer per task crosses the wire, no task
        runs — and the stale rows are re-published in one batch so the
        experiment self-heals.
        """
        known_ids = set(
            self._stream_after_collected(self.client.iter_project_task_ids, missing)
        )
        stale = [
            index
            for index in missing
            if self.data["task"][index]["task_id"] not in known_ids
        ]
        if stale:
            self._republish_many(stale)

    def _stream_after_collected(
        self, iterate: Callable[..., Iterator[Any]], missing: list[int]
    ) -> Iterator[Any]:
        """Walk one of the client's two project streams, skipping the
        collected prefix.

        *iterate* is ``client.iter_project_task_ids`` or
        ``client.iter_task_runs_for_project``.  The stream starts at the
        exclusive cursor = the largest already-collected task id below the
        smallest *missing* one: publication order is id order, so every
        missing task the platform knows is still ahead of it, and nothing
        collected earlier is shipped again.  A platform that does not know
        the cursor (it was redeployed since that row was collected) says so
        on the first page; the walk then falls back, once, to the whole
        project, where the stale-task check takes over.
        """
        tasks = self.data["task"]
        first_missing = min(tasks[index]["task_id"] for index in missing)
        cursor = max(
            (
                task["task_id"]
                for task, result in zip(tasks, self.data["result"])
                if result is not None
                and task is not None
                and task["task_id"] < first_missing
            ),
            default=None,
        )
        stream = iterate(self.project_id, self.collect_page_size, start_after=cursor)
        head = []
        try:
            head.append(next(stream))
        except StopIteration:
            return
        except PlatformUnavailableError:
            raise
        except PlatformError:
            if cursor is None:
                raise
            stream = iterate(self.project_id, self.collect_page_size, start_after=None)
        yield from head
        yield from stream

    def _collect_streaming(
        self,
        missing: list[int],
        build: Callable[[dict[str, Any], list], tuple[dict[str, Any], bool]],
    ) -> dict[str, Any]:
        """Fill *missing* rows from the platform's paged task-run stream.

        *build* maps ``(descriptor, runs)`` to ``(result, cache_it)``.  Rows
        are filled as their page arrives and cache-worthy results are flushed
        with one batch write per :attr:`collect_page_size` results, so peak
        resident task runs are bounded by the page size.  The stream stops as
        soon as every missing row is resolved.  The last, partial page is
        returned unwritten: the caller writes it together with the verb's
        log record (:meth:`_finish_collection`).
        """
        waiting: dict[int, list[int]] = {}
        for index in missing:
            waiting.setdefault(self.data["task"][index]["task_id"], []).append(index)
        to_cache: dict[str, Any] = {}

        def fill(task_id: int, indexes: list[int], runs: list) -> None:
            # Build per row, not per task: rows sharing a task each get their
            # own result exactly as the batched path produced them.
            for index in indexes:
                descriptor = self.data["task"][index]
                result, cache_it = build(descriptor, runs)
                self.data["result"][index] = result
                if cache_it:
                    to_cache[descriptor["object_key"]] = result

        for task_id, runs in self._stream_after_collected(
            self.client.iter_task_runs_for_project, missing
        ):
            indexes = waiting.pop(task_id, None)
            if indexes is None:
                continue
            fill(task_id, indexes, runs)
            if len(to_cache) >= self.collect_page_size:
                # The engine materialises the page on entry, so it is handed
                # down as is and reused once the write returns.
                self.cache.put_results(to_cache)
                to_cache.clear()
            if not waiting:
                break
        # Tasks the stream did not return get an empty answer list — the
        # same default the batched map lookup used.
        for task_id, indexes in list(waiting.items()):
            fill(task_id, indexes, [])
        return to_cache

    def get_result_adaptive(
        self,
        policy: AdaptivePolicy | None = None,
        aggregator: IncrementalAggregator | None = None,
    ) -> "CrowdData":
        """Collect answers with adaptive redundancy (budget-aware ``get_result``).

        Tasks should have been published with ``policy.initial_assignments``.
        Each round simulates the crowd, then walks the platform's paged
        task-run stream **once** — O(pages) round-trips per round instead of
        one ``get_task_runs`` call per unresolved task — feeding only each
        task's *new* runs into an incremental quality model.  Items whose
        confidence crosses the policy threshold stop purchasing answers, and
        a single batched ``extend_tasks_redundancy`` call per round tops up
        the still-ambiguous ones, so the freed budget flows to the hard
        objects.  Rows already in the fault-recovery cache are never
        re-collected.

        Budget ordering: a round's extensions are charged only *after* the
        platform accepted them, so a transport failure mid-round leaks no
        spend.  Under a hard budget only the affordable prefix of a round is
        purchased (descriptors and charges made durable) before the overflow
        raises — a rerun with more budget resumes where this one stopped.

        Args:
            policy: The adaptive policy; defaults to :class:`AdaptivePolicy`.
            aggregator: Incremental quality model fed page by page; defaults
                to :class:`~repro.quality.incremental.IncrementalMajorityVote`.
                Pass an :class:`~repro.quality.incremental.OnlineDawidSkene`
                for posterior-based early stopping; it is kept (with its
                learned worker statistics) on :attr:`last_adaptive_aggregator`.
        """
        policy = policy or AdaptivePolicy()
        self._require_presenter()
        stats = AdaptiveCollectionStats()
        cache_hits = self._load_cached_results()
        missing = self._missing_rows("get_result_adaptive()")
        tracker = aggregator if aggregator is not None else IncrementalMajorityVote()
        last_page: dict[str, Any] = {}
        if missing:
            self._heal_stale_tasks(missing)
            self._adaptive_rounds(missing, policy, tracker, stats)
            counted: set[int] = set()

            def build(descriptor: dict[str, Any], runs: list) -> tuple[dict[str, Any], bool]:
                task_id = descriptor["task_id"]
                if task_id not in counted:
                    # Classify per *task*, not per row: rows sharing one
                    # deduplicated task contribute a single item to the
                    # stats tallies.
                    counted.add(task_id)
                    answers = [run.answer for run in runs]
                    if len(runs) < policy.min_assignments:
                        stats.items_below_minimum += 1
                    elif len(runs) >= policy.max_assignments and not (
                        answers
                        and policy.confidence(answers) >= policy.confidence_threshold
                    ):
                        stats.items_at_cap += 1
                    else:
                        stats.items_resolved_early += 1
                result = {
                    "object_key": descriptor["object_key"],
                    "task_id": descriptor["task_id"],
                    "published_at": descriptor["published_at"],
                    "complete": True,
                    "adaptive": True,
                    "assignments": [run.to_dict() for run in runs],
                }
                return result, True

            last_page = self._collect_streaming(missing, build)
        self._last_adaptive_stats = stats
        self._last_adaptive_aggregator = tracker
        self._finish_collection(
            last_page,
            "get_result_adaptive",
            {
                "confidence_threshold": policy.confidence_threshold,
                "max_assignments": policy.max_assignments,
                **stats.to_dict(),
            },
            cache_hits,
        )
        return self

    def _adaptive_rounds(
        self,
        missing: list[int],
        policy: AdaptivePolicy,
        tracker: IncrementalAggregator,
        stats: AdaptiveCollectionStats,
    ) -> None:
        """Run the adaptive round loop over the paged task-run stream.

        One state per *task* (rows sharing a deduplicated task are decided
        once): ``seen`` is how many of the task's runs have already been fed
        to *tracker*, so each round ships only the new suffix of each run
        list into the model.
        """
        pending: dict[int, dict[str, Any]] = {}
        for index in missing:
            descriptor = self.data["task"][index]
            pending.setdefault(
                descriptor["task_id"], {"descriptor": descriptor, "seen": 0}
            )
        while pending:
            self.client.simulate_work(project_id=self.project_id)
            stats.rounds += 1
            round_new = 0
            streamed = 0
            remaining = set(pending)
            page: dict[int, list[tuple[str, Any]]] = {}
            for task_id, runs in self._stream_after_collected(
                self.client.iter_task_runs_for_project, missing
            ):
                streamed += 1
                state = pending.get(task_id)
                if state is None:
                    continue
                remaining.discard(task_id)
                new_runs = runs[state["seen"] :]
                if new_runs:
                    state["seen"] = len(runs)
                    page[task_id] = [(run.worker_id, run.answer) for run in new_runs]
                    round_new += len(new_runs)
                    if len(page) >= self.collect_page_size:
                        tracker.partial_fit(page)
                        page.clear()
                if not remaining:
                    break
            if page:
                tracker.partial_fit(page)
            stats.pages_streamed += max(1, -(-streamed // self.collect_page_size))
            stats.answers_collected += round_new

            extensions: dict[int, int] = {}
            for task_id in list(pending):
                seen = pending[task_id]["seen"]
                if seen >= policy.max_assignments:
                    pending.pop(task_id)
                    continue
                if seen >= policy.min_assignments:
                    counts = tracker.counts(task_id)
                    confidence = (
                        policy.confidence_from_counts(counts)
                        if counts is not None
                        else tracker.confidence(task_id)
                    )
                    if confidence >= policy.confidence_threshold:
                        pending.pop(task_id)
                        continue
                extra = min(policy.extra_per_round, policy.max_assignments - seen)
                if extra > 0:
                    extensions[task_id] = extra
            if not pending:
                break
            if round_new == 0:
                # The platform produced nothing new this round; further
                # rounds cannot make progress (a dead or non-simulating
                # platform) — stop purchasing and let the final collection
                # classify the leftovers (below-minimum / at-cap).
                break
            if extensions:
                self._extend_adaptive(pending, extensions, stats)

    def _extend_adaptive(
        self,
        pending: dict[int, dict[str, Any]],
        extensions: dict[int, int],
        stats: AdaptiveCollectionStats,
    ) -> None:
        """Purchase one round's redundancy extensions: extend first, charge after.

        The whole round is one ``extend_tasks_redundancy`` round-trip.  The
        budget is charged only once the platform has accepted the batch —
        the failure mode of charging first is committed spend with no
        purchased redundancy.  Under a hard budget only the affordable
        prefix is purchased; the overflow raises after the prefix's
        descriptors and charges are durable, mirroring ``publish_task``.
        """
        overflow = 0
        if self.budget is not None and self.budget.budget is not None:
            price = self.budget.price_per_assignment
            headroom = max(0.0, self.budget.budget - self.budget.spent)
            affordable = int((headroom + 1e-9) // price) if price > 0 else None
            if affordable is not None:
                purchase: dict[int, int] = {}
                used = 0
                for task_id, extra in extensions.items():
                    if used + extra > affordable:
                        overflow += extra
                        continue
                    used += extra
                    purchase[task_id] = extra
                extensions = purchase
        if extensions:
            tasks = self.client.extend_tasks_redundancy(extensions)
            by_id = {task.task_id: task for task in tasks}
            updates: dict[str, dict[str, Any]] = {}
            for task_id, extra in extensions.items():
                descriptor = pending[task_id]["descriptor"]
                descriptor["n_assignments"] = by_id[task_id].n_assignments
                updates[descriptor["object_key"]] = descriptor
                if self.budget is not None:
                    self.budget.charge(
                        extra,
                        label=f"{self.table_name}:{descriptor['object_key']}:adaptive",
                    )
                stats.extensions_requested += extra
            self.cache.update_tasks(updates)
        if overflow:
            raise BudgetExceededError(
                overflow * self.budget.price_per_assignment,
                self.budget.spent,
                self.budget.budget,
            )

    @property
    def last_adaptive_stats(self) -> AdaptiveCollectionStats | None:
        """Statistics of the most recent adaptive collection, if any."""
        return getattr(self, "_last_adaptive_stats", None)

    @property
    def last_adaptive_aggregator(self) -> IncrementalAggregator | None:
        """The incremental model the most recent adaptive collection fed."""
        return getattr(self, "_last_adaptive_aggregator", None)

    def _republish_many(self, indexes: list[int]) -> None:
        """Re-publish rows whose cached task the platform no longer knows.

        One ``create_tasks`` call for the whole batch; the refreshed
        descriptors overwrite the stale cache entries (deliberately *not*
        ``put_new`` semantics — the old descriptor is known-dead).
        """
        presenter = self._require_presenter()
        self._ensure_project(presenter)
        specs = []
        for index in indexes:
            obj = self.data["object"][index]
            old_descriptor = self.data["task"][index]
            true_answer = self.ground_truth(obj) if self.ground_truth else None
            specs.append(
                {
                    "info": presenter.build_task_info(obj, true_answer=true_answer),
                    "n_assignments": old_descriptor["n_assignments"],
                    "dedup_key": old_descriptor["object_key"],
                }
            )
        tasks = self.client.create_tasks(self.project_id, specs)
        refreshed: dict[str, dict[str, Any]] = {}
        for index, task in zip(indexes, tasks):
            old_descriptor = self.data["task"][index]
            descriptor = dict(old_descriptor)
            descriptor.update(
                {
                    "task_id": task.task_id,
                    "project_id": task.project_id,
                    "published_at": task.created_at,
                }
            )
            self.data["task"][index] = descriptor
            refreshed[old_descriptor["object_key"]] = descriptor
        self.cache.update_tasks(refreshed)

    # -- step 5: quality control -------------------------------------------------------------

    def quality_control(self, method: str = "mv", column: str | None = None, **kwargs: Any) -> "CrowdData":
        """Aggregate each row's answers with *method*, adding a derived column.

        Args:
            method: Registered aggregator name (``"mv"``, ``"wmv"``, ``"em"``,
                ``"glad"``).
            column: Name of the derived column; defaults to *method*.
            **kwargs: Extra arguments for the aggregator constructor.
        """
        column_name = column or method
        votes = self._vote_table()
        aggregator = get_aggregator(method, **kwargs)
        aggregation = aggregator.aggregate(votes)
        self.data[column_name] = [
            aggregation.decisions.get(index) for index in range(len(self))
        ]
        if not self.schema.has_column(column_name):
            self.schema.add_column(self._derived_spec(column_name, method))
        self._last_aggregation = aggregation
        self.log.record(
            "quality_control",
            parameters={"method": method, "column": column_name, **_jsonable(kwargs)},
            columns_added=[column_name],
            rows_affected=len(self),
            timestamp=self.clock.now,
        )
        return self

    @staticmethod
    def _derived_spec(column_name: str, method: str):
        from repro.storage.schema import ColumnSpec

        return ColumnSpec(name=column_name, persistent=False, description=f"{method} decision")

    def mv(self, **kwargs: Any) -> "CrowdData":
        """Majority vote — the rule in Bob's experiment (adds column ``mv``)."""
        return self.quality_control("mv", **kwargs)

    def wmv(self, **kwargs: Any) -> "CrowdData":
        """Weighted majority vote (adds column ``wmv``)."""
        return self.quality_control("wmv", **kwargs)

    def em(self, **kwargs: Any) -> "CrowdData":
        """Dawid-Skene expectation-maximisation (adds column ``em``)."""
        return self.quality_control("em", **kwargs)

    @property
    def last_aggregation(self) -> AggregationResult | None:
        """The full result of the most recent quality-control verb."""
        return getattr(self, "_last_aggregation", None)

    def _vote_table(self) -> dict[int, list[tuple[str, Any]]]:
        """Build the aggregation input: row index -> (worker, answer) votes."""
        votes: dict[int, list[tuple[str, Any]]] = {}
        for index, result in enumerate(self.data["result"]):
            if result is None:
                raise CrowdDataError(
                    "results have not been collected — call get_result() before quality control"
                )
            votes[index] = [
                (assignment["worker_id"], assignment["answer"])
                for assignment in result["assignments"]
            ]
        return votes

    # -- examination / extension (Figure 3) ---------------------------------------------------

    def append(self, obj: Any) -> "CrowdData":
        """Append one new row with *obj* (task/result start empty)."""
        return self.extend([obj])

    def extend(self, objects: Iterable[Any]) -> "CrowdData":
        """Append new rows; already-present objects are skipped.

        This is how Ally labels more images on top of Bob's experiment: the
        original rows keep their cached tasks and results, the new rows get
        published on the next ``publish_task()``.
        """
        new_objects = list(objects)
        keys = self._object_keys()
        existing = set(keys)
        added = 0
        for obj in new_objects:
            key = self.cache.object_key(obj, self._keys_task_type)
            if key in existing:
                continue
            existing.add(key)
            keys.append(key)
            self.data["id"].append(len(self.data["id"]) + 1)
            self.data["object"].append(obj)
            self.data["task"].append(None)
            self.data["result"].append(None)
            for column_name in self.data:
                if column_name not in ("id", "object", "task", "result"):
                    self.data[column_name].append(None)
            added += 1
        self.log.record(
            "extend",
            parameters={"objects": len(new_objects), "added": added},
            rows_affected=added,
            timestamp=self.clock.now,
        )
        return self

    def _task_type_hint(self) -> str:
        return self.presenter.task_type if self.presenter is not None else "generic"

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "CrowdData":
        """Keep only the rows for which *predicate(row_dict)* is truthy.

        The cache is untouched: filtered-out rows stay recoverable, matching
        the paper's rule that derived state is recomputable while crowd data
        is never thrown away silently.
        """
        keep = [index for index, row in enumerate(self.rows()) if predicate(row)]
        for column_name in self.data:
            self.data[column_name] = [self.data[column_name][index] for index in keep]
        # The memo covers a prefix of the rows, so the kept part of it is a
        # prefix of the kept rows.
        self._keys = [self._keys[index] for index in keep if index < len(self._keys)]
        self.log.record(
            "filter",
            parameters={"kept": len(keep)},
            rows_affected=len(keep),
            timestamp=self.clock.now,
        )
        return self

    def clear(self) -> "CrowdData":
        """Drop all rows and forget the cached crowd data for this table."""
        for column_name in self.data:
            self.data[column_name] = []
        self._keys = []
        self.cache.clear()
        self.log.record("clear", timestamp=self.clock.now)
        return self

    # -- lineage ---------------------------------------------------------------------------------

    def lineage_records(self) -> list[AnswerLineage]:
        """Return one lineage record per collected answer."""
        records: list[AnswerLineage] = []
        for index, result in enumerate(self.data["result"]):
            if result is None:
                continue
            descriptor = self.data["task"][index] or {}
            published_at = result.get("published_at", descriptor.get("published_at", 0.0))
            for assignment in result["assignments"]:
                records.append(
                    AnswerLineage(
                        object_key=result["object_key"],
                        task_id=result["task_id"],
                        run_id=assignment["id"],
                        worker_id=assignment["worker_id"],
                        answer=assignment["answer"],
                        published_at=published_at,
                        submitted_at=assignment["submitted_at"],
                        latency_seconds=assignment["latency_seconds"],
                        assignment_order=assignment["assignment_order"],
                    )
                )
        return records

    def lineage(self) -> LineageQuery:
        """Return a :class:`LineageQuery` over every collected answer."""
        return LineageQuery(self.lineage_records())

    def manipulation_history(self) -> list[Manipulation]:
        """Return the durable manipulation log of this table."""
        return self.log.history()

    # -- presentation -------------------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly summary used by the examination API."""
        return {
            "table": self.table_name,
            "rows": len(self),
            "columns": self.columns,
            "cache": self.cache.describe(),
            "manipulations": [m.operation for m in self.log.history()],
        }

    def __repr__(self) -> str:
        return (
            f"CrowdData(table={self.table_name!r}, rows={len(self)}, "
            f"columns={self.columns})"
        )


def _jsonable(kwargs: dict[str, Any]) -> dict[str, Any]:
    """Drop non-JSON-friendly values from a kwargs dict for logging."""
    cleaned: dict[str, Any] = {}
    for key, value in kwargs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            cleaned[key] = value
        else:
            cleaned[key] = repr(value)
    return cleaned
