"""Fault-recovery cache: the durable half of CrowdData.

The paper persists the ``task`` and ``result`` columns of every CrowdData
table in a database so that "when the program is crashed, rerunning the
program is as if it has never crashed".  The cache keys both columns by a
*content hash of the row's object plus the presenter type*, not by row
position — so re-running a program that builds its input list in a different
order, filters it, or extends it still reuses every previously published
task and collected answer.

The bulk entry points (:meth:`FaultRecoveryCache.get_tasks`,
:meth:`~FaultRecoveryCache.put_tasks`, :meth:`~FaultRecoveryCache.get_results`,
:meth:`~FaultRecoveryCache.put_results`) back CrowdData's batched publish and
collect path.  Bulk writes use the engines' ``put_new``-per-key semantics
(``put_many(..., if_absent=True)``): a key that already survived an earlier
run is never overwritten or version-bumped, so a crash in the middle of a
batch write followed by a rerun fills only the missing keys — crowd work is
never re-purchased and never duplicated.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.storage.engine import StorageEngine
from repro.utils.hashing import stable_hash


class FaultRecoveryCache:
    """Durable cache of published tasks and collected results.

    One cache instance serves one CrowdData table; the engine tables it uses
    are namespaced by the CrowdData table name so that many experiments can
    share one database file (Bob's sharable artifact).
    """

    def __init__(self, engine: StorageEngine, table_name: str):
        self.engine = engine
        self.table_name = table_name
        self._tasks_table = f"{table_name}::tasks"
        self._results_table = f"{table_name}::results"
        self._meta_table = f"{table_name}::meta"
        for name in (self._tasks_table, self._results_table, self._meta_table):
            engine.create_table(name)

    # -- cache keys -------------------------------------------------------------

    @staticmethod
    def object_key(obj: Any, task_type: str) -> str:
        """Return the durable cache key for (*obj*, *task_type*)."""
        return stable_hash({"object": obj, "task_type": task_type})

    # -- task column --------------------------------------------------------------

    def get_task(self, key: str) -> dict[str, Any] | None:
        """Return the cached task descriptor for *key*, or None."""
        return self.engine.get(self._tasks_table, key)

    def put_task(self, key: str, task: dict[str, Any]) -> None:
        """Persist the task descriptor for *key* (idempotent overwrite)."""
        self.engine.put(self._tasks_table, key, task)

    def get_tasks(self, keys: Sequence[str]) -> list[dict[str, Any] | None]:
        """Return the cached descriptor (or None) per key, in one read."""
        return self.engine.get_many(self._tasks_table, keys)

    def put_tasks(self, tasks: Mapping[str, dict[str, Any]]) -> None:
        """Persist a batch of task descriptors with put_new-per-key semantics.

        Descriptors already in the cache — e.g. the surviving prefix of a
        batch that crashed half-way — are left untouched, so a rerun can
        replay the whole batch without duplicating anything.
        """
        self.engine.put_many(self._tasks_table, tasks.items(), if_absent=True)

    def update_tasks(self, tasks: Mapping[str, dict[str, Any]]) -> None:
        """Overwrite a batch of task descriptors in one write.

        Bulk sibling of :meth:`put_task`'s idempotent overwrite — used when
        a known descriptor legitimately changes (adaptive redundancy
        top-ups, a stale task re-published on a redeployed platform),
        never for first publication (that is :meth:`put_tasks`,
        whose put_new semantics protect crashed batches).
        """
        self.engine.put_many(self._tasks_table, tasks.items(), if_absent=False)

    def task_count(self) -> int:
        """Number of cached task descriptors.

        Delegates to the engine's ``count``, which is constant-space on
        every engine (SQL ``COUNT(*)`` / dict length) — no scan involved.
        """
        return self.engine.count(self._tasks_table)

    # -- result column --------------------------------------------------------------

    def get_result(self, key: str) -> list[dict[str, Any]] | None:
        """Return the cached task runs for *key*, or None when absent."""
        return self.engine.get(self._results_table, key)

    def put_result(self, key: str, task_runs: list[dict[str, Any]]) -> None:
        """Persist the complete list of task runs for *key*."""
        self.engine.put(self._results_table, key, task_runs)

    def get_results(self, keys: Sequence[str]) -> list[Any]:
        """Return the cached result (or None) per key, in one read.

        Materialises one value per key; for row counts that may dwarf memory
        use :meth:`iter_results` instead.
        """
        return self.engine.get_many(self._results_table, keys)

    def iter_results(
        self, keys: Sequence[str], page_size: int | None = None
    ) -> Iterable[tuple[int, Any]]:
        """Yield ``(position, cached result or None)`` per key, page by page.

        The streaming sibling of :meth:`get_results`: each engine
        ``get_many`` materialises at most *page_size* values (complete
        results carry every task run, so they are the heavy objects of the
        cache), keeping the collection path's resident footprint bounded by
        the page size rather than the project size.
        """
        page_size = page_size or self.scan_page_size
        for start in range(0, len(keys), page_size):
            chunk = keys[start : start + page_size]
            values = self.engine.get_many(self._results_table, chunk)
            yield from zip(range(start, start + len(chunk)), values)

    def put_results(self, results: Mapping[str, Any]) -> None:
        """Persist a batch of complete results with put_new-per-key semantics."""
        self.engine.put_many(self._results_table, results.items(), if_absent=True)

    def result_count(self) -> int:
        """Number of cached (complete) results."""
        return self.engine.count(self._results_table)

    # -- table metadata ----------------------------------------------------------------

    def get_meta(self, key: str, default: Any = None) -> Any:
        """Return table metadata stored under *key* (presenter, ordering...)."""
        return self.engine.get(self._meta_table, key, default)

    def put_meta(self, key: str, value: Any) -> None:
        """Persist table metadata under *key*."""
        self.engine.put(self._meta_table, key, value)

    # -- maintenance ----------------------------------------------------------------------

    def clear(self) -> None:
        """Drop everything cached for this table (Reprowd's ``clear()``)."""
        for name in (self._tasks_table, self._results_table, self._meta_table):
            self.engine.drop_table(name)
            self.engine.create_table(name)

    #: Records fetched per page when walking a whole cache table.
    scan_page_size = 512

    def iter_cached_objects(self) -> Iterable[str]:
        """Yield every cached object key, paging through the engine.

        Uses the key-only paginated scan so at most :attr:`scan_page_size`
        keys are materialised at a time and no task descriptor is ever read
        or decoded — a million-task cache never has to fit in memory to be
        enumerated.
        """
        cursor: str | None = None
        while True:
            page = self.engine.scan_keys(
                self._tasks_table, limit=self.scan_page_size, start_after=cursor
            )
            yield from page
            if len(page) < self.scan_page_size:
                return
            cursor = page[-1]

    def all_cached_objects(self) -> list[str]:
        """Return every cached object key (task-column keys)."""
        return list(self.iter_cached_objects())

    def describe(self) -> dict[str, Any]:
        """Return cache statistics for the examination API."""
        return {
            "table": self.table_name,
            "cached_tasks": self.task_count(),
            "cached_results": self.result_count(),
        }
