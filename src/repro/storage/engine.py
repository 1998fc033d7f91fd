"""Abstract storage-engine interface and engine factory.

Engines expose a minimal durable table API:

* tables are created lazily and listed;
* each table maps string keys to JSON-encodable values with a per-key version;
* ``put`` is an upsert, ``put_new`` refuses to overwrite;
* whole-table scans return records in insertion order.

This is intentionally smaller than SQL — it is exactly what CrowdData's
fault-recovery cache needs, and keeping it small makes the engines easy to
swap and to property-test against each other.

Bulk API contract
-----------------

The hot path of CrowdData (publishing thousands of tasks, collecting as many
answers) goes through three bulk operations that every engine must honour
identically — the cross-engine property tests treat the three engines as one
equivalence class:

* ``put_many(table, items, if_absent=False)`` writes a batch of (key, value)
  pairs **in item order** and returns one :class:`Record` per item.  Each
  item behaves exactly like an individual ``put``: an existing key is
  overwritten and its version bumped, and a key repeated within the batch is
  bumped once per occurrence.  With ``if_absent=True`` every item instead
  gets ``put_new`` semantics per key — a key that already exists (in the
  table, or earlier in the same batch) is left untouched and its *existing*
  record is returned.  That is the mode the fault-recovery cache uses: a
  crash mid-batch followed by a rerun fills only the missing keys and never
  bumps a surviving record, so crowd work is never duplicated.  Durable
  engines make the batch one transaction/append; crashing mid-batch must
  never leave a torn record, only a prefix (SQLite: all-or-nothing
  transaction; log engine: one group append that recovery either replays
  whole or discards).
* ``get_many(table, keys, default)`` returns one value per requested key, in
  request order, substituting *default* for absent keys.
* ``scan(table, limit=None, start_after=None)`` pages through a table in
  insertion order.  ``start_after`` is an exclusive cursor: the key of the
  last record of the previous page.  Passing a cursor that is not currently
  a key of the table raises :class:`~repro.exceptions.StorageError`, and a
  negative ``limit`` raises ``ValueError``.  Walking pages of any size and
  concatenating them yields exactly the unpaginated scan.

Write groups
------------

Durable leaf engines pay one durability barrier (sqlite commit+fsync, log
fsync) per write batch.  A caller whose batches are *one logical write* — a
platform verb, the local tail of a CrowdData verb, the ring's
returning-member sync — opens ``with engine.write_group():`` around them and
pays one barrier when the outermost group exits (see
:meth:`StorageEngine.write_group` for the contract and its one rule).  Reads
on the same engine observe grouped writes immediately.  Engines without a
multi-batch barrier (memory, the partitioned engines, the crash-stepping
test engine) keep the no-op: every batch they write is durable on return.

Record codecs
-------------

Values cross the engine boundary through a pluggable
:class:`~repro.storage.records.Codec` (strict-JSON default, compact binary
optional).  Durable engines record the codec name in their on-disk meta and
rediscover it on reopen; opening with an explicitly different codec raises
:class:`~repro.exceptions.CodecMismatchError`.
"""

from __future__ import annotations

import abc
import contextlib
import os
from typing import Any, ContextManager, Iterable, Iterator, Sequence

from repro.config import StorageConfig
from repro.exceptions import ConfigurationError, UnknownCursorError
from repro.storage.records import CODECS, Codec, Record


#: The group of an engine (or task store) with no barrier to share: reusable
#: and re-entrant, so one instance serves every caller.
NO_WRITE_GROUP: ContextManager[None] = contextlib.nullcontext()


def paginate_records(
    records: Sequence[Record],
    table_name: str,
    limit: int | None,
    start_after: str | None,
) -> list[Record]:
    """Apply the ``scan`` pagination contract to an in-memory record list.

    Shared by the dict-backed engines (memory, log) so their cursor and
    limit semantics cannot drift from each other; the SQLite engine
    implements the same contract natively in SQL.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"scan limit must be non-negative, got {limit}")
    records = list(records)
    if start_after is not None:
        index = next(
            (i for i, record in enumerate(records) if record.key == start_after), None
        )
        if index is None:
            raise UnknownCursorError(table_name, start_after)
        records = records[index + 1 :]
    if limit is not None:
        records = records[:limit]
    return records


class StorageEngine(abc.ABC):
    """Interface implemented by every storage engine."""

    #: Name reported by :meth:`describe`, overridden by subclasses.
    engine_name = "abstract"

    #: The value codec in effect; engines accepting a ``codec=`` argument
    #: overwrite this per instance (default: strict JSON).
    codec: Codec = CODECS["json"]

    # -- table management --------------------------------------------------

    @abc.abstractmethod
    def create_table(self, table_name: str) -> None:
        """Create *table_name* if it does not already exist (idempotent)."""

    @abc.abstractmethod
    def drop_table(self, table_name: str) -> None:
        """Remove *table_name* and all of its records (idempotent)."""

    @abc.abstractmethod
    def list_tables(self) -> list[str]:
        """Return the names of all tables, sorted."""

    @abc.abstractmethod
    def has_table(self, table_name: str) -> bool:
        """Return True when *table_name* exists."""

    # -- record access -----------------------------------------------------

    @abc.abstractmethod
    def put(self, table_name: str, key: str, value: Any) -> Record:
        """Insert or overwrite the record at *key* and return it."""

    @abc.abstractmethod
    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        """Insert a new record, raising ``DuplicateKeyError`` if *key* exists."""

    @abc.abstractmethod
    def get(self, table_name: str, key: str, default: Any = None) -> Any:
        """Return the value at *key*, or *default* when absent."""

    @abc.abstractmethod
    def get_record(self, table_name: str, key: str) -> Record | None:
        """Return the full :class:`Record` at *key*, or None when absent."""

    @abc.abstractmethod
    def delete(self, table_name: str, key: str) -> bool:
        """Delete the record at *key*; return True when something was deleted."""

    @abc.abstractmethod
    def contains(self, table_name: str, key: str) -> bool:
        """Return True when *key* exists in *table_name*."""

    @abc.abstractmethod
    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        """Yield records of *table_name* in insertion order, paginated.

        Args:
            table_name: The table to scan.
            limit: Maximum number of records to yield (all when None).
            start_after: Exclusive cursor — yield only records inserted after
                the record whose key is *start_after*.  Raises
                :class:`~repro.exceptions.StorageError` when the cursor is
                not currently a key of the table.

        A negative *limit* raises ``ValueError``; ``limit=0`` yields nothing;
        a cursor at the last record yields an empty page.  Walking pages of
        any size and chaining ``start_after`` to each page's final key
        concatenates to exactly the unpaginated scan — the invariant the
        streaming collection path and the sharded merge-scan both rely on.
        """

    @abc.abstractmethod
    def count(self, table_name: str) -> int:
        """Return the number of records in *table_name*."""

    # -- bulk record access --------------------------------------------------

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
    ) -> list[Record]:
        """Write a batch of (key, value) pairs; return one record per item.

        Contract (see also the module docstring):

        * Items apply **in order**, each with single-``put`` semantics: an
          existing key is overwritten and version-bumped once per occurrence.
          With ``if_absent=True`` every item has ``put_new``-per-key
          semantics instead — a key already present (in the table or earlier
          in the batch) is left untouched and its existing record returned.
        * **Validation is all-or-nothing**: every value is checked for
          JSON-encodability before anything is written, so a bad value never
          leaves a half-applied batch.
        * **Atomicity** is per engine: SQLite commits the batch as one
          transaction, the log engine appends one group record (recovery
          replays it whole or discards it), the sharded engine issues one
          child batch per shard — so a crash can leave *whole-shard*
          prefixes, which ``if_absent=True`` reruns heal.

        This base implementation is the naive row-at-a-time loop; engines
        override it with their atomic batch primitive.
        """
        records: list[Record] = []
        for key, value in items:
            if if_absent:
                existing = self.get_record(table_name, key)
                if existing is not None:
                    records.append(existing)
                    continue
            records.append(self.put(table_name, key, value))
        return records

    def delete_many(self, table_name: str, keys: Sequence[str]) -> int:
        """Delete each key in *keys*; return how many records were removed.

        Missing keys are skipped silently (like :meth:`delete` returning
        False).  This base implementation loops :meth:`delete`; durable
        engines override it with one batched barrier.
        """
        return sum(1 for key in keys if self.delete(table_name, key))

    def write_group(self) -> ContextManager[None]:
        """Scope the writes of one logical unit to one durability barrier.

        ``with engine.write_group():`` around several write calls makes
        them one transaction on engines that can (sqlite: one commit;
        log: one write+fsync) when the **outermost** group exits — groups
        nest, and an empty one costs no barrier.  Write order inside the
        group is unchanged and reads on this engine see its writes at once.

        * Left by an **exception**, the group still commits the prefix it
          wrote — the state that exception leaves without a group, so
          whatever the caller tracks in memory about those writes stays true.
        * A **process killed** inside the group leaves none of it.

        The one rule: **a group covers straight-line engine writes of one
        thread — it never spans a transport call, a thread hand-off or a
        wait.**  The sqlite engine holds its lock (and, from the first
        write on, the file's write lock) until the group exits: a pipelined
        transport's worker thread, or a wire server sharing the file, that
        the caller then waited for would be waiting for the caller.

        This base implementation is the no-op for engines whose every
        batch is durable on return.
        """
        return NO_WRITE_GROUP

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        """Return one value per key in *keys* order, *default* when absent.

        *keys* may repeat; the result always has exactly ``len(keys)``
        entries, positionally aligned with the request.  Purely a read — no
        version is bumped and no record is created for missing keys.
        """
        return [self.get(table_name, key, default) for key in keys]

    def scan_keys(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> list[str]:
        """Key-only page of :meth:`scan`, same pagination contract.

        ``start_after`` is an exclusive cursor that must currently be a key
        of the table (:class:`~repro.exceptions.StorageError` otherwise), a
        negative ``limit`` raises ``ValueError``, and walking pages of any
        size concatenates to the full unpaginated key list in insertion
        order.  Engines whose values are expensive to materialise (SQLite)
        override this to skip reading and decoding the values entirely.
        """
        return [
            record.key
            for record in self.scan(table_name, limit=limit, start_after=start_after)
        ]

    # -- lifecycle ---------------------------------------------------------

    @abc.abstractmethod
    def flush(self) -> None:
        """Force buffered writes to durable storage (no-op for memory)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release resources held by the engine."""

    # -- conveniences shared by all engines ---------------------------------

    def keys(self, table_name: str) -> list[str]:
        """Return every key of *table_name* in insertion order."""
        return [record.key for record in self.scan(table_name)]

    def values(self, table_name: str) -> list[Any]:
        """Return every value of *table_name* in insertion order."""
        return [record.value for record in self.scan(table_name)]

    def items(self, table_name: str) -> list[tuple[str, Any]]:
        """Return (key, value) pairs of *table_name* in insertion order."""
        return [(record.key, record.value) for record in self.scan(table_name)]

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly summary of the engine and its tables."""
        return {
            "engine": self.engine_name,
            "tables": {name: self.count(name) for name in self.list_tables()},
        }

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _open_child_engine(config: StorageConfig, name: str) -> StorageEngine:
    """Build one partitioned-engine child named *name* under ``config.path``.

    Raises:
        ConfigurationError: If ``config.shard_engine`` is unknown.
    """
    # Each branch imports the one engine module it builds (they import this one).
    if config.shard_engine == "memory":
        from repro.storage.memory_engine import MemoryEngine

        return MemoryEngine(codec=config.codec)
    if config.shard_engine == "sqlite":
        from repro.storage.sqlite_engine import SqliteEngine

        return SqliteEngine(
            os.path.join(config.path, f"{name}.db"),
            synchronous=config.synchronous,
            codec=config.codec,
        )
    if config.shard_engine == "log":
        from repro.storage.log_engine import LogStructuredEngine

        return LogStructuredEngine(
            os.path.join(config.path, name),
            snapshot_every=config.snapshot_every,
            codec=config.codec,
        )
    raise ConfigurationError(
        f"unknown shard engine {config.shard_engine!r}; "
        "expected 'memory', 'sqlite' or 'log'"
    )


def _ring_member_names(config: StorageConfig) -> list[str]:
    """The ring member names ``config`` resolves to.

    A rebalance can grow or shrink a file-backed ring after it was first
    opened, so the directory — not ``config.shards`` — is the source of
    truth on reopen: every ``ring-NN`` child file/directory found under
    ``config.path`` is opened and handed to the engine, whose stored
    membership manifest then settles the authoritative member set (a
    drained ex-member left on disk is recognised and dropped).  A fresh
    directory starts with ``config.shards`` members.
    """
    import re

    discovered: set[str] = set()
    if config.shard_engine != "memory" and os.path.isdir(config.path):
        for entry in os.listdir(config.path):
            match = re.fullmatch(r"(ring-\d+)(\.db)?", entry)
            if match:
                discovered.add(match.group(1))
    if discovered:
        return sorted(discovered)
    return [f"ring-{index:02d}" for index in range(config.shards)]


def open_engine(config: StorageConfig) -> StorageEngine:
    """Instantiate the engine described by *config*.

    Raises:
        ConfigurationError: If ``config.engine`` names an unknown engine.
    """
    # Each branch imports the one engine module it builds: they import this
    # module (so not at top), and a memory or sqlite program never loads the ring.
    if config.engine == "memory":
        from repro.storage.memory_engine import MemoryEngine

        return MemoryEngine(codec=config.codec)
    if config.engine == "sqlite":
        from repro.storage.sqlite_engine import SqliteEngine

        return SqliteEngine(
            config.path, synchronous=config.synchronous, codec=config.codec
        )
    if config.engine == "log":
        from repro.storage.log_engine import LogStructuredEngine

        return LogStructuredEngine(
            config.path, snapshot_every=config.snapshot_every, codec=config.codec
        )
    if config.engine in ("sharded", "ring"):
        if config.shards < 1:
            raise ConfigurationError(
                f"{config.engine} engine needs at least 1 shard, got {config.shards}"
            )
        if config.engine == "sharded":
            names = [f"shard-{index:02d}" for index in range(config.shards)]
        else:
            names = _ring_member_names(config)
        children: list[tuple[str, StorageEngine]] = []
        try:
            for name in names:
                children.append((name, _open_child_engine(config, name)))
            if config.engine == "sharded":
                from repro.storage.sharded_engine import ShardedEngine

                return ShardedEngine(
                    [child for _, child in children],
                    shard_workers=config.shard_workers,
                )
            from repro.storage.ring import ConsistentHashEngine

            return ConsistentHashEngine(
                dict(children),
                virtual_nodes=config.virtual_nodes,
                replicas=config.replicas,
                rebalance_batch_size=config.rebalance_batch_size,
                shard_workers=config.shard_workers,
            )
        except Exception:
            # A bad shard_engine, or a ring whose stored manifest rejects
            # the discovered membership: close whatever was already opened.
            for _, child in children:
                child.close()
            raise
    raise ConfigurationError(
        f"unknown storage engine {config.engine!r}; "
        "expected 'memory', 'sqlite', 'log', 'sharded' or 'ring'"
    )
