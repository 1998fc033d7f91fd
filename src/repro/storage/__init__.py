"""Persistence layer: durable tables backing CrowdData's fault recovery.

The paper stores the ``task`` and ``result`` columns of CrowdData in a
database so that re-running a crashed program behaves as if it had never
crashed.  This package provides that database behind a small engine
interface with three implementations:

* :class:`MemoryEngine` — non-durable, for tests and throwaway experiments.
* :class:`SqliteEngine` — the default, a single sharable file like the
  original Reprowd.
* :class:`LogStructuredEngine` — an append-only log with periodic snapshots,
  used to study recovery behaviour and crash injection at the storage level.
* :class:`ShardedEngine` — hash-partitions keys across N child engines
  (sqlite shard files by default) behind the same interface, merge-scanning
  shards to preserve global insertion order.
* :class:`ConsistentHashEngine` — a virtual-node hash ring over named child
  engines: the elastic sibling of the sharded engine, whose online
  ``rebalance`` grows or shrinks the membership while moving only the keys
  whose ring ownership changed.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "StorageEngine": "engine",
    "open_engine": "engine",
    "MemoryEngine": "memory_engine",
    "SqliteEngine": "sqlite_engine",
    "LogStructuredEngine": "log_engine",
    "PartitionedEngine": "sharded_engine",
    "ShardedEngine": "sharded_engine",
    "ConsistentHashEngine": "ring",
    "DegradedRingWarning": "ring",
    "HashRing": "ring",
    "shard_index": "sharded_engine",
    "Record": "records",
    "RecordCodec": "records",
    "Codec": "records",
    "JsonCodec": "records",
    "BinaryCodec": "records",
    "CODECS": "records",
    "resolve_codec": "records",
    "ColumnSpec": "schema",
    "TableSchema": "schema",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
