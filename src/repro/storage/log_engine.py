"""Append-only log-structured storage engine with periodic snapshots.

This engine exists to study the recovery path explicitly: every mutation is
appended to a write-ahead log (one JSON line per operation), and every
``snapshot_every`` operations the in-memory state is checkpointed to a
snapshot file so that recovery replays only the log tail.  Opening the engine
recovers state by loading the latest snapshot and replaying newer log
entries; a torn final line (partial write during a crash) is tolerated and
discarded, older corruption raises :class:`repro.exceptions.CorruptLogError`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import (
    CodecMismatchError,
    CorruptLogError,
    DuplicateKeyError,
    TableNotFoundError,
)
from repro.storage.engine import StorageEngine, paginate_records
from repro.storage.records import Codec, Record, resolve_codec


class LogStructuredEngine(StorageEngine):
    """Durable engine built from an append-only log plus snapshots."""

    engine_name = "log"

    _OP_CREATE = "create_table"
    _OP_DROP = "drop_table"
    _OP_PUT = "put"
    _OP_PUT_MANY = "put_many"
    _OP_DELETE = "delete"
    _OP_DELETE_MANY = "delete_many"

    def __init__(
        self,
        path: str,
        snapshot_every: int = 1000,
        codec: str | Codec | None = None,
    ) -> None:
        """Open (recovering if necessary) the log database rooted at *path*.

        Args:
            path: Base path; the engine writes ``<path>.log``,
                ``<path>.snapshot`` and ``<path>.meta``.
            snapshot_every: Number of logged operations between snapshots.
            codec: Value codec (name or instance), recorded in the meta file
                on first open and rediscovered afterwards; an explicit codec
                that disagrees with the recorded one raises
                :class:`~repro.exceptions.CodecMismatchError`.  The log's own
                wire format stays JSON lines — the codec governs the value
                domain and validation, keeping the engine interchangeable
                with the others under either codec.
        """
        if snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
        self.path = path
        self.snapshot_every = snapshot_every
        self.log_path = f"{path}.log"
        self.snapshot_path = f"{path}.snapshot"
        self.meta_path = f"{path}.meta"
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

        self.codec = self._settle_codec(codec)
        self._tables: dict[str, dict[str, Record]] = {}
        self._ops_since_snapshot = 0
        self._recovered_ops = 0
        self._pending_lines: list[str] = []
        self._pending_weight = 0
        #: Nesting depth of the open :meth:`write_group` (0: none).
        self._group_depth = 0
        self._closed = False
        self._recover()
        self._log_file = open(self.log_path, "a", encoding="utf-8")

    def _settle_codec(self, requested: str | Codec | None) -> Codec:
        """Reconcile the requested codec with the recorded one (meta file).

        Pre-meta databases that already have a log or snapshot are
        implicitly ``json``; the settled name is recorded atomically so
        every future open rediscovers it with no config change.
        """
        stored: str | None = None
        if os.path.exists(self.meta_path):
            with open(self.meta_path, "r", encoding="utf-8") as handle:
                stored = json.load(handle).get("codec")
        elif os.path.exists(self.log_path) or os.path.exists(self.snapshot_path):
            stored = "json"
        if requested is None:
            codec = resolve_codec(stored)
        else:
            codec = resolve_codec(requested)
            if stored is not None and codec.name != stored:
                raise CodecMismatchError(self.path, stored, codec.name)
        if stored != codec.name or not os.path.exists(self.meta_path):
            temp_path = f"{self.meta_path}.tmp"
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump({"codec": codec.name}, handle)
            os.replace(temp_path, self.meta_path)
        return codec

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild in-memory state from the snapshot and the log tail."""
        snapshot_seq = 0
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            snapshot_seq = snapshot["seq"]
            for table_name, rows in snapshot["tables"].items():
                table: dict[str, Record] = {}
                for row in rows:
                    table[row["key"]] = Record(
                        key=row["key"], value=row["value"], version=row["version"]
                    )
                self._tables[table_name] = table

        if not os.path.exists(self.log_path):
            return
        with open(self.log_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                if index == len(lines) - 1:
                    # A torn final line is the expected signature of a crash
                    # mid-append; recovery simply ignores it.
                    break
                raise CorruptLogError(
                    f"unreadable log entry at line {index + 1} of {self.log_path}"
                ) from exc
            if entry["seq"] <= snapshot_seq:
                continue
            self._apply(entry)
            self._recovered_ops += 1

    def _apply(self, entry: dict[str, Any]) -> None:
        """Apply one recovered log *entry* to the in-memory tables."""
        op = entry["op"]
        if op == self._OP_CREATE:
            self._tables.setdefault(entry["table"], {})
        elif op == self._OP_DROP:
            self._tables.pop(entry["table"], None)
        elif op == self._OP_PUT:
            table = self._tables.setdefault(entry["table"], {})
            table[entry["key"]] = Record(
                key=entry["key"], value=entry["value"], version=entry["version"]
            )
        elif op == self._OP_PUT_MANY:
            table = self._tables.setdefault(entry["table"], {})
            for item in entry["entries"]:
                table[item["key"]] = Record(
                    key=item["key"], value=item["value"], version=item["version"]
                )
        elif op == self._OP_DELETE:
            table = self._tables.get(entry["table"])
            if table is not None:
                table.pop(entry["key"], None)
        elif op == self._OP_DELETE_MANY:
            table = self._tables.get(entry["table"])
            if table is not None:
                for key in entry["keys"]:
                    table.pop(key, None)
        else:
            raise CorruptLogError(f"unknown log operation {op!r}")

    @property
    def recovered_operations(self) -> int:
        """Number of log entries replayed on open (0 for a fresh database)."""
        return self._recovered_ops

    # -- logging -------------------------------------------------------------

    def _logged_seq(self) -> int:
        return getattr(self, "_seq", 0)

    def _append(self, entry: dict[str, Any], weight: int = 1) -> None:
        """Append one log entry; *weight* is its cost toward the snapshot cadence.

        A group append (``put_many``) is one entry and one fsync but carries
        many records, so it weighs as many operations — otherwise a bulk
        workload could write arbitrarily long log tails between snapshots
        and pay for them at recovery time.

        Inside a :meth:`write_group` the serialised line is only buffered:
        the outermost exit writes every buffered line in **one** ``write``
        call — a whole group costs a single syscall and fsync.
        """
        seq = self._logged_seq() + 1
        self._seq = seq
        entry["seq"] = seq
        self._pending_lines.append(json.dumps(entry, sort_keys=True) + "\n")
        self._pending_weight += max(1, weight)
        if not self._group_depth:
            self._flush_pending()

    @contextmanager
    def write_group(self) -> Iterator[None]:
        """One write+fsync for every append inside (see the base contract);
        a handle abandoned inside the group has written none of it."""
        self._group_depth += 1
        try:
            yield
        finally:
            self._group_depth -= 1
            if not self._group_depth:
                self._flush_pending()

    def _flush_pending(self) -> None:
        """Write all buffered lines in one call, then one flush+fsync."""
        if not self._pending_lines:
            return
        self._log_file.write("".join(self._pending_lines))
        self._log_file.flush()
        os.fsync(self._log_file.fileno())
        self._ops_since_snapshot += self._pending_weight
        self._pending_lines.clear()
        self._pending_weight = 0
        if self._ops_since_snapshot >= self.snapshot_every:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Checkpoint the in-memory state atomically (write temp, rename)."""
        snapshot = {
            "seq": self._logged_seq(),
            "tables": {
                table_name: [
                    {"key": record.key, "value": record.value, "version": record.version}
                    for record in table.values()
                ]
                for table_name, table in self._tables.items()
            },
        }
        temp_path = f"{self.snapshot_path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.snapshot_path)
        self._ops_since_snapshot = 0

    # -- table management ------------------------------------------------------

    def _table(self, table_name: str) -> dict[str, Record]:
        try:
            return self._tables[table_name]
        except KeyError:
            raise TableNotFoundError(table_name) from None

    def create_table(self, table_name: str) -> None:
        if table_name not in self._tables:
            self._tables[table_name] = {}
            self._append({"op": self._OP_CREATE, "table": table_name})

    def drop_table(self, table_name: str) -> None:
        if table_name in self._tables:
            del self._tables[table_name]
            self._append({"op": self._OP_DROP, "table": table_name})

    def list_tables(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, table_name: str) -> bool:
        return table_name in self._tables

    # -- record access ----------------------------------------------------------

    def put(self, table_name: str, key: str, value: Any) -> Record:
        self.codec.encode(value)
        table = self._table(table_name)
        existing = table.get(key)
        record = existing.bump(value) if existing else Record(key=key, value=value)
        table[key] = record
        self._append(
            {
                "op": self._OP_PUT,
                "table": table_name,
                "key": key,
                "value": value,
                "version": record.version,
            }
        )
        return record

    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        table = self._table(table_name)
        if key in table:
            raise DuplicateKeyError(table_name, key)
        return self.put(table_name, key, value)

    def get(self, table_name: str, key: str, default: Any = None) -> Any:
        record = self._table(table_name).get(key)
        return record.value if record is not None else default

    def get_record(self, table_name: str, key: str) -> Record | None:
        return self._table(table_name).get(key)

    def delete(self, table_name: str, key: str) -> bool:
        table = self._table(table_name)
        if key not in table:
            return False
        del table[key]
        self._append({"op": self._OP_DELETE, "table": table_name, "key": key})
        return True

    def contains(self, table_name: str, key: str) -> bool:
        return key in self._table(table_name)

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        records = list(self._table(table_name).values())
        yield from paginate_records(records, table_name, limit, start_after)

    def count(self, table_name: str) -> int:
        return len(self._table(table_name))

    # -- bulk record access -------------------------------------------------------

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
    ) -> list[Record]:
        """Batch write as one atomic group append (one fsync for the batch).

        The whole group is serialised into a single buffered ``write`` call
        — never one syscall per record.  Recovery replays the group record
        whole; a crash while appending it tears the final line, which
        recovery discards — so the durable state is all of the batch or none
        of it.
        """
        table = self._table(table_name)
        items = list(items)
        # Validate the whole batch before mutating anything: a bad value must
        # not leave the in-memory state ahead of the durable log.
        self.codec.encode_many([value for _, value in items])
        records: list[Record] = []
        writes: list[dict[str, Any]] = []
        for key, value in items:
            existing = table.get(key)
            if if_absent and existing is not None:
                records.append(existing)
                continue
            record = existing.bump(value) if existing else Record(key=key, value=value)
            table[key] = record
            writes.append({"key": key, "value": value, "version": record.version})
            records.append(record)
        if writes:
            self._append(
                {"op": self._OP_PUT_MANY, "table": table_name, "entries": writes},
                weight=len(writes),
            )
        return records

    def delete_many(self, table_name: str, keys: Sequence[str]) -> int:
        """Batch delete as one group append (one fsync)."""
        table = self._table(table_name)
        removed = [key for key in dict.fromkeys(keys) if table.pop(key, None) is not None]
        if removed:
            self._append(
                {"op": self._OP_DELETE_MANY, "table": table_name, "keys": removed},
                weight=len(removed),
            )
        return len(removed)

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        table = self._table(table_name)
        values: list[Any] = []
        for key in keys:
            record = table.get(key)
            values.append(record.value if record is not None else default)
        return values

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        self._flush_pending()
        self._log_file.flush()
        os.fsync(self._log_file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._flush_pending()
            self._write_snapshot()
            self._log_file.close()
            self._closed = True
