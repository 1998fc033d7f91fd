"""In-memory storage engine.

Non-durable: crash-and-rerun experiments backed by this engine do not share
anything across processes.  It exists for unit tests, quick notebook-style
experiments, and as the reference implementation the durable engines are
property-tested against.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import DuplicateKeyError, TableNotFoundError
from repro.storage.engine import StorageEngine, paginate_records
from repro.storage.records import Codec, Record, resolve_codec


class MemoryEngine(StorageEngine):
    """Dictionary-backed storage engine.

    Mutations are guarded by a lock so check-then-act writes (``put_new``,
    ``put_many(if_absent=True)``) stay atomic when several threads share one
    engine — which is exactly what two platform-store handles on one engine
    do in the multi-server concurrency suites.  Reads stay lock-free: dict
    reads are atomic under the GIL and readers tolerate seeing a batch's
    prefix, just like the durable engines' committed-prefix semantics.
    """

    engine_name = "memory"

    def __init__(self, codec: str | Codec | None = None) -> None:
        self._tables: dict[str, dict[str, Record]] = {}
        self._mutex = threading.RLock()
        self._closed = False
        # No durable meta to rediscover a codec from: used for validation
        # only, so memory accepts exactly the durable engines' value domain.
        self.codec = resolve_codec(codec)

    # -- table management --------------------------------------------------

    def create_table(self, table_name: str) -> None:
        with self._mutex:
            self._tables.setdefault(table_name, {})

    def drop_table(self, table_name: str) -> None:
        with self._mutex:
            self._tables.pop(table_name, None)

    def list_tables(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, table_name: str) -> bool:
        return table_name in self._tables

    # -- record access -----------------------------------------------------

    def _table(self, table_name: str) -> dict[str, Record]:
        try:
            return self._tables[table_name]
        except KeyError:
            raise TableNotFoundError(table_name) from None

    def put(self, table_name: str, key: str, value: Any) -> Record:
        # Round-trip through the codec so memory and durable engines accept
        # exactly the same set of values.
        self.codec.encode(value)
        with self._mutex:
            table = self._table(table_name)
            existing = table.get(key)
            record = existing.bump(value) if existing else Record(key=key, value=value)
            table[key] = record
            return record

    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        with self._mutex:
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
        with self._mutex:
            return self._table(table_name).pop(key, None) is not None

    def contains(self, table_name: str, key: str) -> bool:
        return key in self._table(table_name)

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        # dict preserves insertion order, matching the durable engines.
        records = list(self._table(table_name).values())
        yield from paginate_records(records, table_name, limit, start_after)

    def count(self, table_name: str) -> int:
        return len(self._table(table_name))

    # -- bulk record access -------------------------------------------------

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
    ) -> list[Record]:
        items = list(items)
        # Validate the whole batch before mutating anything, so a bad value
        # cannot leave a half-applied batch (matches the durable engines).
        self.codec.encode_many([value for _, value in items])
        with self._mutex:
            table = self._table(table_name)
            records: list[Record] = []
            for key, value in items:
                existing = table.get(key)
                if if_absent and existing is not None:
                    records.append(existing)
                    continue
                record = existing.bump(value) if existing else Record(key=key, value=value)
                table[key] = record
                records.append(record)
            return records

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        table = self._table(table_name)
        values: list[Any] = []
        for key in keys:
            record = table.get(key)
            values.append(record.value if record is not None else default)
        return values

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """No durable medium to flush to."""

    def close(self) -> None:
        self._closed = True
