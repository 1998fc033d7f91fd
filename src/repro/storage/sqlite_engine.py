"""SQLite-backed storage engine — the default, like the original Reprowd.

The whole experiment lives in one SQLite file, which is exactly the artefact
Bob shares with Ally in the paper: code + database file = reproducible
experiment.

Layout: one physical SQLite table ``reprowd_records`` holds every logical
table's records, keyed by (table_name, key).  Using a single physical table
keeps logical table creation cheap and makes cross-table scans (lineage
export) a single query.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import (
    CodecMismatchError,
    DuplicateKeyError,
    StorageError,
    TableNotFoundError,
    UnknownCursorError,
)
from repro.storage.engine import StorageEngine
from repro.storage.records import Codec, Record, resolve_codec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS reprowd_tables (
    table_name TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS reprowd_records (
    table_name TEXT NOT NULL,
    key        TEXT NOT NULL,
    value      TEXT NOT NULL,
    version    INTEGER NOT NULL DEFAULT 1,
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    UNIQUE (table_name, key)
);
CREATE INDEX IF NOT EXISTS idx_records_table ON reprowd_records (table_name);
CREATE TABLE IF NOT EXISTS reprowd_meta (
    meta_key   TEXT PRIMARY KEY,
    meta_value TEXT NOT NULL
);
"""


class SqliteEngine(StorageEngine):
    """Durable storage engine backed by a single SQLite file."""

    engine_name = "sqlite"

    def __init__(
        self,
        path: str,
        synchronous: bool = True,
        codec: str | Codec | None = None,
    ) -> None:
        """Open (creating if necessary) the database at *path*.

        Args:
            path: Filesystem path of the database file, or ``":memory:"``.
            synchronous: Commit when the write, or the write group it
                belongs to, ends.  Matches the durability the paper's
                crash-and-rerun semantics require; disable only for
                throughput experiments.
            codec: Value codec (name or instance).  ``None`` adopts whatever
                the database was written with (strict JSON on a fresh file);
                an explicit codec that disagrees with the stored one raises
                :class:`~repro.exceptions.CodecMismatchError`.
        """
        self.path = path
        self.synchronous = synchronous
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        try:
            # A 30s busy timeout (up from sqlite3's 5s default) rides out
            # cross-process write contention when several wire servers
            # share one platform database file.
            self._conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open SQLite database at {path!r}: {exc}") from exc
        self._conn.executescript(_SCHEMA)
        self.codec = self._settle_codec(codec)
        self._conn.commit()
        #: Nesting depth of the open :meth:`write_group` (0: none).
        self._group_depth = 0
        self._closed = False

    # -- internal helpers ----------------------------------------------------

    def _settle_codec(self, requested: str | Codec | None) -> Codec:
        """Reconcile the requested codec with the one recorded in meta.

        The stored name wins when no codec is requested; an explicit
        disagreement raises.  A database that predates the meta row but
        already holds records is implicitly ``json`` (all pre-codec data is
        JSON text).  The settled name is recorded so every future open
        rediscovers it with no config change.
        """
        row = self._conn.execute(
            "SELECT meta_value FROM reprowd_meta WHERE meta_key = 'codec'"
        ).fetchone()
        stored = row[0] if row is not None else None
        if stored is None:
            has_records = (
                self._conn.execute("SELECT 1 FROM reprowd_records LIMIT 1").fetchone()
                is not None
            )
            if has_records:
                stored = "json"
        if requested is None:
            codec = resolve_codec(stored)
        else:
            codec = resolve_codec(requested)
            if stored is not None and codec.name != stored:
                raise CodecMismatchError(self.path, stored, codec.name)
        self._conn.execute(
            "INSERT OR IGNORE INTO reprowd_meta (meta_key, meta_value) "
            "VALUES ('codec', ?)",
            (codec.name,),
        )
        return codec

    def _commit(self) -> None:
        """Commit, unless an open write group will (``commit()`` issues no
        statement when no transaction is open)."""
        if self.synchronous and not self._group_depth:
            self._conn.commit()

    @contextmanager
    def _write(self) -> Iterator[None]:
        """One write call: hold the engine lock, then commit.

        A write that raises after *it* opened the transaction (a lost
        ``put_new`` is the common one) rolls it back: the failed statement
        changed nothing, and a handle left inside that transaction would
        keep the file's write lock until its next commit.  A transaction
        that was already open — a write group, ``synchronous=False`` — holds
        earlier writes and is left alone.
        """
        with self._lock:
            pending = self._conn.in_transaction
            try:
                yield
            except BaseException:
                if not pending:
                    self._conn.rollback()
                raise
            self._commit()

    @contextmanager
    def write_group(self) -> Iterator[None]:
        """One transaction for every write inside (see the base contract):
        holds the engine lock, so another thread's write waits for the
        group instead of joining it, and commits once at the outermost exit
        — also when an exception ends the group, which keeps its prefix."""
        with self._lock:
            self._group_depth += 1
            try:
                yield
            finally:
                self._group_depth -= 1
                self._commit()

    def _require_table(self, table_name: str) -> None:
        cursor = self._conn.execute(
            "SELECT 1 FROM reprowd_tables WHERE table_name = ?", (table_name,)
        )
        if cursor.fetchone() is None:
            raise TableNotFoundError(table_name)

    # -- table management ----------------------------------------------------

    def create_table(self, table_name: str) -> None:
        with self._write():
            self._conn.execute(
                "INSERT OR IGNORE INTO reprowd_tables (table_name) VALUES (?)",
                (table_name,),
            )

    def drop_table(self, table_name: str) -> None:
        with self._write():
            self._conn.execute(
                "DELETE FROM reprowd_records WHERE table_name = ?", (table_name,)
            )
            self._conn.execute(
                "DELETE FROM reprowd_tables WHERE table_name = ?", (table_name,)
            )

    def list_tables(self) -> list[str]:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT table_name FROM reprowd_tables ORDER BY table_name"
            )
            return [row[0] for row in cursor.fetchall()]

    def has_table(self, table_name: str) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT 1 FROM reprowd_tables WHERE table_name = ?", (table_name,)
            )
            return cursor.fetchone() is not None

    # -- record access -------------------------------------------------------

    def put(self, table_name: str, key: str, value: Any) -> Record:
        encoded = self.codec.encode(value)
        with self._write():
            self._require_table(table_name)
            cursor = self._conn.execute(
                "SELECT version FROM reprowd_records WHERE table_name = ? AND key = ?",
                (table_name, key),
            )
            row = cursor.fetchone()
            if row is None:
                version = 1
                self._conn.execute(
                    "INSERT INTO reprowd_records (table_name, key, value, version) "
                    "VALUES (?, ?, ?, ?)",
                    (table_name, key, encoded, version),
                )
            else:
                version = row[0] + 1
                self._conn.execute(
                    "UPDATE reprowd_records SET value = ?, version = ? "
                    "WHERE table_name = ? AND key = ?",
                    (encoded, version, table_name, key),
                )
        return Record(key=key, value=value, version=version)

    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        # A direct INSERT (no prior existence check) makes put_new atomic
        # across *processes* sharing the database file, not just across
        # threads sharing this handle — the UNIQUE(table_name, key)
        # constraint is the arbiter, so exactly one writer wins a race
        # and every loser gets DuplicateKeyError.  The platform store's
        # id-allocation leases rely on this.
        encoded = self.codec.encode(value)
        with self._write():
            self._require_table(table_name)
            try:
                self._conn.execute(
                    "INSERT INTO reprowd_records (table_name, key, value, version) "
                    "VALUES (?, ?, ?, 1)",
                    (table_name, key, encoded),
                )
            except sqlite3.IntegrityError:
                raise DuplicateKeyError(table_name, key) from None
        return Record(key=key, value=value, version=1)

    def get(self, table_name: str, key: str, default: Any = None) -> Any:
        record = self.get_record(table_name, key)
        return record.value if record is not None else default

    def get_record(self, table_name: str, key: str) -> Record | None:
        with self._lock:
            self._require_table(table_name)
            cursor = self._conn.execute(
                "SELECT value, version FROM reprowd_records "
                "WHERE table_name = ? AND key = ?",
                (table_name, key),
            )
            row = cursor.fetchone()
        if row is None:
            return None
        return Record(key=key, value=self.codec.decode(row[0]), version=row[1])

    def delete(self, table_name: str, key: str) -> bool:
        with self._write():
            self._require_table(table_name)
            cursor = self._conn.execute(
                "DELETE FROM reprowd_records WHERE table_name = ? AND key = ?",
                (table_name, key),
            )
        return cursor.rowcount > 0

    def contains(self, table_name: str, key: str) -> bool:
        with self._lock:
            self._require_table(table_name)
            cursor = self._conn.execute(
                "SELECT 1 FROM reprowd_records WHERE table_name = ? AND key = ?",
                (table_name, key),
            )
            return cursor.fetchone() is not None

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        if limit is not None and limit < 0:
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        with self._lock:
            self._require_table(table_name)
            clauses = "table_name = ?"
            params: list[Any] = [table_name]
            if start_after is not None:
                cursor = self._conn.execute(
                    "SELECT seq FROM reprowd_records WHERE table_name = ? AND key = ?",
                    (table_name, start_after),
                )
                row = cursor.fetchone()
                if row is None:
                    raise UnknownCursorError(table_name, start_after)
                clauses += " AND seq > ?"
                params.append(row[0])
            sql = (
                "SELECT key, value, version FROM reprowd_records "
                f"WHERE {clauses} ORDER BY seq"
            )
            if limit is not None:
                sql += " LIMIT ?"
                params.append(limit)
            rows = self._conn.execute(sql, params).fetchall()
        for key, value, version in rows:
            yield Record(key=key, value=self.codec.decode(value), version=version)

    def scan_keys(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> list[str]:
        if limit is not None and limit < 0:
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        with self._lock:
            self._require_table(table_name)
            clauses = "table_name = ?"
            params: list[Any] = [table_name]
            if start_after is not None:
                cursor = self._conn.execute(
                    "SELECT seq FROM reprowd_records WHERE table_name = ? AND key = ?",
                    (table_name, start_after),
                )
                row = cursor.fetchone()
                if row is None:
                    raise UnknownCursorError(table_name, start_after)
                clauses += " AND seq > ?"
                params.append(row[0])
            sql = f"SELECT key FROM reprowd_records WHERE {clauses} ORDER BY seq"
            if limit is not None:
                sql += " LIMIT ?"
                params.append(limit)
            return [row[0] for row in self._conn.execute(sql, params).fetchall()]

    def count(self, table_name: str) -> int:
        with self._lock:
            self._require_table(table_name)
            cursor = self._conn.execute(
                "SELECT COUNT(*) FROM reprowd_records WHERE table_name = ?",
                (table_name,),
            )
            return int(cursor.fetchone()[0])

    # -- bulk record access ----------------------------------------------------

    #: Keys per IN-clause chunk; well below SQLite's bound-parameter limit.
    _CHUNK = 400

    def _fetch_rows(
        self, table_name: str, keys: Iterable[str], columns: str
    ) -> dict[str, tuple]:
        """Return the raw *columns* (after ``key``) per existing key, chunked."""
        found: dict[str, tuple] = {}
        distinct = list(dict.fromkeys(keys))
        for start in range(0, len(distinct), self._CHUNK):
            chunk = distinct[start : start + self._CHUNK]
            placeholders = ",".join("?" * len(chunk))
            cursor = self._conn.execute(
                f"SELECT key, {columns} FROM reprowd_records "
                f"WHERE table_name = ? AND key IN ({placeholders})",
                (table_name, *chunk),
            )
            for row in cursor.fetchall():
                found[row[0]] = row[1:]
        return found

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
    ) -> list[Record]:
        """Batch write as a single transaction: one read, one ``executemany``."""
        items = list(items)
        with self._write():
            self._require_table(table_name)
            if not items:
                return []
            if if_absent:
                return self._put_many_if_absent(table_name, items)
            # Only the versions of existing rows are read: a put replaces
            # the value, so the stored one is never fetched or decoded.
            versions = {
                key: version
                for key, (version,) in self._fetch_rows(
                    table_name, (key for key, _ in items), "version"
                ).items()
            }
            # Batch-encode every value up front (all-or-nothing validation),
            # then replay put semantics in memory and write only each key's
            # final state; intermediate versions of a key repeated in the
            # batch exist only in the returned records, exactly as if the
            # puts had run one at a time.
            encoded_values = self.codec.encode_many([value for _, value in items])
            pending: dict[str, tuple[Any, int]] = {}
            records: list[Record] = []
            for (key, value), encoded in zip(items, encoded_values):
                version = versions[key] = versions.get(key, 0) + 1
                pending[key] = (encoded, version)
                records.append(Record(key=key, value=value, version=version))
            self._conn.executemany(
                "INSERT INTO reprowd_records (table_name, key, value, version) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT (table_name, key) "
                "DO UPDATE SET value = excluded.value, version = excluded.version",
                [
                    (table_name, key, encoded, version)
                    for key, (encoded, version) in pending.items()
                ],
            )
        return records

    def _put_many_if_absent(
        self, table_name: str, items: list[tuple[str, Any]]
    ) -> list[Record]:
        """``INSERT OR IGNORE``, read back only on a lost key: cross-process
        first-writer-wins.

        A read-then-upsert implementation would let two processes both
        believe they inserted a key; pushing the conflict resolution into
        SQLite's unique constraint guarantees exactly one writer's value
        survives.  The statement's change count says whether every key was
        inserted by *this* call — the survivors are then the caller's own
        values at version 1; otherwise the fetch-back returns the
        authoritative record to winners and losers alike (the dedup-claim
        protocol depends on it).
        """
        # Validate the whole batch up front, matching the update path.
        encoded_values = self.codec.encode_many([value for _, value in items])
        first: dict[str, tuple[Any, Any]] = {}
        for (key, value), encoded in zip(items, encoded_values):
            first.setdefault(key, (encoded, value))
        inserted = self._conn.executemany(
            "INSERT OR IGNORE INTO reprowd_records (table_name, key, value, version) "
            "VALUES (?, ?, ?, 1)",
            [(table_name, key, encoded) for key, (encoded, _) in first.items()],
        ).rowcount
        if inserted == len(first):
            return [Record(key=key, value=first[key][1]) for key, _ in items]
        raw = self._fetch_rows(table_name, first, "value, version")
        # Where the surviving bytes are the ones this call encoded, the
        # caller's value is what a decode would give back; only a key that
        # lost to different bytes pays for one.
        survivors: dict[str, Record] = {}
        for key, (encoded, value) in first.items():
            stored, version = raw[key]
            if stored != encoded:
                value = self.codec.decode(stored)
            survivors[key] = Record(key=key, value=value, version=version)
        return [survivors[key] for key, _ in items]

    def delete_many(self, table_name: str, keys: Sequence[str]) -> int:
        """Chunked batch delete: one ``DELETE ... IN`` per chunk, one commit."""
        with self._write():
            self._require_table(table_name)
            distinct = list(dict.fromkeys(keys))
            deleted = 0
            for start in range(0, len(distinct), self._CHUNK):
                chunk = distinct[start : start + self._CHUNK]
                placeholders = ",".join("?" * len(chunk))
                cursor = self._conn.execute(
                    "DELETE FROM reprowd_records "
                    f"WHERE table_name = ? AND key IN ({placeholders})",
                    (table_name, *chunk),
                )
                deleted += cursor.rowcount
        return deleted

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        with self._lock:
            self._require_table(table_name)
            raw = self._fetch_rows(table_name, keys, "value")
        values: list[Any] = []
        for key in keys:
            hit = raw.get(key)
            values.append(self.codec.decode(hit[0]) if hit is not None else default)
        return values

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._conn.commit()

    def close(self) -> None:
        if not self._closed:
            with self._lock:
                self._conn.commit()
                self._conn.close()
            self._closed = True
