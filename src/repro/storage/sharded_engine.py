"""Partitioned storage engines: N child engines behind one ``StorageEngine`` face.

Every key is routed to one of N child engines by a stable hash of the key, so
a table's records — and therefore its write load and its on-disk footprint —
spread across shard files instead of funnelling through a single SQLite file.
The children are ordinary engines (any mix the factory can build: sqlite
files, log directories, in-memory dicts), which keeps the partitioning logic
engine-agnostic and lets every child keep its own durability story.

Two partitioning schemes share one implementation:

* :class:`ShardedEngine` (this module) routes by ``hash(key) mod N`` — fast
  and simple, but the membership is fixed: changing N remaps almost every
  key.
* :class:`~repro.storage.ring.ConsistentHashEngine` routes over a
  virtual-node hash ring, so membership can change online — growing from N
  to N+1 children moves only ~K/(N+1) keys (see ``ring.py``).

The hard part, common to both, is honouring the single-engine contract
*exactly*, so the cross-engine property suites can treat a partitioned
engine as just another member of the equivalence class.  That shared
machinery lives in :class:`PartitionedEngine`:

* **Insertion order.** ``scan`` must yield records in global insertion order,
  but each child only knows its own local order.  The engine therefore wraps
  every stored value in a tiny envelope ``{"s": seq, "v": value}`` carrying a
  per-table global sequence number assigned at first insert (and kept across
  overwrites, matching how an upsert keeps its original scan position on
  every other engine).  Within one child, records are always inserted in
  ascending ``seq`` order, so each child's local scan is already sorted by
  ``seq`` — a lazy k-way merge on ``seq`` across the child streams
  reconstructs the exact global order without materialising any child's
  table.
* **Pagination.** ``(limit, start_after)`` hold across children: the cursor
  key is routed to its owning child to resolve its sequence number (raising
  :class:`~repro.exceptions.StorageError` for an unknown cursor, like every
  other engine), and the merge then yields only records with a larger
  sequence, up to ``limit``.  Child streams are themselves paginated
  (``_merge_page_size`` records per child page), so a merge-scan holds
  O(children x page) records, never a whole table.
* **Batches.** ``put_many`` validates the entire batch up front, assigns
  sequence numbers in item order, then fans out one child ``put_many`` per
  child — one transaction/group-append *per child*.  With ``shard_workers``
  > 0 the per-child transactions run concurrently on a thread pool (the
  children are independent files, so the only shared resource is the disk);
  the default keeps them serial.  A crash mid-batch can leave some children
  applied and others not — a child *prefix* when serial, an arbitrary
  whole-child *subset* when parallel; either way it is the torn-batch shape
  the fault-recovery cache already heals, because its batches use
  ``if_absent=True`` (put_new-per-key) semantics and a rerun fills only the
  missing keys.

The sequence counter is not persisted separately: it is recovered lazily per
table by taking the maximum envelope sequence across children, so reopening a
partitioned database needs no extra metadata file and cannot disagree with
the data it describes.
"""

from __future__ import annotations

import hashlib
import heapq
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import (
    DuplicateKeyError,
    StorageError,
    TableNotFoundError,
    UnknownCursorError,
)
from repro.storage.engine import StorageEngine
from repro.storage.records import Record

#: Envelope field holding the global insertion sequence number.
_SEQ = "s"
#: Envelope field holding the caller's actual value.
_VALUE = "v"
#: Envelope field holding the logical per-key version (ring engine only; the
#: modulo-sharded engine reuses its child's version counter, which is stable
#: because a key never changes child).
_VER = "n"

_ABSENT = object()


def stable_hash64(text: str) -> int:
    """Stable 64-bit hash (SHA-1 prefix) — identical across processes.

    The one routing hash both partitioning schemes build on: SHA-1 rather
    than Python's per-process-randomised builtin ``hash``, because reopening
    a partitioned database must send every key back to the child that
    stored it.
    """
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_index(key: str, num_shards: int) -> int:
    """Return the stable shard index for *key* among *num_shards* shards."""
    return stable_hash64(key) % num_shards


class PartitionedEngine(StorageEngine):
    """Shared machinery for engines that partition one table space over
    child engines: envelope sequence numbers, the k-way merge-scan, and the
    per-child batch fan-out.

    Subclasses maintain ``self._members`` (the child engines currently
    holding data) and implement :meth:`_owner_index` (which member a key is
    *written* to).  The ring engine additionally overrides the lookup hooks
    (:meth:`_read_envelope_record`, :meth:`_bulk_lookup_envelopes`) so reads
    stay correct while a rebalance is migrating keys between members, sets
    ``_envelope_versions`` so a key's logical version survives moving to a
    child that has never seen it, and replaces the merge-scan wholesale with
    its sequence index (see ``ring.py``).
    """

    #: Records fetched per member page during a merge-scan.
    _merge_page_size = 256

    #: When True, the logical per-key version is carried in the envelope
    #: (field ``"n"``) instead of borrowed from the child's version counter.
    _envelope_versions = False

    def __init__(self, shard_workers: int = 0):
        self.shard_workers = max(0, int(shard_workers))
        self._executor: ThreadPoolExecutor | None = None
        # Next global sequence number per table, recovered lazily from the
        # members on first write after open.
        self._next_seq: dict[str, int] = {}
        self._members: list[StorageEngine] = []
        self._closed = False

    def _adopt_member_codec(self) -> None:
        """Adopt the children's (shared) codec as this engine's codec.

        Called by subclasses once ``self._members`` is populated.  The
        children each settled their codec against their own durable meta, so
        disagreement means the partition was assembled from files written
        with different codecs — refuse loudly rather than half-misread.
        """
        names = {member.codec.name for member in self._members}
        if len(names) > 1:
            raise StorageError(
                f"partition members disagree on codec: {sorted(names)}"
            )
        self.codec = self._members[0].codec

    # -- routing hooks ---------------------------------------------------------

    def _owner_index(self, key: str) -> int:
        """Index into ``self._members`` of the member *key* is written to."""
        raise NotImplementedError

    def _owner(self, key: str) -> StorageEngine:
        return self._members[self._owner_index(key)]

    def _write_indexes(self, key: str) -> list[int]:
        """Indexes into ``self._members`` a write of *key* must land on.

        The modulo-sharded engine writes each key to exactly one member; the
        ring engine overrides this to return the key's full live replica set
        (write-all) when it is configured with ``replicas`` > 1.
        """
        return [self._owner_index(key)]

    def _read_envelope_record(self, table_name: str, key: str) -> Record | None:
        """Return the raw (enveloped) record for *key*, or None when absent.

        The default reads the key's owner; the ring engine overrides this to
        also consult the key's *previous* owner while a rebalance is in
        flight (read-from-both-owners).
        """
        return self._owner(key).get_record(table_name, key)

    def _note_write(self, table_name: str, key: str, envelope: dict[str, Any]) -> None:
        """Hook fired after *key*'s envelope is (about to be) written.

        The modulo-sharded engine needs no bookkeeping; the ring engine uses
        this to maintain its per-table sequence index (child physical order
        stops being scan order once a migration has appended moved keys).
        """

    def _bulk_lookup_envelopes(self, table_name: str, keys: Sequence[str]) -> dict[str, Any]:
        """Return envelope values for every present key, one ``get_many`` per
        member touched (the bulk analogue of :meth:`_read_envelope_record`)."""
        by_member: dict[int, list[str]] = {}
        for key in keys:
            by_member.setdefault(self._owner_index(key), []).append(key)
        found: dict[str, Any] = {}
        for index, member_keys in by_member.items():
            envelopes = self._members[index].get_many(
                table_name, member_keys, default=_ABSENT
            )
            for key, envelope in zip(member_keys, envelopes):
                if envelope is not _ABSENT:
                    found[key] = envelope
        return found

    # -- envelopes -------------------------------------------------------------

    def _wrap(self, seq: int, value: Any, version: int | None = None) -> dict[str, Any]:
        envelope = {_SEQ: seq, _VALUE: value}
        if version is not None:
            envelope[_VER] = version
        return envelope

    def _unwrap(self, record: Record) -> Record:
        return Record(
            key=record.key,
            value=record.value[_VALUE],
            version=record.value.get(_VER, record.version),
        )

    def _require_table(self, table_name: str) -> None:
        if not self._members[0].has_table(table_name):
            raise TableNotFoundError(table_name)

    def _allocate_seq(self, table_name: str, count: int = 1) -> int:
        """Reserve *count* sequence numbers; return the first.

        On the first allocation for a table after open, the counter is
        recovered as one past the largest envelope sequence stored in any
        member.  Within a member insertion order is ascending sequence
        order, so the member's maximum is its *last* record — found by
        paging the key-only scan (bounded memory, no value decoding) and
        reading one record per member.
        """
        next_seq = self._next_seq.get(table_name)
        if next_seq is None:
            next_seq = 1
            for member in self._members:
                last_key = self._last_key(member, table_name)
                if last_key is not None:
                    last = member.get_record(table_name, last_key)
                    next_seq = max(next_seq, last.value[_SEQ] + 1)
        self._next_seq[table_name] = next_seq + count
        return next_seq

    def _last_key(self, member: StorageEngine, table_name: str) -> str | None:
        """Return the key of the member's last record, paging in bounded memory."""
        cursor: str | None = None
        last: str | None = None
        while True:
            page = member.scan_keys(
                table_name, limit=self._merge_page_size, start_after=cursor
            )
            if page:
                last = page[-1]
            if len(page) < self._merge_page_size:
                return last
            cursor = page[-1]

    # -- table management ------------------------------------------------------

    def create_table(self, table_name: str) -> None:
        for member in self._members:
            member.create_table(table_name)

    def drop_table(self, table_name: str) -> None:
        for member in self._members:
            member.drop_table(table_name)
        self._next_seq.pop(table_name, None)

    def list_tables(self) -> list[str]:
        names: set[str] = set()
        for member in self._members:
            names.update(member.list_tables())
        return sorted(names)

    def has_table(self, table_name: str) -> bool:
        return all(member.has_table(table_name) for member in self._members)

    # -- record access ---------------------------------------------------------

    def put(self, table_name: str, key: str, value: Any) -> Record:
        self.codec.encode(value)
        existing = self._read_envelope_record(table_name, key)
        if existing is not None:
            seq = existing.value[_SEQ]
        else:
            seq = self._allocate_seq(table_name)
        version = None
        if self._envelope_versions:
            version = existing.value[_VER] + 1 if existing is not None else 1
        envelope = self._wrap(seq, value, version)
        stored = self._write_envelope(table_name, key, envelope)
        self._note_write(table_name, key, envelope)
        return self._unwrap(stored)

    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        if self._read_envelope_record(table_name, key) is not None:
            raise DuplicateKeyError(table_name, key)
        # The key is known absent, so skip put()'s second existence read
        # and allocate its sequence number directly.
        self.codec.encode(value)
        seq = self._allocate_seq(table_name)
        version = 1 if self._envelope_versions else None
        envelope = self._wrap(seq, value, version)
        stored = self._write_envelope(table_name, key, envelope)
        self._note_write(table_name, key, envelope)
        return self._unwrap(stored)

    def _write_envelope(self, table_name: str, key: str, envelope: dict[str, Any]) -> Record:
        """Write one envelope to every member :meth:`_write_indexes` names."""
        stored: Record | None = None
        for index in self._write_indexes(key):
            record = self._members[index].put(table_name, key, envelope)
            if stored is None:
                stored = record
        return stored

    def get(self, table_name: str, key: str, default: Any = None) -> Any:
        record = self._read_envelope_record(table_name, key)
        return record.value[_VALUE] if record is not None else default

    def get_record(self, table_name: str, key: str) -> Record | None:
        record = self._read_envelope_record(table_name, key)
        return self._unwrap(record) if record is not None else None

    def delete(self, table_name: str, key: str) -> bool:
        return self._owner(key).delete(table_name, key)

    def contains(self, table_name: str, key: str) -> bool:
        return self._read_envelope_record(table_name, key) is not None

    def count(self, table_name: str) -> int:
        return sum(member.count(table_name) for member in self._members)

    # -- merge scan ------------------------------------------------------------

    def _member_stream(
        self, index: int, table_name: str, start_key: str | None
    ) -> Iterator[tuple[int, int, Record]]:
        """Yield (seq, member index, raw record) from one member in
        ascending-seq order.

        Pages through the child's own paginated scan (from the member-local
        exclusive cursor *start_key*) so no member table is ever materialised
        whole.
        """
        member = self._members[index]
        cursor = start_key
        while True:
            page = list(
                member.scan(table_name, limit=self._merge_page_size, start_after=cursor)
            )
            for record in page:
                yield (record.value[_SEQ], index, record)
            if len(page) < self._merge_page_size:
                return
            cursor = page[-1].key

    def _local_cursor(
        self, member: StorageEngine, table_name: str, min_seq: int
    ) -> str | None:
        """Translate the global cursor into one member's exclusive scan cursor.

        Returns the key of the member's last record with sequence <= *min_seq*
        (or None when the member holds none).  Within a member insertion order
        is ascending sequence order, so the boundary is found by walking
        key-only pages — one single-record read per page decides whether the
        whole page is before the cursor — and binary-searching inside the one
        page that straddles it.  Memory stays bounded by the merge page size
        and no member value is ever decoded wholesale.
        """
        cursor: str | None = None
        best: str | None = None
        while True:
            page = member.scan_keys(
                table_name, limit=self._merge_page_size, start_after=cursor
            )
            if not page:
                return best
            last_seq = member.get_record(table_name, page[-1]).value[_SEQ]
            if last_seq <= min_seq:
                best = page[-1]
                if len(page) < self._merge_page_size:
                    return best
                cursor = page[-1]
                continue
            # The boundary lies inside this page: binary search it.
            low, high = 0, len(page)
            while low < high:
                mid = (low + high) // 2
                if member.get_record(table_name, page[mid]).value[_SEQ] <= min_seq:
                    low = mid + 1
                else:
                    high = mid
            return page[low - 1] if low else best

    def _merged(
        self, table_name: str, limit: int | None, start_after: str | None
    ) -> Iterator[Record]:
        if limit is not None and limit < 0:
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        self._require_table(table_name)
        min_seq: int | None = None
        if start_after is not None:
            cursor_record = self._read_envelope_record(table_name, start_after)
            if cursor_record is None:
                raise UnknownCursorError(table_name, start_after)
            min_seq = cursor_record.value[_SEQ]
        streams = [
            self._member_stream(
                index,
                table_name,
                None
                if min_seq is None
                else self._local_cursor(self._members[index], table_name, min_seq),
            )
            for index in range(len(self._members))
        ]
        merged = heapq.merge(*streams, key=lambda entry: entry[0])
        if limit is not None:
            # islice stops *at* the limit rather than pulling one extra
            # merge item (which could trigger a whole discarded member page).
            merged = islice(merged, limit)
        for _, _, record in merged:
            yield self._unwrap(record)

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        yield from self._merged(table_name, limit, start_after)

    # -- bulk record access ------------------------------------------------------

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
    ) -> list[Record]:
        """Fan a batch out per member: one child ``put_many`` (one transaction
        or group append) per member touched, after validating every value.
        """
        self._require_table(table_name)
        items = list(items)
        if not items:
            return []
        self.codec.encode_many([value for _, value in items])

        # Resolve existing envelopes for every distinct key with one
        # get_many per member (the ring engine also consults old owners).
        distinct = list(dict.fromkeys(key for key, _ in items))
        envelopes = self._bulk_lookup_envelopes(table_name, distinct)
        if self._envelope_versions:
            return self._put_many_versioned(table_name, items, envelopes, if_absent)

        seqs = {key: envelope[_SEQ] for key, envelope in envelopes.items()}
        # Assign fresh sequence numbers in item order so the merge-scan order
        # of new keys matches their position in the batch, then build each
        # member's sub-batch preserving relative item order.
        new_keys = [key for key in distinct if key not in seqs]
        if new_keys:
            first = self._allocate_seq(table_name, count=len(new_keys))
            order_of_first_occurrence: dict[str, int] = {}
            for key, _ in items:
                if key not in seqs and key not in order_of_first_occurrence:
                    order_of_first_occurrence[key] = first + len(order_of_first_occurrence)
            seqs.update(order_of_first_occurrence)

        member_items: dict[int, list[tuple[str, Any]]] = {}
        for key, value in items:
            member_items.setdefault(self._owner_index(key), []).append(
                (key, self._wrap(seqs[key], value))
            )
        member_results = {
            index: iter(batch_records)
            for index, batch_records in self._run_member_batches(
                table_name, member_items, if_absent
            ).items()
        }
        return [
            self._unwrap(next(member_results[self._owner_index(key)]))
            for key, _ in items
        ]

    def _put_many_versioned(
        self,
        table_name: str,
        items: list[tuple[str, Any]],
        envelopes: dict[str, Any],
        if_absent: bool,
    ) -> list[Record]:
        """The envelope-versioned batch path (ring engine).

        ``if_absent`` is resolved client-side against the looked-up
        envelopes (which already cover both owners during a migration), so
        child batches carry only the items that actually write; the logical
        version is threaded through the envelope, making it survive a key's
        move to a child whose own version counter has never seen it.
        """
        current: dict[str, Any] = dict(envelopes)
        new_keys = [
            key
            for key in dict.fromkeys(key for key, _ in items)
            if key not in current
        ]
        next_fresh = self._allocate_seq(table_name, count=len(new_keys)) if new_keys else 0
        fresh_seqs: dict[str, int] = {}
        for key in new_keys:
            fresh_seqs[key] = next_fresh
            next_fresh += 1

        results: list[Record] = []
        writes: dict[int, list[tuple[str, Any]]] = {}
        written: dict[str, Any] = {}  # first-occurrence (= sequence) order
        for key, value in items:
            envelope = current.get(key)
            if if_absent and envelope is not None:
                results.append(Record(key=key, value=envelope[_VALUE], version=envelope[_VER]))
                continue
            seq = envelope[_SEQ] if envelope is not None else fresh_seqs[key]
            version = envelope[_VER] + 1 if envelope is not None else 1
            new_envelope = self._wrap(seq, value, version)
            current[key] = new_envelope
            for member_index in self._write_indexes(key):
                writes.setdefault(member_index, []).append((key, new_envelope))
            written.setdefault(key, new_envelope)
            results.append(Record(key=key, value=value, version=version))
        self._run_member_batches(table_name, writes, if_absent=False)
        for key, new_envelope in written.items():
            self._note_write(table_name, key, new_envelope)
        return results

    def _run_member_batches(
        self,
        table_name: str,
        member_items: dict[int, list[tuple[str, Any]]],
        if_absent: bool,
    ) -> dict[int, list[Record]]:
        """Issue one child ``put_many`` per member touched, serial or threaded.

        With ``shard_workers`` > 0 and more than one member touched, the
        child transactions run concurrently on a pool — each member is an
        independent engine (its own file, its own lock), so the batches
        cannot contend on anything but the disk.  Per-member atomicity is
        unchanged (one transaction/group-append per member); a crash
        mid-batch leaves an arbitrary whole-member *subset* applied when
        parallel (a prefix when serial), which ``if_absent=True`` reruns
        heal either way.
        """
        if self.shard_workers and len(member_items) > 1:
            futures = {
                index: self._member_pool().submit(
                    self._members[index].put_many,
                    table_name,
                    batch,
                    if_absent,
                )
                for index, batch in member_items.items()
            }
            return {index: future.result() for index, future in futures.items()}
        return {
            index: self._members[index].put_many(table_name, batch, if_absent=if_absent)
            for index, batch in member_items.items()
        }

    def delete_many(self, table_name: str, keys: Sequence[str]) -> int:
        """Batch delete across members: one child ``delete_many`` per member.

        Returns the number of distinct requested keys that existed (replica
        copies are not double-counted).
        """
        self._require_table(table_name)
        distinct = list(dict.fromkeys(keys))
        if not distinct:
            return 0
        present = self._bulk_lookup_envelopes(table_name, distinct)
        per_member: dict[int, list[str]] = {}
        for key in distinct:
            for index in self._write_indexes(key):
                per_member.setdefault(index, []).append(key)
        for index, member_keys in per_member.items():
            self._members[index].delete_many(table_name, member_keys)
        for key in present:
            self._note_delete(table_name, key)
        return len(present)

    def _note_delete(self, table_name: str, key: str) -> None:
        """Hook fired after *key* is deleted (ring index bookkeeping)."""

    def _member_pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self.shard_workers, len(self._members)),
                thread_name_prefix="shard-put",
            )
        return self._executor

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        self._require_table(table_name)
        found = self._bulk_lookup_envelopes(table_name, list(dict.fromkeys(keys)))
        return [
            found[key][_VALUE] if key in found else default for key in keys
        ]

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        for member in self._members:
            member.flush()

    def close(self) -> None:
        if not self._closed:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            for member in self._members:
                member.close()
            self._closed = True


class ShardedEngine(PartitionedEngine):
    """Hash-partitions one logical table space over a *fixed* N children."""

    engine_name = "sharded"

    def __init__(self, shards: Sequence[StorageEngine], shard_workers: int = 0):
        """Wrap *shards* (at least one child engine, already open).

        Args:
            shards: The child engines keys are hash-partitioned across.
            shard_workers: Number of threads a ``put_many`` batch fans its
                per-shard child transactions out over.  0 (the default)
                keeps shard writes serial; any positive value caps the pool
                size (never more threads than shards touched).  Safe because
                each shard's sub-batch goes to exactly one thread and every
                child engine serialises its own access.
        """
        if not shards:
            raise ValueError("ShardedEngine needs at least one child engine")
        super().__init__(shard_workers=shard_workers)
        self.shards = list(shards)
        self._members = self.shards
        self._adopt_member_codec()

    def _owner_index(self, key: str) -> int:
        return shard_index(key, len(self.shards))

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["shard_workers"] = self.shard_workers
        description["shards"] = [
            {"engine": shard.engine_name, "records": sum(shard.describe()["tables"].values())}
            for shard in self.shards
        ]
        return description
