"""Consistent-hash storage engine with online rebalance and replication.

:class:`~repro.storage.sharded_engine.ShardedEngine` routes keys by
``hash(key) mod N``, which welds the data to a fixed N: growing capacity
means remapping (and rewriting) almost every key.
:class:`ConsistentHashEngine` replaces the modulo with a **virtual-node hash
ring** (the classic elastic-membership construction used by partitioned
stores): every member contributes ``virtual_nodes`` points on a 64-bit ring,
and a key belongs to the first member point at or after its own hash.
Adding one member to N therefore steals only ~K/(N+1) keys, spread evenly
across the old members — the property :meth:`rebalance` turns into an
*online* operation.

Envelope sequence numbers, dual-owner lookups and per-member batch
transactions are inherited from
:class:`~repro.storage.sharded_engine.PartitionedEngine`, so the ring engine
passes the cross-engine equivalence suites unchanged.  Two departures from
the modulo-sharded engine:

* the logical per-key version rides *in* the envelope (field ``"n"``),
  because a migrated key lands on a child whose own version counter has
  never seen it;
* ``scan`` runs off a per-table **sequence index** (key -> seq dict plus an
  append-only seq-sorted entry list, rebuilt lazily from the children on
  open) instead of the sharded engine's k-way merge of per-child streams.
  Migration appends moved keys at the *end* of their new child's physical
  order, so child-local order stops implying global order the moment a ring
  has ever rebalanced; the index keeps scans exact anyway, makes
  ``scan_keys``/``count``/cursor resolution O(1)-per-record, and is immune
  to the both-owners window mid-migration (each key appears in it once, and
  values are fetched through the dual-owner bulk lookup).  The trade: O(keys)
  index memory per scanned table — values themselves are still fetched in
  bounded pages — which is the price of elastic membership.

Replication (``replicas`` > 1)
------------------------------

With ``replicas=R`` every key is placed on its **R distinct successor
members** walking clockwise from its hash (:meth:`HashRing.successors`).
The placement rule is a pure function of the membership *names* — including
members currently down — so a member outage never silently re-routes keys.

* **Writes are write-all**: every ``put``/``put_many``/``delete`` applies to
  every *live* member of the key's replica set, in one pass.
* **Reads are read-any-fresh**: point and bulk lookups consult every live
  replica and return the copy with the highest envelope logical version
  (field ``"n"``), so a torn multi-replica write (a crash between two
  replica puts) still reads deterministically.  A torn multi-replica
  *delete* can conversely resurrect the surviving copy — deletes carry no
  tombstone; :meth:`repair` reconciles divergent replicas.
* **Degraded mode**: opening with up to R-1 manifest members missing warns
  (:class:`DegradedRingWarning`) and serves — every key keeps at least one
  live replica.  At runtime :meth:`mark_down` retires a member in place
  (the SIGKILL model: the engine object is abandoned, not closed) under the
  same R-1 bound, and reads/scans/writes transparently fail over to the
  surviving replicas.
* **Re-replication**: :meth:`repair` copies the freshest envelope of every
  key to each live member of its replica set (healing under-replication
  from degraded windows) and drops stray copies from members outside it.
  ``rebalance`` runs the same pass automatically after its migration waves
  whenever ``replicas`` > 1, so membership changes re-establish the
  R-successor invariant even when they ran degraded.
* **Returning members**: while any member is down, the live members carry a
  replicated *down-record* naming it.  Reopening with a member another
  member's down-record accuses triggers an automatic sync before it serves:
  stale tables are dropped, missing tables created, zombie keys (deleted
  while it was away) removed, and every key it should hold copied at the
  trusted members' freshest version.

Membership metadata
-------------------

Each child carries a reserved table ``__ring__`` (hidden from
``list_tables``) holding the replicated records:

* ``members`` — the membership **manifest**: an epoch counter, the member
  names, the virtual-node count and the replica count.  Written at first
  open and rewritten (epoch + 1) when a rebalance completes.  On reopen the
  manifest with the highest epoch is authoritative: children the manifest
  does not name are dropped (a drained ex-member file is harmless), and
  reopening with more than ``replicas - 1`` manifest members missing raises
  — silently re-routing around them would misplace or lose keys.
* ``journal`` — present only while a rebalance is in flight: the old and new
  member-name sets plus the epoch the transition started from.  A journal
  older than the freshest manifest (a relic on a member that was down when
  the transition finalized) is recognised as stale and discarded.
* ``down`` — present when ``replicas`` > 1: the names of the members
  currently marked down, so a returning member can be told apart from a
  healthy one at the next open.
* ``idx::<table>`` — a **sequence-index snapshot** per scanned table,
  written on :meth:`flush`/:meth:`close` whenever the in-memory index
  changed: the live ``(key, seq)`` pairs plus, per member, the record count
  and physical tail key observed at snapshot time.  On reopen
  :meth:`_index` loads the snapshot and replays only the records each
  member appended past its recorded tail — O(new writes) instead of the
  O(K) full rebuild — falling back to the rebuild whenever validation
  cannot prove the snapshot current: a different epoch (a rebalance
  happened), a different live-member set (degraded), a vanished tail key,
  or a member count that the snapshot count plus the replayed records does
  not explain (a delete landed after the snapshot).  Stale snapshots are
  therefore never *trusted*, only either replayed to the exact rebuilt
  index or discarded.

The rebalance protocol
----------------------

``rebalance(add=..., remove=...)`` runs entirely online:

1. **Journal.** The transition ``{old, new, epoch}`` is written to every
   live member (old and new) — one durable record per child.  From this
   moment writes route by the *new* ring, and every read that misses at a
   key's new replicas falls back to its old ones (read-from-both-owners),
   so no window ever returns stale or missing data.
2. **Migration waves.** For every table and every old member, the keys whose
   new replica set no longer includes that member are enumerated (paged
   ``scan_keys``, bounded memory) and moved in waves of
   ``rebalance_batch_size``: one ``put_many(..., if_absent=True)`` per live
   destination replica (``if_absent`` so a concurrent fresh write at the
   destination is never clobbered by the stale copy), then the wave's
   source records are deleted.  Envelopes move verbatim, so sequence
   numbers — and therefore the global scan order — and logical versions are
   preserved exactly.
3. **Repair** (``replicas`` > 1 only): the re-replication pass above, so
   under-replication from members that were down during the waves is healed
   before the transition commits.
4. **Finalize.** The manifest is rewritten at epoch + 1 on every live new
   member, the journal records are deleted, and removed members (now
   drained) are closed.

Every step is idempotent, and the waves re-derive their remaining work from
the data itself, so a crash in *any* window is resumable: constructing the
engine over the same children finds the journal, replays the remaining
waves (copies that already landed are ``if_absent`` no-ops; deletes that
already happened find nothing) and finalizes.  During the in-flight window a
key can exist at both owners under the same sequence number; the sequence
index lists it once and the dual-owner lookup returns the current owner's
(possibly fresher) copy.
"""

from __future__ import annotations

import bisect
import warnings
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.exceptions import (
    ConfigurationError,
    StorageError,
    TableNotFoundError,
    UnknownCursorError,
)
from repro.storage.engine import StorageEngine
from repro.storage.records import Record
from repro.storage.sharded_engine import (
    _SEQ,
    _VALUE,
    _VER,
    PartitionedEngine,
    stable_hash64,
)

#: Reserved per-child table holding the replicated manifest and journal.
RING_META_TABLE = "__ring__"
_MANIFEST_KEY = "members"
_JOURNAL_KEY = "journal"
_DOWN_KEY = "down"
#: Per-table sequence-index snapshot records: ``idx::<table>``.
_INDEX_KEY_PREFIX = "idx::"

#: Event callback invoked before every durable step of a rebalance; tests
#: inject crashes by raising from it.
RebalanceObserver = Callable[[str], None]


class DegradedRingWarning(UserWarning):
    """Emitted when a replicated ring opens or serves with members missing.

    The ring still answers every read and write from the surviving
    replicas; run :meth:`ConsistentHashEngine.repair` (or a ``rebalance``)
    to re-establish full replication.
    """


class HashRing:
    """A virtual-node consistent-hash ring over member names.

    Deterministic: the ring depends only on the member-name set and the
    virtual-node count (never on insertion order or process state), so two
    processes — or one process before and after a reopen — always agree on
    every key's owner.
    """

    def __init__(self, names: Iterable[str], virtual_nodes: int = 64):
        self.names = sorted(set(names))
        if not self.names:
            raise ValueError("HashRing needs at least one member name")
        self.virtual_nodes = max(1, int(virtual_nodes))
        points: list[tuple[int, str]] = []
        for name in self.names:
            for vnode in range(self.virtual_nodes):
                points.append((stable_hash64(f"{name}#{vnode}"), name))
        # Ties (vanishingly rare) break on the name, keeping the ring a pure
        # function of its inputs.
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def owner(self, key: str) -> str:
        """Return the member name owning *key*."""
        index = bisect.bisect_right(self._hashes, stable_hash64(key))
        if index == len(self._points):
            index = 0  # wrap around the top of the ring
        return self._points[index][1]

    def successors(self, key: str, count: int = 1) -> list[str]:
        """Return *key*'s *count* **distinct** successor members, in ring order.

        The first successor is exactly :meth:`owner`; walking clockwise past
        further virtual points collects the next distinct member names.  The
        replica placement rule of :class:`ConsistentHashEngine` — and, like
        :meth:`owner`, a pure function of the member-name set.

        Raises:
            ConfigurationError: When *count* exceeds the member count — that
                would silently under-replicate, which must never happen.
        """
        if count < 1:
            raise ConfigurationError(f"successor count must be >= 1, got {count}")
        if count > len(self.names):
            raise ConfigurationError(
                f"cannot place {count} replicas across "
                f"{len(self.names)} ring member(s)"
            )
        start = bisect.bisect_right(self._hashes, stable_hash64(key))
        total = len(self._points)
        result: list[str] = []
        seen: set[str] = set()
        for step in range(total):
            name = self._points[(start + step) % total][1]
            if name not in seen:
                seen.add(name)
                result.append(name)
                if len(result) == count:
                    break
        return result


class _SequenceIndex:
    """Per-table scan index: every live key's global sequence number.

    ``entries`` is an append-only ``(seq, key)`` list in ascending sequence
    order (fresh keys always take a new maximal sequence, so appends keep it
    sorted); deletions only drop the key from ``seq_by_key``, leaving a
    tombstone entry that iteration skips when its recorded sequence no
    longer matches.  A key deleted and re-put appends a fresh entry under
    its new sequence, exactly matching the "re-insert moves to the scan
    tail" semantics of every other engine.
    """

    __slots__ = ("seq_by_key", "entries")

    def __init__(self, seq_by_key: dict[str, int]):
        self.seq_by_key = seq_by_key
        self.entries: list[tuple[int, str]] = sorted(
            (seq, key) for key, seq in seq_by_key.items()
        )

    def note_write(self, key: str, seq: int) -> None:
        if self.seq_by_key.get(key) == seq:
            return  # overwrite in place: sequence (scan position) unchanged
        self.seq_by_key[key] = seq
        self.entries.append((seq, key))

    def note_delete(self, key: str) -> None:
        self.seq_by_key.pop(key, None)

    def live_after(self, min_seq: int) -> Iterator[tuple[int, str]]:
        """Yield live (seq, key) entries with seq > *min_seq*, in order."""
        start = bisect.bisect_left(self.entries, (min_seq + 1, ""))
        position = start
        while position < len(self.entries):
            seq, key = self.entries[position]
            position += 1
            if self.seq_by_key.get(key) == seq:
                yield seq, key


class ConsistentHashEngine(PartitionedEngine):
    """Virtual-node hash ring over *named* child engines, with online
    :meth:`rebalance` and R-successor replication."""

    engine_name = "ring"
    _envelope_versions = True

    def __init__(
        self,
        children: Mapping[str, StorageEngine],
        virtual_nodes: int = 64,
        replicas: int = 1,
        rebalance_batch_size: int = 256,
        shard_workers: int = 0,
    ):
        """Wrap *children* (name -> already-open engine).

        On construction the engine reads each child's ``__ring__`` table:

        * a pending rebalance **journal** is resumed to completion before
          the engine serves anything (the crash-recovery path);
        * otherwise the highest-epoch **manifest** is authoritative —
          ``virtual_nodes`` and ``replicas`` are adopted from it, children
          it does not name are closed and dropped, and missing manifest
          members raise :class:`~repro.exceptions.StorageError` unless the
          replica count tolerates them (at most ``replicas - 1`` missing,
          which opens **degraded** with a :class:`DegradedRingWarning`);
        * a member that a surviving down-record accuses of having been
          down is synced from the trusted members before it serves;
        * a fresh set of children (no manifest anywhere) writes the epoch-1
          manifest.

        Args:
            children: Named child engines.  Names are the ring identities:
                reopening must use the same names for the same data.
            virtual_nodes: Ring points per member (ignored in favour of the
                stored manifest when one exists).
            replicas: Copies kept of every key — each key lands on its
                ``replicas`` distinct ring successors.  Like
                ``virtual_nodes``, the stored manifest wins on reopen.
                Must not exceed the member count.
            rebalance_batch_size: Keys migrated per copy/delete wave.
            shard_workers: Threads a ``put_many`` fans per-member child
                transactions out over (0 = serial), as on ``ShardedEngine``.
        """
        if not children:
            raise ValueError("ConsistentHashEngine needs at least one child engine")
        super().__init__(shard_workers=shard_workers)
        self.rebalance_batch_size = max(1, int(rebalance_batch_size))
        self.virtual_nodes = max(1, int(virtual_nodes))
        self.replicas = int(replicas)
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self._children: dict[str, StorageEngine] = dict(children)
        #: Authoritative member names, including members currently down.
        #: The ring is built over this set, so placement never shifts when a
        #: member dies; ``self._children`` holds only the live engines.
        self._membership: set[str] = set(self._children)
        self._indexes: dict[str, _SequenceIndex] = {}
        #: Tables whose in-memory index moved past the durable snapshot.
        self._index_dirty: set[str] = set()
        self._epoch = 1
        # (old ring, retired name -> engine) while a migration is in flight.
        self._pending: tuple[HashRing, dict[str, StorageEngine]] | None = None
        for child in self._children.values():
            child.create_table(RING_META_TABLE)
        journal = self._find_journal()
        if journal is not None:
            self._resume_from_journal(journal)
        else:
            self._adopt_manifest()
        if self.replicas > len(self._membership):
            raise ConfigurationError(
                f"cannot keep {self.replicas} replicas on a ring of "
                f"{len(self._membership)} member(s)"
            )
        self._rebuild_membership()
        self._adopt_member_codec()
        returning = self._returning_members()
        if returning:
            quarantined = {name: self._children.pop(name) for name in returning}
            if len(self._membership - set(self._children)) > self.replicas - 1:
                raise StorageError(
                    f"cannot open: members {sorted(self._membership - set(self._children))} "
                    f"are missing or returning from an outage at once, but "
                    f"replicas={self.replicas} tolerates at most "
                    f"{self.replicas - 1} — some keys would have no trusted copy"
                )
            self._rebuild_membership()
            for name in sorted(quarantined):
                self._sync_member(name, quarantined[name])
                self._children[name] = quarantined[name]
            self._rebuild_membership()
        self._write_down_records()
        if journal is not None:
            self._run_migration(lambda event: None)
            if self.replicas > 1:
                self._repair_pass(lambda event: None)
            self._finalize(lambda event: None)

    # -- membership bookkeeping ------------------------------------------------

    def _rebuild_membership(self) -> None:
        """Recompute the member list and ring after a membership change.

        ``self._members`` (what the merge-scan, table ops and sequence
        recovery iterate) covers the current *live* children plus,
        mid-migration, the retired members still being drained.  The ring
        itself is built over the authoritative ``self._membership`` — down
        members keep their ring points, so a dead member never silently
        re-routes the keys it owns.
        """
        members: list[StorageEngine] = []
        index: dict[str, int] = {}
        for name in sorted(self._children):
            index[name] = len(members)
            members.append(self._children[name])
        if self._pending is not None:
            for name, engine in sorted(self._pending[1].items()):
                index[name] = len(members)
                members.append(engine)
        self._members = members
        self._member_index = index
        self._ring = HashRing(self._membership, self.virtual_nodes)

    def _down_names(self) -> list[str]:
        """Names of the authoritative members with no live engine, sorted."""
        return sorted(self._membership - set(self._children))

    def _find_journal(self) -> dict[str, Any] | None:
        """The in-flight rebalance journal, if any child holds a *current* one.

        A journal left on a member that was down when the transition
        finalized is recognisable: the freshest manifest's epoch has moved
        past the epoch the journal recorded.  Such relics are deleted rather
        than resumed — replaying a finished transition against a newer
        membership would corrupt placement.
        """
        journal: dict[str, Any] | None = None
        manifest_epoch = 0
        for child in self._children.values():
            candidate = child.get(RING_META_TABLE, _JOURNAL_KEY)
            if candidate is not None and (
                journal is None or candidate["epoch"] > journal["epoch"]
            ):
                journal = candidate
            manifest = child.get(RING_META_TABLE, _MANIFEST_KEY)
            if manifest is not None:
                manifest_epoch = max(manifest_epoch, manifest["epoch"])
        if journal is not None and manifest_epoch > journal["epoch"]:
            for child in self._children.values():
                child.delete(RING_META_TABLE, _JOURNAL_KEY)
            return None
        return journal

    def _adopt_manifest(self) -> None:
        manifest: dict[str, Any] | None = None
        for child in self._children.values():
            candidate = child.get(RING_META_TABLE, _MANIFEST_KEY)
            if candidate is not None and (
                manifest is None or candidate["epoch"] > manifest["epoch"]
            ):
                manifest = candidate
        if manifest is None:
            self._epoch = 1
            self._membership = set(self._children)
            if self.replicas > len(self._membership):
                raise ConfigurationError(
                    f"cannot keep {self.replicas} replicas on a ring of "
                    f"{len(self._membership)} member(s)"
                )
            self._write_manifest(self._children)
            return
        self._epoch = manifest["epoch"]
        self.virtual_nodes = manifest["virtual_nodes"]
        self.replicas = int(manifest.get("replicas", 1))
        names = set(manifest["members"])
        missing = sorted(names - set(self._children))
        if len(missing) > self.replicas - 1:
            raise StorageError(
                f"ring manifest (epoch {self._epoch}) names members "
                f"{missing} that were not provided; with replicas="
                f"{self.replicas} at most {self.replicas - 1} may be absent, "
                "or keys would be misrouted or lost"
            )
        if missing:
            warnings.warn(
                DegradedRingWarning(
                    f"opening ring degraded: members {missing} are missing; "
                    f"serving from the surviving replicas (replicas="
                    f"{self.replicas}); run repair() to re-replicate"
                ),
                stacklevel=3,
            )
        self._membership = names
        # Children beyond the manifest are drained ex-members (e.g. a file
        # left on disk by a completed remove): authoritative membership wins.
        for name in sorted(set(self._children) - names):
            self._children.pop(name).close()

    def _write_manifest(self, children: Mapping[str, StorageEngine]) -> None:
        manifest = {
            "epoch": self._epoch,
            "members": sorted(self._membership),
            "virtual_nodes": self.virtual_nodes,
            "replicas": self.replicas,
        }
        for child in children.values():
            child.put(RING_META_TABLE, _MANIFEST_KEY, manifest)

    def _resume_from_journal(self, journal: dict[str, Any]) -> None:
        """Rebuild the in-flight transition recorded by *journal*.

        The caller must provide every engine the journal names (old and new
        members alike) — the drain needs the retired members' data and the
        fallback reads need their engines — except that, with replication,
        up to ``replicas - 1`` of them may be missing (every key keeps a
        surviving copy; the resumed migration plus the repair pass
        re-establish placement from those).
        """
        old_names = set(journal["old"])
        new_names = set(journal["new"])
        self._epoch = journal["epoch"]
        self.virtual_nodes = journal["virtual_nodes"]
        self.replicas = int(journal.get("replicas", 1))
        missing = sorted((old_names | new_names) - set(self._children))
        if len(missing) > self.replicas - 1:
            raise StorageError(
                f"ring journal records an unfinished rebalance involving "
                f"members {missing} that were not provided; with replicas="
                f"{self.replicas} at most {self.replicas - 1} may be absent "
                "— supply the rest so the migration can resume"
            )
        if missing:
            warnings.warn(
                DegradedRingWarning(
                    f"resuming an unfinished rebalance degraded: members "
                    f"{missing} are missing (replicas={self.replicas})"
                ),
                stacklevel=3,
            )
        retired = {
            name: self._children.pop(name)
            for name in sorted(old_names - new_names)
            if name in self._children
        }
        for name in sorted(set(self._children) - new_names):
            # Provided but in neither set: a drained ex-member from an even
            # earlier epoch.  Drop it, as _adopt_manifest would.
            self._children.pop(name).close()
        self._membership = new_names
        self._pending = (HashRing(old_names, self.virtual_nodes), retired)

    # -- down members and returning-member sync --------------------------------

    def _returning_members(self) -> list[str]:
        """Provided members that a surviving down-record accuses.

        A member that was marked down and is now being reopened alongside
        the others missed writes (and deletes) while it was away; it must be
        synced from the trusted members before it may serve reads.
        """
        if self.replicas == 1:
            return []
        accused: set[str] = set()
        for child in self._children.values():
            record = child.get(RING_META_TABLE, _DOWN_KEY)
            if record:
                accused.update(record.get("names", []))
        return sorted(accused & set(self._children) & self._membership)

    def _write_down_records(self) -> None:
        """Replicate the current down set to every live member (R > 1 only)."""
        if self.replicas == 1:
            return
        record = {"names": self._down_names()}
        for child in self._children.values():
            child.put(RING_META_TABLE, _DOWN_KEY, record)

    def _sync_member(self, name: str, engine: StorageEngine) -> None:
        """Bring a returning member in line with the trusted live members.

        Called with *name* still outside ``self._children`` (quarantined),
        so the live children are exactly the trusted set.  Every key the
        member should hold (under the *current* ring — a resumed migration's
        waves and repair pass fill in the rest) is copied at the trusted
        freshest version; keys it holds that the trusted members deleted
        (zombies) or that it no longer owns are removed; stale tables are
        dropped and missing ones created.  Finally the trusted metadata
        records are mirrored verbatim, erasing any relic manifest/journal.
        """
        engine.create_table(RING_META_TABLE)
        trusted_tables = self.list_tables()
        for table_name in engine.list_tables():
            if table_name != RING_META_TABLE and table_name not in trusted_tables:
                engine.drop_table(table_name)
        # One durability barrier for the whole sync — it is idempotent, so a
        # crash mid-sync just reruns it at the next open.
        with engine.write_group():
            for table_name in trusted_tables:
                engine.create_table(table_name)
                wanted: dict[str, Any] = {}
                for peer in self._members:
                    if not peer.has_table(table_name):
                        continue
                    cursor: str | None = None
                    while True:
                        page = list(
                            peer.scan(
                                table_name,
                                limit=self._merge_page_size,
                                start_after=cursor,
                            )
                        )
                        for record in page:
                            if name not in self._replica_names(record.key):
                                continue
                            best = wanted.get(record.key)
                            if best is None or record.value[_VER] > best[_VER]:
                                wanted[record.key] = record.value
                        if len(page) < self._merge_page_size:
                            break
                        cursor = page[-1].key
                stale: list[str] = []
                current_versions: dict[str, int] = {}
                cursor = None
                while True:
                    page = list(
                        engine.scan(
                            table_name, limit=self._merge_page_size, start_after=cursor
                        )
                    )
                    for record in page:
                        if record.key in wanted:
                            current_versions[record.key] = record.value[_VER]
                        else:
                            stale.append(record.key)
                    if len(page) < self._merge_page_size:
                        break
                    cursor = page[-1].key
                engine.delete_many(table_name, stale)
                to_copy = [
                    (key, envelope)
                    for key, envelope in wanted.items()
                    if current_versions.get(key) != envelope[_VER]
                ]
                for start in range(0, len(to_copy), self.rebalance_batch_size):
                    engine.put_many(
                        table_name, to_copy[start : start + self.rebalance_batch_size]
                    )
        # Mirror the trusted metadata verbatim — manifest, journal, down set
        # *and* index snapshots — and erase relic records the trusted members
        # no longer hold (a stale journal, or a snapshot of a dropped table).
        trusted = self._children[sorted(self._children)[0]]
        trusted_meta = {
            record.key: record.value for record in trusted.scan(RING_META_TABLE)
        }
        for meta_key in [record.key for record in engine.scan(RING_META_TABLE)]:
            if meta_key not in trusted_meta:
                engine.delete(RING_META_TABLE, meta_key)
        for meta_key in sorted(trusted_meta):
            engine.put(RING_META_TABLE, meta_key, trusted_meta[meta_key])

    def mark_down(self, name: str) -> None:
        """Retire the live member *name* in place (the member-kill model).

        The member keeps its ring points — placement does not shift — but no
        further read or write touches it: every key it holds fails over to
        its surviving replicas.  Its engine object is **abandoned, not
        closed** (a SIGKILLed process gets no clean shutdown either); the
        caller owns whatever is left of it.  The down set is persisted to
        the survivors so a later reopen recognises the member as returning
        and syncs it before it serves.

        Raises:
            StorageError: When *name* is not a live member, or when marking
                it down would exceed the ``replicas - 1`` members the ring
                can lose without orphaning keys.
        """
        if name not in self._children:
            raise StorageError(f"unknown or already-down ring member {name!r}")
        down_after = len(self._down_names()) + 1
        if down_after > self.replicas - 1:
            raise StorageError(
                f"cannot mark ring member {name!r} down: replicas="
                f"{self.replicas} tolerates at most {self.replicas - 1} "
                f"missing member(s) and {down_after} would be missing"
            )
        self._children.pop(name)
        self._rebuild_membership()
        self._write_down_records()

    # -- routing with replication and migration fallback -----------------------

    def _replica_names(self, key: str) -> list[str]:
        """The key's full replica set (live or not), in ring order."""
        if self.replicas == 1:
            return [self._ring.owner(key)]
        return self._ring.successors(key, self.replicas)

    def _owner_index(self, key: str) -> int:
        for name in self._replica_names(key):
            if name in self._children:
                return self._member_index[name]
        raise StorageError(
            f"no live replica available for key {key!r}"
        )  # pragma: no cover — the down-count bound keeps one replica live

    def _write_indexes(self, key: str) -> list[int]:
        indexes = [
            self._member_index[name]
            for name in self._replica_names(key)
            if name in self._children
        ]
        if not indexes:  # pragma: no cover — see _owner_index
            raise StorageError(f"no live replica available for key {key!r}")
        return indexes

    def _old_replica_engines(self, key: str) -> list[StorageEngine]:
        """Mid-migration fallback readers: the key's *old*-ring replicas that
        are not already part of its current replica set."""
        if self._pending is None:
            return []
        old_ring, retired = self._pending
        if self.replicas == 1:
            old_names = [old_ring.owner(key)]
        else:
            old_names = old_ring.successors(key, min(self.replicas, len(old_ring.names)))
        current = set(self._replica_names(key))
        engines: list[StorageEngine] = []
        for name in old_names:
            if name in current:
                continue
            engine = retired.get(name) or self._children.get(name)
            if engine is not None:
                engines.append(engine)
        return engines

    def _require_table(self, table_name: str) -> None:
        # The reserved metadata table is invisible through the facade: its
        # records are not enveloped, so letting any data operation reach it
        # would crash on a missing sequence field (or corrupt the journal).
        if table_name == RING_META_TABLE:
            raise TableNotFoundError(table_name)
        super()._require_table(table_name)

    def _read_envelope_record(self, table_name: str, key: str) -> Record | None:
        if table_name == RING_META_TABLE:
            raise TableNotFoundError(table_name)
        record: Record | None = None
        if self.replicas == 1:
            record = self._owner(key).get_record(table_name, key)
        else:
            # Read-any-fresh: the highest logical version among the live
            # replicas wins, so a torn multi-replica write reads the same
            # everywhere.
            for name in self._replica_names(key):
                engine = self._children.get(name)
                if engine is None:
                    continue
                candidate = engine.get_record(table_name, key)
                if candidate is not None and (
                    record is None or candidate.value[_VER] > record.value[_VER]
                ):
                    record = candidate
        if record is None:
            for engine in self._old_replica_engines(key):
                candidate = engine.get_record(table_name, key)
                if candidate is not None and (
                    record is None or candidate.value[_VER] > record.value[_VER]
                ):
                    record = candidate
        return record

    def _bulk_lookup_envelopes(self, table_name: str, keys) -> dict[str, Any]:
        sentinel = object()
        if self.replicas == 1:
            found = super()._bulk_lookup_envelopes(table_name, keys)
        else:
            by_member: dict[str, list[str]] = {}
            for key in keys:
                for name in self._replica_names(key):
                    if name in self._children:
                        by_member.setdefault(name, []).append(key)
            found: dict[str, Any] = {}
            for name, member_keys in by_member.items():
                envelopes = self._children[name].get_many(
                    table_name, member_keys, default=sentinel
                )
                for key, envelope in zip(member_keys, envelopes):
                    if envelope is sentinel:
                        continue
                    best = found.get(key)
                    if best is None or envelope[_VER] > best[_VER]:
                        found[key] = envelope
        if self._pending is not None:
            misses = [key for key in keys if key not in found]
            for key in misses:
                for engine in self._old_replica_engines(key):
                    envelope = engine.get(table_name, key, default=sentinel)
                    if envelope is sentinel:
                        continue
                    best = found.get(key)
                    if best is None or envelope[_VER] > best[_VER]:
                        found[key] = envelope
        return found

    def delete(self, table_name: str, key: str) -> bool:
        if table_name == RING_META_TABLE:
            raise TableNotFoundError(table_name)
        deleted = False
        for name in self._replica_names(key):
            engine = self._children.get(name)
            if engine is not None:
                deleted = engine.delete(table_name, key) or deleted
        for engine in self._old_replica_engines(key):
            # Mid-migration both copies must go, or the stale one would be
            # "resurrected" by the fallback read (and by the drain wave).
            deleted = engine.delete(table_name, key) or deleted
        if deleted:
            self._note_delete(table_name, key)
        return deleted

    def _note_delete(self, table_name: str, key: str) -> None:
        index = self._indexes.get(table_name)
        if index is not None:
            index.note_delete(key)
            self._index_dirty.add(table_name)

    def delete_many(self, table_name: str, keys: Iterable[str]) -> int:
        if table_name == RING_META_TABLE:
            raise TableNotFoundError(table_name)
        self._require_table(table_name)
        distinct = list(dict.fromkeys(keys))
        if not distinct:
            return 0
        present = self._bulk_lookup_envelopes(table_name, distinct)
        per_member: dict[str, list[str]] = {}
        for key in distinct:
            for name in self._replica_names(key):
                if name in self._children:
                    per_member.setdefault(name, []).append(key)
        for name in sorted(per_member):
            self._children[name].delete_many(table_name, per_member[name])
        if self._pending is not None:
            # Mid-migration the old-ring copies must go too (see delete()).
            old_batches: dict[int, tuple[StorageEngine, list[str]]] = {}
            for key in distinct:
                for engine in self._old_replica_engines(key):
                    old_batches.setdefault(id(engine), (engine, []))[1].append(key)
            for engine, old_keys in old_batches.values():
                engine.delete_many(table_name, old_keys)
        for key in present:
            self._note_delete(table_name, key)
        return len(present)

    # -- the sequence index and the scans it serves ----------------------------

    def _index(self, table_name: str) -> _SequenceIndex:
        """The table's sequence index, loaded from its durable snapshot when
        one validates, else rebuilt from the children.

        The rebuild is one full pass per member per open; a key found at two
        owners (the mid-migration window) or at several replicas collapses
        naturally because every copy carries the same sequence number.
        Writes and deletes afterwards maintain the index incrementally, and
        migration never touches it — moving a key changes neither its
        sequence nor its liveness.
        """
        index = self._indexes.get(table_name)
        if index is None:
            self._require_table(table_name)
            index = self._load_index_snapshot(table_name)
            if index is None:
                seq_by_key: dict[str, int] = {}
                for member in self._members:
                    if not member.has_table(table_name):
                        continue
                    cursor: str | None = None
                    while True:
                        page = list(
                            member.scan(
                                table_name,
                                limit=self._merge_page_size,
                                start_after=cursor,
                            )
                        )
                        for record in page:
                            seq_by_key[record.key] = record.value[_SEQ]
                        if len(page) < self._merge_page_size:
                            break
                        cursor = page[-1].key
                index = _SequenceIndex(seq_by_key)
                # Persist what the rebuild paid for at the next flush/close.
                self._index_dirty.add(table_name)
            self._indexes[table_name] = index
        return index

    def _load_index_snapshot(self, table_name: str) -> _SequenceIndex | None:
        """Load and validate the table's ``idx::`` snapshot, or ``None``.

        Returning ``None`` means "pay the full rebuild" — the safe answer
        whenever the snapshot cannot be *proven* to replay to the exact
        index the rebuild would produce (see the module docstring for the
        validation rules).
        """
        if self._pending is not None:
            return None  # mid-migration: the dual-owner world needs the rebuild
        snapshot: dict[str, Any] | None = None
        for name in sorted(self._children):
            snapshot = self._children[name].get(
                RING_META_TABLE, _INDEX_KEY_PREFIX + table_name
            )
            if snapshot is not None:
                break
        if not snapshot or snapshot.get("epoch") != self._epoch:
            return None  # no snapshot, or a rebalance moved the epoch past it
        members: dict[str, Any] = snapshot.get("members", {})
        if set(members) != set(self._children):
            return None  # degraded open or membership drift: counts unprovable
        replayed: list[tuple[int, str]] = []
        for name in sorted(members):
            engine = self._children[name]
            info = members[name]
            if not engine.has_table(table_name):
                if info["count"]:
                    return None  # the member lost a table it had records in
                continue
            fresh = 0
            cursor: str | None = info["tail"]
            try:
                while True:
                    page = list(
                        engine.scan(
                            table_name,
                            limit=self._merge_page_size,
                            start_after=cursor,
                        )
                    )
                    for record in page:
                        replayed.append((record.value[_SEQ], record.key))
                        fresh += 1
                    if len(page) < self._merge_page_size:
                        break
                    cursor = page[-1].key
            except UnknownCursorError:
                return None  # the tail key was deleted since the snapshot
            if engine.count(table_name) != info["count"] + fresh:
                return None  # a delete landed behind the snapshot's back
        index = _SequenceIndex(dict(zip(snapshot["keys"], snapshot["seqs"])))
        # Replays across members interleave by sequence, so sort before
        # appending — entries must stay sequence-ascending for the scans'
        # bisect.  Replica copies of one key collapse via note_write.
        for seq, key in sorted(replayed):
            index.note_write(key, seq)
        if replayed:
            # The snapshot is provably stale; refresh it at the next
            # flush/close so future reopens stop re-paying this replay.
            self._index_dirty.add(table_name)
        return index

    def _write_index_snapshots(self) -> None:
        """Persist every dirty table's sequence index to the live members."""
        if self._pending is not None:
            return  # never snapshot the dual-owner window
        for table_name in sorted(self._index_dirty & set(self._indexes)):
            index = self._indexes[table_name]
            keys: list[str] = []
            seqs: list[int] = []
            for seq, key in index.live_after(0):
                keys.append(key)
                seqs.append(seq)
            members: dict[str, dict[str, Any]] = {}
            for name in sorted(self._children):
                engine = self._children[name]
                if engine.has_table(table_name):
                    members[name] = {
                        "count": engine.count(table_name),
                        "tail": self._last_key(engine, table_name),
                    }
                else:
                    members[name] = {"count": 0, "tail": None}
            snapshot = {
                "epoch": self._epoch,
                "keys": keys,
                "seqs": seqs,
                "members": members,
            }
            for name in sorted(self._children):
                self._children[name].put(
                    RING_META_TABLE, _INDEX_KEY_PREFIX + table_name, snapshot
                )
            self._index_dirty.discard(table_name)

    def _note_write(self, table_name: str, key: str, envelope: dict[str, Any]) -> None:
        index = self._indexes.get(table_name)
        if index is not None:
            index.note_write(key, envelope[_SEQ])
            self._index_dirty.add(table_name)

    def _allocate_seq(self, table_name: str, count: int = 1) -> int:
        # The sharded recovery ("a member's last record holds its largest
        # sequence") assumes child physical order is sequence order, which a
        # past migration breaks; recover from the index instead, whose tail
        # entry is the true maximum even if its key was since deleted.
        next_seq = self._next_seq.get(table_name)
        if next_seq is None:
            entries = self._index(table_name).entries
            next_seq = entries[-1][0] + 1 if entries else 1
        self._next_seq[table_name] = next_seq + count
        return next_seq

    def _resolve_cursor(self, table_name: str, start_after: str | None) -> int:
        if start_after is None:
            return 0
        seq = self._index(table_name).seq_by_key.get(start_after)
        if seq is None:
            raise UnknownCursorError(table_name, start_after)
        return seq

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        if limit is not None and limit < 0:
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        self._require_table(table_name)
        min_seq = self._resolve_cursor(table_name, start_after)
        if limit == 0:
            return
        remaining = limit

        def pages() -> Iterator[list[str]]:
            page: list[str] = []
            budget = remaining
            for _, key in self._index(table_name).live_after(min_seq):
                page.append(key)
                if budget is not None:
                    budget -= 1
                    if budget == 0:
                        break
                if len(page) == self._merge_page_size:
                    yield page
                    page = []
            if page:
                yield page

        for page_keys in pages():
            # The dual-owner bulk lookup keeps mid-migration reads exact.
            envelopes = self._bulk_lookup_envelopes(table_name, page_keys)
            for key in page_keys:
                envelope = envelopes.get(key)
                if envelope is not None:
                    yield Record(
                        key=key, value=envelope[_VALUE], version=envelope[_VER]
                    )

    def scan_keys(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> list[str]:
        if limit is not None and limit < 0:
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        self._require_table(table_name)
        min_seq = self._resolve_cursor(table_name, start_after)
        if limit == 0:
            return []
        keys: list[str] = []
        for _, key in self._index(table_name).live_after(min_seq):
            keys.append(key)
            if limit is not None and len(keys) == limit:
                break
        return keys

    def count(self, table_name: str) -> int:
        self._require_table(table_name)
        return len(self._index(table_name).seq_by_key)

    # -- table management (hide the reserved table) ----------------------------

    def list_tables(self) -> list[str]:
        return [name for name in super().list_tables() if name != RING_META_TABLE]

    def drop_table(self, table_name: str) -> None:
        if table_name == RING_META_TABLE:
            raise StorageError(f"{RING_META_TABLE!r} is reserved for ring metadata")
        super().drop_table(table_name)
        self._indexes.pop(table_name, None)
        self._index_dirty.discard(table_name)
        for child in self._children.values():
            child.delete(RING_META_TABLE, _INDEX_KEY_PREFIX + table_name)

    # -- lifecycle: persist the indexes alongside the data ---------------------

    def flush(self) -> None:
        self._write_index_snapshots()
        super().flush()

    def close(self) -> None:
        if not self._closed:
            self._write_index_snapshots()
        super().close()

    # -- repair (re-replication) -----------------------------------------------

    def repair(self, on_event: RebalanceObserver | None = None) -> dict[str, Any]:
        """Re-establish the R-successor invariant across the live members.

        For every table, every key's freshest envelope (highest logical
        version among the live copies) is written to each *live* member of
        its replica set that lacks it or holds an older version, and copies
        sitting on live members outside the replica set are dropped.  This
        is the healing pass after a degraded window: writes issued while a
        member was down only reached the surviving replicas, and a torn
        multi-replica write can leave versions divergent.

        Idempotent and crash-safe: every step rewrites state derivable from
        the data, so rerunning after an interruption converges.

        Args:
            on_event: Optional observer called with ``repair:...`` /
                ``repair-drop:...`` labels before each durable step (the
                same crash-injection hook :meth:`rebalance` offers).

        Returns:
            A report: ``keys_copied``, ``keys_dropped``, ``tables``
            (per-table counts).

        Raises:
            StorageError: While a rebalance is in flight (its own repair
                pass runs as part of the transition).
        """
        if self._pending is not None:
            raise StorageError(
                "cannot repair while a rebalance is in flight; the "
                "transition runs its own repair pass before finalizing"
            )
        return self._repair_pass(on_event or (lambda event: None))

    def _repair_pass(self, notify: RebalanceObserver) -> dict[str, Any]:
        keys_copied = 0
        keys_dropped = 0
        per_table: dict[str, dict[str, int]] = {}
        for table_name in self.list_tables():
            held: dict[str, dict[str, Any]] = {}
            for name in sorted(self._children):
                engine = self._children[name]
                engine.create_table(table_name)
                envelopes: dict[str, Any] = {}
                cursor: str | None = None
                while True:
                    page = list(
                        engine.scan(
                            table_name,
                            limit=self._merge_page_size,
                            start_after=cursor,
                        )
                    )
                    for record in page:
                        envelopes[record.key] = record.value
                    if len(page) < self._merge_page_size:
                        break
                    cursor = page[-1].key
                held[name] = envelopes
            freshest: dict[str, Any] = {}
            for envelopes in held.values():
                for key, envelope in envelopes.items():
                    best = freshest.get(key)
                    if best is None or envelope[_VER] > best[_VER]:
                        freshest[key] = envelope
            copies: dict[str, list[tuple[str, Any]]] = {}
            drops: dict[str, list[str]] = {}
            for key, envelope in freshest.items():
                replica_set = set(self._replica_names(key))
                for name in replica_set:
                    if name not in self._children:
                        continue
                    current = held[name].get(key)
                    if current is None or current[_VER] < envelope[_VER]:
                        copies.setdefault(name, []).append((key, envelope))
                for name, envelopes in held.items():
                    if key in envelopes and name not in replica_set:
                        drops.setdefault(name, []).append(key)
            copied_in_table = 0
            dropped_in_table = 0
            for name in sorted(copies):
                batch = copies[name]
                for start in range(0, len(batch), self.rebalance_batch_size):
                    wave = batch[start : start + self.rebalance_batch_size]
                    notify(f"repair:{table_name}:{name}")
                    engine = self._children.get(name)
                    if engine is None:
                        continue  # marked down by the observer itself
                    engine.put_many(table_name, wave)
                    copied_in_table += len(wave)
            for name in sorted(drops):
                notify(f"repair-drop:{table_name}:{name}")
                engine = self._children.get(name)
                if engine is None:
                    continue
                engine.delete_many(table_name, drops[name])
                dropped_in_table += len(drops[name])
            if copied_in_table or dropped_in_table:
                per_table[table_name] = {
                    "copied": copied_in_table,
                    "dropped": dropped_in_table,
                }
            keys_copied += copied_in_table
            keys_dropped += dropped_in_table
        return {
            "keys_copied": keys_copied,
            "keys_dropped": keys_dropped,
            "tables": per_table,
        }

    # -- rebalance -------------------------------------------------------------

    def rebalance(
        self,
        add: Mapping[str, StorageEngine] | None = None,
        remove: Iterable[str] | None = None,
        on_event: RebalanceObserver | None = None,
    ) -> dict[str, Any]:
        """Change the ring membership online, migrating only displaced keys.

        Args:
            add: New members (name -> already-open engine) to join the ring.
            remove: Names of current members to drain and retire; their
                engines are closed once empty.  A member currently marked
                down may be removed too (dead-member replacement) — its
                surviving replicas provide the data.
            on_event: Test hook called with a label *before* every durable
                step (journal writes, copy waves, delete waves, repair
                steps, manifest writes, journal clears).  Raising from it
                models a crash in that exact window; reconstructing the
                engine over the same children resumes and completes the
                migration.

        Returns:
            A report: ``keys_moved``, ``tables`` (per-table move counts),
            ``waves``, ``added``, ``removed``, ``epoch``.

        Reads and writes issued from ``on_event`` (or, more generally,
        interleaved with the waves by a single-threaded caller) see a
        consistent view throughout: writes route by the new ring, reads
        fall back to the old replicas, scans deduplicate the one window
        where both copies exist.
        """
        add = dict(add or {})
        remove = sorted(set(remove or []))
        notify = on_event or (lambda event: None)

        if self._pending is not None:
            raise StorageError(
                "a rebalance is already in flight; reconstruct the engine "
                "over the same children to resume it before starting another"
            )
        for name in add:
            if name in self._membership:
                raise StorageError(f"ring member {name!r} already exists")
        for name in remove:
            if name not in self._membership:
                raise StorageError(f"cannot remove unknown ring member {name!r}")
            if name in add:
                raise StorageError(f"cannot both add and remove member {name!r}")
        if not add and not remove:
            raise StorageError("rebalance needs at least one member to add or remove")
        survivors = self._membership - set(remove) | set(add)
        if not survivors:
            raise StorageError("rebalance would leave the ring with no members")
        if len(survivors) < self.replicas:
            raise StorageError(
                f"rebalance would leave {len(survivors)} member(s), fewer "
                f"than the {self.replicas} replicas every key needs"
            )
        down_after = {name for name in survivors if name not in self._children and name not in add}
        if len(down_after) > self.replicas - 1:
            raise StorageError(
                f"rebalance would leave members {sorted(down_after)} down at "
                f"once, more than replicas={self.replicas} tolerates"
            )

        old_names = sorted(self._membership)
        new_names = sorted(survivors)

        # Prepare joiners: the reserved table plus every existing data table
        # must exist before any copy or scan touches them.
        tables = self.list_tables()
        for engine in add.values():
            engine.create_table(RING_META_TABLE)
            for table_name in tables:
                engine.create_table(table_name)

        journal = {
            "epoch": self._epoch,
            "old": old_names,
            "new": new_names,
            "virtual_nodes": self.virtual_nodes,
            "replicas": self.replicas,
        }
        # The journal must be durable on every member *before* any write
        # routes by the new ring: if a journal write fails here, the live
        # engine is still entirely on the old membership (a reopen that
        # finds a partial journal simply rolls the transition forward).
        # Flipping routing first would let a caller who caught the failure
        # keep writing to a joiner that a journal-less reopen then drops.
        for name in sorted(set(old_names) | set(new_names)):
            engine = self._children.get(name) or add.get(name)
            if engine is None:
                continue  # a down member; it will be synced when it returns
            notify(f"journal:{name}")
            engine.put(RING_META_TABLE, _JOURNAL_KEY, journal)

        # From here writes route by the new ring; reads fall back via
        # self._pending until the drain completes.
        retired = {
            name: self._children.pop(name) for name in remove if name in self._children
        }
        self._children.update(add)
        self._membership = set(new_names)
        self._pending = (HashRing(old_names, self.virtual_nodes), retired)
        self._rebuild_membership()

        report = self._run_migration(notify)
        if self.replicas > 1:
            report["repair"] = self._repair_pass(notify)
        self._finalize(notify)
        report.update(added=sorted(add), removed=remove, epoch=self._epoch)
        return report

    def _run_migration(self, notify: RebalanceObserver) -> dict[str, Any]:
        """Drain every key whose ring placement changed, in batched waves.

        The work list is re-derived from the data (keys still sitting at a
        member that no longer holds a replica of them), which is what makes
        a resumed migration converge without progress cursors: completed
        waves left nothing behind to enumerate.
        """
        old_ring, retired = self._pending
        source_names = set(retired) | (set(old_ring.names) & set(self._children))

        keys_moved = 0
        waves = 0
        per_table: dict[str, int] = {}
        for table_name in self.list_tables():
            moved_in_table = 0
            for source_name in sorted(source_names):
                source = retired.get(source_name) or self._children.get(source_name)
                if source is None:
                    continue  # marked down mid-transition; repair heals it
                if not source.has_table(table_name):
                    continue
                displaced = self._displaced_keys(source, source_name, table_name)
                for start in range(0, len(displaced), self.rebalance_batch_size):
                    if (
                        source_name not in retired
                        and source_name not in self._children
                    ):
                        break  # the observer marked this source down mid-wave
                    wave = displaced[start : start + self.rebalance_batch_size]
                    waves += 1
                    moved_in_table += self._migrate_wave(
                        notify, table_name, source_name, source, wave
                    )
            if moved_in_table:
                per_table[table_name] = moved_in_table
            keys_moved += moved_in_table
        return {"keys_moved": keys_moved, "waves": waves, "tables": per_table}

    def _displaced_keys(
        self, source: StorageEngine, source_name: str, table_name: str
    ) -> list[str]:
        """Keys at *source* that the new ring places on other members only."""
        displaced: list[str] = []
        cursor: str | None = None
        while True:
            page = source.scan_keys(
                table_name, limit=self._merge_page_size, start_after=cursor
            )
            displaced.extend(
                key for key in page if source_name not in self._replica_names(key)
            )
            if len(page) < self._merge_page_size:
                return displaced
            cursor = page[-1]

    def _migrate_wave(
        self,
        notify: RebalanceObserver,
        table_name: str,
        source_name: str,
        source: StorageEngine,
        wave: list[str],
    ) -> int:
        """Copy one wave to its destinations, then delete it from the source.

        ``if_absent=True`` on the copy keeps two invariants: a replayed wave
        (crash between copy and delete) is a no-op, and a *fresh* write that
        landed at the destination during the migration is never clobbered by
        the stale source copy.  With replication each key is copied to every
        *live* member of its new replica set; the down-count bound
        guarantees at least one is live before the source copy is drained.
        """
        sentinel = object()
        envelopes = source.get_many(table_name, wave, default=sentinel)
        by_destination: dict[str, list[tuple[str, Any]]] = {}
        present: list[str] = []
        for key, envelope in zip(wave, envelopes):
            if envelope is sentinel:
                continue  # deleted (or already drained) since enumeration
            destinations = [
                name for name in self._replica_names(key) if name in self._children
            ]
            if not destinations:
                continue  # pragma: no cover — the down-count bound
            present.append(key)
            for destination_name in destinations:
                by_destination.setdefault(destination_name, []).append(
                    (key, envelope)
                )
        for destination_name in sorted(by_destination):
            if destination_name not in self._children:
                continue  # marked down since the wave was grouped
            notify(f"copy:{table_name}:{source_name}->{destination_name}")
            destination = self._children.get(destination_name)
            if destination is None:
                continue  # marked down by the observer itself
            # One batch, one commit, per destination per wave — and the copy
            # is durable before the drain below erases the source's copy.
            destination.put_many(
                table_name, by_destination[destination_name], if_absent=True
            )
        if present:
            notify(f"drain:{table_name}:{source_name}")
            drain_source = (
                self._pending[1].get(source_name)
                if self._pending is not None
                else None
            ) or self._children.get(source_name)
            if drain_source is not None:
                # One batched delete — one commit per wave instead of one
                # per key.
                drain_source.delete_many(table_name, present)
        return len(present)

    def _finalize(self, notify: RebalanceObserver) -> None:
        """Commit the new membership: manifest at epoch+1, journals cleared,
        retired members closed.

        Order matters for crash windows: the current members' journals are
        cleared only after every one of them holds the new manifest, and the
        retired members' journals go last — so any crash mid-finalize leaves
        at least one journal copy alive until the rest of the state is
        consistent, and a reopen (with or without the drained ex-members)
        converges.
        """
        _, retired = self._pending
        self._epoch += 1
        manifest = {
            "epoch": self._epoch,
            "members": sorted(self._membership),
            "virtual_nodes": self.virtual_nodes,
            "replicas": self.replicas,
        }
        for name in sorted(self._children):
            notify(f"manifest:{name}")
            engine = self._children.get(name)
            if engine is not None:
                engine.put(RING_META_TABLE, _MANIFEST_KEY, manifest)
        for name in sorted(self._children):
            notify(f"clear:{name}")
            engine = self._children.get(name)
            if engine is not None:
                engine.delete(RING_META_TABLE, _JOURNAL_KEY)
        for name in sorted(retired):
            notify(f"clear:{name}")
            retired[name].delete(RING_META_TABLE, _JOURNAL_KEY)
        self._pending = None
        self._rebuild_membership()
        self._write_down_records()
        for engine in retired.values():
            engine.close()

    # -- introspection ---------------------------------------------------------

    @property
    def member_names(self) -> list[str]:
        """Names of the live ring members, sorted."""
        return sorted(self._children)

    @property
    def down_members(self) -> list[str]:
        """Names of the authoritative members currently down, sorted."""
        return self._down_names()

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["virtual_nodes"] = self.virtual_nodes
        description["epoch"] = self._epoch
        description["replicas"] = self.replicas
        description["down"] = self._down_names()
        description["members"] = {
            name: {
                "engine": child.engine_name,
                "records": sum(
                    count
                    for table, count in child.describe()["tables"].items()
                    if table != RING_META_TABLE
                ),
            }
            for name, child in sorted(self._children.items())
        }
        return description
