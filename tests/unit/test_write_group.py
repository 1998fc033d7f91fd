"""``StorageEngine.write_group()``: one durability barrier per logical write.

A group scopes several write batches to one barrier — a sqlite commit, a
log-engine write+fsync — paid when the outermost group exits; engines with
no multi-batch barrier keep the no-op.  Proofs:

* engine level — on every registry engine a grouped wave leaves
  byte-identical state to the serial (per-batch barrier) run, durably: the
  durable engines are reopened and compared too;
* visibility — grouped writes are readable on the same handle before the
  barrier and invisible to another handle until it;
* scope — groups nest and commit once, at the outermost exit; an empty group
  costs no barrier; a group left by an exception commits the prefix it
  wrote; a handle abandoned inside a group has written none of it (log
  engine, whose reopen-from-disk is exact with the dead handle in scope);
* threads — another thread's write waits for the group, it does not join it;
* the failed-write fix — a lost ``put_new`` outside a group ends the
  transaction its ``INSERT`` opened instead of keeping the file's write lock.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.exceptions import DuplicateKeyError
from repro.storage import LogStructuredEngine, SqliteEngine
from repro.storage.testing import DURABLE_ENGINE_NAMES, ENGINE_NAMES, build_engine

TABLE = "t"


def wave_ops(engine):
    """One multi-batch write wave: inserts, overwrites, deletes."""
    engine.create_table(TABLE)
    engine.put_many(TABLE, [(f"a{i:02d}", {"i": i}) for i in range(8)])
    engine.put_many(TABLE, [("a03", {"i": 3, "rev": 2}), ("b00", {"x": 0})])
    engine.put_new(TABLE, "c00", [1])
    assert engine.delete_many(TABLE, ["a01", "a05", "missing"]) == 2
    assert engine.delete(TABLE, "a07")


def engine_state(engine):
    return [(r.key, r.value, r.version) for r in engine.scan(TABLE)]


@pytest.fixture
def statements(sqlite_engine):
    """Every SQL statement the engine's connection runs, in order."""
    seen = []
    sqlite_engine._conn.set_trace_callback(seen.append)
    yield seen
    sqlite_engine._conn.set_trace_callback(None)


@pytest.fixture
def other_handle(sqlite_engine):
    """A second connection on the same file, opened before any write lock."""
    other = SqliteEngine(sqlite_engine.path)
    yield other
    other.close()


class TestGroupedWaveEqualsSerialWrites:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_same_state_now_and_after_reopen(self, name, tmp_path):
        serial = build_engine(name, tmp_path / "serial")
        group = build_engine(name, tmp_path / "group")
        wave_ops(serial)
        with group.write_group():
            wave_ops(group)
        expected = engine_state(serial)
        assert engine_state(group) == expected

        serial.close()
        group.close()
        if name in DURABLE_ENGINE_NAMES:
            assert engine_state(build_engine(name, tmp_path / "serial")) == expected
            assert engine_state(build_engine(name, tmp_path / "group")) == expected


class TestSqliteGroup:
    def test_writes_are_visible_inside_and_land_at_the_exit(
        self, sqlite_engine, other_handle, statements
    ):
        sqlite_engine.create_table(TABLE)
        del statements[:]
        items = [(f"k{i:03d}", {"i": i}) for i in range(50)]
        with sqlite_engine.write_group():
            records = sqlite_engine.put_many(TABLE, items, if_absent=True)
            sqlite_engine.delete_many(TABLE, ["k000"])
            assert sqlite_engine.get(TABLE, "k001") == {"i": 1}
            assert sqlite_engine.get(TABLE, "k000") is None
            assert sqlite_engine.count(TABLE) == 49
            # The change-count fast path of put_many(if_absent) is the same.
            assert [r.value for r in records] == [value for _, value in items]
            assert not [s for s in statements if s.startswith("SELECT key,")]
            assert other_handle.count(TABLE) == 0  # not visible elsewhere yet
            assert "COMMIT" not in statements
        assert statements.count("COMMIT") == 1
        assert other_handle.count(TABLE) == 49
        assert other_handle.get_record(TABLE, "k049") == records[49]

    def test_nested_groups_commit_once_at_the_outermost_exit(
        self, sqlite_engine, other_handle, statements
    ):
        with sqlite_engine.write_group():
            sqlite_engine.create_table(TABLE)
            with sqlite_engine.write_group():
                sqlite_engine.put(TABLE, "inner", 1)
                with sqlite_engine.write_group():
                    sqlite_engine.put(TABLE, "innermost", 2)
            assert "COMMIT" not in statements
            sqlite_engine.put(TABLE, "outer", 3)
            assert not other_handle.has_table(TABLE)
        assert statements.count("COMMIT") == 1
        assert other_handle.keys(TABLE) == ["inner", "innermost", "outer"]
        # The engine is back to one commit per write.
        sqlite_engine.put(TABLE, "after", 4)
        assert statements.count("COMMIT") == 2

    def test_an_empty_group_issues_no_statement(self, sqlite_engine, statements):
        sqlite_engine.create_table(TABLE)
        del statements[:]
        with sqlite_engine.write_group():
            assert sqlite_engine.count(TABLE) == 0  # reads only
        with sqlite_engine.write_group():
            pass
        assert [s for s in statements if not s.startswith("SELECT")] == []
        assert not sqlite_engine._conn.in_transaction

    def test_an_exception_commits_the_prefix(self, sqlite_engine, other_handle):
        sqlite_engine.create_table(TABLE)
        with pytest.raises(RuntimeError):
            with sqlite_engine.write_group():
                sqlite_engine.put_many(TABLE, [("a", 1), ("b", 2)])
                sqlite_engine.put(TABLE, "c", 3)
                raise RuntimeError("the verb failed here")
        assert not sqlite_engine._conn.in_transaction
        assert other_handle.keys(TABLE) == ["a", "b", "c"]
        sqlite_engine.put(TABLE, "d", 4)  # and the engine is usable
        assert other_handle.count(TABLE) == 4

    def test_a_second_threads_write_waits_for_the_group(
        self, sqlite_engine, statements
    ):
        sqlite_engine.create_table(TABLE)
        del statements[:]
        started, done = threading.Event(), threading.Event()

        def writer():
            started.set()
            sqlite_engine.put(TABLE, "theirs", 2)
            done.set()

        thread = threading.Thread(target=writer)
        with sqlite_engine.write_group():
            sqlite_engine.put(TABLE, "mine-1", 1)
            thread.start()
            assert started.wait(5)
            assert not done.wait(0.2)  # blocked on the engine lock
            sqlite_engine.put(TABLE, "mine-2", 1)
        thread.join(5)
        assert done.is_set() and not thread.is_alive()
        # Two transactions: the group's, then the other thread's — its
        # INSERT did not ride in the group's.
        writes = [s.split()[0] for s in statements if not s.startswith("SELECT")]
        assert writes == ["BEGIN", "INSERT", "INSERT", "COMMIT", "BEGIN", "INSERT", "COMMIT"]
        assert sqlite_engine.keys(TABLE) == ["mine-1", "mine-2", "theirs"]

    def test_unsynchronous_engine_keeps_its_meaning(self, tmp_path):
        engine = SqliteEngine(str(tmp_path / "lazy.db"), synchronous=False)
        seen = []
        engine._conn.set_trace_callback(seen.append)
        engine.create_table(TABLE)
        with engine.write_group():
            engine.put(TABLE, "k", 1)
        assert "COMMIT" not in seen  # no barrier until flush()/close()
        engine.flush()
        assert seen.count("COMMIT") == 1
        engine.close()


class TestLogEngineGroup:
    def open(self, tmp_path):
        return LogStructuredEngine(str(tmp_path / "wal"), snapshot_every=1000)

    def test_abandoned_group_vanishes_whole(self, tmp_path):
        engine = self.open(tmp_path)
        engine.create_table(TABLE)
        engine.put_many(TABLE, [(f"safe{i}", {"i": i}) for i in range(4)])
        group = engine.write_group()  # held: dropping it would exit the group
        group.__enter__()
        engine.put_many(TABLE, [(f"lost{i}", {"i": i}) for i in range(4)])
        engine.delete_many(TABLE, ["safe0"])
        engine.put(TABLE, "lost-too", 1)
        assert engine.count(TABLE) == 8  # readable on the handle itself
        # Crash: abandon the handle without leaving the group.
        survivor = self.open(tmp_path)
        assert sorted(survivor.keys(TABLE)) == [f"safe{i}" for i in range(4)]
        survivor.close()

    def test_nested_exit_writes_nothing_the_outermost_writes_all(self, tmp_path):
        engine = self.open(tmp_path)
        engine.create_table(TABLE)
        with engine.write_group():
            with engine.write_group():
                engine.put_many(TABLE, [(f"k{i}", {"i": i}) for i in range(4)])
            engine.put(TABLE, "k4", {"i": 4})
            assert self.open(tmp_path).keys(TABLE) == []
        # Crash *after* the barrier: the group survives in full, in order.
        survivor = self.open(tmp_path)
        assert survivor.keys(TABLE) == [f"k{i}" for i in range(5)]
        survivor.close()

    def test_an_exception_commits_the_prefix(self, tmp_path):
        engine = self.open(tmp_path)
        engine.create_table(TABLE)
        with pytest.raises(RuntimeError):
            with engine.write_group():
                engine.put_many(TABLE, [("a", 1), ("b", 2)])
                raise RuntimeError("the verb failed here")
        assert self.open(tmp_path).keys(TABLE) == ["a", "b"]
        engine.put(TABLE, "c", 3)  # written through again
        assert self.open(tmp_path).keys(TABLE) == ["a", "b", "c"]


class TestFailedWriteEndsItsTransaction:
    """A lost ``put_new`` — the lost-lease path of ``DurableTaskStore._allocate``
    and the lost-name path of ``put_project`` on a shared file."""

    def test_lost_put_new_releases_the_file_for_another_connection(self, sqlite_engine):
        sqlite_engine.create_table(TABLE)
        sqlite_engine.put_new(TABLE, "lease", 1)
        with pytest.raises(DuplicateKeyError):
            sqlite_engine.put_new(TABLE, "lease", 2)
        assert sqlite_engine._conn.in_transaction is False

        other = sqlite3.connect(sqlite_engine.path, timeout=0.2)
        try:
            other.execute(
                "INSERT INTO reprowd_records (table_name, key, value) VALUES (?, ?, ?)",
                (TABLE, "theirs", "3"),
            )
            other.commit()
        finally:
            other.close()
        assert sqlite_engine.get(TABLE, "lease") == 1
        assert sqlite_engine.get(TABLE, "theirs") == 3

    def test_inside_a_group_the_earlier_writes_survive_the_lost_put_new(
        self, sqlite_engine, other_handle
    ):
        sqlite_engine.create_table(TABLE)
        sqlite_engine.put_new(TABLE, "lease", 1)
        with sqlite_engine.write_group():
            sqlite_engine.put(TABLE, "before", 0)
            with pytest.raises(DuplicateKeyError):
                sqlite_engine.put_new(TABLE, "lease", 2)
            assert sqlite_engine._conn.in_transaction  # the group's, still open
            sqlite_engine.put_new(TABLE, "lease-2", 2)
        assert other_handle.keys(TABLE) == ["lease", "before", "lease-2"]

    def test_pending_unsynchronous_writes_are_not_rolled_back(self, tmp_path):
        engine = SqliteEngine(str(tmp_path / "lazy.db"), synchronous=False)
        engine.create_table(TABLE)
        engine.put_new(TABLE, "lease", 1)
        with pytest.raises(DuplicateKeyError):
            engine.put_new(TABLE, "lease", 2)
        engine.close()
        reopened = SqliteEngine(str(tmp_path / "lazy.db"))
        assert reopened.get(TABLE, "lease") == 1
        reopened.close()
