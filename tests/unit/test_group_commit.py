"""Leaf-engine group commit: deferred durability barriers stay correct.

The leaf engines' ``put_many``/``delete_many`` accept ``defer_commit=True``
and ``commit_group()`` flushes everything deferred since the last barrier —
the seam the ring's returning-member sync uses to pay one commit per synced
member instead of one per batch.  Proofs:

* engine level — on every leaf engine, a deferred wave followed by one
  ``commit_group`` leaves byte-identical state to the serial (per-batch
  commit) run, durably: the durable engines are reopened and compared too;
* visibility level — deferred writes are readable on the same handle
  *before* the barrier, and a barrier with nothing deferred is a no-op;
* crash level — on the log engine (whose reopen-from-disk is exact even
  with the dead handle still in scope) an uncommitted wave vanishes
  atomically: the reopened engine holds everything up to the last barrier
  and *nothing* from the abandoned wave.
"""

from __future__ import annotations

import pytest

from repro.storage import LogStructuredEngine
from repro.storage.testing import (
    CHILD_ENGINE_NAMES,
    DURABLE_ENGINE_NAMES,
    build_engine,
)

TABLE = "t"


def wave_ops(engine, defer):
    """One multi-batch write wave: inserts, overwrites, deletes."""
    engine.create_table(TABLE)
    engine.put_many(
        TABLE, [(f"a{i:02d}", {"i": i}) for i in range(8)], defer_commit=defer
    )
    engine.put_many(
        TABLE,
        [("a03", {"i": 3, "rev": 2}), ("b00", {"x": 0})],
        defer_commit=defer,
    )
    removed = engine.delete_many(TABLE, ["a01", "a05", "missing"], defer_commit=defer)
    assert removed == 2  # absent keys are not counted, deferred or not
    if defer:
        engine.commit_group()


def engine_state(engine):
    return [(r.key, r.value, r.version) for r in engine.scan(TABLE)]


class TestEngineGroupCommit:
    @pytest.mark.parametrize("name", CHILD_ENGINE_NAMES)
    def test_deferred_wave_equals_serial_writes(self, name, tmp_path):
        serial = build_engine(name, tmp_path / "serial")
        group = build_engine(name, tmp_path / "group")
        wave_ops(serial, defer=False)
        wave_ops(group, defer=True)
        expected = engine_state(serial)
        assert engine_state(group) == expected

        serial.close()
        group.close()
        if name in DURABLE_ENGINE_NAMES:
            assert engine_state(build_engine(name, tmp_path / "serial")) == expected
            assert engine_state(build_engine(name, tmp_path / "group")) == expected

    def test_deferred_writes_visible_before_the_barrier(self, sqlite_engine):
        sqlite_engine.create_table(TABLE)
        sqlite_engine.put_many(TABLE, [("k", {"v": 1})], defer_commit=True)
        assert sqlite_engine.get(TABLE, "k") == {"v": 1}
        assert sqlite_engine.count(TABLE) == 1
        sqlite_engine.delete_many(TABLE, ["k"], defer_commit=True)
        assert sqlite_engine.get(TABLE, "k") is None
        sqlite_engine.commit_group()

    def test_barrier_with_nothing_deferred_is_a_noop(self, any_engine):
        any_engine.commit_group()  # must not raise, even before any write
        any_engine.create_table(TABLE)
        any_engine.put(TABLE, "k", {"v": 1})
        any_engine.commit_group()
        assert any_engine.get(TABLE, "k") == {"v": 1}

    def test_log_engine_crash_loses_exactly_the_uncommitted_wave(self, tmp_path):
        path = str(tmp_path / "wal")
        engine = LogStructuredEngine(path, snapshot_every=1000)
        engine.create_table(TABLE)
        engine.put_many(TABLE, [(f"safe{i}", {"i": i}) for i in range(4)])
        engine.put_many(
            TABLE, [(f"lost{i}", {"i": i}) for i in range(4)], defer_commit=True
        )
        engine.delete_many(TABLE, ["safe0"], defer_commit=True)
        # Crash: abandon the handle without commit_group/flush/close.
        survivor = LogStructuredEngine(path, snapshot_every=1000)
        assert sorted(survivor.keys(TABLE)) == [f"safe{i}" for i in range(4)]
        survivor.close()

    def test_log_engine_barrier_makes_the_wave_durable(self, tmp_path):
        path = str(tmp_path / "wal")
        engine = LogStructuredEngine(path, snapshot_every=1000)
        engine.create_table(TABLE)
        engine.put_many(
            TABLE, [(f"k{i}", {"i": i}) for i in range(4)], defer_commit=True
        )
        engine.commit_group()
        # Crash *after* the barrier: the wave must survive in full.
        survivor = LogStructuredEngine(path, snapshot_every=1000)
        assert sorted(survivor.keys(TABLE)) == [f"k{i}" for i in range(4)]
        survivor.close()
