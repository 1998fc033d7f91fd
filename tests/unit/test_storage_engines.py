"""Unit tests exercising every storage engine through the common interface."""

from __future__ import annotations

import pytest

from repro.config import StorageConfig
from repro.exceptions import (
    ConfigurationError,
    DuplicateKeyError,
    StorageError,
    TableNotFoundError,
)
from repro.storage import (
    ConsistentHashEngine,
    LogStructuredEngine,
    MemoryEngine,
    ShardedEngine,
    SqliteEngine,
    open_engine,
    shard_index,
)
from repro.storage.testing import DURABLE_ENGINE_NAMES, build_engine


class TestTableManagement:
    def test_create_and_list(self, any_engine):
        any_engine.create_table("t1")
        any_engine.create_table("t2")
        assert any_engine.list_tables() == ["t1", "t2"]

    def test_create_is_idempotent(self, any_engine):
        any_engine.create_table("t")
        any_engine.create_table("t")
        assert any_engine.list_tables() == ["t"]

    def test_has_table(self, any_engine):
        assert not any_engine.has_table("t")
        any_engine.create_table("t")
        assert any_engine.has_table("t")

    def test_drop_table(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "k", 1)
        any_engine.drop_table("t")
        assert not any_engine.has_table("t")

    def test_drop_missing_table_is_noop(self, any_engine):
        any_engine.drop_table("nope")

    def test_operations_on_missing_table_raise(self, any_engine):
        with pytest.raises(TableNotFoundError):
            any_engine.put("missing", "k", 1)
        with pytest.raises(TableNotFoundError):
            any_engine.get("missing", "k")
        with pytest.raises(TableNotFoundError):
            list(any_engine.scan("missing"))


class TestRecordAccess:
    def test_put_and_get(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "k", {"a": 1})
        assert any_engine.get("t", "k") == {"a": 1}

    def test_get_default(self, any_engine):
        any_engine.create_table("t")
        assert any_engine.get("t", "missing", default="fallback") == "fallback"

    def test_put_overwrites_and_bumps_version(self, any_engine):
        any_engine.create_table("t")
        first = any_engine.put("t", "k", 1)
        second = any_engine.put("t", "k", 2)
        assert first.version == 1
        assert second.version == 2
        assert any_engine.get("t", "k") == 2

    def test_put_new_rejects_duplicates(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_new("t", "k", 1)
        with pytest.raises(DuplicateKeyError):
            any_engine.put_new("t", "k", 2)

    def test_delete(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "k", 1)
        assert any_engine.delete("t", "k") is True
        assert any_engine.delete("t", "k") is False
        assert any_engine.get("t", "k") is None

    def test_contains(self, any_engine):
        any_engine.create_table("t")
        assert not any_engine.contains("t", "k")
        any_engine.put("t", "k", 1)
        assert any_engine.contains("t", "k")

    def test_scan_preserves_insertion_order(self, any_engine):
        any_engine.create_table("t")
        for index in range(10):
            any_engine.put("t", f"k{index}", index)
        keys = [record.key for record in any_engine.scan("t")]
        assert keys == [f"k{index}" for index in range(10)]

    def test_count(self, any_engine):
        any_engine.create_table("t")
        assert any_engine.count("t") == 0
        any_engine.put("t", "a", 1)
        any_engine.put("t", "b", 2)
        assert any_engine.count("t") == 2

    def test_keys_values_items(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "a", 1)
        any_engine.put("t", "b", 2)
        assert any_engine.keys("t") == ["a", "b"]
        assert any_engine.values("t") == [1, 2]
        assert any_engine.items("t") == [("a", 1), ("b", 2)]

    def test_non_json_value_rejected(self, any_engine):
        any_engine.create_table("t")
        with pytest.raises(StorageError):
            any_engine.put("t", "k", object())

    def test_complex_nested_values_roundtrip(self, any_engine):
        any_engine.create_table("t")
        value = {"list": [1, "two", None], "nested": {"x": [True, False]}}
        any_engine.put("t", "k", value)
        assert any_engine.get("t", "k") == value

    def test_describe(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "k", 1)
        description = any_engine.describe()
        assert description["tables"] == {"t": 1}


class TestBulkOperations:
    def test_put_many_inserts_and_returns_records(self, any_engine):
        any_engine.create_table("t")
        records = any_engine.put_many("t", [("a", 1), ("b", 2), ("c", 3)])
        assert [(r.key, r.value, r.version) for r in records] == [
            ("a", 1, 1), ("b", 2, 1), ("c", 3, 1)
        ]
        assert any_engine.items("t") == [("a", 1), ("b", 2), ("c", 3)]

    def test_put_many_upserts_and_bumps_versions(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "a", "old")
        records = any_engine.put_many("t", [("a", "new"), ("b", 1)])
        assert records[0].version == 2
        assert any_engine.get("t", "a") == "new"
        # The upsert keeps the original insertion position, like single put.
        assert any_engine.keys("t") == ["a", "b"]

    def test_put_many_repeated_key_bumps_per_occurrence(self, any_engine):
        any_engine.create_table("t")
        records = any_engine.put_many("t", [("a", 1), ("a", 2), ("a", 3)])
        assert [r.version for r in records] == [1, 2, 3]
        assert any_engine.get_record("t", "a").version == 3
        assert any_engine.get("t", "a") == 3

    def test_put_many_if_absent_skips_existing_keys(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "a", "kept")
        records = any_engine.put_many(
            "t", [("a", "ignored"), ("b", 1), ("b", 2)], if_absent=True
        )
        assert [(r.key, r.value, r.version) for r in records] == [
            ("a", "kept", 1), ("b", 1, 1), ("b", 1, 1)
        ]
        assert any_engine.get("t", "a") == "kept"
        assert any_engine.get("t", "b") == 1
        assert any_engine.get_record("t", "b").version == 1

    def test_put_many_if_absent_returns_the_surviving_record(self, any_engine):
        """Pre-existing keys (equal and different stored bytes, bumped
        version) and keys repeated in the batch: every engine hands back
        what a read would."""
        any_engine.create_table("t")
        any_engine.put("t", "same", {"n": [1, 2]})
        any_engine.put("t", "same", {"n": [1, 2]})
        any_engine.put("t", "other", {"n": 0})
        batch = [
            ("same", {"n": [1, 2]}),
            ("other", {"n": 1}),
            ("new", {"n": 2}),
            ("other", {"n": 3}),
            ("new", {"n": 4}),
        ]
        records = any_engine.put_many("t", batch, if_absent=True)
        assert [(r.key, r.value, r.version) for r in records] == [
            ("same", {"n": [1, 2]}, 2),
            ("other", {"n": 0}, 1),
            ("new", {"n": 2}, 1),
            ("other", {"n": 0}, 1),
            ("new", {"n": 2}, 1),
        ]
        assert [r.value for r in records] == any_engine.get_many(
            "t", [key for key, _ in batch]
        )

    def test_put_many_empty_batch(self, any_engine):
        any_engine.create_table("t")
        assert any_engine.put_many("t", []) == []
        with pytest.raises(TableNotFoundError):
            any_engine.put_many("missing", [])

    def test_put_many_rejects_unencodable_values_without_partial_write(self, any_engine):
        any_engine.create_table("t")
        with pytest.raises(StorageError):
            any_engine.put_many("t", [("a", 1), ("b", object())])
        # All-or-nothing: the valid prefix must not have been applied.
        assert any_engine.items("t") == []

    def test_get_many_preserves_order_and_defaults(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [("a", 1), ("b", None)])
        assert any_engine.get_many("t", ["b", "missing", "a", "a"]) == [None, None, 1, 1]
        assert any_engine.get_many("t", ["missing"], default="x") == ["x"]
        with pytest.raises(TableNotFoundError):
            any_engine.get_many("missing", ["a"])

    def test_scan_limit_pages_in_insertion_order(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [(f"k{i}", i) for i in range(7)])
        first = list(any_engine.scan("t", limit=3))
        assert [r.key for r in first] == ["k0", "k1", "k2"]
        second = list(any_engine.scan("t", limit=3, start_after=first[-1].key))
        assert [r.key for r in second] == ["k3", "k4", "k5"]
        tail = list(any_engine.scan("t", limit=3, start_after=second[-1].key))
        assert [r.key for r in tail] == ["k6"]

    def test_scan_keys_pages_without_values(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [(f"k{i}", {"payload": i}) for i in range(5)])
        assert any_engine.scan_keys("t") == [f"k{i}" for i in range(5)]
        assert any_engine.scan_keys("t", limit=2, start_after="k1") == ["k2", "k3"]
        with pytest.raises(StorageError):
            any_engine.scan_keys("t", start_after="missing")

    def test_scan_zero_limit_and_unknown_cursor(self, any_engine):
        any_engine.create_table("t")
        any_engine.put("t", "a", 1)
        assert list(any_engine.scan("t", limit=0)) == []
        with pytest.raises(ValueError):
            list(any_engine.scan("t", limit=-1))
        with pytest.raises(StorageError):
            list(any_engine.scan("t", start_after="missing"))

    def test_put_many_is_durable(self, tmp_path):
        # Every durable registry engine must reopen a batch it wrote; the
        # list comes from the shared registry so a new engine cannot dodge
        # this check.
        for name in DURABLE_ENGINE_NAMES:
            engine = build_engine(name, tmp_path / name)
            engine.create_table("t")
            engine.put_many("t", [(f"k{i}", i) for i in range(5)])
            engine.close()
            reopened = build_engine(name, tmp_path / name)
            assert reopened.items("t") == [(f"k{i}", i) for i in range(5)], name
            reopened.close()

    def test_log_engine_batch_is_one_append(self, tmp_path):
        engine = LogStructuredEngine(str(tmp_path / "grouped"), snapshot_every=100)
        engine.create_table("t")
        engine.put_many("t", [(f"k{i}", i) for i in range(50)])
        engine.flush()
        with open(engine.log_path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        # create_table + one group record for the whole 50-item batch.
        assert len(lines) == 2
        engine.close()


class TestScanPaginationContract:
    """The ``(limit, start_after)`` edge cases, identical on every engine."""

    def test_empty_table_scans_empty(self, any_engine):
        any_engine.create_table("t")
        assert list(any_engine.scan("t")) == []
        assert list(any_engine.scan("t", limit=0)) == []
        assert list(any_engine.scan("t", limit=5)) == []
        assert any_engine.scan_keys("t") == []
        assert any_engine.scan_keys("t", limit=3) == []

    def test_cursor_at_last_record_yields_empty_page(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [("a", 1), ("b", 2), ("c", 3)])
        assert list(any_engine.scan("t", start_after="c")) == []
        assert list(any_engine.scan("t", limit=4, start_after="c")) == []
        assert any_engine.scan_keys("t", start_after="c") == []

    def test_limit_zero_with_and_without_cursor(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [("a", 1), ("b", 2)])
        assert list(any_engine.scan("t", limit=0)) == []
        assert list(any_engine.scan("t", limit=0, start_after="a")) == []
        assert any_engine.scan_keys("t", limit=0) == []

    def test_limit_past_end_truncates_cleanly(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [("a", 1), ("b", 2), ("c", 3)])
        assert [r.key for r in any_engine.scan("t", limit=99)] == ["a", "b", "c"]
        assert [r.key for r in any_engine.scan("t", limit=99, start_after="b")] == ["c"]

    def test_deleted_key_is_not_a_valid_cursor(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [("a", 1), ("b", 2)])
        any_engine.delete("t", "a")
        with pytest.raises(StorageError):
            list(any_engine.scan("t", start_after="a"))

    def test_page_walk_concatenates_to_full_scan(self, any_engine):
        any_engine.create_table("t")
        any_engine.put_many("t", [(f"k{i}", i) for i in range(11)])
        for page_size in (1, 2, 3, 5, 11, 20):
            walked, cursor = [], None
            while True:
                page = list(any_engine.scan("t", limit=page_size, start_after=cursor))
                walked.extend(r.key for r in page)
                if len(page) < page_size:
                    break
                cursor = page[-1].key
            assert walked == [f"k{i}" for i in range(11)], page_size


class TestShardedEngine:
    """Behaviour specific to the sharded engine: routing, recovery, merging."""

    def build(self, tmp_path, num_shards=4):
        return ShardedEngine(
            [SqliteEngine(str(tmp_path / f"s{i}.db")) for i in range(num_shards)]
        )

    def test_keys_spread_across_shards(self, tmp_path):
        engine = self.build(tmp_path)
        engine.create_table("t")
        engine.put_many("t", [(f"k{i}", i) for i in range(64)])
        populated = [shard for shard in engine.shards if shard.count("t") > 0]
        assert len(populated) == 4
        assert sum(shard.count("t") for shard in engine.shards) == 64
        engine.close()

    def test_routing_is_stable_across_reopen(self, tmp_path):
        keys = [f"key-{i}" for i in range(50)]
        before = [shard_index(key, 4) for key in keys]
        engine = self.build(tmp_path)
        engine.create_table("t")
        engine.put_many("t", list(zip(keys, range(50))))
        engine.close()

        reopened = self.build(tmp_path)
        assert [shard_index(key, 4) for key in keys] == before
        assert reopened.get_many("t", keys) == list(range(50))
        assert [r.key for r in reopened.scan("t")] == keys
        reopened.close()

    def test_insertion_order_survives_reopen_and_new_writes(self, tmp_path):
        engine = self.build(tmp_path)
        engine.create_table("t")
        engine.put_many("t", [("a", 1), ("b", 2), ("c", 3)])
        engine.close()
        # The sequence counter is recovered from the shards, so records
        # written after the reopen must land after every surviving record.
        reopened = self.build(tmp_path)
        reopened.put("t", "d", 4)
        reopened.put_many("t", [("e", 5), ("a", 10)])
        assert [r.key for r in reopened.scan("t")] == ["a", "b", "c", "d", "e"]
        assert reopened.get("t", "a") == 10
        reopened.close()

    def test_merge_scan_paginates_inside_shards(self, tmp_path):
        engine = self.build(tmp_path, num_shards=3)
        engine._merge_page_size = 4
        engine.create_table("t")
        engine.put_many("t", [(f"k{i:03d}", i) for i in range(30)])
        assert [r.key for r in engine.scan("t")] == [f"k{i:03d}" for i in range(30)]
        page = list(engine.scan("t", limit=7, start_after="k009"))
        assert [r.key for r in page] == [f"k{i:03d}" for i in range(10, 17)]
        engine.close()

    def test_describe_reports_shards(self, tmp_path):
        engine = self.build(tmp_path, num_shards=2)
        engine.create_table("t")
        engine.put("t", "k", 1)
        description = engine.describe()
        assert description["engine"] == "sharded"
        assert description["tables"] == {"t": 1}
        assert len(description["shards"]) == 2
        assert sum(entry["records"] for entry in description["shards"]) == 1
        engine.close()

    def test_requires_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedEngine([])

    def test_parallel_put_many_matches_serial(self, tmp_path):
        """shard_workers only changes scheduling: contents, per-item records
        and scan order are identical to the serial fan-out."""
        serial = self.build(tmp_path / "serial")
        parallel = ShardedEngine(
            [SqliteEngine(str(tmp_path / "parallel" / f"s{i}.db")) for i in range(4)],
            shard_workers=4,
        )
        items = [(f"k{i:03d}", {"value": i}) for i in range(100)]
        for engine in (serial, parallel):
            engine.create_table("t")
        serial_records = serial.put_many("t", items)
        parallel_records = parallel.put_many("t", items)
        assert parallel_records == serial_records
        assert [r.key for r in parallel.scan("t")] == [r.key for r in serial.scan("t")]
        # if_absent reruns heal identically too.
        replay = parallel.put_many("t", items, if_absent=True)
        assert [r.version for r in replay] == [1] * len(items)
        assert parallel.describe()["shard_workers"] == 4
        serial.close()
        parallel.close()

    def test_parallel_put_many_via_config(self, tmp_path):
        engine = open_engine(
            StorageConfig(
                engine="sharded",
                path=str(tmp_path / "cfg"),
                shards=3,
                shard_workers=3,
            )
        )
        engine.create_table("t")
        engine.put_many("t", [(f"k{i}", i) for i in range(20)])
        assert engine.shard_workers == 3
        assert engine.count("t") == 20
        assert [r.key for r in engine.scan("t")] == [f"k{i}" for i in range(20)]
        engine.close()


class TestOpenEngine:
    def test_open_memory(self):
        engine = open_engine(StorageConfig(engine="memory"))
        assert isinstance(engine, MemoryEngine)

    def test_open_sqlite(self, tmp_path):
        engine = open_engine(StorageConfig(engine="sqlite", path=str(tmp_path / "x.db")))
        assert isinstance(engine, SqliteEngine)
        engine.close()

    def test_open_log(self, tmp_path):
        engine = open_engine(StorageConfig(engine="log", path=str(tmp_path / "x")))
        assert isinstance(engine, LogStructuredEngine)
        engine.close()

    def test_open_sharded(self, tmp_path):
        config = StorageConfig(engine="sharded", path=str(tmp_path / "shards"), shards=4)
        engine = open_engine(config)
        assert isinstance(engine, ShardedEngine)
        assert len(engine.shards) == 4
        assert all(isinstance(shard, SqliteEngine) for shard in engine.shards)
        engine.create_table("t")
        engine.put("t", "k", 1)
        engine.close()
        reopened = open_engine(config)
        assert reopened.get("t", "k") == 1
        reopened.close()

    def test_open_sharded_memory_children(self, tmp_path):
        engine = open_engine(
            StorageConfig(engine="sharded", path=str(tmp_path), shards=2, shard_engine="memory")
        )
        assert all(isinstance(shard, MemoryEngine) for shard in engine.shards)
        engine.close()

    def test_open_sharded_rejects_bad_configs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_engine(StorageConfig(engine="sharded", path=str(tmp_path), shards=0))
        with pytest.raises(ConfigurationError):
            open_engine(
                StorageConfig(engine="sharded", path=str(tmp_path), shard_engine="postgres")
            )

    def test_open_ring(self, tmp_path):
        config = StorageConfig(
            engine="ring", path=str(tmp_path / "ring"), shards=3, virtual_nodes=16
        )
        engine = open_engine(config)
        assert isinstance(engine, ConsistentHashEngine)
        assert engine.member_names == ["ring-00", "ring-01", "ring-02"]
        assert engine.virtual_nodes == 16
        engine.create_table("t")
        engine.put("t", "k", 1)
        engine.close()
        reopened = open_engine(config)
        assert reopened.get("t", "k") == 1
        reopened.close()

    def test_open_ring_rediscovers_rebalanced_membership(self, tmp_path):
        """A rebalance grows the directory; reopening with the *original*
        config must route over the grown membership, not config.shards."""
        config = StorageConfig(
            engine="ring", path=str(tmp_path / "ring"), shards=2, virtual_nodes=16
        )
        engine = open_engine(config)
        engine.create_table("t")
        engine.put_many("t", [(f"k{i}", i) for i in range(40)])
        engine.rebalance(
            add={"ring-02": SqliteEngine(str(tmp_path / "ring" / "ring-02.db"))}
        )
        assert engine.member_names == ["ring-00", "ring-01", "ring-02"]
        engine.close()

        reopened = open_engine(config)  # still says shards=2
        assert reopened.member_names == ["ring-00", "ring-01", "ring-02"]
        assert reopened.items("t") == [(f"k{i}", i) for i in range(40)]
        reopened.close()

    def test_open_ring_memory_children(self, tmp_path):
        engine = open_engine(
            StorageConfig(engine="ring", path=str(tmp_path), shards=2, shard_engine="memory")
        )
        assert isinstance(engine, ConsistentHashEngine)
        assert engine.member_names == ["ring-00", "ring-01"]
        engine.close()

    def test_open_ring_rejects_bad_configs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_engine(StorageConfig(engine="ring", path=str(tmp_path), shards=0))
        with pytest.raises(ConfigurationError):
            open_engine(
                StorageConfig(engine="ring", path=str(tmp_path), shard_engine="postgres")
            )

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError):
            open_engine(StorageConfig(engine="postgres"))

    def test_context_manager_closes(self, tmp_path):
        with open_engine(StorageConfig(engine="sqlite", path=str(tmp_path / "cm.db"))) as engine:
            engine.create_table("t")
            engine.put("t", "k", 1)
