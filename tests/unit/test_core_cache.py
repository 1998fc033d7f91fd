"""Unit tests for the fault-recovery cache and the manipulation log."""

from __future__ import annotations

import pytest

from repro.core.cache import FaultRecoveryCache
from repro.core.manipulations import Manipulation, ManipulationLog


class TestCacheBulkAccess:
    def test_get_tasks_aligns_with_requested_keys(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_task("a", {"task_id": 1})
        cache.put_task("c", {"task_id": 3})
        assert cache.get_tasks(["a", "b", "c"]) == [{"task_id": 1}, None, {"task_id": 3}]

    def test_put_tasks_never_overwrites_survivors(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_task("a", {"task_id": 1})
        cache.put_tasks({"a": {"task_id": 99}, "b": {"task_id": 2}})
        assert cache.get_task("a") == {"task_id": 1}
        assert cache.get_task("b") == {"task_id": 2}
        assert memory_engine.get_record("imgs::tasks", "a").version == 1

    def test_put_and_get_results_batch(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_results({"a": {"complete": True}, "b": {"complete": True}})
        assert cache.get_results(["b", "missing", "a"]) == [
            {"complete": True}, None, {"complete": True}
        ]
        assert cache.result_count() == 2

    @pytest.mark.parametrize("num_keys", [0, 1, 1200])
    def test_all_cached_objects_pages_through_the_table(self, memory_engine, num_keys):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        expected = [f"key-{index:04d}" for index in range(num_keys)]
        cache.put_tasks({key: {"task_id": index} for index, key in enumerate(expected)})
        # 1200 keys span three scan_page_size=512 pages, 0 and 1 the edges.
        assert cache.all_cached_objects() == expected
        assert cache.task_count() == num_keys

    def test_iter_cached_objects_is_lazy_per_page(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_tasks({f"k{index}": {} for index in range(5)})
        iterator = cache.iter_cached_objects()
        assert next(iterator) == "k0"


class TestCacheKeys:
    def test_key_depends_on_object_and_task_type(self):
        key_a = FaultRecoveryCache.object_key("img1", "image_label")
        key_b = FaultRecoveryCache.object_key("img1", "text_label")
        key_c = FaultRecoveryCache.object_key("img2", "image_label")
        assert key_a != key_b
        assert key_a != key_c

    def test_key_is_stable_for_equivalent_dicts(self):
        left = FaultRecoveryCache.object_key({"a": 1, "b": 2}, "t")
        right = FaultRecoveryCache.object_key({"b": 2, "a": 1}, "t")
        assert left == right


    def test_keys_of_files_written_by_earlier_versions_still_hit(self):
        # Literal digests: Bob's database outlives the code that wrote it,
        # so the canonical encoding under the hash may never move.
        key = FaultRecoveryCache.object_key
        assert key({"url": "http://example.com/img-0001.jpg"}, "image_label") == (
            "d7d14625a434c6e6"
        )
        assert key(("Café Müller", {"id": 7, "tags": ["a", "b"]}), "record_cmp") == (
            "326279850caea653"
        )
        assert key({3: "int key", 10: 1.5, -1: None}, "text_cmp") == "a9c90c9e87fc5c79"


class TestCacheRoundtrips:
    def test_task_roundtrip(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        assert cache.get_task("k") is None
        cache.put_task("k", {"task_id": 1})
        assert cache.get_task("k") == {"task_id": 1}
        assert cache.task_count() == 1

    def test_result_roundtrip(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        assert cache.get_result("k") is None
        cache.put_result("k", [{"answer": "Yes"}])
        assert cache.get_result("k") == [{"answer": "Yes"}]
        assert cache.result_count() == 1

    def test_meta_roundtrip(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        assert cache.get_meta("presenter") is None
        assert cache.get_meta("presenter", default="x") == "x"
        cache.put_meta("presenter", {"task_type": "image_label"})
        assert cache.get_meta("presenter")["task_type"] == "image_label"

    def test_tables_are_namespaced_per_crowddata_table(self, memory_engine):
        cache_a = FaultRecoveryCache(memory_engine, "a")
        cache_b = FaultRecoveryCache(memory_engine, "b")
        cache_a.put_task("k", {"id": 1})
        assert cache_b.get_task("k") is None

    def test_clear_forgets_everything(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_task("k", {"id": 1})
        cache.put_result("k", [])
        cache.clear()
        assert cache.task_count() == 0
        assert cache.result_count() == 0

    def test_all_cached_objects(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_task("k1", {"id": 1})
        cache.put_task("k2", {"id": 2})
        assert cache.all_cached_objects() == ["k1", "k2"]

    def test_describe(self, memory_engine):
        cache = FaultRecoveryCache(memory_engine, "imgs")
        cache.put_task("k", {"id": 1})
        assert cache.describe() == {"table": "imgs", "cached_tasks": 1, "cached_results": 0}

    def test_cache_survives_engine_reopen(self, tmp_path):
        from repro.storage import SqliteEngine

        path = str(tmp_path / "c.db")
        engine = SqliteEngine(path)
        cache = FaultRecoveryCache(engine, "imgs")
        cache.put_task("k", {"task_id": 5})
        engine.close()
        reopened = SqliteEngine(path)
        cache2 = FaultRecoveryCache(reopened, "imgs")
        assert cache2.get_task("k") == {"task_id": 5}
        reopened.close()


class TestManipulationLog:
    def test_records_are_sequenced(self, memory_engine):
        log = ManipulationLog(memory_engine, "imgs")
        log.record("init", rows_affected=3)
        log.record("publish_task", parameters={"n_assignments": 3})
        history = log.history()
        assert [m.sequence for m in history] == [1, 2]
        assert log.operations() == ["init", "publish_task"]

    def test_record_fields_roundtrip(self, memory_engine):
        log = ManipulationLog(memory_engine, "imgs")
        original = log.record(
            "publish_task",
            parameters={"n_assignments": 3},
            columns_added=["task"],
            rows_affected=10,
            cache_hits=4,
            timestamp=12.5,
        )
        stored = log.history()[0]
        assert stored == original
        assert stored.cache_hits == 4
        assert stored.columns_added == ["task"]

    def test_manipulation_dict_roundtrip(self):
        manipulation = Manipulation(
            sequence=1, operation="mv", parameters={"x": 1}, columns_added=["mv"],
            rows_affected=3, cache_hits=0, timestamp=1.0,
        )
        assert Manipulation.from_dict(manipulation.to_dict()) == manipulation

    def test_len_and_clear(self, memory_engine):
        log = ManipulationLog(memory_engine, "imgs")
        log.record("init")
        assert len(log) == 1
        log.clear()
        assert len(log) == 0
        assert log.history() == []

    def test_log_is_durable(self, tmp_path):
        from repro.storage import SqliteEngine

        path = str(tmp_path / "log.db")
        engine = SqliteEngine(path)
        ManipulationLog(engine, "imgs").record("init")
        engine.close()
        reopened = SqliteEngine(path)
        assert ManipulationLog(reopened, "imgs").operations() == ["init"]
        reopened.close()

    def test_sequences_continue_across_instances(self, memory_engine):
        log1 = ManipulationLog(memory_engine, "imgs")
        log1.record("init")
        log2 = ManipulationLog(memory_engine, "imgs")
        log2.record("extend")
        assert [m.sequence for m in log2.history()] == [1, 2]
