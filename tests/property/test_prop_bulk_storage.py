"""Property-based tests: the bulk API is one equivalence class across engines.

Seeded from the ``test_prop_storage`` pattern: a random operation sequence
mixing single puts/deletes with ``put_many`` batches (both upsert and
``if_absent`` mode) is replayed on the in-memory reference engine and on both
durable engines, and every observable — ``items``, per-key versions, the
records returned by ``put_many`` itself, ``get_many`` lookups, and paginated
``scan`` pages — must agree exactly.  The log engine is additionally closed
and recovered before comparison, so the group-append log record is proven to
replay to the same state it described.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import StorageError
from repro.storage import LogStructuredEngine, MemoryEngine, PartitionedEngine
from repro.storage.testing import ENGINE_NAMES, build_engine

# JSON-friendly values the engines must round-trip faithfully.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

keys = st.text(alphabet="abcdefghij", min_size=1, max_size=3)

few_keys = st.text(alphabet="ab", min_size=1, max_size=2)

batches = st.lists(st.tuples(keys, json_values), max_size=8)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, json_values),
        st.tuples(st.just("delete"), keys, st.none()),
        st.tuples(st.just("put_many"), batches, st.booleans()),
    ),
    max_size=20,
)


def apply_operations(engine, ops):
    """Replay *ops* on *engine*, returning every record put_many handed back."""
    engine.create_table("t")
    returned = []
    for op, first, second in ops:
        if op == "put":
            engine.put("t", first, second)
        elif op == "delete":
            engine.delete("t", first)
        else:
            records = engine.put_many("t", first, if_absent=second)
            returned.extend((r.key, r.value, r.version) for r in records)
    return returned


def observable_state(engine):
    """Everything the bulk contract promises, as comparable values."""
    records = list(engine.scan("t"))
    return {
        "items": [(r.key, r.value) for r in records],
        "versions": {r.key: r.version for r in records},
        "count": engine.count("t"),
    }


def paginate_fully(engine, page_size):
    """Walk the table in pages of *page_size*, returning the concatenation."""
    pages, cursor = [], None
    while True:
        page = list(engine.scan("t", limit=page_size, start_after=cursor))
        pages.extend((r.key, r.value, r.version) for r in page)
        if len(page) < page_size:
            return pages
        cursor = page[-1].key


def build_engines(tmp_path_factory):
    """One engine per registry entry (memory first: the reference model)."""
    base = tmp_path_factory.mktemp("bulk_prop")
    engines = {}
    for name in ENGINE_NAMES:
        engine = build_engine(name, base / name)
        if isinstance(engine, PartitionedEngine):
            # Small merge pages force the k-way merge-scan to actually paginate.
            engine._merge_page_size = 4
        engines[name] = engine
    return engines


def close_engines(engines):
    for name, engine in engines.items():
        if name != "memory":
            engine.close()


class TestBulkEquivalenceClass:
    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_on_state_returns_and_pagination(self, ops, tmp_path_factory):
        engines = build_engines(tmp_path_factory)
        returned = {name: apply_operations(engine, ops) for name, engine in engines.items()}
        states = {name: observable_state(engine) for name, engine in engines.items()}

        reference_returned = returned["memory"]
        reference_state = states["memory"]
        present_keys = [key for key, _ in reference_state["items"]]
        probe = sorted({first for op, first, _ in ops if op == "put"})
        probe = (probe + ["zz-missing"])[:6]

        reference_lookup = engines["memory"].get_many("t", probe, default="<absent>")
        for name, engine in engines.items():
            assert returned[name] == reference_returned, name
            assert states[name] == reference_state, name
            assert engine.get_many("t", probe, default="<absent>") == reference_lookup, name
            for page_size in (1, 2, 5):
                expected = [
                    (r.key, r.value, r.version) for r in engines["memory"].scan("t")
                ]
                assert paginate_fully(engine, page_size) == expected, (name, page_size)
                assert engine.scan_keys("t", limit=page_size) == [
                    key for key, _, _ in expected[:page_size]
                ], (name, page_size)
            if present_keys:
                # A mid-table cursor yields exactly the suffix after it.
                cursor = present_keys[len(present_keys) // 2]
                suffix = [
                    (r.key, r.value) for r in engine.scan("t", start_after=cursor)
                ]
                position = present_keys.index(cursor)
                assert suffix == reference_state["items"][position + 1 :], name

        close_engines(engines)

    @given(
        stored=st.lists(st.tuples(few_keys, json_values), max_size=5),
        batch=st.lists(st.tuples(few_keys, json_values), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_if_absent_batch_mixing_present_absent_and_repeated_keys(
        self, stored, batch, tmp_path_factory
    ):
        # Six possible keys: a batch of up to eight repeats some, and the
        # pre-stored ones (upserted, so versions above 1 exist) are present.
        engines = build_engines(tmp_path_factory)
        outcomes = {}
        for name, engine in engines.items():
            engine.create_table("t")
            engine.put_many("t", stored)
            records = engine.put_many("t", batch, if_absent=True)
            outcomes[name] = (
                [(r.key, r.value, r.version) for r in records],
                observable_state(engine),
            )
        returned, state = outcomes["memory"]
        assert [key for key, _, _ in returned] == [key for key, _ in batch]
        first_seen = {}
        for key, value, version in returned:
            assert first_seen.setdefault(key, (value, version)) == (value, version)
        for name in engines:
            assert outcomes[name] == (returned, state), name
        close_engines(engines)

    @given(ops=operations)
    @settings(max_examples=25, deadline=None)
    def test_log_engine_recovers_bulk_writes(self, ops, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("bulk_prop_log") / "p")
        reference = MemoryEngine()
        apply_operations(reference, ops)

        engine = LogStructuredEngine(path, snapshot_every=1000)
        apply_operations(engine, ops)
        # Simulate a crash: drop the in-memory state without snapshotting,
        # then recover purely from the log's group-append records.
        engine._log_file.close()
        engine._closed = True
        recovered = LogStructuredEngine(path, snapshot_every=1000)
        assert observable_state(recovered) == observable_state(reference)
        recovered.close()

    @given(ops=operations, bad_cursor=st.text(alphabet="xyz", min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_unknown_cursor_raises_on_every_engine(self, ops, bad_cursor, tmp_path_factory):
        engines = build_engines(tmp_path_factory)
        for name, engine in engines.items():
            apply_operations(engine, ops)
            with pytest.raises(StorageError):
                list(engine.scan("t", start_after=bad_cursor))
            with pytest.raises(ValueError):
                list(engine.scan("t", limit=-1))
        close_engines(engines)
