"""E16 — hot-path speed program: snapshot reopen, codecs, batched log append.

Two measurements behind one experiment id:

* **Persistent ring sequence index** — a 3-member sqlite ring holding
  ``NUM_KEYS`` keys, reopened three ways: from its ``idx::`` snapshot, from
  a snapshot plus ``FRESH_KEYS`` unsnapshotted writes (the crash-replay
  path), and with snapshots stripped (the historical O(K) rebuild).  Full
  scale asserts the snapshot reopen beats the rebuild by at least
  ``MIN_REOPEN_RATIO`` and that replaying the fresh tail costs at most
  ``MAX_REPLAY_RATIO`` of a clean snapshot reopen.  (The snapshot parse
  itself is O(K) at C speed, so reopen is not literally O(1) — the wins
  measured here are what the snapshot actually buys.)

* **Record codecs** — encode+decode throughput and stored size for the
  ``json`` vs ``binary`` codec over task-like payloads.  Full scale asserts
  binary is strictly smaller; speed is reported, not asserted (the binary
  walker is pure Python while ``json`` is a C extension, so text wins raw
  speed until payloads get large).

Also reports the log engine's batched append (one buffered write+flush per
``put_many`` instead of one per record).
"""

from __future__ import annotations

import os

import pytest

from repro.simulation import ExperimentRunner
from repro.storage import CODECS, ConsistentHashEngine, LogStructuredEngine, SqliteEngine
from repro.storage.ring import RING_META_TABLE, _INDEX_KEY_PREFIX
from repro.utils.timing import Stopwatch

from record import write_trajectory

pytestmark = pytest.mark.slow

NUM_KEYS = 20_000
SMOKE_KEYS = 400
FRESH_KEYS = 200
RING_MEMBERS = 3
MIN_REOPEN_RATIO = 4.0
MAX_REPLAY_RATIO = 1.5

NUM_PAYLOADS = 10_000
SMOKE_PAYLOADS = 200

LOG_RECORDS = 5_000
SMOKE_LOG_RECORDS = 200

TABLE = "items"


# -- ring reopen ----------------------------------------------------------------


def build_ring(base_dir: str) -> ConsistentHashEngine:
    return ConsistentHashEngine(
        {
            f"ring-{index:02d}": SqliteEngine(
                os.path.join(base_dir, f"ring-{index:02d}.db")
            )
            for index in range(RING_MEMBERS)
        }
    )


def time_reopen(base_dir: str) -> float:
    """Open the ring and force its sequence index; return the elapsed time.

    The engine is abandoned (children closed directly, no ring ``close``):
    after a rebuild or a tail replay the index is dirty, and a ring close
    would persist a fresh snapshot — turning the other timing iterations
    into snapshot loads of what they mean to measure.
    """
    with Stopwatch() as watch:
        engine = build_ring(base_dir)
        engine._index(TABLE)
    for child in engine._children.values():
        child.close()
    return watch.elapsed


def run_ring_reopen(base_dir: str, num_keys: int, fresh_keys: int) -> dict:
    os.makedirs(base_dir, exist_ok=True)
    engine = build_ring(base_dir)
    engine.create_table(TABLE)
    engine.put_many(
        TABLE, [(f"key-{i:06d}", {"i": i}) for i in range(num_keys)]
    )
    engine.close()  # writes the idx:: snapshot

    snapshot_seconds = min(time_reopen(base_dir) for _ in range(3))

    # The crash-replay path: fresh writes after the snapshot, then an
    # abandoned (never-closed) engine, so reopen must replay the tail.
    dirty = build_ring(base_dir)
    dirty.put_many(
        TABLE,
        [(f"fresh-{i:06d}", {"i": i}) for i in range(fresh_keys)],
    )
    # Abandon without close: the snapshot stays stale by fresh_keys writes.
    del dirty
    replay_seconds = min(time_reopen(base_dir) for _ in range(3))

    # Refresh the snapshot (close writes it), then strip every idx:: record
    # to time the historical full rebuild over the same data.
    refreshed = build_ring(base_dir)
    reference = [
        (record.key, record.value) for record in refreshed.scan(TABLE, limit=5)
    ]
    refreshed.close()
    stripper = build_ring(base_dir)
    for child in stripper._children.values():
        child.delete(RING_META_TABLE, _INDEX_KEY_PREFIX + TABLE)
    # Drop without close: close would helpfully re-snapshot the index.
    for child in stripper._children.values():
        child.close()
    del stripper
    rebuild_seconds = min(time_reopen(base_dir) for _ in range(3))

    # Whatever the path, the engine serves identical data.
    verifier = build_ring(base_dir)
    assert [
        (record.key, record.value) for record in verifier.scan(TABLE, limit=5)
    ] == reference
    assert verifier.count(TABLE) == num_keys + fresh_keys
    verifier.close()

    return {
        "keys": num_keys,
        "fresh_keys": fresh_keys,
        "snapshot_reopen_seconds": round(snapshot_seconds, 4),
        "replay_reopen_seconds": round(replay_seconds, 4),
        "rebuild_reopen_seconds": round(rebuild_seconds, 4),
        "snapshot_vs_rebuild": round(
            rebuild_seconds / max(snapshot_seconds, 1e-9), 1
        ),
        "replay_vs_snapshot": round(
            replay_seconds / max(snapshot_seconds, 1e-9), 2
        ),
    }


# -- codecs ---------------------------------------------------------------------


def task_payload(i: int) -> dict:
    return {
        "task_id": i,
        "project_id": 3,
        "info": {"url": f"https://example.com/img-{i:06d}.png", "i": i},
        "runs": [
            {
                "run_id": i * 3 + j,
                "worker_id": f"w{j:03d}",
                "answer": "Yes",
                "submitted_at": 1000.0 + i,
            }
            for j in range(3)
        ],
    }


def run_codec_comparison(num_payloads: int) -> list[dict]:
    payloads = [task_payload(i) for i in range(num_payloads)]
    rows = []
    for name in ("json", "binary"):
        codec = CODECS[name]
        with Stopwatch() as encode:
            encoded = codec.encode_many(payloads)
        with Stopwatch() as decode:
            decoded = codec.decode_many(encoded)
        assert decoded == payloads
        total_bytes = sum(len(data) for data in encoded)
        rows.append(
            {
                "codec": name,
                "payloads": num_payloads,
                "encoded_bytes": total_bytes,
                "bytes_per_payload": round(total_bytes / num_payloads, 1),
                "encode_seconds": round(encode.elapsed, 4),
                "decode_seconds": round(decode.elapsed, 4),
            }
        )
    json_bytes = rows[0]["encoded_bytes"]
    for row in rows:
        row["size_vs_json"] = round(row["encoded_bytes"] / json_bytes, 3)
    return rows


# -- log append batching --------------------------------------------------------


def run_log_append(base_dir: str, num_records: int) -> dict:
    os.makedirs(base_dir, exist_ok=True)
    items = [(f"key-{i:06d}", {"i": i}) for i in range(num_records)]

    single = LogStructuredEngine(
        os.path.join(base_dir, "single"), snapshot_every=10**9
    )
    single.create_table(TABLE)
    with Stopwatch() as one_by_one:
        for key, value in items:
            single.put(TABLE, key, value)
    single.close()

    batched = LogStructuredEngine(
        os.path.join(base_dir, "batched"), snapshot_every=10**9
    )
    batched.create_table(TABLE)
    with Stopwatch() as batch:
        batched.put_many(TABLE, items)
    assert batched.count(TABLE) == num_records
    batched.close()

    return {
        "records": num_records,
        "put_seconds": round(one_by_one.elapsed, 3),
        "put_many_seconds": round(batch.elapsed, 3),
        "batch_speedup": round(one_by_one.elapsed / max(batch.elapsed, 1e-9), 1),
    }


def test_hot_path_speedups(record_table, tmp_path, bench_scale):
    smoke = bench_scale == "smoke"
    num_keys = SMOKE_KEYS if smoke else NUM_KEYS
    num_payloads = SMOKE_PAYLOADS if smoke else NUM_PAYLOADS
    log_records = SMOKE_LOG_RECORDS if smoke else LOG_RECORDS

    reopen = run_ring_reopen(str(tmp_path / "ring"), num_keys, FRESH_KEYS)
    codecs = run_codec_comparison(num_payloads)
    log_append = run_log_append(str(tmp_path / "log"), log_records)

    reopen_runner = ExperimentRunner(
        f"E16 — ring reopen paths ({num_keys} keys + {FRESH_KEYS} unsnapshotted, "
        f"{RING_MEMBERS} sqlite members)"
    )
    reopen_sweep = reopen_runner.run([{}], lambda point: {})
    reopen_sweep.rows = [reopen]
    record_table(
        "E16_ring_reopen",
        reopen_sweep.to_table(
            columns=[
                "keys",
                "fresh_keys",
                "snapshot_reopen_seconds",
                "replay_reopen_seconds",
                "rebuild_reopen_seconds",
                "snapshot_vs_rebuild",
                "replay_vs_snapshot",
            ]
        ),
    )
    codec_runner = ExperimentRunner(
        f"E16 — record codecs over {num_payloads} task payloads "
        f"(binary {codecs[1]['size_vs_json']}x the json size); log batched "
        f"append {log_append['batch_speedup']}x"
    )
    codec_sweep = codec_runner.run([{}], lambda point: {})
    codec_sweep.rows = codecs + [
        {"codec": "log-append", **{k: v for k, v in log_append.items()}}
    ]
    record_table(
        "E16_codec_log",
        codec_sweep.to_table(
            columns=[
                "codec",
                "payloads",
                "bytes_per_payload",
                "size_vs_json",
                "encode_seconds",
                "decode_seconds",
            ]
        ),
    )

    if not smoke:
        assert reopen["snapshot_vs_rebuild"] >= MIN_REOPEN_RATIO, (
            f"snapshot reopen is only {reopen['snapshot_vs_rebuild']}x faster "
            f"than the rebuild (required >= {MIN_REOPEN_RATIO}x)"
        )
        assert reopen["replay_vs_snapshot"] <= MAX_REPLAY_RATIO, (
            f"replaying {FRESH_KEYS} fresh keys cost "
            f"{reopen['replay_vs_snapshot']}x a clean snapshot reopen "
            f"(allowed <= {MAX_REPLAY_RATIO}x)"
        )
        assert codecs[1]["encoded_bytes"] < codecs[0]["encoded_bytes"], (
            "binary codec must store task payloads smaller than json"
        )
        # The trajectory file is a committed artifact tracking full-scale
        # numbers across PRs; a toy-scale smoke pass must not clobber it.
        write_trajectory(
            "E16",
            {
                "scale": bench_scale,
                "ring_reopen": reopen,
                "codecs": codecs,
                "log_append": log_append,
            },
        )
