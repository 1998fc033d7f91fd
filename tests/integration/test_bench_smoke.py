"""Tier-1 smoke of the benchmark harnesses: one iteration at toy scale.

Keeps ``benchmarks/bench_bulk_path.py`` and
``benchmarks/bench_platform_store.py`` importable and behaviourally correct
on every test run without paying their full-scale cost — the full runs (and
their speedup assertions) stay behind ``make bench``.  The benchmark modules
are loaded by file path because benchmarks/ is a script directory, not a
package.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def load_bench_module(name: str):
    # Bench modules import their shared helpers (record.py) as top-level
    # modules, exactly as pytest's script-directory collection resolves
    # them — mirror that here since we load by file path.
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(f"{name}_smoke", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bulk_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_bulk_path")
    # run_comparison itself asserts both modes end with identical platform
    # and cache state; at toy scale we check the harness, not the speedup.
    comparison = bench.run_comparison(str(tmp_path), 40)
    assert comparison["row"]["cached_tasks"] == 40
    assert comparison["bulk"]["cached_results"] == 40
    assert comparison["bulk"]["task_runs"] == 40 * bench.REDUNDANCY
    assert comparison["speedup"] > 0


def test_platform_store_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_platform_store")
    # run_backend itself asserts publish/simulate/collect all cover every
    # task; at toy scale we check the harness on one in-memory and one
    # durable backend, not the throughput.
    for backend in ("memory", "durable-sqlite"):
        row = bench.run_backend(backend, str(tmp_path / backend), 30, 10)
        assert row["backend"] == backend
        assert row["tasks"] == 30


def test_ring_rebalance_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_ring_rebalance")
    # run_rebalance_experiment itself asserts the E13 acceptance criteria
    # (moved < 2x ideal K/N, byte-identical post-rebalance scan); at toy
    # scale we check the harness and those structural guarantees, not the
    # wall-clock numbers.
    row = bench.run_rebalance_experiment(str(tmp_path / "rebalance"), 250)
    assert row["keys_moved"] < 2 * 250 / (bench.BASE_MEMBERS + 1)
    assert row["moved_pct"] < row["naive_modulo_pct"]
    parity = bench.run_scan_parity(str(tmp_path / "parity"), 120)
    assert {entry["engine"] for entry in parity} == {"ring", "sharded"}


def test_ring_replication_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_ring_replication")
    # run_write_amplification itself asserts the physical copy counts
    # (R=1 stores K rows, R=2 stores 2K) and run_degraded_read asserts the
    # post-kill scan is byte-identical; at toy scale we check the harness
    # and those structural guarantees, not the wall-clock numbers.
    amplification = bench.run_write_amplification(str(tmp_path / "amp"), 120)
    assert [row["replicas"] for row in amplification] == [1, 2]
    assert amplification[0]["physical_copies"] == 120
    assert amplification[1]["physical_copies"] == 240
    degraded = bench.run_degraded_read(str(tmp_path / "degraded"), 120)
    assert degraded["scan_identical"]


def test_pipelined_transport_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_pipelined_transport")
    # run_mode itself asserts publish/simulate/collect cover every task and
    # the two modes are compared on identical contents by the full test; at
    # toy scale we check both harness paths run, not the speedup.
    serial = bench.run_mode("serial", 40, 10, latency=0.0)
    pipelined = bench.run_mode("pipelined", 40, 10, latency=0.0)
    assert serial.pop("_collected") == pipelined.pop("_collected")
    assert serial["tasks"] == pipelined["tasks"] == 40


def test_hot_path_benchmark_smoke_single_iteration(tmp_path):
    bench = load_bench_module("bench_hot_path")
    # Each E16 harness asserts its own structural invariants (byte-identical
    # ring scans, decode == original); at toy scale we check those harnesses
    # run, not the speedups.
    reopen = bench.run_ring_reopen(str(tmp_path / "ring"), 60, 15)
    assert reopen["keys"] == 60
    assert reopen["fresh_keys"] == 15
    codecs = bench.run_codec_comparison(25)
    assert [row["codec"] for row in codecs] == ["json", "binary"]
    assert codecs[1]["encoded_bytes"] < codecs[0]["encoded_bytes"]
    log_append = bench.run_log_append(str(tmp_path / "log"), 30)
    assert log_append["records"] == 30


def test_workload_benchmark_smoke_single_run(tmp_path):
    bench = load_bench_module("bench_workload")
    # run_backend drives a full scenario end-to-end; assert_slas_met holds
    # the deterministic per-type p99-under-SLA guarantee at toy scale too.
    # The cross-backend byte-identity and the throughput floor stay behind
    # `make bench`.
    spec = bench.build_spec(60, "sqlite")
    result, row = bench.run_backend(str(tmp_path), spec)
    assert row["tasks"] == 60
    assert row["answers"] == row["unique_tasks"] * spec.redundancy
    by_type = bench.assert_slas_met(result)
    assert by_type and all(
        entry["latency_p99"] < entry["sla"] for entry in by_type.values()
    )


def test_adaptive_quality_benchmark_smoke_single_run():
    bench = load_bench_module("bench_adaptive_quality")
    # run_adaptive itself asserts E18's structural guarantees (no per-task
    # run fetches, O(pages) round trips, online EM == batch EM on every
    # item); at toy scale we check the harness and the answer savings, not
    # the full-scale floors (those stay behind `make bench`).
    from repro.datasets import make_image_label_dataset

    dataset = make_image_label_dataset(num_images=40, seed=bench.SEED)
    fixed = bench.run_fixed(dataset)
    adaptive, detail = bench.run_adaptive(dataset)
    assert fixed["answers"] == 40 * bench.FIXED_REDUNDANCY
    assert adaptive["answers"] < fixed["answers"]
    assert detail["em_decision_disagreements"] == 0
    assert detail["em_items_checked"] == 40
    assert detail["rounds"] >= 1


def test_wire_cluster_benchmark_smoke_single_point(tmp_path):
    bench = load_bench_module("bench_wire_cluster")
    # One scaling point and the shared-dedup race at toy scale: checks the
    # harness spawns real server processes and the exactly-once assert
    # holds; the full sweep (and the committed BENCH_E14.json trajectory)
    # stays behind `make bench`.
    row = bench.run_scaling_point(str(tmp_path / "scale"), clients=1, tasks=10)
    assert row["total_tasks"] == 10
    assert row["tasks_per_second"] > 0
    race = bench.run_shared_dedup_race(str(tmp_path / "dedup"), clients=2, keys=6)
    assert race["exactly_once"]
    assert race["shared_keys"] == 6
