# Developer entry points. Tier-1 CI runs `make test`.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test test-fast test-ring test-replica test-wire test-workload test-quality bench bench-smoke bench-e0 bench-e0-smoke bench-trend profile docs-check examples-check import-check check

test:
	$(PYTEST) -x -q

# Quick loop: skip Hypothesis property suites and slow-marked tests.
test-fast:
	$(PYTEST) -x -q -m "not property and not slow"

# Everything ring-marked: the consistent-hash engine, its rebalance crash
# sweep and property suites, plus the E13 benchmark at smoke scale.
test-ring:
	$(PYTEST) -x -q -m ring
	$(PYTEST) benchmarks/bench_ring_rebalance.py -q --bench-scale=smoke

# Everything replica-marked: the replicated-placement, failover and chaos
# suites, plus the E15 benchmark at smoke scale.
test-replica:
	$(PYTEST) -x -q -m replica
	$(PYTEST) benchmarks/bench_ring_replication.py -q --bench-scale=smoke

# Everything wire-marked: the cross-process server cluster suite plus the
# E14 benchmark at smoke scale (real sockets, spawned server processes).
test-wire:
	$(PYTEST) -x -q -m wire
	$(PYTEST) benchmarks/bench_wire_cluster.py -q --bench-scale=smoke

# Everything workload-marked: arrival/marketplace generators, the scenario
# harness and its property/chaos/RNG-audit suites, plus the E17 benchmark
# at smoke scale.
test-workload:
	$(PYTEST) -x -q -m workload
	$(PYTEST) benchmarks/bench_workload.py -q --bench-scale=smoke

# Everything quality-marked: incremental aggregation, the streaming
# adaptive loop and its property suites, plus the E18 benchmark at smoke
# scale.
test-quality:
	$(PYTEST) -x -q -m quality
	$(PYTEST) benchmarks/bench_adaptive_quality.py -q --bench-scale=smoke

# Full benchmark harness (writes tables under benchmarks/results/).
bench:
	$(PYTEST) benchmarks -q

# One-iteration benchmark sanity pass at toy scale (seconds, not minutes).
bench-smoke:
	$(PYTEST) benchmarks/bench_bulk_path.py benchmarks/bench_sharded_scan.py benchmarks/bench_platform_store.py benchmarks/bench_pipelined_transport.py benchmarks/bench_ring_rebalance.py benchmarks/bench_ring_replication.py benchmarks/bench_wire_cluster.py benchmarks/bench_hot_path.py benchmarks/bench_workload.py benchmarks/bench_adaptive_quality.py -q --bench-scale=smoke

# E0, the canonical end-to-end benchmark (BENCHMARK.json is its contract):
# seven requester programs, end-to-end metrics plus the traced per-layer
# table.  See benchmarks/e0/README.md.
bench-e0:
	python3 benchmarks/e0/run.py --seed 11

# E0 at toy sizes (same code paths and checks, never the baseline) plus the
# harness's own self-checks.
bench-e0-smoke:
	python3 benchmarks/e0/run.py --seed 11 --scale smoke
	python -m pytest benchmarks/e0 -q

# Diff the working-tree BENCH_*.json trajectories against the ones committed
# at BASE (a git ref; default HEAD~1, the parent of the commit under review);
# fail on any >20% regression of a tracked metric.  A trajectory identical
# to its base is reported as skipped, not as a pass.
bench-trend:
	python tools/bench_trend.py $(if $(BASE),--base $(BASE))

# cProfile the hot-path benchmarks (smoke scale by default; SCALE=full for
# paper scale); prints top-25 by cumulative time, saves .pstats under
# benchmarks/results/.  `make profile E0=stream_sqlite` profiles one cold
# repetition of that E0 program instead (full sizes unless SCALE=smoke).
# SORT=tottime ranks by own time; CALLERS='<regex>' adds the callers of the
# matching functions.
profile:
	PYTHONPATH=src python tools/profile_bench.py $(if $(SCALE),--scale $(SCALE)) $(if $(E0),--e0 $(E0)) $(if $(SORT),--sort $(SORT)) $(if $(CALLERS),--callers '$(CALLERS)') --top 25

# Lint README/docs links + cross-links, check config-field and benchmark
# coverage, and run examples/quickstart.py headlessly.
docs-check:
	PYTHONPATH=src python tools/docs_check.py

# Run every examples/*.py headlessly; each must exit 0.
examples-check:
	PYTHONPATH=src python tools/examples_check.py

# What each entry point imports in a fresh interpreter (modules, repro.*
# modules, numpy, max-RSS, wall); fails when a count exceeds its budget row
# in docs/architecture.md ("Import layering and cold start").
import-check:
	python tools/import_budget.py

# The pre-PR gate: quick tests, docs lint + quickstart, examples, the import
# budget, bench smoke, E0 smoke, and the benchmark trend gate (trajectories
# this change refreshed vs HEAD~1; smoke runs write none, so it usually
# reports skipped).
check: test-fast docs-check examples-check import-check bench-smoke bench-e0-smoke bench-trend
