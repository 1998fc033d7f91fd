"""Scenario-harness integration tier: replay determinism, chaos, transports.

The central guarantee under test: a :class:`ScenarioSpec` is a pure
function from seed to bytes.  Running the same spec twice — or on a
different storage backend, a different transport, or a ring that loses a
member and rebalances mid-run — must produce byte-identical event logs,
collected answers and metrics reports (only the ``timing`` section may
differ, and it is excluded from the canonical encodings).
"""

from __future__ import annotations

import json

import pytest

from repro.core.budget import BudgetExceededError
from repro.storage.sqlite_engine import SqliteEngine
from repro.workload import ScenarioRunner, ScenarioSpec, SpammerWave

pytestmark = pytest.mark.workload


def strip_backend(result) -> dict:
    """The report minus its spec echo (backends legitimately differ there)."""
    report = json.loads(result.canonical_report)
    report.pop("scenario")
    return report


@pytest.fixture
def runner(tmp_path):
    return ScenarioRunner(str(tmp_path))


BASE = ScenarioSpec(
    name="replay",
    seed=29,
    arrival="diurnal",
    rate=4.0,
    num_tasks=80,
    batch_size=25,
    num_keys=60,
    zipf_skew=0.9,
    pool_size=14,
    redundancy=3,
    straggler_fraction=0.1,
    storage="sqlite",
)


class TestReplayDeterminism:
    def test_same_spec_twice_is_byte_identical_on_sqlite(self, runner):
        first = runner.run(BASE)
        second = runner.run(BASE)
        assert first.run_dir != second.run_dir  # fresh dirs: a true replay
        assert first.canonical_events == second.canonical_events
        assert first.canonical_collected == second.canonical_collected
        assert first.canonical_report == second.canonical_report

    @pytest.mark.ring
    def test_same_spec_twice_is_byte_identical_on_ring(self, runner):
        spec = BASE.with_backend("ring", replicas=2)
        first = runner.run(spec)
        second = runner.run(spec)
        assert first.canonical_events == second.canonical_events
        assert first.canonical_collected == second.canonical_collected
        assert first.canonical_report == second.canonical_report

    @pytest.mark.ring
    def test_every_backend_produces_the_sqlite_bytes(self, runner):
        reference = runner.run(BASE)
        for spec in (
            BASE.with_backend("memory"),
            BASE.with_backend("sharded"),
            BASE.with_backend("ring", replicas=2),
            BASE.with_backend("sqlite", transport="pipelined"),
        ):
            other = runner.run(spec)
            assert other.canonical_events == reference.canonical_events, spec.storage
            assert (
                other.canonical_collected == reference.canonical_collected
            ), spec.storage
            assert strip_backend(other) == strip_backend(reference), spec.storage

    def test_durable_platform_matches(self, runner):
        from dataclasses import replace

        reference = runner.run(BASE)
        durable = runner.run(replace(BASE, durable_platform=True))
        assert durable.canonical_collected == reference.canonical_collected
        assert strip_backend(durable) == strip_backend(reference)

    def test_different_seed_different_bytes(self, runner):
        from dataclasses import replace

        first = runner.run(BASE)
        second = runner.run(replace(BASE, seed=BASE.seed + 1))
        assert first.canonical_collected != second.canonical_collected


class TestScenarioChaos:
    """Satellite: skewed-key bursty workload on ring R=2, member killed and
    rebalanced mid-run — bytes must match the sqlite reference."""

    CHAOS = ScenarioSpec(
        name="chaos",
        seed=31,
        arrival="bursty",
        rate=4.0,
        burst_multiplier=10.0,
        burst_every_seconds=40.0,
        burst_duration_seconds=4.0,
        num_tasks=120,
        batch_size=20,
        num_keys=80,
        zipf_skew=1.2,
        pool_size=12,
        storage="ring",
        storage_shards=3,
        replicas=2,
    )

    @pytest.mark.ring
    @pytest.mark.replica
    def test_member_kill_and_rebalance_mid_run_matches_sqlite(
        self, runner, tmp_path
    ):
        fired = []

        def chaos(context, batch_index):
            if batch_index == 1:
                context.engine.mark_down("ring-01")
                fired.append("kill")
            elif batch_index == 3:
                context.engine.rebalance(
                    add={"ring-90": SqliteEngine(str(tmp_path / "ring-90.db"))}
                )
                fired.append("rebalance")

        chaotic = runner.run(self.CHAOS, on_batch=chaos)
        assert fired == ["kill", "rebalance"]
        reference = runner.run(self.CHAOS.with_backend("sqlite", replicas=1))
        assert chaotic.canonical_collected == reference.canonical_collected
        assert chaotic.canonical_events == reference.canonical_events
        assert strip_backend(chaotic) == strip_backend(reference)
        # The skew actually skewed: fewer unique tasks than arrivals.
        workload = chaotic.report["workload"]
        assert workload["unique_tasks"] < workload["arrivals"]


class TestMarketplaceDynamics:
    def test_spammer_wave_degrades_accuracy_deterministically(self, runner):
        from dataclasses import replace

        calm = replace(
            BASE,
            name="wave",
            storage="memory",
            straggler_fraction=0.0,
            mean_accuracy=0.95,
            accuracy_spread=0.03,
        )
        wave = replace(
            calm, spammer_wave=SpammerWave(0.25, 0.75, 0.5)
        )
        calm_result = runner.run(calm)
        wave_result = runner.run(wave)
        assert calm_result.report["quality"]["accuracy"] > (
            wave_result.report["quality"]["accuracy"]
        )
        assert any(entry["wave_active"] for entry in wave_result.event_log)
        assert not wave_result.event_log[0]["wave_active"]
        assert wave_result.report["pool"]["wave_toggles"] >= 2

    def test_metrics_report_shape_and_economics(self, runner):
        result = runner.run(BASE)
        report = result.report
        workload = report["workload"]
        assert workload["arrivals"] == BASE.num_tasks
        assert workload["unique_tasks"] == len(result.collected)
        assert workload["answers"] == workload["unique_tasks"] * BASE.redundancy
        overall = report["latency"]["overall"]
        assert overall["count"] == workload["unique_tasks"]
        assert overall["p50"] <= overall["p95"] <= overall["p99"] <= overall["max"]
        for name, summary in report["latency"]["by_type"].items():
            assert 0.0 <= summary["sla_attainment"] <= 1.0
            assert summary["sla"] > 0
        economics = report["economics"]
        assert economics["assignments_purchased"] == workload["answers"]
        assert economics["spent"] == pytest.approx(
            workload["answers"] * BASE.price_per_assignment
        )
        assert economics["marketplace_cost"] > 0
        assert report["timing"]["wall_seconds"] > 0
        # Every unique key appears exactly once, sorted, fully answered.
        keys = [entry["key"] for entry in result.collected]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(
            len(entry["answers"]) == BASE.redundancy for entry in result.collected
        )

    def test_adaptive_scenario_spends_less_and_reports_stats(self, runner):
        from dataclasses import replace

        fixed = replace(BASE, name="fixed", storage="memory", redundancy=5)
        adaptive = replace(fixed, name="adaptive", adaptive=True)
        fixed_result = runner.run(fixed)
        adaptive_result = runner.run(adaptive)
        stats = adaptive_result.report["quality"]["adaptive"]
        assert stats["rounds"] >= 1
        assert stats["answers_collected"] == (
            adaptive_result.report["workload"]["answers"]
        )
        assert (
            adaptive_result.report["workload"]["answers"]
            < fixed_result.report["workload"]["answers"]
        )
        # Replay determinism holds on the adaptive path too.
        assert (
            runner.run(adaptive).canonical_collected
            == adaptive_result.canonical_collected
        )
        assert "adaptive" not in fixed_result.report["quality"]

    def test_adaptive_threshold_is_validated(self):
        from dataclasses import replace

        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            replace(BASE, adaptive_threshold=1.5).validate()

    def test_budget_cap_surfaces_budget_exceeded(self, runner):
        from dataclasses import replace

        capped = replace(
            BASE,
            storage="memory",
            budget=10 * BASE.redundancy * BASE.price_per_assignment,
        )
        with pytest.raises(BudgetExceededError):
            runner.run(capped)


@pytest.mark.wire
class TestWireScenario:
    def test_wire_scenario_replays_deterministically(self, runner):
        spec = ScenarioSpec(
            name="wire",
            seed=47,
            num_tasks=40,
            batch_size=20,
            num_keys=30,
            zipf_skew=0.8,
            pool_size=10,
            transport="wire",
            acceptance_mean=1.0,
            acceptance_spread=0.0,
            speed_spread=0.0,
            accuracy_spread=0.0,
        )
        first = runner.run(spec)
        second = runner.run(spec)
        assert first.canonical_collected == second.canonical_collected
        assert first.canonical_events == second.canonical_events
        assert first.report["workload"]["arrivals"] == 40
