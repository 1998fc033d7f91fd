"""Unit tests for the workload generators and the marketplace model."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConfigurationError, NoEligibleWorkerError
from repro.workers.behavior import NoisyWorker, SpammerWorker
from repro.workers.latency import ConstantLatency, PerTypeLatency
from repro.workload import (
    DEFAULT_TASK_TYPES,
    BurstyProcess,
    DiurnalProcess,
    MarketplacePresenter,
    PoissonProcess,
    ScenarioSpec,
    SpammerWave,
    TaskType,
    ZipfKeyGenerator,
    assign_task_type,
    build_arrival_process,
    build_marketplace_pool,
    latency_summary,
    make_objects,
    marketplace_ground_truth,
    percentile,
    sla_attainment,
)

pytestmark = pytest.mark.workload


class TestArrivalProcesses:
    def test_poisson_emits_exact_count_strictly_increasing(self):
        arrivals = PoissonProcess(rate=5.0).generate(200, random.Random(3))
        assert len(arrivals) == 200
        assert [a.index for a in arrivals] == list(range(200))
        times = [a.time for a in arrivals]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert times[0] > 0

    def test_same_seed_same_stream(self):
        first = PoissonProcess(2.0).generate(50, random.Random(11))
        second = PoissonProcess(2.0).generate(50, random.Random(11))
        assert first == second
        different = PoissonProcess(2.0).generate(50, random.Random(12))
        assert first != different

    def test_bursty_concentrates_arrivals_in_burst_windows(self):
        process = BurstyProcess(
            base_rate=1.0,
            burst_multiplier=20.0,
            burst_every_seconds=60.0,
            burst_duration_seconds=5.0,
        )
        arrivals = process.generate(400, random.Random(5))
        in_burst = sum(1 for a in arrivals if process.in_burst(a.time))
        # Burst windows are 1/12 of the timeline but carry 20x the rate:
        # they should hold well over half of all arrivals.
        assert in_burst / len(arrivals) > 0.5

    def test_diurnal_rate_oscillates_between_extremes(self):
        process = DiurnalProcess(base_rate=10.0, amplitude=0.8, period_seconds=100.0)
        assert process.rate_at(25.0) == pytest.approx(18.0)  # peak at T/4
        assert process.rate_at(75.0) == pytest.approx(2.0)  # trough at 3T/4
        assert process.peak_rate == pytest.approx(18.0)
        arrivals = process.generate(300, random.Random(9))
        assert len(arrivals) == 300

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            build_arrival_process("weibull", 1.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(1.0, burst_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            BurstyProcess(1.0, burst_every_seconds=5.0, burst_duration_seconds=5.0)
        with pytest.raises(ConfigurationError):
            DiurnalProcess(1.0, amplitude=1.5)
        with pytest.raises(ConfigurationError):
            PoissonProcess(3.0).generate(-1, random.Random(0))

    def test_factory_builds_each_kind(self):
        assert isinstance(build_arrival_process("poisson", 2.0), PoissonProcess)
        assert isinstance(build_arrival_process("bursty", 2.0), BurstyProcess)
        assert isinstance(build_arrival_process("diurnal", 2.0), DiurnalProcess)


class TestZipfKeys:
    def test_skew_zero_is_uniform(self):
        generator = ZipfKeyGenerator(num_keys=10, skew=0.0)
        assert generator.probabilities() == pytest.approx([0.1] * 10)

    def test_skew_concentrates_on_low_ranks(self):
        skewed = ZipfKeyGenerator(num_keys=100, skew=1.2)
        probabilities = skewed.probabilities()
        assert probabilities[0] > 0.15
        assert probabilities[0] > probabilities[1] > probabilities[50]
        assert sum(probabilities) == pytest.approx(1.0)

    def test_sample_determinism_and_key_format(self):
        generator = ZipfKeyGenerator(num_keys=50, skew=1.0)
        first = generator.sample_many(100, random.Random(21))
        second = generator.sample_many(100, random.Random(21))
        assert first == second
        assert all(key.startswith("k") and len(key) == 6 for key in first)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfKeyGenerator(num_keys=5, skew=-0.1)
        with pytest.raises(Exception):
            ZipfKeyGenerator(num_keys=0)
        with pytest.raises(ConfigurationError):
            ZipfKeyGenerator(num_keys=5).key(5)


class TestTaskTypesAndTruth:
    def test_assignment_is_deterministic_and_weight_sensitive(self):
        types = DEFAULT_TASK_TYPES
        keys = [f"k{i:05d}" for i in range(600)]
        assigned = [assign_task_type(key, types).name for key in keys]
        assert assigned == [assign_task_type(key, types).name for key in keys]
        counts = {name: assigned.count(name) for name in ("label", "compare", "transcribe")}
        # weights 3:2:1 over 600 keys — label should dominate transcribe.
        assert counts["label"] > counts["transcribe"]
        assert set(counts) == {t.name for t in types}

    def test_ground_truth_stable_and_in_candidates(self):
        truth = marketplace_ground_truth(DEFAULT_TASK_TYPES)
        objects = make_objects([f"k{i:05d}" for i in range(40)], DEFAULT_TASK_TYPES)
        by_name = {t.name: t for t in DEFAULT_TASK_TYPES}
        for obj in objects:
            answer = truth(obj)
            assert answer == truth(obj)
            assert answer in by_name[obj["type"]].candidates

    def test_task_type_validation(self):
        with pytest.raises(ConfigurationError):
            TaskType(name="", candidates=("a", "b")).validate()
        with pytest.raises(ConfigurationError):
            TaskType(name="solo", candidates=("only",)).validate()
        with pytest.raises(Exception):
            TaskType(name="bad", weight=-1.0).validate()

    def test_task_type_mapping_roundtrip(self):
        original = DEFAULT_TASK_TYPES[2]
        assert TaskType.from_mapping(original.to_mapping()) == original


class TestMarketplacePresenter:
    def test_task_info_carries_per_object_type_and_candidates(self):
        presenter = MarketplacePresenter(task_types=DEFAULT_TASK_TYPES)
        obj = {"key": "k00001", "type": "transcribe"}
        info = presenter.build_task_info(obj, true_answer="beta")
        assert info["task_type"] == "transcribe"
        assert info["candidates"] == ["alpha", "beta", "gamma", "delta"]
        assert info["_true_answer"] == "beta"

    def test_presenter_candidates_are_the_union(self):
        presenter = MarketplacePresenter(task_types=DEFAULT_TASK_TYPES)
        for candidate in ("Yes", "No", "A", "B", "alpha", "delta"):
            assert candidate in presenter.candidates
        # validate_answer must accept any type's answers.
        assert presenter.validate_answer("gamma") == "gamma"

    def test_registry_rebuild_signature_compatible(self):
        from repro.presenters.base import registry

        rebuilt = registry.build(MarketplacePresenter(task_types=DEFAULT_TASK_TYPES).describe())
        assert isinstance(rebuilt, MarketplacePresenter)

    def test_render_tolerates_template_placeholder(self):
        presenter = MarketplacePresenter(task_types=DEFAULT_TASK_TYPES)
        assert "{{object}}" in presenter.template_html()


class TestPerTypeLatency:
    def test_dispatch_and_speed(self):
        model = PerTypeLatency(
            {"fast": ConstantLatency(10.0), "slow": ConstantLatency(100.0)},
            default=ConstantLatency(50.0),
            speed=2.0,
        )
        rng = random.Random(0)
        assert model.sample(rng, task_type="fast") == pytest.approx(5.0)
        assert model.sample(rng, task_type="slow") == pytest.approx(50.0)
        assert model.sample(rng, task_type="unknown") == pytest.approx(25.0)
        assert model.sample(rng) == pytest.approx(25.0)


class TestMarketplacePool:
    def test_generation_is_deterministic(self):
        kwargs = dict(
            mean_accuracy=0.8,
            spammer_fraction=0.1,
            straggler_fraction=0.2,
            wave=SpammerWave(0.2, 0.5, 0.3),
        )
        first = build_marketplace_pool(20, DEFAULT_TASK_TYPES, seed=13, **kwargs)
        second = build_marketplace_pool(20, DEFAULT_TASK_TYPES, seed=13, **kwargs)
        assert first.worker_ids() == second.worker_ids()
        assert first.wave_worker_ids == second.wave_worker_ids
        assert [w.latency.speed for w in first] == [w.latency.speed for w in second]
        assert [w.worker_id for w in first.draw_distinct(5)] == [
            w.worker_id for w in second.draw_distinct(5)
        ]

    def test_acceptance_declines_are_counted_and_bounded(self):
        pool = build_marketplace_pool(
            10, DEFAULT_TASK_TYPES, seed=3, acceptance_mean=0.3, acceptance_spread=0.1
        )
        workers = pool.draw_distinct(3)
        assert len({w.worker_id for w in workers}) == 3
        assert pool.offers >= 3
        assert pool.declines == pool.offers - 3
        single = pool.draw(exclude=[w.worker_id for w in workers])
        assert single.worker_id not in {w.worker_id for w in workers}

    def test_full_acceptance_never_declines(self):
        pool = build_marketplace_pool(
            8, DEFAULT_TASK_TYPES, seed=5, acceptance_mean=1.0, acceptance_spread=0.0
        )
        pool.draw_distinct(4)
        pool.draw()
        assert pool.declines == 0

    def test_all_excluded_raises(self):
        pool = build_marketplace_pool(3, DEFAULT_TASK_TYPES, seed=1)
        with pytest.raises(NoEligibleWorkerError):
            pool.draw(exclude=pool.worker_ids())
        with pytest.raises(NoEligibleWorkerError):
            pool.draw_distinct(4)

    def test_spammer_wave_swaps_and_restores_behaviours(self):
        pool = build_marketplace_pool(
            10, DEFAULT_TASK_TYPES, seed=9, wave=SpammerWave(0.0, 0.5, 0.4)
        )
        original = {w.worker_id: w.behavior for w in pool}
        assert all(isinstance(b, NoisyWorker) for b in original.values())
        pool.set_wave_active(True)
        flipped = [
            worker_id
            for worker_id in pool.worker_ids()
            if isinstance(pool.worker(worker_id).behavior, SpammerWorker)
        ]
        assert sorted(flipped) == sorted(pool.wave_worker_ids)
        pool.set_wave_active(True)  # idempotent
        pool.set_wave_active(False)
        for worker_id, behavior in original.items():
            assert pool.worker(worker_id).behavior is behavior
        assert pool.wave_toggles == 2
        stats = pool.statistics()
        assert stats["wave_pool"] == 4
        assert stats["wave_toggles"] == 2

    def test_stragglers_are_slow(self):
        pool = build_marketplace_pool(
            10,
            DEFAULT_TASK_TYPES,
            seed=7,
            speed_spread=0.0,
            straggler_fraction=0.3,
            straggler_slowdown=10.0,
        )
        speeds = sorted(w.latency.speed for w in pool)
        assert speeds[:3] == pytest.approx([0.1, 0.1, 0.1])
        assert speeds[3:] == pytest.approx([1.0] * 7)

    def test_pool_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            build_marketplace_pool(5, DEFAULT_TASK_TYPES, straggler_fraction=1.5)
        with pytest.raises(ConfigurationError):
            build_marketplace_pool(5, DEFAULT_TASK_TYPES, speed_spread=1.0)
        with pytest.raises(ConfigurationError):
            SpammerWave(0.5, 0.5, 0.3).validate()
        with pytest.raises(ConfigurationError):
            SpammerWave(0.1, 0.5, 0.0).validate()


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_summary_and_sla(self):
        summary = latency_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary["count"] == 5
        assert summary["max"] == 100.0
        assert summary["p50"] == 3.0
        assert latency_summary([]) == {"count": 0}
        assert sla_attainment([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)
        assert sla_attainment([], 5.0) == 1.0
        with pytest.raises(ValueError):
            sla_attainment([1.0], 0.0)


class TestScenarioSpec:
    def test_mapping_roundtrip_including_nested_types(self):
        spec = ScenarioSpec(
            name="roundtrip",
            arrival="diurnal",
            task_types=DEFAULT_TASK_TYPES,
            spammer_wave=SpammerWave(0.25, 0.75, 0.5),
            storage="ring",
            replicas=2,
            budget=12.5,
        )
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_validation_rejects_inconsistent_specs(self):
        ScenarioSpec().validate()  # defaults are valid
        with pytest.raises(ConfigurationError):
            ScenarioSpec(arrival="weibull").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(storage="redis").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(transport="carrier-pigeon").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(pool_size=2, redundancy=3).validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(replicas=2, storage="sqlite").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(storage="ring", storage_shards=2, replicas=3).validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                task_types=(
                    TaskType(name="dup"),
                    TaskType(name="dup"),
                )
            ).validate()

    def test_wire_refuses_inprocess_only_features(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec(transport="wire").validate()
        assert "wire" in str(excinfo.value)
        ScenarioSpec(
            transport="wire",
            acceptance_mean=1.0,
            acceptance_spread=0.0,
            speed_spread=0.0,
            accuracy_spread=0.0,
        ).validate()

    def test_with_backend_helper(self):
        base = ScenarioSpec(storage="memory")
        ring = base.with_backend("ring", replicas=2)
        assert ring.storage == "ring" and ring.replicas == 2
        assert ring.seed == base.seed and ring.num_tasks == base.num_tasks
