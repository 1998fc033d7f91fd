"""ScenarioSpec + ScenarioRunner: production-shaped end-to-end runs.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of a
whole experiment: the arrival process, the key skew, the task-type mix, the
supply side (pool size, acceptance, stragglers, spammer waves) and the
stack under test (storage engine × transport × durable platform × group
commit).  :class:`ScenarioRunner` drives the spec through the ordinary
CrowdData verbs — extend → publish → collect per arrival batch, then one
quality-control pass — and emits a :class:`ScenarioResult` carrying:

* a structured metrics report (throughput, p50/p95/p99 latency and
  SLA-attainment per task type, budget spent, accuracy vs ground truth);
* a per-batch event log;
* the canonical collected answers.

**Determinism contract.**  Everything except the ``timing`` section of the
report is a pure function of the spec: the same spec replays
byte-identically (``canonical_report`` / ``canonical_collected`` /
``canonical_events`` are stable strings) on every backend, which is what
makes the runner usable as a regression harness — a scenario on the ring
must produce the exact bytes the sqlite reference produced.  Wall-clock
throughput lives only in ``report["timing"]`` and is excluded from the
canonical forms.

A task's *completion latency* is the slowest of its assignments' simulated
latencies (workers answer in parallel); its SLA is attained when that
latency is at or under its type's ``sla_seconds``.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.config import PlatformConfig, ReprowdConfig, StorageConfig, WorkerPoolConfig
from repro.core.budget import BudgetTracker
from repro.core.context import CrowdContext
from repro.exceptions import ConfigurationError
from repro.quality.adaptive import AdaptiveCollectionStats, AdaptivePolicy
from repro.utils.validation import require_positive
from repro.workload.arrivals import Arrival, build_arrival_process
from repro.workload.keys import ZipfKeyGenerator
from repro.workload.marketplace import (
    DEFAULT_TASK_TYPES,
    MarketplacePresenter,
    SpammerWave,
    TaskType,
    build_marketplace_pool,
    make_objects,
    marketplace_ground_truth,
)
from repro.workload.metrics import latency_summary, sla_attainment

ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")
STORAGE_KINDS = ("memory", "sqlite", "sharded", "ring")
TRANSPORT_KINDS = ("direct", "pipelined", "wire")


_encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(payload: Any) -> str:
    """Stable byte-for-byte JSON encoding (sorted keys, no whitespace)."""
    return _encode_canonical(payload)


def _derive_seed(seed: int, stream: str) -> int:
    """A per-stream child seed so generators never share an RNG."""
    return (seed * 2654435761 + zlib.crc32(stream.encode("utf-8"))) % 2**32


@dataclass(frozen=True)
class ScenarioSpec:
    """One production-shaped scenario, fully described and fully seeded.

    Attributes:
        name: Scenario (and CrowdData table / platform project) name.
        seed: Master seed; every RNG stream in the run derives from it.
        arrival: Arrival process — ``"poisson"``, ``"bursty"`` or
            ``"diurnal"``.
        rate: Base arrival rate in tasks per virtual second.
        num_tasks: Total arrivals to generate (repeat keys included).
        batch_size: Arrivals per publish→collect batch.
        burst_multiplier: Bursty only — rate multiplier inside a burst.
        burst_every_seconds: Bursty only — period between burst starts.
        burst_duration_seconds: Bursty only — burst window length.
        diurnal_amplitude: Diurnal only — relative rate swing in [0, 1).
        diurnal_period_seconds: Diurnal only — day/night cycle length.
        num_keys: Size of the object-key universe (0 means ``num_tasks``).
        zipf_skew: Zipf exponent over the key universe; 0 is uniform and
            larger values concentrate arrivals on hot keys.
        task_types: Marketplace task-type mix; empty means the default
            label/compare/transcribe trio.
        redundancy: Assignments requested per task.
        pool_size: Number of simulated workers.
        mean_accuracy: Mean worker accuracy.
        accuracy_spread: Half-width of per-worker accuracy jitter.
        spammer_fraction: Baseline fraction of the pool answering randomly.
        acceptance_mean: Mean per-worker offer-acceptance probability.
        acceptance_spread: Half-width of acceptance jitter.
        speed_spread: Half-width of the per-worker speed multiplier jitter.
        straggler_fraction: Fraction of workers slowed by
            ``straggler_slowdown``.
        straggler_slowdown: Speed divisor applied to stragglers.
        spammer_wave: Optional mid-run spammer infestation window.
        storage: Cache engine under test — ``"memory"``, ``"sqlite"``,
            ``"sharded"`` or ``"ring"``.
        storage_shards: Member count for sharded/ring storage.
        replicas: Ring only — copies kept of every key.
        transport: Platform transport — ``"direct"``, ``"pipelined"`` or
            ``"wire"``.
        durable_platform: Back the platform's task store with a storage
            engine instead of in-process dicts.
        price_per_assignment: Price charged to the budget per assignment.
        budget: Optional hard budget cap (None is uncapped).
        quality_method: Aggregator applied at the end (``"mv"``, ``"em"``,
            ...).
        adaptive: Collect with per-object adaptive redundancy instead of a
            fixed count — tasks start at 2 assignments, only ambiguous
            items buy more, capped at ``redundancy`` (see
            ``docs/quality.md``).
        adaptive_threshold: Adaptive only — stop purchasing answers for an
            item once its plurality confidence reaches this fraction.
    """

    name: str = "scenario"
    seed: int = 7
    # -- demand side: what arrives, when, and under which key ----------------
    arrival: str = "poisson"
    rate: float = 5.0
    num_tasks: int = 200
    batch_size: int = 50
    burst_multiplier: float = 8.0
    burst_every_seconds: float = 60.0
    burst_duration_seconds: float = 5.0
    diurnal_amplitude: float = 0.8
    diurnal_period_seconds: float = 600.0
    num_keys: int = 0
    zipf_skew: float = 0.0
    task_types: tuple[TaskType, ...] = ()
    # -- supply side: the crowd ----------------------------------------------
    redundancy: int = 3
    pool_size: int = 25
    mean_accuracy: float = 0.85
    accuracy_spread: float = 0.10
    spammer_fraction: float = 0.0
    acceptance_mean: float = 0.9
    acceptance_spread: float = 0.1
    speed_spread: float = 0.5
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 10.0
    spammer_wave: SpammerWave | None = None
    # -- stack under test ----------------------------------------------------
    storage: str = "memory"
    storage_shards: int = 3
    replicas: int = 1
    transport: str = "direct"
    durable_platform: bool = False
    # -- economics + aggregation ---------------------------------------------
    price_per_assignment: float = 0.01
    budget: float | None = None
    quality_method: str = "mv"
    adaptive: bool = False
    adaptive_threshold: float = 0.75

    # -- derived -------------------------------------------------------------

    @property
    def resolved_task_types(self) -> tuple[TaskType, ...]:
        return self.task_types or DEFAULT_TASK_TYPES

    @property
    def resolved_num_keys(self) -> int:
        return self.num_keys or self.num_tasks

    @property
    def total_batches(self) -> int:
        return max(1, math.ceil(self.num_tasks / self.batch_size))

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent field."""
        if not self.name:
            raise ConfigurationError("ScenarioSpec.name must be non-empty")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival {self.arrival!r}; expected one of {ARRIVAL_KINDS}"
            )
        if self.storage not in STORAGE_KINDS:
            raise ConfigurationError(
                f"unknown storage {self.storage!r}; expected one of {STORAGE_KINDS}"
            )
        if self.transport not in TRANSPORT_KINDS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; expected one of {TRANSPORT_KINDS}"
            )
        require_positive("rate", self.rate)
        require_positive("num_tasks", self.num_tasks)
        require_positive("batch_size", self.batch_size)
        require_positive("redundancy", self.redundancy)
        require_positive("price_per_assignment", self.price_per_assignment)
        if not 0.0 < self.adaptive_threshold <= 1.0:
            raise ConfigurationError(
                "adaptive_threshold must be in (0, 1], got "
                f"{self.adaptive_threshold}"
            )
        if self.budget is not None:
            require_positive("budget", self.budget)
        if self.pool_size < self.redundancy:
            raise ConfigurationError(
                f"pool_size ({self.pool_size}) must be >= redundancy "
                f"({self.redundancy}) to draw distinct workers"
            )
        if self.zipf_skew < 0:
            raise ConfigurationError(
                f"zipf_skew must be >= 0, got {self.zipf_skew}"
            )
        if self.num_keys < 0:
            raise ConfigurationError(f"num_keys must be >= 0, got {self.num_keys}")
        for task_type in self.resolved_task_types:
            task_type.validate()
        names = [t.name for t in self.resolved_task_types]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate task type names: {names}")
        if self.spammer_wave is not None:
            self.spammer_wave.validate()
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")
        if self.replicas > 1 and self.storage != "ring":
            raise ConfigurationError(
                "replicas > 1 requires storage='ring' "
                f"(got storage={self.storage!r})"
            )
        if self.storage in ("sharded", "ring"):
            require_positive("storage_shards", self.storage_shards)
            if self.replicas > self.storage_shards:
                raise ConfigurationError(
                    f"replicas ({self.replicas}) cannot exceed storage_shards "
                    f"({self.storage_shards})"
                )
        if self.transport == "wire":
            # A wire server runs in its own process with a uniform pool built
            # from (pool_size, mean_accuracy); the in-process marketplace
            # pool never sees its draws, so supply-side heterogeneity would
            # silently not apply.  Refuse rather than lie.
            unsupported = {
                "spammer_wave": self.spammer_wave is not None,
                "straggler_fraction": self.straggler_fraction > 0,
                "spammer_fraction": self.spammer_fraction > 0,
                "acceptance_mean": self.acceptance_mean != 1.0,
                "acceptance_spread": self.acceptance_spread != 0.0,
                "speed_spread": self.speed_spread != 0.0,
                "accuracy_spread": self.accuracy_spread != 0.0,
            }
            offending = sorted(k for k, bad in unsupported.items() if bad)
            if offending:
                raise ConfigurationError(
                    "transport='wire' simulates a uniform remote pool; "
                    f"unsupported spec fields for wire: {offending} "
                    "(reset them to their neutral values)"
                )

    # -- (de)serialisation ----------------------------------------------------

    def to_mapping(self) -> dict[str, Any]:
        """JSON-friendly mapping; ``from_mapping`` round-trips it exactly."""
        payload: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "arrival": self.arrival,
            "rate": self.rate,
            "num_tasks": self.num_tasks,
            "batch_size": self.batch_size,
            "burst_multiplier": self.burst_multiplier,
            "burst_every_seconds": self.burst_every_seconds,
            "burst_duration_seconds": self.burst_duration_seconds,
            "diurnal_amplitude": self.diurnal_amplitude,
            "diurnal_period_seconds": self.diurnal_period_seconds,
            "num_keys": self.num_keys,
            "zipf_skew": self.zipf_skew,
            "task_types": [t.to_mapping() for t in self.task_types],
            "redundancy": self.redundancy,
            "pool_size": self.pool_size,
            "mean_accuracy": self.mean_accuracy,
            "accuracy_spread": self.accuracy_spread,
            "spammer_fraction": self.spammer_fraction,
            "acceptance_mean": self.acceptance_mean,
            "acceptance_spread": self.acceptance_spread,
            "speed_spread": self.speed_spread,
            "straggler_fraction": self.straggler_fraction,
            "straggler_slowdown": self.straggler_slowdown,
            "spammer_wave": (
                self.spammer_wave.to_mapping() if self.spammer_wave else None
            ),
            "storage": self.storage,
            "storage_shards": self.storage_shards,
            "replicas": self.replicas,
            "transport": self.transport,
            "durable_platform": self.durable_platform,
            "price_per_assignment": self.price_per_assignment,
            "budget": self.budget,
            "quality_method": self.quality_method,
            "adaptive": self.adaptive,
            "adaptive_threshold": self.adaptive_threshold,
        }
        return payload

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from parsed JSON (inverse of :meth:`to_mapping`)."""
        data = dict(mapping)
        if data.get("task_types"):
            data["task_types"] = tuple(
                TaskType.from_mapping(entry) for entry in data["task_types"]
            )
        else:
            data["task_types"] = ()
        if isinstance(data.get("spammer_wave"), Mapping):
            data["spammer_wave"] = SpammerWave.from_mapping(data["spammer_wave"])
        return cls(**data)

    def with_backend(
        self,
        storage: str,
        *,
        replicas: int | None = None,
        transport: str | None = None,
    ) -> "ScenarioSpec":
        """The same workload on a different stack (the A/B helper).

        When *replicas* is not given it carries over only onto a ring
        target — any other engine is single-copy, so re-targeting a ring
        R=2 spec at sqlite must not drag the replication factor along.
        """
        if replicas is None:
            replicas = self.replicas if storage == "ring" else 1
        return replace(
            self,
            storage=storage,
            replicas=replicas,
            transport=self.transport if transport is None else transport,
        )


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    Attributes:
        spec: The spec that ran.
        report: Structured metrics report (``report["timing"]`` is the one
            non-deterministic section).
        event_log: One entry per publish batch, in order.
        collected: Canonical per-unique-key collected answers, sorted by key.
        run_dir: Directory holding this run's durable artifacts ("" for a
            purely in-memory run).
    """

    spec: ScenarioSpec
    report: dict[str, Any]
    event_log: list[dict[str, Any]] = field(default_factory=list)
    collected: list[dict[str, Any]] = field(default_factory=list)
    run_dir: str = ""

    @property
    def canonical_report(self) -> str:
        """Byte-stable report encoding, timing excluded."""
        deterministic = {k: v for k, v in self.report.items() if k != "timing"}
        return canonical_json(deterministic)

    @property
    def canonical_collected(self) -> str:
        """Byte-stable encoding of every collected answer."""
        return canonical_json(self.collected)

    @property
    def canonical_events(self) -> str:
        """Byte-stable encoding of the per-batch event log."""
        return canonical_json(self.event_log)


class ScenarioRunner:
    """Drives :class:`ScenarioSpec` runs end to end under *base_dir*.

    Every run gets a fresh directory (``<name>-runNNN``) so a replay of the
    same spec re-purchases its crowd work instead of silently resuming from
    the previous run's fault-recovery cache — replay determinism is the
    property under test, warm-cache resumption is a different one.
    """

    def __init__(self, base_dir: str):
        self.base_dir = str(base_dir)
        self._run_counter = 0

    def _fresh_run_dir(self, spec: ScenarioSpec) -> str:
        while True:
            run_dir = os.path.join(
                self.base_dir, f"{spec.name}-run{self._run_counter:03d}"
            )
            self._run_counter += 1
            if not os.path.exists(run_dir):
                os.makedirs(run_dir)
                return run_dir

    def _build_config(self, spec: ScenarioSpec, run_dir: str) -> ReprowdConfig:
        if spec.storage == "memory":
            storage = StorageConfig(engine="memory", path=":memory:")
        elif spec.storage == "sqlite":
            storage = StorageConfig(
                engine="sqlite", path=os.path.join(run_dir, "cache.db")
            )
        elif spec.storage == "sharded":
            storage = StorageConfig(
                engine="sharded",
                path=os.path.join(run_dir, "cache-shards"),
                shards=spec.storage_shards,
            )
        else:  # ring
            storage = StorageConfig(
                engine="ring",
                path=os.path.join(run_dir, "cache-ring"),
                shards=spec.storage_shards,
                replicas=spec.replicas,
            )
        store_engine = None
        if spec.transport == "wire" and spec.durable_platform:
            store_engine = StorageConfig(
                engine="sqlite", path=os.path.join(run_dir, "platform.db")
            )
        platform = PlatformConfig(
            seed=spec.seed,
            default_redundancy=spec.redundancy,
            transport=spec.transport,
            store="durable" if spec.durable_platform else "memory",
            store_engine=store_engine,
        )
        workers = WorkerPoolConfig(
            size=spec.pool_size,
            mean_accuracy=spec.mean_accuracy,
            accuracy_spread=0.0,
            seed=spec.seed,
        )
        return ReprowdConfig(
            storage=storage, platform=platform, workers=workers, seed=spec.seed
        )

    def run(
        self,
        spec: ScenarioSpec,
        on_batch: Callable[[CrowdContext, int], None] | None = None,
    ) -> ScenarioResult:
        """Run *spec* end to end and return its :class:`ScenarioResult`.

        Args:
            spec: The scenario to run (validated first).
            on_batch: Optional chaos hook called after each batch's
                publish+collect with ``(context, batch_index)`` — e.g. kill
                a ring member or trigger a rebalance mid-run.
        """
        spec.validate()
        run_dir = self._fresh_run_dir(spec)
        types = list(spec.resolved_task_types)
        arrivals = build_arrival_process(
            spec.arrival,
            spec.rate,
            burst_multiplier=spec.burst_multiplier,
            burst_every_seconds=spec.burst_every_seconds,
            burst_duration_seconds=spec.burst_duration_seconds,
            diurnal_amplitude=spec.diurnal_amplitude,
            diurnal_period_seconds=spec.diurnal_period_seconds,
        ).generate(spec.num_tasks, random.Random(_derive_seed(spec.seed, "arrivals")))
        key_rng = random.Random(_derive_seed(spec.seed, "keys"))
        keygen = ZipfKeyGenerator(spec.resolved_num_keys, spec.zipf_skew)
        pool = build_marketplace_pool(
            spec.pool_size,
            types,
            seed=spec.seed,
            mean_accuracy=spec.mean_accuracy,
            accuracy_spread=spec.accuracy_spread,
            spammer_fraction=spec.spammer_fraction,
            acceptance_mean=spec.acceptance_mean,
            acceptance_spread=spec.acceptance_spread,
            speed_spread=spec.speed_spread,
            straggler_fraction=spec.straggler_fraction,
            straggler_slowdown=spec.straggler_slowdown,
            wave=spec.spammer_wave,
        )
        budget = BudgetTracker(
            price_per_assignment=spec.price_per_assignment, budget=spec.budget
        )
        truth = marketplace_ground_truth(types)
        config = self._build_config(spec, run_dir)
        event_log: list[dict[str, Any]] = []
        started = time.perf_counter()

        adaptive_policy = (
            AdaptivePolicy(
                initial_assignments=min(2, spec.redundancy),
                min_assignments=min(2, spec.redundancy),
                max_assignments=spec.redundancy,
                confidence_threshold=spec.adaptive_threshold,
            )
            if spec.adaptive
            else None
        )
        adaptive_totals = AdaptiveCollectionStats()
        with CrowdContext(
            config=config,
            worker_pool=pool,
            ground_truth=truth,
            budget=budget,
        ) as context:
            data = context.CrowdData([], spec.name)
            data.set_presenter(MarketplacePresenter(task_types=types))
            seen_keys: dict[str, str] = {}  # key -> type name
            for batch_index in range(spec.total_batches):
                batch = arrivals[
                    batch_index * spec.batch_size : (batch_index + 1) * spec.batch_size
                ]
                if not batch:
                    break
                fraction = batch[0].index / spec.num_tasks
                wave_active = bool(
                    spec.spammer_wave and spec.spammer_wave.active_at(fraction)
                )
                pool.set_wave_active(wave_active)
                batch_keys = [keygen.sample(key_rng) for _ in batch]
                new_keys = 0
                objects = make_objects(batch_keys, types)
                for obj in objects:
                    if obj["key"] not in seen_keys:
                        seen_keys[obj["key"]] = obj["type"]
                        new_keys += 1
                data.extend(objects)
                if adaptive_policy is not None:
                    data.publish_task(
                        n_assignments=adaptive_policy.initial_assignments
                    )
                    # Collect inside the batch so the crowd answers under this
                    # batch's marketplace conditions (wave on/off), not at the
                    # end of the run under the final ones.
                    data.get_result_adaptive(adaptive_policy)
                    batch_stats = data.last_adaptive_stats
                    for stat_field in vars(batch_stats):
                        setattr(
                            adaptive_totals,
                            stat_field,
                            getattr(adaptive_totals, stat_field)
                            + getattr(batch_stats, stat_field),
                        )
                else:
                    data.publish_task(n_assignments=spec.redundancy)
                    data.get_result(blocking=True)
                event_log.append(
                    {
                        "batch": batch_index,
                        "arrivals": len(batch),
                        "first_arrival": round(batch[0].time, 6),
                        "last_arrival": round(batch[-1].time, 6),
                        "new_keys": new_keys,
                        "wave_active": wave_active,
                        "spent": round(budget.spent, 10),
                    }
                )
                if on_batch is not None:
                    on_batch(context, batch_index)
            pool.set_wave_active(False)
            data.quality_control(spec.quality_method)
            report, collected = self._summarise(
                spec,
                data,
                pool,
                budget,
                arrivals,
                seen_keys,
                started,
                adaptive_stats=adaptive_totals if spec.adaptive else None,
            )
        return ScenarioResult(
            spec=spec,
            report=report,
            event_log=event_log,
            collected=collected,
            run_dir=run_dir,
        )

    # -- metrics --------------------------------------------------------------

    def _summarise(
        self,
        spec: ScenarioSpec,
        data: Any,
        pool: Any,
        budget: BudgetTracker,
        arrivals: list[Arrival],
        seen_keys: Mapping[str, str],
        started: float,
        adaptive_stats: AdaptiveCollectionStats | None = None,
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        types = {t.name: t for t in spec.resolved_task_types}
        decisions = data.column(spec.quality_method)
        objects = data.column("object")
        results = data.column("result")
        truth = marketplace_ground_truth(list(types.values()))

        collected: list[dict[str, Any]] = []
        latencies_by_type: dict[str, list[float]] = {name: [] for name in types}
        correct_by_type: dict[str, int] = {name: 0 for name in types}
        count_by_type: dict[str, int] = {name: 0 for name in types}
        answers_total = 0
        seen: set[str] = set()
        for obj, result, decision in zip(objects, results, decisions):
            key = obj["key"]
            if key in seen:
                continue  # duplicate arrivals share one task
            seen.add(key)
            type_name = obj["type"]
            assignments = result["assignments"] if result else []
            answers_total += len(assignments)
            latency = max(
                (a["latency_seconds"] for a in assignments), default=0.0
            )
            latencies_by_type[type_name].append(latency)
            count_by_type[type_name] += 1
            expected = truth(obj)
            if decision == expected:
                correct_by_type[type_name] += 1
            collected.append(
                {
                    "key": key,
                    "type": type_name,
                    "answers": [
                        [a["worker_id"], a["answer"]] for a in assignments
                    ],
                    "latency": round(latency, 6),
                    "decision": decision,
                    "truth": expected,
                }
            )
        collected.sort(key=lambda entry: entry["key"])

        all_latencies = [
            value for values in latencies_by_type.values() for value in values
        ]
        by_type = {}
        for name, task_type in types.items():
            values = latencies_by_type[name]
            summary = latency_summary(values)
            summary["sla"] = task_type.sla_seconds
            summary["sla_attainment"] = sla_attainment(values, task_type.sla_seconds)
            summary["accuracy"] = (
                correct_by_type[name] / count_by_type[name]
                if count_by_type[name]
                else 1.0
            )
            by_type[name] = summary
        unique_tasks = len(seen)
        total_correct = sum(correct_by_type.values())
        marketplace_cost = sum(
            types[name].payout * spec.redundancy * count_by_type[name]
            for name in types
        )
        wall = time.perf_counter() - started
        report: dict[str, Any] = {
            "scenario": spec.to_mapping(),
            "workload": {
                "arrivals": len(arrivals),
                "unique_tasks": unique_tasks,
                "duplicate_arrivals": len(arrivals) - unique_tasks,
                "batches": spec.total_batches,
                "virtual_makespan": round(arrivals[-1].time, 6) if arrivals else 0.0,
                "answers": answers_total,
            },
            "latency": {
                "overall": latency_summary(all_latencies),
                "by_type": by_type,
            },
            "quality": {
                "method": spec.quality_method,
                "accuracy": (total_correct / unique_tasks) if unique_tasks else 1.0,
                **(
                    {"adaptive": adaptive_stats.to_dict()}
                    if adaptive_stats is not None
                    else {}
                ),
            },
            "economics": {
                "assignments_purchased": int(
                    round(budget.spent / spec.price_per_assignment)
                )
                if spec.price_per_assignment
                else 0,
                "spent": round(budget.spent, 10),
                "budget": spec.budget,
                "marketplace_cost": round(marketplace_cost, 10),
            },
            "pool": pool.statistics(),
            "timing": {
                "wall_seconds": wall,
                "arrivals_per_s": len(arrivals) / wall if wall > 0 else 0.0,
                "answers_per_s": answers_total / wall if wall > 0 else 0.0,
            },
        }
        # Round float latency stats so canonical comparisons are robust to
        # repr noise (the values themselves are already deterministic).
        for summary in [report["latency"]["overall"], *by_type.values()]:
            for stat_key, value in list(summary.items()):
                if isinstance(value, float):
                    summary[stat_key] = round(value, 6)
        return report, collected
