"""The marketplace model: heterogeneous tasks over an unreliable crowd.

Layers three production behaviours over the existing ``workers/`` stack:

* **Task types** — every object key is deterministically assigned a
  :class:`TaskType` (weighted by a stable hash of the key, so the same key
  is always the same type on every backend and every rerun).  A type
  carries its own candidate answers, payout, SLA and duration
  distribution; the per-type duration reaches the workers through
  :class:`~repro.workers.latency.PerTypeLatency`.
* **Worker heterogeneity** — acceptance (a worker may decline an offer,
  forcing a redraw), speed (a per-worker multiplier on task durations;
  stragglers are workers slowed by ``straggler_slowdown``), and the usual
  behaviour mix (noisy accuracy jitter, baseline spammers).
* **Spammer waves** — a deterministic window of the run during which a
  chosen fraction of the pool answers uniformly at random
  (:meth:`MarketplaceWorkerPool.set_wave_active` swaps behaviours in and
  out; the :class:`~repro.workload.scenario.ScenarioRunner` toggles it per
  publish batch).

Everything draws from seeded ``random.Random`` instances, so the whole
marketplace is a pure function of its parameters and seed.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.presenters.base import BasePresenter, registry
from repro.utils.validation import require_positive
from repro.workers.behavior import NoisyWorker, SpammerWorker, WorkerBehavior
from repro.workers.latency import LogNormalLatency, PerTypeLatency
from repro.workers.pool import SimulatedWorker, WorkerPool


@dataclass(frozen=True)
class TaskType:
    """One heterogeneous task kind in the marketplace.

    Attributes:
        name: Stable identifier stamped into each task's ``info`` (drives
            skill profiles and per-type latency dispatch).
        candidates: The answers a worker may give for this type.
        weight: Relative share of the key universe assigned to this type.
        payout: Marketplace price per assignment of this type (reported in
            the cost section; the hard budget cap uses the scenario-wide
            price).
        sla_seconds: Latency target: a task attains its SLA when its
            simulated completion latency is at or under this.
        mean_latency_seconds: Median of the type's log-normal duration.
        latency_sigma: Log-space spread of the type's duration.
    """

    name: str
    candidates: tuple[Any, ...] = ("Yes", "No")
    weight: float = 1.0
    payout: float = 0.01
    sla_seconds: float = 600.0
    mean_latency_seconds: float = 30.0
    latency_sigma: float = 0.5

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("TaskType.name must be non-empty")
        if len(self.candidates) < 2:
            raise ConfigurationError(
                f"TaskType {self.name!r} needs >= 2 candidates, got {self.candidates!r}"
            )
        require_positive(f"TaskType[{self.name}].weight", self.weight)
        require_positive(f"TaskType[{self.name}].payout", self.payout)
        require_positive(f"TaskType[{self.name}].sla_seconds", self.sla_seconds)
        require_positive(
            f"TaskType[{self.name}].mean_latency_seconds", self.mean_latency_seconds
        )
        require_positive(f"TaskType[{self.name}].latency_sigma", self.latency_sigma)

    def to_mapping(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "candidates": list(self.candidates),
            "weight": self.weight,
            "payout": self.payout,
            "sla_seconds": self.sla_seconds,
            "mean_latency_seconds": self.mean_latency_seconds,
            "latency_sigma": self.latency_sigma,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "TaskType":
        data = dict(mapping)
        if "candidates" in data:
            data["candidates"] = tuple(data["candidates"])
        return cls(**data)


#: The default three-type marketplace: cheap fast labels, mid-priced pair
#: comparisons, expensive slow transcriptions.  SLAs leave headroom over the
#: p99 of a max-over-redundancy draw from each duration distribution.
DEFAULT_TASK_TYPES: tuple[TaskType, ...] = (
    TaskType(
        name="label",
        candidates=("Yes", "No"),
        weight=3.0,
        payout=0.01,
        sla_seconds=360.0,
        mean_latency_seconds=20.0,
        latency_sigma=0.4,
    ),
    TaskType(
        name="compare",
        candidates=("A", "B"),
        weight=2.0,
        payout=0.02,
        sla_seconds=600.0,
        mean_latency_seconds=45.0,
        latency_sigma=0.5,
    ),
    TaskType(
        name="transcribe",
        candidates=("alpha", "beta", "gamma", "delta"),
        weight=1.0,
        payout=0.05,
        sla_seconds=1200.0,
        mean_latency_seconds=90.0,
        latency_sigma=0.6,
    ),
)


@dataclass(frozen=True)
class SpammerWave:
    """A spammer infestation over a window of the run.

    Attributes:
        start_fraction: Run fraction (by arrival count, in [0, 1)) at which
            the wave starts.
        end_fraction: Run fraction at which it ends (exclusive; > start).
        pool_fraction: Fraction of the pool that turns spammer while active.
    """

    start_fraction: float = 0.3
    end_fraction: float = 0.6
    pool_fraction: float = 0.3

    def validate(self) -> None:
        if not 0.0 <= self.start_fraction < self.end_fraction <= 1.0:
            raise ConfigurationError(
                "spammer wave needs 0 <= start_fraction < end_fraction <= 1, got "
                f"[{self.start_fraction}, {self.end_fraction})"
            )
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ConfigurationError(
                f"spammer wave pool_fraction must be in (0, 1], got {self.pool_fraction}"
            )

    def active_at(self, fraction: float) -> bool:
        """True when run-progress *fraction* falls inside the wave window."""
        return self.start_fraction <= fraction < self.end_fraction

    def to_mapping(self) -> dict[str, Any]:
        return {
            "start_fraction": self.start_fraction,
            "end_fraction": self.end_fraction,
            "pool_fraction": self.pool_fraction,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SpammerWave":
        return cls(**dict(mapping))


# -- deterministic key -> type / truth assignment ------------------------------


def _stable_fraction(tag: str, key: str) -> float:
    """A uniform-ish fraction in [0, 1) derived from a stable hash of *key*."""
    return (zlib.crc32(f"{tag}:{key}".encode("utf-8")) % 1_000_000) / 1_000_000.0


def assign_task_type(key: str, types: Sequence[TaskType]) -> TaskType:
    """Deterministically pick the :class:`TaskType` owning object *key*.

    Weighted by ``TaskType.weight`` over a stable hash of the key, so the
    assignment is identical across reruns, backends and processes.
    """
    if not types:
        raise ConfigurationError("assign_task_type needs at least one TaskType")
    total = sum(t.weight for t in types)
    point = _stable_fraction("type", key) * total
    cumulative = 0.0
    for task_type in types:
        cumulative += task_type.weight
        if point < cumulative:
            return task_type
    return types[-1]


def marketplace_ground_truth(
    types: Sequence[TaskType],
) -> Callable[[Any], Any]:
    """Oracle mapping a marketplace object to its hidden true answer.

    The truth is a stable hash of the object key into the type's candidate
    list — no RNG, so it never perturbs the seeded simulation streams.
    """
    by_name = {t.name: t for t in types}

    def truth(obj: Any) -> Any:
        key = obj["key"] if isinstance(obj, Mapping) else str(obj)
        name = obj.get("type") if isinstance(obj, Mapping) else None
        task_type = by_name.get(name) or assign_task_type(key, list(types))
        rank = zlib.crc32(f"truth:{key}".encode("utf-8"))
        return task_type.candidates[rank % len(task_type.candidates)]

    return truth


def make_objects(keys: Iterable[str], types: Sequence[TaskType]) -> list[dict[str, Any]]:
    """Build one marketplace object per key: ``{"key": ..., "type": ...}``."""
    return [
        {"key": key, "type": assign_task_type(key, types).name} for key in keys
    ]


# -- presenter -----------------------------------------------------------------


@registry.register
class MarketplacePresenter(BasePresenter):
    """Presenter whose tasks carry their *object's* type, not the class's.

    One CrowdData table has one presenter, but a marketplace batch mixes
    task types.  The platform reads ``candidates`` and ``task_type`` from
    each task's ``info`` (not from the project), so overriding
    :meth:`build_task_info` per object is all heterogeneity needs.  The
    presenter-level candidate list is the union over types, which keeps
    ``validate_answer`` permissive across the whole batch.
    """

    task_type = "marketplace"

    def __init__(
        self,
        question: str = "",
        candidates: list[Any] | None = None,
        task_types: Sequence[TaskType] | None = None,
    ):
        types = tuple(task_types) if task_types else ()
        self._types: dict[str, TaskType] = {t.name: t for t in types}
        if candidates is None and types:
            union: list[Any] = []
            for task_type in types:
                for candidate in task_type.candidates:
                    if candidate not in union:
                        union.append(candidate)
            candidates = union
        super().__init__(
            question=question or "Complete this marketplace task",
            candidates=candidates,
        )

    def render_object(self, obj: Any) -> str:
        key = obj["key"] if isinstance(obj, Mapping) else obj
        return f'<span class="object">{key}</span>'

    def build_task_info(self, obj: Any, true_answer: Any = None) -> dict[str, Any]:
        info = super().build_task_info(obj, true_answer=true_answer)
        if isinstance(obj, Mapping):
            spec = self._types.get(obj.get("type"))
            if spec is not None:
                info["task_type"] = spec.name
                info["candidates"] = list(spec.candidates)
        return info


# -- worker pool ---------------------------------------------------------------


class MarketplaceWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose workers may decline offers and turn spammer.

    Every draw is an *offer*: the sampled worker accepts with their
    per-worker acceptance probability, otherwise the offer is declined and
    the platform redraws (the decline is counted and the rng advances, so
    declines are part of the deterministic stream).  When every eligible
    worker has declined a task it is re-offered from scratch — someone has
    to do the work, exactly like a real queue that sits until picked up.
    """

    def __init__(
        self,
        workers: Iterable[SimulatedWorker],
        seed: int = 7,
        acceptance: Mapping[str, float] | None = None,
        wave_worker_ids: Sequence[str] = (),
    ):
        super().__init__(workers, seed=seed)
        self._acceptance = dict(acceptance or {})
        self._wave_ids = list(wave_worker_ids)
        self._saved_behaviors: dict[str, WorkerBehavior] = {}
        self._wave_active = False
        self.offers = 0
        self.declines = 0
        self.wave_toggles = 0

    # -- acceptance ------------------------------------------------------------

    def _accepts(self, worker: SimulatedWorker) -> bool:
        self.offers += 1
        probability = self._acceptance.get(worker.worker_id, 1.0)
        if probability >= 1.0 or self._rng.random() < probability:
            return True
        self.declines += 1
        return False

    def draw(self, exclude: Iterable[str] = ()) -> SimulatedWorker:
        excluded = frozenset(exclude)
        eligible = sum(
            1 for worker in self._workers if worker.worker_id not in excluded
        )
        if eligible == 0:
            return super().draw(excluded)  # raises NoEligibleWorkerError
        declined: set[str] = set()
        while True:
            worker = super().draw(excluded | declined)
            if self._accepts(worker):
                return worker
            declined.add(worker.worker_id)
            if len(declined) >= eligible:
                declined.clear()

    def draw_distinct(self, count: int) -> list[SimulatedWorker]:
        if count > len(self._workers):
            return super().draw_distinct(count)  # raises NoEligibleWorkerError
        chosen: list[SimulatedWorker] = []
        declined: set[str] = set()
        while len(chosen) < count:
            taken = {worker.worker_id for worker in chosen}
            if len(taken) + len(declined) >= len(self._workers):
                declined.clear()
            worker = super().draw(taken | declined)
            if self._accepts(worker):
                chosen.append(worker)
            else:
                declined.add(worker.worker_id)
        return chosen

    # -- spammer waves ---------------------------------------------------------

    @property
    def wave_active(self) -> bool:
        return self._wave_active

    @property
    def wave_worker_ids(self) -> list[str]:
        return list(self._wave_ids)

    def set_wave_active(self, active: bool) -> None:
        """Swap the wave workers' behaviour to spammer (and back)."""
        if active == self._wave_active:
            return
        self._wave_active = active
        self.wave_toggles += 1
        if active:
            for worker_id in self._wave_ids:
                worker = self.worker(worker_id)
                self._saved_behaviors[worker_id] = worker.behavior
                worker.behavior = SpammerWorker()
        else:
            for worker_id, behavior in self._saved_behaviors.items():
                self.worker(worker_id).behavior = behavior
            self._saved_behaviors.clear()

    def statistics(self) -> dict[str, Any]:
        stats = super().statistics()
        stats.update(
            {
                "offers": self.offers,
                "declines": self.declines,
                "wave_toggles": self.wave_toggles,
                "wave_pool": len(self._wave_ids),
            }
        )
        return stats


def build_marketplace_pool(
    size: int,
    types: Sequence[TaskType] = DEFAULT_TASK_TYPES,
    seed: int = 7,
    *,
    mean_accuracy: float = 0.85,
    accuracy_spread: float = 0.10,
    spammer_fraction: float = 0.0,
    acceptance_mean: float = 0.9,
    acceptance_spread: float = 0.1,
    speed_spread: float = 0.5,
    straggler_fraction: float = 0.0,
    straggler_slowdown: float = 10.0,
    wave: SpammerWave | None = None,
) -> MarketplaceWorkerPool:
    """Generate a heterogeneous pool — the marketplace's supply side.

    Deterministic in (parameters, seed): worker identities, behaviours,
    acceptance rates, speeds, straggler picks and wave membership all come
    from one ``random.Random(seed)``.
    """
    require_positive("size", size)
    for task_type in types:
        task_type.validate()
    if wave is not None:
        wave.validate()
    if not 0.0 <= straggler_fraction <= 1.0:
        raise ConfigurationError(
            f"straggler_fraction must be in [0, 1], got {straggler_fraction}"
        )
    require_positive("straggler_slowdown", straggler_slowdown)
    if speed_spread < 0 or speed_spread >= 1.0:
        raise ConfigurationError(
            f"speed_spread must be in [0, 1), got {speed_spread}"
        )

    rng = random.Random(seed)
    duration_models = {
        t.name: LogNormalLatency(
            median=t.mean_latency_seconds, sigma=t.latency_sigma
        )
        for t in types
    }
    num_spammers = int(round(spammer_fraction * size))
    workers: list[SimulatedWorker] = []
    acceptance: dict[str, float] = {}
    for index in range(size):
        worker_id = f"w{index:04d}"
        if index < num_spammers:
            behavior: WorkerBehavior = SpammerWorker()
        else:
            jitter = rng.uniform(-accuracy_spread, accuracy_spread)
            behavior = NoisyWorker(accuracy=min(1.0, max(0.0, mean_accuracy + jitter)))
        speed = max(0.1, 1.0 + rng.uniform(-speed_spread, speed_spread))
        # Clamp acceptance away from zero: a worker who never accepts would
        # stall the re-offer loop forever, which no real queue does either.
        offer_jitter = rng.uniform(-acceptance_spread, acceptance_spread)
        acceptance[worker_id] = min(1.0, max(0.05, acceptance_mean + offer_jitter))
        workers.append(
            SimulatedWorker(
                worker_id=worker_id,
                behavior=behavior,
                latency=PerTypeLatency(duration_models, speed=speed),
            )
        )

    num_stragglers = int(round(straggler_fraction * size))
    for index in sorted(rng.sample(range(size), num_stragglers)):
        current = workers[index].latency
        workers[index].latency = PerTypeLatency(
            duration_models, speed=max(0.01, current.speed / straggler_slowdown)
        )

    wave_ids: list[str] = []
    if wave is not None:
        wave_size = max(1, int(round(wave.pool_fraction * size)))
        wave_ids = [
            workers[index].worker_id
            for index in sorted(rng.sample(range(size), wave_size))
        ]
    return MarketplaceWorkerPool(
        workers, seed=seed, acceptance=acceptance, wave_worker_ids=wave_ids
    )
