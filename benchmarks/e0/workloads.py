"""The seven requester programs E0 times, their inputs and their outputs.

Each workload is a requester's *program* on a real stack: it receives only
inputs generated from the seed, runs extend -> publish -> collect ->
aggregate through the public API, and hands back what it collected.  A
workload has three parts, all closed-loop from one process and one thread:

``setup``     everything before the program (input generation, Bob's shared
              file, run directory, the wire server process) — ``setup_s``;
``run``       the timed program, context open to context close — ``run_s``;
``outputs``   untimed: turns what the program produced into an
              :class:`Outputs` the harness verifies.

Running ``run`` a second time on the same inputs is the warm rerun of the
paper's contract: same artifacts, fresh context, nothing bought.

Sizes are frozen here and never derived from the machine.  They are set so
one repetition (set-up + program) takes 0.3 to 0.65 seconds on the 2-core
reference box: on that shared host the fastest of many short repetitions
repeats far better than any statistic over a few long ones (README,
*Repeatability*).
"""

from __future__ import annotations

import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

import repro.core.crowddata as crowddata_module
import repro.workload.scenario as scenario_module
from repro.config import PlatformConfig, ReprowdConfig
from repro.core.budget import BudgetTracker
from repro.core.context import CrowdContext
from repro.datasets import make_entity_resolution_dataset, make_image_label_dataset
from repro.operators.blocking import SimilarityBlocker
from repro.operators.dedup import CrowdDedup
from repro.platform.server import PlatformServer
from repro.platform.store import MemoryTaskStore
from repro.platform.wire import WireServer, spawn_server
from repro.presenters import ImageLabelPresenter
from repro.workers.pool import WorkerPool
from repro.workload import (
    ScenarioRunner,
    ScenarioSpec,
    ZipfKeyGenerator,
    canonical_json,
    make_objects,
    marketplace_ground_truth,
)

# The runner derives its key stream from this private helper; the harness
# needs the same stream to know, independently of the program, which objects
# must come back and what their true answers are.
from repro.workload.scenario import _derive_seed

from probes import Probes

PRICE_PER_ASSIGNMENT = 0.01
REDUNDANCY = 3


class Steps:
    """Wall-clock marks at the end of each requester-visible step."""

    def __init__(self, probes: Probes | None = None):
        self.origin = 0.0
        self.marks: list[float] = []
        self._tracer = probes.tracer if probes else None

    def start(self) -> None:
        """The first step begins now (the harness calls this as the program
        starts; a program whose steps begin later calls it again)."""
        self.origin = perf_counter()

    def mark(self) -> None:
        self.marks.append(perf_counter())
        if self._tracer is not None:
            self._tracer.step += 1


@dataclass
class Env:
    """What a program gets besides its inputs: the context class to open
    and the step marker.  A traced run swaps in the probed context."""

    steps: Steps
    probes: Probes | None = None
    context: type[CrowdContext] = CrowdContext

    def __post_init__(self) -> None:
        if self.probes is not None:
            self.context = self.probes.context_class()

    def probe(self, target: Any, layer: str) -> Any:
        return target if self.probes is None else self.probes.probe(target, layer)

    @contextmanager
    def aggregators_probed(self) -> Iterator[None]:
        """Traced runs see ``quality`` by probing what CrowdData aggregates with."""
        if self.probes is None:
            yield
            return
        real, probes = crowddata_module.get_aggregator, self.probes

        def get_aggregator(name: str, **kwargs: Any) -> Any:
            return probes.aggregator(real(name, **kwargs))

        with _rebound(crowddata_module, get_aggregator=get_aggregator):
            yield


@contextmanager
def _rebound(module: Any, **names: Any) -> Iterator[None]:
    """Temporarily rebind module-level *names* (restored on exit)."""
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@dataclass
class Outputs:
    """What one run of a program produced, in the harness's terms."""

    answers: str  # canonical JSON of every collected answer and decision
    objects: int  # unique objects in the program's table
    to_publish: int  # of those, the ones a cold run has to publish itself
    answers_collected: int
    complete: bool  # every object has a result with its required answers
    purchased: int  # assignments charged to the requester by this run
    spent: float
    accuracy: float
    platform_tasks: int
    platform_task_runs: int
    table_rows: int  # rows of the final CrowdData table
    steps_expected: int
    layer_facts: dict[str, float] = field(default_factory=dict)


def _table_answers(data: Any, column: str) -> tuple[list[dict[str, Any]], int]:
    """Canonical per-object answers of a CrowdData table, sorted by key."""
    collected: dict[str, dict[str, Any]] = {}
    results = data.column("result")
    for result, decision in zip(results, data.column(column)):
        collected.setdefault(
            result["object_key"],
            {
                "key": result["object_key"],
                "complete": result["complete"],
                "answers": [[a["worker_id"], a["answer"]] for a in result["assignments"]],
                "decision": decision,
            },
        )
    return [collected[key] for key in sorted(collected)], len(results)


def _tally(answers: list[dict[str, Any]]) -> dict[str, Any]:
    """The Outputs fields that follow from a table's canonical answers."""
    return {
        "objects": len(answers),
        "answers_collected": sum(len(entry["answers"]) for entry in answers),
        "complete": all(
            entry["complete"] and len(entry["answers"]) >= REDUNDANCY for entry in answers
        ),
    }


class Workload:
    """Base: names, frozen sizes, and the set-up/run/outputs protocol."""

    name = ""
    why = ""
    stack = ""
    #: ``{"full": {...}, "smoke": {...}}`` — frozen, never machine-derived.
    sizes: Mapping[str, Mapping[str, int]] = {}
    #: True when the platform's state outlives the program's context, so a
    #: warm rerun sees the cold run's tasks instead of an empty platform.
    platform_persists = False

    def setup(
        self, seed: int, sizes: Mapping[str, int], run_dir: str, probes: Probes | None = None
    ) -> dict[str, Any]:
        """Build the program's inputs; *probes* is set for a traced run."""
        raise NotImplementedError

    def run(self, inputs: dict[str, Any], env: Env) -> Any:
        raise NotImplementedError

    def outputs(self, inputs: dict[str, Any], raw: Any) -> Outputs:
        raise NotImplementedError

    def teardown(self, inputs: dict[str, Any]) -> None:
        """Stop whatever set-up started (the wire server)."""


# -- Figure 2 and Figure 3: image labelling ----------------------------------


def _label_images(context: CrowdContext, images: list[str], table: str) -> Any:
    """Bob's five lines (Figure 2 of the paper)."""
    return (
        context.CrowdData(images, table)
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=REDUNDANCY)
        .get_result()
        .mv()
    )


def _image_outputs(
    data: Any,
    truth: Callable[[Any], Any],
    budget: BudgetTracker,
    stats: dict,
    to_publish: int,
    steps: int,
) -> Outputs:
    answers, rows = _table_answers(data, "mv")
    objects = data.column("object")
    decisions = data.column("mv")
    correct = sum(1 for obj, decision in zip(objects, decisions) if decision == truth(obj))
    return Outputs(
        answers=canonical_json(answers),
        **_tally(answers),
        to_publish=to_publish,
        purchased=budget.total_assignments(),
        spent=budget.spent,
        accuracy=correct / len(objects),
        platform_tasks=stats["tasks"],
        platform_task_runs=stats["task_runs"],
        table_rows=rows,
        steps_expected=steps,
    )


class BobOneshot(Workload):
    name = "bob_oneshot"
    why = (
        "Figure 2 at scale, one huge batch: platform.server create_tasks does "
        "most of the work, core and storage little"
    )
    stack = "sqlite cache (synchronous), memory task store, direct transport"
    sizes = {"full": {"images": 2000}, "smoke": {"images": 150}}

    def setup(self, seed, sizes, run_dir, probes=None):
        started = perf_counter()
        dataset = make_image_label_dataset(num_images=sizes["images"], seed=seed)
        return {
            "seed": seed,
            "dataset": dataset,
            "db": os.path.join(run_dir, "bob.db"),
            "generate_s": perf_counter() - started,
        }

    def run(self, inputs, env):
        budget = BudgetTracker(price_per_assignment=PRICE_PER_ASSIGNMENT)
        dataset = inputs["dataset"]
        with env.aggregators_probed(), env.context(
            config=ReprowdConfig.sqlite(inputs["db"], seed=inputs["seed"]),
            ground_truth=dataset.ground_truth,
            budget=budget,
        ) as context:
            data = _label_images(context, dataset.images, "bob")
            env.steps.mark()
            stats = context.client.statistics()
        return data, budget, stats

    def outputs(self, inputs, raw):
        data, budget, stats = raw
        dataset = inputs["dataset"]
        return _image_outputs(
            data, dataset.ground_truth, budget, stats, to_publish=len(dataset), steps=1
        )


class AllyExtend(Workload):
    name = "ally_extend"
    why = (
        "Figure 3: Ally reruns Bob's shared file and extends it ten times: "
        "many cached rows read per row written"
    )
    stack = "sqlite cache (synchronous) copied from Bob, fresh memory platform, direct"
    sizes = {
        "full": {"bob_images": 800, "bob_chunk": 400, "extensions": 10, "extension_images": 15},
        "smoke": {"bob_images": 300, "bob_chunk": 100, "extensions": 10, "extension_images": 5},
    }

    def setup(self, seed, sizes, run_dir, probes=None):
        started = perf_counter()
        total = sizes["bob_images"] + sizes["extensions"] * sizes["extension_images"]
        dataset = make_image_label_dataset(num_images=total, seed=seed)
        generate_s = perf_counter() - started
        bob_images = dataset.images[: sizes["bob_images"]]
        extra = dataset.images[sizes["bob_images"] :]
        db = os.path.join(run_dir, "shared.db")
        # Bob publishes in chunks, as a requester with a table this size
        # would; the file he closes is what Ally receives.
        with CrowdContext.with_sqlite(
            db, seed=seed, ground_truth=dataset.ground_truth
        ) as context:
            data = context.CrowdData([], "fig3").set_presenter(ImageLabelPresenter())
            for start in range(0, len(bob_images), sizes["bob_chunk"]):
                data.extend(bob_images[start : start + sizes["bob_chunk"]])
                data.publish_task(n_assignments=REDUNDANCY).get_result()
            data.mv()
        step = sizes["extension_images"]
        return {
            "seed": seed,
            "dataset": dataset,
            "db": db,
            "bob_images": bob_images,
            "extensions": [extra[i : i + step] for i in range(0, len(extra), step)],
            "generate_s": generate_s,
        }

    def run(self, inputs, env):
        budget = BudgetTracker(price_per_assignment=PRICE_PER_ASSIGNMENT)
        dataset = inputs["dataset"]
        with env.aggregators_probed(), env.context(
            config=ReprowdConfig.sqlite(inputs["db"], seed=inputs["seed"] + 1),
            ground_truth=dataset.ground_truth,
            budget=budget,
        ) as context:
            data = _label_images(context, inputs["bob_images"], "fig3")
            env.steps.start()  # steps are Ally's extensions, not her rerun
            for images in inputs["extensions"]:
                data.extend(images).publish_task(n_assignments=REDUNDANCY).get_result().mv()
                env.steps.mark()
            stats = context.client.statistics()
        return data, budget, stats

    def outputs(self, inputs, raw):
        data, budget, stats = raw
        return _image_outputs(
            data,
            inputs["dataset"].ground_truth,
            budget,
            stats,
            to_publish=sum(len(images) for images in inputs["extensions"]),
            steps=len(inputs["extensions"]),
        )


# -- the crowdsourced operator ------------------------------------------------


class _RoundMarker:
    """A CrowdData seen through: forwards everything, and marks a step after
    each ``quality_control`` — where a crowd round of the operator ends."""

    def __init__(self, data: Any, steps: Steps):
        self._data = data
        self._steps = steps

    def __getattr__(self, name: str) -> Any:
        return getattr(self._data, name)

    def quality_control(self, *args: Any, **kwargs: Any) -> "_RoundMarker":
        self._data.quality_control(*args, **kwargs)
        self._steps.mark()
        return self


class _BlockThenStart(SimilarityBlocker):
    """The blocking pass is machine work before the first crowd round: the
    first step starts when it has returned."""

    def __init__(self, steps: Steps, threshold: float):
        super().__init__(threshold=threshold)
        self._steps = steps

    def block(self, records: Mapping[int, Mapping[str, Any]]):
        result = super().block(records)
        self._steps.start()
        return result


def _round_marking(context_class: type[CrowdContext], steps: Steps) -> type[CrowdContext]:
    class RoundMarkingContext(context_class):
        def CrowdData(self, *args: Any, **kwargs: Any):  # noqa: N802
            return _RoundMarker(super().CrowdData(*args, **kwargs), steps)

    return RoundMarkingContext


class DedupOperator(Workload):
    name = "dedup_operator"
    why = (
        "transitive CrowdDedup: the machine blocking pass puts the work in "
        "operators, and every crowd round re-aggregates the whole table"
    )
    stack = "sqlite cache (synchronous), memory task store, direct transport"
    sizes = {
        "full": {"entities": 40, "duplicates": 4, "batch": 8},
        "smoke": {"entities": 20, "duplicates": 4, "batch": 10},
    }

    def setup(self, seed, sizes, run_dir, probes=None):
        started = perf_counter()
        dataset = make_entity_resolution_dataset(
            num_entities=sizes["entities"],
            duplicates_per_entity=sizes["duplicates"],
            seed=seed,
        )
        return {
            "generate_s": perf_counter() - started,
            "seed": seed,
            "dataset": dataset,
            "batch": sizes["batch"],
            "db": os.path.join(run_dir, "dedup.db"),
        }

    def run(self, inputs, env):
        budget = BudgetTracker(price_per_assignment=PRICE_PER_ASSIGNMENT)
        dataset = inputs["dataset"]
        with env.aggregators_probed(), _round_marking(env.context, env.steps)(
            config=ReprowdConfig.sqlite(inputs["db"], seed=inputs["seed"]),
            budget=budget,
        ) as context:
            operator = CrowdDedup(
                context,
                "dedup",
                use_transitivity=True,
                batch_size=inputs["batch"],
                n_assignments=REDUNDANCY,
                blocker=env.probe(_BlockThenStart(env.steps, threshold=0.3), "operators"),
            )
            result = env.probe(operator, "operators").dedup(
                dataset.records, ground_truth=dataset.pair_ground_truth
            )
            stats = context.client.statistics()
        return result, budget, stats

    def outputs(self, inputs, raw):
        result, budget, stats = raw
        dataset = inputs["dataset"]
        report = result.report
        answers, rows = _table_answers(result.join_result.crowddata, "decision")
        decisions = result.join_result.decisions
        correct = sum(
            1
            for (left, right), decision in decisions.items()
            if (decision == "Yes") == dataset.is_match(left, right)
        )
        return Outputs(
            answers=canonical_json(
                {"asked": answers, "clusters": result.clusters}
            ),
            **_tally(answers),
            to_publish=len(answers),
            purchased=budget.total_assignments(),
            spent=budget.spent,
            accuracy=correct / len(decisions),
            platform_tasks=stats["tasks"],
            platform_task_runs=stats["task_runs"],
            table_rows=rows,
            steps_expected=report.rounds,
            layer_facts={
                "operators.machine_comparisons": report.machine_comparisons,
                "operators.rounds": report.rounds,
                "operators.crowd_tasks": report.crowd_tasks,
            },
        )


# -- the marketplace streams ---------------------------------------------------


class _PinnedRunner(ScenarioRunner):
    """ScenarioRunner whose run directory and wire endpoint the harness
    chooses: the warm rerun must land on the cold run's artifacts, and the
    wire server is started by set-up, not by the program.  ScenarioRunner
    offers no public hook for either, hence the two private overrides; a
    rename there makes the warm-rerun and platform checks fail loudly."""

    def __init__(self, run_dir: str, wire_port: int = 0):
        super().__init__(os.path.dirname(run_dir))
        self._pinned_dir = run_dir
        self._wire_port = wire_port

    def _fresh_run_dir(self, spec: ScenarioSpec) -> str:
        os.makedirs(self._pinned_dir, exist_ok=True)
        return self._pinned_dir

    def _build_config(self, spec: ScenarioSpec, run_dir: str) -> ReprowdConfig:
        config = super()._build_config(spec, run_dir)
        if self._wire_port:
            config = replace(
                config, platform=replace(config.platform, wire_port=self._wire_port)
            )
        return config


class Stream(Workload):
    """A ScenarioRunner marketplace stream on one stack."""

    #: ScenarioSpec fields that differ from the shared marketplace below.
    stack_fields: Mapping[str, Any] = {}

    def spec(self, seed: int, sizes: Mapping[str, int]) -> ScenarioSpec:
        arrivals = sizes["arrivals"]
        fields: dict[str, Any] = dict(
            name=self.name,
            seed=seed,
            arrival="poisson",
            rate=20.0,
            num_tasks=arrivals,
            batch_size=math.ceil(arrivals / sizes["batches"]),
            num_keys=4 * arrivals,
            zipf_skew=0.6,
            pool_size=40,
            redundancy=REDUNDANCY,
            price_per_assignment=PRICE_PER_ASSIGNMENT,
        )
        fields.update(self.stack_fields)
        return ScenarioSpec(**fields)

    def setup(self, seed, sizes, run_dir, probes=None):
        started = perf_counter()
        spec = self.spec(seed, sizes)
        types = list(spec.resolved_task_types)
        keygen = ZipfKeyGenerator(spec.resolved_num_keys, spec.zipf_skew)
        keys = keygen.sample_many(
            spec.num_tasks, random.Random(_derive_seed(seed, "keys"))
        )
        truth = marketplace_ground_truth(types)
        expected = {obj["key"]: truth(obj) for obj in make_objects(keys, types)}
        return {
            "spec": spec,
            "run_dir": os.path.join(run_dir, "run"),
            "expected": expected,
            "generate_s": perf_counter() - started,
        }

    def run(self, inputs, env):
        captured: dict[str, Any] = {}
        last_batch = inputs["spec"].total_batches - 1

        def on_batch(context: CrowdContext, index: int) -> None:
            env.steps.mark()
            if index == last_batch:
                captured["stats"] = context.client.statistics()
                captured["engine"] = context.engine

        runner = _PinnedRunner(inputs["run_dir"], wire_port=inputs.get("port", 0))
        with env.aggregators_probed(), _rebound(
            scenario_module, **self._bindings(inputs, env)
        ):
            result = env.probe(runner, "workload").run(inputs["spec"], on_batch=on_batch)
        return result, captured

    def _bindings(self, inputs: dict[str, Any], env: Env) -> dict[str, Any]:
        """Names to rebind in ``repro.workload.scenario`` while the runner
        runs: none for an untraced run, the probed ones for a traced run."""
        if env.probes is None:
            return {}
        probes = env.probes
        observed = partial(probes.probe, layer="workload")
        return {
            "CrowdContext": env.context,
            "build_arrival_process": probes.function(
                scenario_module.build_arrival_process, "workload", observed
            ),
            "ZipfKeyGenerator": probes.function(
                scenario_module.ZipfKeyGenerator, "workload", observed
            ),
            "make_objects": probes.function(scenario_module.make_objects, "workload"),
            "build_marketplace_pool": probes.function(
                scenario_module.build_marketplace_pool, "workload", probes.pool
            ),
        }

    def outputs(self, inputs, raw):
        result, captured = raw
        spec, expected = inputs["spec"], inputs["expected"]
        report = result.report
        collected = result.collected
        minimum = 2 if spec.adaptive else spec.redundancy
        correct = sum(
            1 for entry in collected if entry["decision"] == expected.get(entry["key"])
        )
        stats = captured["stats"]
        return Outputs(
            answers=result.canonical_collected,
            objects=len(expected),
            to_publish=len(expected),
            answers_collected=report["workload"]["answers"],
            complete={entry["key"] for entry in collected} == set(expected)
            and all(
                minimum <= len(entry["answers"]) <= spec.redundancy for entry in collected
            ),
            purchased=report["economics"]["assignments_purchased"],
            spent=report["economics"]["spent"],
            accuracy=correct / len(expected),
            platform_tasks=stats["tasks"],
            platform_task_runs=stats["task_runs"],
            table_rows=len(collected),
            steps_expected=spec.total_batches,
        )


class StreamSqlite(Stream):
    name = "stream_sqlite"
    why = (
        "incremental extend/publish/collect on a sqlite cache: core (object-key "
        "hashing, cached-row reload) and storage reads grow with the table"
    )
    stack = "sqlite cache (synchronous), memory task store, direct transport"
    sizes = {"full": {"arrivals": 1000, "batches": 20}, "smoke": {"arrivals": 300, "batches": 10}}
    stack_fields = {
        "storage": "sqlite",
        "mean_accuracy": 0.9,
        "accuracy_spread": 0.08,
        "speed_spread": 0.3,
        "straggler_fraction": 0.05,
        "straggler_slowdown": 4.0,
    }


class DurableSqlite(Stream):
    name = "durable_sqlite"
    why = (
        "the stream_sqlite generator with a durable platform on the shared "
        "file: platform.store and storage write barriers do the work"
    )
    stack = "sqlite cache + durable task store in one file (synchronous, no group commit), direct"
    sizes = {"full": {"arrivals": 400, "batches": 20}, "smoke": {"arrivals": 20, "batches": 10}}
    stack_fields = {**StreamSqlite.stack_fields, "durable_platform": True}
    platform_persists = True


class AdaptiveEm(Stream):
    name = "adaptive_em"
    why = (
        "adaptive redundancy (2..7, threshold 0.75) with batch Dawid-Skene: the "
        "only path where answers_purchased and accuracy trade against time"
    )
    stack = "sqlite cache (synchronous), memory task store, direct transport"
    sizes = {"full": {"arrivals": 700, "batches": 20}, "smoke": {"arrivals": 200, "batches": 10}}
    stack_fields = {
        **StreamSqlite.stack_fields,
        "adaptive": True,
        "adaptive_threshold": 0.75,
        "redundancy": 7,
        "quality_method": "em",
    }


class WireStream(Stream):
    name = "wire_stream"
    why = (
        "no disk on either side and a spawned server: platform.wire (framing, "
        "JSON value codec, sockets) is most of wall; read the wire rule here"
    )
    stack = "memory cache, spawned python -m repro.platform.wire server (memory store), wire"
    sizes = {"full": {"arrivals": 800, "batches": 20}, "smoke": {"arrivals": 200, "batches": 10}}
    # A wire server simulates a uniform pool; ScenarioSpec.validate demands
    # the supply-side fields at their neutral values.
    stack_fields = {
        "storage": "memory",
        "transport": "wire",
        "mean_accuracy": 0.9,
        "accuracy_spread": 0.0,
        "acceptance_mean": 1.0,
        "acceptance_spread": 0.0,
        "speed_spread": 0.0,
    }
    platform_persists = True

    def setup(self, seed, sizes, run_dir, probes=None):
        inputs = super().setup(seed, sizes, run_dir)
        spec = inputs["spec"]
        if probes is None:
            server = spawn_server(
                seed=seed,
                pool_size=spec.pool_size,
                accuracy=spec.mean_accuracy,
                port_file=os.path.join(run_dir, "wire-port.txt"),
            )
        else:
            # Traced: the platform the spawned process would build, hosted
            # on a thread here so server, store and pool can be probed.
            platform = PlatformServer(
                worker_pool=probes.pool(
                    WorkerPool.uniform(spec.pool_size, spec.mean_accuracy, seed=seed)
                ),
                config=PlatformConfig(seed=seed),
                store=probes.store(MemoryTaskStore()),
            )
            server = WireServer(probes.server(platform))
            server.start()
        inputs["server"] = server
        inputs["port"] = server.port
        return inputs

    def run(self, inputs, env):
        result, captured = super().run(inputs, env)
        inputs["engine"] = captured["engine"]
        return result, captured

    def _bindings(self, inputs, env):
        # The memory cache dies with its context: the warm rerun is handed
        # the cold run's engine object, the only artifact this stack has.
        bindings = super()._bindings(inputs, env)
        if "engine" in inputs:
            bindings["CrowdContext"] = partial(env.context, engine=inputs["engine"])
        return bindings

    def teardown(self, inputs):
        server = inputs.pop("server", None)
        if server is not None:
            server.stop()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        BobOneshot(),
        StreamSqlite(),
        DurableSqlite(),
        WireStream(),
        DedupOperator(),
        AdaptiveEm(),
        AllyExtend(),
    )
}
