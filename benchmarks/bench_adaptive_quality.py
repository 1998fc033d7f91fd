"""E18: streaming adaptive quality control at 10k objects.

PR 10 rebuilt ``get_result_adaptive`` around the paged task-run stream and
incremental aggregation.  E18 is its acceptance benchmark, at the paper's
flagship scale (10k labeled objects, 25 workers at 0.85 mean accuracy):

* **budget**: the adaptive policy (start at 2, threshold 0.75, cap 7)
  matches fixed-redundancy(5) accuracy within one point while purchasing
  at least 25% fewer answers;
* **round trips**: the whole collection issues zero per-task
  ``get_task_runs`` calls — its platform bill is O(pages) per round plus
  one batched ``extend_tasks_redundancy`` per purchasing round
  (CountingTransport-proven);
* **incremental EM**: the :class:`OnlineDawidSkene` model fed page by page
  by the adaptive loop agrees, after refinement, with the batch
  Dawid-Skene aggregator on **every** item's decision.

Wall-clock numbers are recorded as ``*_seconds`` metrics, so the committed
``BENCH_E18.json`` trajectory enrolls E18 in ``make bench-trend``.  Run
``pytest benchmarks/bench_adaptive_quality.py -q --bench-scale=smoke`` for
a seconds-long structural pass (savings floor, accuracy window and the
trajectory write are full-scale only).
"""

from __future__ import annotations

import math
import time

import pytest

from repro import AdaptivePolicy, BudgetTracker, CrowdContext
from repro.config import ReprowdConfig, StorageConfig, WorkerPoolConfig
from repro.datasets import make_image_label_dataset
from repro.platform.transport import CountingTransport
from repro.presenters import ImageLabelPresenter
from repro.quality import DawidSkeneAggregator
from repro.quality.incremental import OnlineDawidSkene
from repro.simulation import ExperimentRunner

from record import write_trajectory

pytestmark = [pytest.mark.slow, pytest.mark.quality]

FULL_OBJECTS = 10_000
SMOKE_OBJECTS = 300
PRICE = 0.02
FIXED_REDUNDANCY = 5
POLICY = AdaptivePolicy(
    initial_assignments=2, max_assignments=7, min_assignments=2,
    confidence_threshold=0.75, extra_per_round=2,
)
SEED = 18
#: Full-scale floors: answer savings vs fixed(5) and the accuracy window.
MIN_SAVINGS_FRACTION = 0.25
MAX_ACCURACY_DROP = 0.01


def make_context(seed: int, transport=None) -> CrowdContext:
    config = ReprowdConfig(
        storage=StorageConfig(engine="memory"),
        workers=WorkerPoolConfig(
            size=25, mean_accuracy=0.85, accuracy_spread=0.05, seed=seed
        ),
    )
    return CrowdContext(
        config=config,
        transport=transport,
        budget=BudgetTracker(price_per_assignment=PRICE),
    )


def accuracy_of(data, column: str, ground_truth) -> float:
    objects = data.column("object")
    labels = data.column(column)
    return sum(
        1 for obj, label in zip(objects, labels) if label == ground_truth(obj)
    ) / len(objects)


def run_fixed(dataset) -> dict:
    context = make_context(SEED)
    data = (
        context.CrowdData(dataset.images, "fixed", ground_truth=dataset.ground_truth)
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=FIXED_REDUNDANCY)
    )
    started = time.perf_counter()
    data.get_result().mv()
    elapsed = time.perf_counter() - started
    row = {
        "strategy": f"fixed(r={FIXED_REDUNDANCY})",
        "answers": sum(len(r["assignments"]) for r in data.column("result")),
        "spend_usd": round(context.budget.spent, 2),
        "accuracy": round(accuracy_of(data, "mv", dataset.ground_truth), 4),
        "collect_seconds": round(elapsed, 3),
    }
    context.close()
    return row


def run_adaptive(dataset) -> tuple[dict, dict]:
    transport = CountingTransport()
    context = make_context(SEED, transport=transport)
    tracker = OnlineDawidSkene()
    data = (
        context.CrowdData(dataset.images, "adaptive", ground_truth=dataset.ground_truth)
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=POLICY.initial_assignments)
    )
    started = time.perf_counter()
    data.get_result_adaptive(POLICY, aggregator=tracker).mv()
    elapsed = time.perf_counter() - started
    stats = data.last_adaptive_stats

    # E18 acceptance: no per-task run fetches — the loop's platform bill is
    # O(pages) per round plus one batched extension call per round.
    calls = transport.calls_by_name
    assert "get_task_runs" not in calls
    pages_per_sweep = math.ceil(len(dataset.images) / data.collect_page_size)
    assert calls["get_task_runs_page"] <= (stats.rounds + 1) * pages_per_sweep
    assert calls["extend_tasks_redundancy"] <= stats.rounds

    # E18 acceptance: the page-fed online EM refines to the batch fixed
    # point — identical decisions on every item.
    votes = {
        r["task_id"]: [(a["worker_id"], a["answer"]) for a in r["assignments"]]
        for r in data.column("result")
    }
    refine_started = time.perf_counter()
    online = tracker.result()
    refine_seconds = time.perf_counter() - refine_started
    batch = DawidSkeneAggregator().aggregate(votes)
    disagreements = [
        item for item in votes if online.decisions[item] != batch.decisions[item]
    ]
    assert not disagreements, (
        f"online EM disagrees with batch on {len(disagreements)} of "
        f"{len(votes)} items"
    )

    row = {
        "strategy": f"adaptive(conf={POLICY.confidence_threshold})",
        "answers": stats.answers_collected,
        "spend_usd": round(context.budget.spent, 2),
        "accuracy": round(accuracy_of(data, "mv", dataset.ground_truth), 4),
        "collect_seconds": round(elapsed, 3),
    }
    detail = {
        "rounds": stats.rounds,
        "pages_streamed": stats.pages_streamed,
        "items_resolved_early": stats.items_resolved_early,
        "items_at_cap": stats.items_at_cap,
        "items_below_minimum": stats.items_below_minimum,
        "extensions_requested": stats.extensions_requested,
        "platform_round_trips": transport.calls,
        "em_refine_seconds": round(refine_seconds, 3),
        "em_items_checked": len(votes),
        "em_decision_disagreements": 0,
    }
    context.close()
    return row, detail


def test_streaming_adaptive_vs_fixed_redundancy(record_table, bench_scale):
    smoke = bench_scale == "smoke"
    num_objects = SMOKE_OBJECTS if smoke else FULL_OBJECTS
    dataset = make_image_label_dataset(num_images=num_objects, seed=SEED)

    fixed = run_fixed(dataset)
    adaptive, detail = run_adaptive(dataset)

    assert adaptive["answers"] < fixed["answers"]
    savings = 1.0 - adaptive["answers"] / fixed["answers"]
    if not smoke:
        # E18 acceptance: fixed(5) accuracy within one point at >= 25%
        # fewer purchased answers.
        assert savings >= MIN_SAVINGS_FRACTION, (
            f"adaptive saved only {savings:.1%} of fixed answers "
            f"(floor {MIN_SAVINGS_FRACTION:.0%})"
        )
        assert adaptive["accuracy"] >= fixed["accuracy"] - MAX_ACCURACY_DROP, (
            f"adaptive accuracy {adaptive['accuracy']} more than "
            f"{MAX_ACCURACY_DROP} under fixed {fixed['accuracy']}"
        )

    runner = ExperimentRunner(
        f"E18 — streaming adaptive quality control, {num_objects} objects, "
        f"25 workers @ 0.85 accuracy, ${PRICE}/assignment "
        f"(adaptive saved {savings:.1%} of fixed(r={FIXED_REDUNDANCY}) answers; "
        "online EM == batch EM on every item)"
    )
    sweep = runner.run([{}], lambda point: {})
    sweep.rows = [fixed, adaptive]
    record_table(
        "E18_adaptive_quality",
        sweep.to_table(
            columns=["strategy", "answers", "spend_usd", "accuracy", "collect_seconds"]
        ),
    )

    if not smoke:
        write_trajectory(
            "E18",
            {
                "scale": bench_scale,
                "objects": num_objects,
                "fixed": fixed,
                "adaptive": adaptive,
                "adaptive_detail": detail,
                "savings_fraction": round(savings, 4),
            },
        )
