"""Unit tests for the CrowdData abstraction — the five steps of Figure 2."""

from __future__ import annotations

import pytest

from repro.exceptions import CrowdDataError, LineageError
from repro.presenters import ImageLabelPresenter, TextLabelPresenter


def build_crowddata(context, dataset, table="imgs", n_assignments=3, publish=True):
    """Run Bob's steps 1-4 against *context* and return the CrowdData."""
    data = context.CrowdData(dataset.images, table, ground_truth=dataset.ground_truth)
    data.set_presenter(ImageLabelPresenter(question="Label?"))
    if publish:
        data.publish_task(n_assignments=n_assignments).get_result()
    return data


class TestTableBasics:
    def test_init_creates_id_and_object_columns(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        assert data.columns == ["id", "object", "task", "result"]
        assert data.column("id") == list(range(1, len(image_dataset) + 1))
        assert data.column("object") == image_dataset.images
        assert len(data) == len(image_dataset)

    def test_rows_and_row_access(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        rows = data.rows()
        assert rows[0]["id"] == 1
        assert data.row(0) == rows[0]
        with pytest.raises(CrowdDataError):
            data.row(999)

    def test_unknown_column_raises(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        with pytest.raises(CrowdDataError):
            data.column("nope")

    def test_empty_table_name_rejected(self, context):
        with pytest.raises(CrowdDataError):
            context.CrowdData(["x"], "")

    def test_repr_mentions_table_and_rows(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        assert "imgs" in repr(data)


class TestPresenterStep:
    def test_set_presenter_records_manipulation(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        data.set_presenter(ImageLabelPresenter())
        assert data.manipulation_history()[-1].operation == "set_presenter"

    def test_publish_without_presenter_rejected(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        with pytest.raises(CrowdDataError, match="presenter"):
            data.publish_task()

    def test_presenter_restored_from_cache(self, sqlite_context, image_dataset):
        data = sqlite_context.CrowdData(image_dataset.images, "imgs")
        data.set_presenter(ImageLabelPresenter(question="Custom question?"))
        # A second CrowdData over the same table (same DB) sees the presenter.
        again = sqlite_context.CrowdData(image_dataset.images, "imgs")
        assert again.presenter is not None
        assert again.presenter.question == "Custom question?"


class TestPublishAndCollect:
    def test_publish_adds_task_descriptors(self, context, image_dataset):
        data = build_crowddata(context, image_dataset, publish=False)
        data.publish_task(n_assignments=3)
        tasks = data.column("task")
        assert all(task is not None for task in tasks)
        assert all(task["n_assignments"] == 3 for task in tasks)
        assert len({task["task_id"] for task in tasks}) == len(image_dataset)

    def test_publish_is_idempotent(self, context, image_dataset):
        data = build_crowddata(context, image_dataset, publish=False)
        data.publish_task()
        first_ids = [task["task_id"] for task in data.column("task")]
        data.publish_task()
        assert [task["task_id"] for task in data.column("task")] == first_ids
        assert context.client.statistics()["tasks"] == len(image_dataset)

    def test_get_result_collects_all_assignments(self, context, image_dataset):
        data = build_crowddata(context, image_dataset)
        results = data.column("result")
        assert all(result["complete"] for result in results)
        assert all(len(result["assignments"]) == 3 for result in results)

    def test_get_result_before_publish_rejected(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        data.set_presenter(ImageLabelPresenter())
        with pytest.raises(CrowdDataError):
            data.get_result()

    def test_non_blocking_get_result_returns_partial(self, context, image_dataset):
        data = build_crowddata(context, image_dataset, publish=False)
        data.publish_task(n_assignments=3)
        data.get_result(blocking=False)
        results = data.column("result")
        assert all(not result["complete"] for result in results)
        # Partial results are not persisted, so the cache stays empty.
        assert data.cache.result_count() == 0

    def test_publish_counts_cache_hits_on_second_call(self, context, image_dataset):
        data = build_crowddata(context, image_dataset, publish=False)
        data.publish_task()
        data.publish_task()
        last = data.manipulation_history()[-1]
        assert last.operation == "publish_task"
        assert last.cache_hits == len(image_dataset)


class TestQualityControlStep:
    def test_mv_adds_column(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        assert "mv" in data.columns
        assert set(data.column("mv")) <= {"Yes", "No"}

    def test_mv_matches_truth_with_accurate_workers(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        truth = [image_dataset.labels[url] for url in image_dataset.images]
        agreement = sum(a == b for a, b in zip(data.column("mv"), truth)) / len(truth)
        assert agreement >= 0.9

    def test_em_and_wmv_columns(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.em().wmv()
        assert "em" in data.columns and "wmv" in data.columns

    def test_custom_column_name(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.quality_control("mv", column="final_label")
        assert "final_label" in data.columns

    def test_quality_control_before_results_rejected(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        with pytest.raises(CrowdDataError):
            data.mv()

    def test_last_aggregation_exposed(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        assert data.last_aggregation is not None
        assert data.last_aggregation.method == "mv"
        assert len(data.last_aggregation.decisions) == len(image_dataset)


class TestExtendFilterClear:
    def test_extend_adds_only_new_objects(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images[:5], "imgs")
        data.set_presenter(ImageLabelPresenter())
        data.extend(image_dataset.images[3:8])
        assert len(data) == 8
        assert data.column("object") == image_dataset.images[:8]

    def test_extend_after_results_publishes_only_new_tasks(self, context, image_dataset):
        data = context.CrowdData(
            image_dataset.images[:5], "imgs", ground_truth=image_dataset.ground_truth
        )
        data.set_presenter(ImageLabelPresenter())
        data.publish_task(3).get_result()
        tasks_before = context.client.statistics()["tasks"]
        data.extend(image_dataset.images[5:8]).publish_task(3).get_result().mv()
        assert context.client.statistics()["tasks"] == tasks_before + 3
        assert len(data.column("mv")) == 8

    def test_append_single_object(self, context):
        data = context.CrowdData(["a"], "t")
        data.append("b")
        assert data.column("object") == ["a", "b"]

    def test_extend_pads_derived_columns(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        data.extend(["http://img.example.org/new.jpg"])
        assert len(data.column("mv")) == len(data)
        assert data.column("mv")[-1] is None

    def test_filter_keeps_matching_rows(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        data.filter(lambda row: row["mv"] == "Yes")
        assert all(value == "Yes" for value in data.column("mv"))
        assert len(data) <= len(image_dataset)

    def test_filter_does_not_touch_cache(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        cached = data.cache.result_count()
        data.filter(lambda row: False)
        assert len(data) == 0
        assert data.cache.result_count() == cached

    def test_clear_empties_rows_and_cache(self, context, image_dataset):
        data = build_crowddata(context, image_dataset)
        data.clear()
        assert len(data) == 0
        assert data.cache.task_count() == 0
        assert data.cache.result_count() == 0


class TestRowKeyMemo:
    """A row's cache key is hashed once and kept with the row; the verbs
    that drop or re-key rows must keep the memo in step with the table."""

    def test_filtered_out_object_is_re_added_and_reuses_its_cached_task(
        self, context, image_dataset
    ):
        data = build_crowddata(context, image_dataset)
        dropped = image_dataset.images[2]
        dropped_task = data.column("task")[2]
        data.filter(lambda row: row["object"] != dropped)
        assert dropped not in data.column("object")

        tasks_before = context.client.statistics()["tasks"]
        data.extend([dropped])
        assert data.column("object")[-1] == dropped
        assert data.column("task")[-1] is None
        data.publish_task(3).get_result()
        assert context.client.statistics()["tasks"] == tasks_before
        assert data.column("task")[-1] == dropped_task
        assert data.column("result")[-1]["task_id"] == dropped_task["task_id"]
        # Still deduplicated against the rows that stayed.
        data.extend(image_dataset.images)
        assert len(data) == len(image_dataset)

    def test_switching_presenter_type_changes_the_keys(self, context, image_dataset):
        data = context.CrowdData(
            image_dataset.images[:4], "imgs", ground_truth=image_dataset.ground_truth
        )
        data.set_presenter(ImageLabelPresenter())
        data.publish_task(3)
        image_keys = [task["object_key"] for task in data.column("task")]

        data.filter(lambda row: False)
        data.set_presenter(TextLabelPresenter())
        data.extend(image_dataset.images[:4]).publish_task(3)
        text_keys = [task["object_key"] for task in data.column("task")]
        assert set(text_keys).isdisjoint(image_keys)
        assert text_keys == [
            data.cache.object_key(obj, "text_label") for obj in image_dataset.images[:4]
        ]
        assert context.client.statistics()["tasks"] == 8

    def test_switching_presenter_type_rekeys_existing_rows(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images[:4], "imgs")
        data.set_presenter(ImageLabelPresenter())
        data.set_presenter(TextLabelPresenter())
        # Rows keyed as images would let this through as four new objects.
        data.extend(image_dataset.images[:4])
        assert len(data) == 4

    def test_clear_forgets_the_keys(self, context, image_dataset):
        data = build_crowddata(context, image_dataset)
        data.clear()
        data.set_presenter(ImageLabelPresenter())
        data.extend(image_dataset.images[:3])
        assert len(data) == 3
        data.publish_task(3).get_result()
        assert all(result["complete"] for result in data.column("result"))


class TestLineageAndHistory:
    def test_lineage_has_one_record_per_answer(self, context, image_dataset):
        data = build_crowddata(context, image_dataset)
        lineage = data.lineage()
        assert len(lineage) == len(image_dataset) * 3

    def test_lineage_workers_subset_of_pool(self, context, image_dataset):
        data = build_crowddata(context, image_dataset)
        assert set(data.lineage().workers()) <= set(context.worker_pool.worker_ids())

    def test_lineage_before_results_raises(self, context, image_dataset):
        data = context.CrowdData(image_dataset.images, "imgs")
        with pytest.raises(LineageError):
            data.lineage()

    def test_manipulation_history_records_all_steps(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        data.mv()
        assert data.log.operations() == [
            "init",
            "set_presenter",
            "publish_task",
            "get_result",
            "quality_control",
        ]

    def test_describe(self, accurate_context, image_dataset):
        data = build_crowddata(accurate_context, image_dataset)
        description = data.describe()
        assert description["table"] == "imgs"
        assert description["rows"] == len(image_dataset)
        assert description["cache"]["cached_tasks"] == len(image_dataset)
