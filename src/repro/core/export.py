"""Exporting experiments for publication and offline examination.

Sharing the SQLite file plus the code is the paper's workflow, but published
papers also need flat artifacts: a JSON dump of the whole experiment (rows,
answers, lineage, manipulation history) and CSV files reviewers can open
without installing anything.  The exporter reads everything from a CrowdData
instance — or straight from a storage engine, which is what the command-line
interface uses when only the database file is available.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Any

from repro.core.lineage import AnswerLineage
from repro.core.manipulations import Manipulation
from repro.exceptions import CrowdDataError
from repro.storage.engine import StorageEngine

if TYPE_CHECKING:  # annotation only: the engine-level readers below need no CrowdData
    from repro.core.crowddata import CrowdData


class ExperimentExporter:
    """Serialises one CrowdData experiment to JSON or CSV."""

    def __init__(self, crowddata: CrowdData):
        self.crowddata = crowddata

    # -- structured export -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return the whole experiment as one JSON-friendly dictionary."""
        data = self.crowddata
        return {
            "table": data.table_name,
            "columns": data.columns,
            "schema": data.schema.describe(),
            "rows": data.rows(),
            "lineage": [record.to_dict() for record in data.lineage_records()],
            "manipulations": [m.to_dict() for m in data.manipulation_history()],
            "cache": data.cache.describe(),
        }

    def to_json(self, path: str, indent: int = 2) -> str:
        """Write the experiment to a JSON file at *path* and return the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=indent, sort_keys=True, default=repr)
        return path

    # -- flat (CSV) export ----------------------------------------------------------

    def answers_to_csv(self, path: str) -> str:
        """Write one CSV row per collected answer (the lineage view)."""
        records = self.crowddata.lineage_records()
        if not records:
            raise CrowdDataError("nothing to export: no answers have been collected")
        fieldnames = list(records[0].to_dict().keys())
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for record in records:
                writer.writerow(record.to_dict())
        return path

    def decisions_to_csv(self, path: str, decision_column: str = "mv") -> str:
        """Write one CSV row per experiment row with its aggregated decision."""
        data = self.crowddata
        if decision_column not in data.columns:
            raise CrowdDataError(
                f"column {decision_column!r} does not exist; run quality control first"
            )
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "object", decision_column])
            for row in data.rows():
                writer.writerow([row["id"], json.dumps(row["object"], default=repr), row[decision_column]])
        return path


# -- engine-level readers (no CrowdData instance needed) -----------------------------


def stored_tables(engine: StorageEngine) -> list[str]:
    """Return the CrowdData table names recorded in an experiment database."""
    if not engine.has_table("__tables__"):
        return []
    return sorted(engine.keys("__tables__"))


def stored_manipulations(engine: StorageEngine, table_name: str) -> list[Manipulation]:
    """Read a table's manipulation history straight from the database."""
    log_table = f"{table_name}::manipulations"
    if not engine.has_table(log_table):
        return []
    records = sorted(engine.items(log_table), key=lambda item: item[0])
    return [Manipulation.from_dict(value) for _, value in records]


def stored_lineage(engine: StorageEngine, table_name: str) -> list[AnswerLineage]:
    """Read a table's answer lineage straight from the database."""
    results_table = f"{table_name}::results"
    if not engine.has_table(results_table):
        return []
    lineage: list[AnswerLineage] = []
    for result in engine.values(results_table):
        published_at = result.get("published_at", 0.0)
        for assignment in result.get("assignments", []):
            lineage.append(
                AnswerLineage(
                    object_key=result["object_key"],
                    task_id=result["task_id"],
                    run_id=assignment["id"],
                    worker_id=assignment["worker_id"],
                    answer=assignment["answer"],
                    published_at=published_at,
                    submitted_at=assignment["submitted_at"],
                    latency_seconds=assignment["latency_seconds"],
                    assignment_order=assignment["assignment_order"],
                )
            )
    return lineage


def stored_experiment_summary(engine: StorageEngine, table_name: str) -> dict[str, Any]:
    """Summarise a stored experiment without re-running any code."""
    tasks_table = f"{table_name}::tasks"
    results_table = f"{table_name}::results"
    lineage = stored_lineage(engine, table_name)
    manipulations = stored_manipulations(engine, table_name)
    return {
        "table": table_name,
        "cached_tasks": engine.count(tasks_table) if engine.has_table(tasks_table) else 0,
        "cached_results": engine.count(results_table) if engine.has_table(results_table) else 0,
        "answers": len(lineage),
        "distinct_workers": len({record.worker_id for record in lineage}),
        "manipulations": [m.operation for m in manipulations],
    }
