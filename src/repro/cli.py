"""Command-line interface for examining shared experiment databases.

Ally may receive only the database file.  The CLI lets her inspect it without
writing any code:

    python -m repro tables       experiment.db
    python -m repro describe     experiment.db
    python -m repro history      experiment.db image_label
    python -m repro lineage      experiment.db image_label
    python -m repro export       experiment.db image_label out.json

Every command is read-only: the CLI never publishes tasks or modifies the
database.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.exceptions import ReprowdError
from repro.storage.sqlite_engine import SqliteEngine


def _open(db_path: str) -> SqliteEngine:
    return SqliteEngine(db_path)


def cmd_tables(args: argparse.Namespace) -> int:
    """List the CrowdData tables stored in the database."""
    from repro.core.export import stored_tables

    with _open(args.database) as engine:
        tables = stored_tables(engine)
    if not tables:
        print("(no experiment tables found)")
        return 0
    for table in tables:
        print(table)
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    """Print a summary of every experiment in the database."""
    from repro.core.export import stored_experiment_summary, stored_tables

    with _open(args.database) as engine:
        tables = stored_tables(engine)
        summaries = [stored_experiment_summary(engine, table) for table in tables]
    print(json.dumps(summaries, indent=2))
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    """Print a table's manipulation history."""
    from repro.core.export import stored_manipulations

    with _open(args.database) as engine:
        manipulations = stored_manipulations(engine, args.table)
    if not manipulations:
        print(f"(no manipulation history for table {args.table!r})")
        return 1
    for manipulation in manipulations:
        print(
            f"#{manipulation.sequence:<3} {manipulation.operation:<20} "
            f"rows={manipulation.rows_affected:<5} cache_hits={manipulation.cache_hits:<5} "
            f"params={json.dumps(manipulation.parameters, sort_keys=True)}"
        )
    return 0


def cmd_lineage(args: argparse.Namespace) -> int:
    """Print the lineage summary of a table's crowd answers."""
    from repro.core.export import stored_lineage
    from repro.core.lineage import LineageQuery

    with _open(args.database) as engine:
        records = stored_lineage(engine, args.table)
    if not records:
        print(f"(no collected answers for table {args.table!r})")
        return 1
    query = LineageQuery(records)
    start_pub, end_pub = query.publication_window()
    start_col, end_col = query.collection_window()
    summary = {
        "answers": len(query),
        "distinct_workers": len(query.workers()),
        "tasks": len(query.tasks()),
        "publication_window": [start_pub, end_pub],
        "collection_window": [start_col, end_col],
        "mean_latency_seconds": round(query.mean_latency(), 2),
        "answer_distribution": query.answer_distribution(),
        "worker_contributions": query.worker_contributions(),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export a table's cached crowd data to a JSON file."""
    from repro.core.export import (
        stored_experiment_summary,
        stored_lineage,
        stored_manipulations,
    )

    with _open(args.database) as engine:
        payload = {
            "summary": stored_experiment_summary(engine, args.table),
            "lineage": [record.to_dict() for record in stored_lineage(engine, args.table)],
            "manipulations": [m.to_dict() for m in stored_manipulations(engine, args.table)],
        }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inspect a shared Reprowd experiment database (read-only).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="list experiment tables")
    tables.add_argument("database", help="path to the shared SQLite database")
    tables.set_defaults(func=cmd_tables)

    describe = subparsers.add_parser("describe", help="summarise every experiment")
    describe.add_argument("database")
    describe.set_defaults(func=cmd_describe)

    history = subparsers.add_parser("history", help="show a table's manipulation log")
    history.add_argument("database")
    history.add_argument("table")
    history.set_defaults(func=cmd_history)

    lineage = subparsers.add_parser("lineage", help="show a table's answer lineage")
    lineage.add_argument("database")
    lineage.add_argument("table")
    lineage.set_defaults(func=cmd_lineage)

    export = subparsers.add_parser("export", help="export a table's crowd data to JSON")
    export.add_argument("database")
    export.add_argument("table")
    export.add_argument("output")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReprowdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
