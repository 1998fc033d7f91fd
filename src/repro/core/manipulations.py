"""The manipulation log: what makes an experiment *examinable*.

Every CrowdData verb (publish_task, get_result, mv, extend, filter, ...) is
recorded as a :class:`Manipulation` with its parameters and its effect on the
table's columns.  Ally can read the log to understand exactly what Bob's
experiment did without reverse-engineering his code, and the log doubles as
an audit trail when she extends the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.engine import StorageEngine


@dataclass(frozen=True)
class Manipulation:
    """One recorded manipulation of a CrowdData table.

    Attributes:
        sequence: 1-based position in the table's manipulation history.
        operation: Verb name (``"publish_task"``, ``"mv"``, ...).
        parameters: The verb's parameters, JSON-friendly.
        columns_added: Columns the verb added to the table.
        rows_affected: Number of rows the verb touched.
        cache_hits: How many rows were served from the fault-recovery cache
            (0 for purely computational verbs).
        timestamp: Simulated-clock time of the manipulation.
    """

    sequence: int
    operation: str
    parameters: dict[str, Any] = field(default_factory=dict)
    columns_added: list[str] = field(default_factory=list)
    rows_affected: int = 0
    cache_hits: int = 0
    timestamp: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-friendly representation."""
        return {
            "sequence": self.sequence,
            "operation": self.operation,
            "parameters": self.parameters,
            "columns_added": self.columns_added,
            "rows_affected": self.rows_affected,
            "cache_hits": self.cache_hits,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Manipulation":
        """Rebuild a manipulation from :meth:`to_dict` output."""
        return cls(
            sequence=payload["sequence"],
            operation=payload["operation"],
            parameters=dict(payload.get("parameters", {})),
            columns_added=list(payload.get("columns_added", [])),
            rows_affected=payload.get("rows_affected", 0),
            cache_hits=payload.get("cache_hits", 0),
            timestamp=payload.get("timestamp", 0.0),
        )


class ManipulationLog:
    """Durable, append-only log of a table's manipulations.

    Appends are batched: :meth:`record_many` persists any number of
    manipulations with a single engine ``put_many`` — one transaction on
    SQLite, one group append (one fsync) on the log-structured engine — and
    :meth:`record` is the single-entry case of the same path.  The next
    sequence is re-read from the durable count per batch (``count`` is O(1)
    on every engine), so several log instances over the same table — e.g. a
    table re-opened while an old handle is still alive — interleave without
    overwriting each other's entries.  Every entry is written through: a
    verb that wants its record in the same barrier as its rows opens an
    engine ``write_group()`` around both.
    """

    def __init__(self, engine: StorageEngine, table_name: str):
        self.engine = engine
        self.table_name = table_name
        self._log_table = f"{table_name}::manipulations"
        engine.create_table(self._log_table)

    def record(
        self,
        operation: str,
        parameters: dict[str, Any] | None = None,
        columns_added: list[str] | None = None,
        rows_affected: int = 0,
        cache_hits: int = 0,
        timestamp: float = 0.0,
    ) -> Manipulation:
        """Append one manipulation and return it."""
        entry = {
            "operation": operation,
            "parameters": parameters,
            "columns_added": columns_added,
            "rows_affected": rows_affected,
            "cache_hits": cache_hits,
            "timestamp": timestamp,
        }
        return self.record_many([entry])[0]

    @staticmethod
    def _build(sequence: int, entry: dict[str, Any]) -> Manipulation:
        return Manipulation(
            sequence=sequence,
            operation=entry["operation"],
            parameters=dict(entry.get("parameters") or {}),
            columns_added=list(entry.get("columns_added") or []),
            rows_affected=entry.get("rows_affected", 0),
            cache_hits=entry.get("cache_hits", 0),
            timestamp=entry.get("timestamp", 0.0),
        )

    def record_many(self, entries: list[dict[str, Any]]) -> list[Manipulation]:
        """Append a batch of manipulations atomically; return them in order.

        Each entry is a dict of :meth:`record` keyword arguments with a
        required ``"operation"``.  The whole batch becomes one engine
        ``put_many``, so either every entry is durable or none is.
        """
        # Re-read the durable count per batch: the multi-writer-safe path.
        next_sequence = self.engine.count(self._log_table) + 1
        manipulations = [
            self._build(next_sequence + offset, entry)
            for offset, entry in enumerate(entries)
        ]
        if manipulations:
            self.engine.put_many(
                self._log_table,
                [
                    (f"{manipulation.sequence:08d}", manipulation.to_dict())
                    for manipulation in manipulations
                ],
            )
        return manipulations

    def history(self) -> list[Manipulation]:
        """Return every manipulation in sequence order."""
        records = sorted(self.engine.items(self._log_table), key=lambda item: item[0])
        return [Manipulation.from_dict(value) for _, value in records]

    def operations(self) -> list[str]:
        """Return just the verb names, in order."""
        return [manipulation.operation for manipulation in self.history()]

    def clear(self) -> None:
        """Forget the history (used by ``CrowdData.clear()``)."""
        self.engine.drop_table(self._log_table)
        self.engine.create_table(self._log_table)

    def __len__(self) -> int:
        return self.engine.count(self._log_table)
