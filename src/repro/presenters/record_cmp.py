"""Structured-record comparison presenter.

Entity-resolution workloads usually compare structured records (product name,
brand, price) rather than free text.  This presenter renders the two records
as aligned attribute tables, which is how CrowdER's original UI displayed
candidate pairs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.exceptions import PresenterError
from repro.presenters.base import BasePresenter, registry


@registry.register
class RecordComparisonPresenter(BasePresenter):
    """Show two structured records side by side and ask if they match."""

    task_type = "record_cmp"

    @classmethod
    def default_question(cls) -> str:
        return "Do these two records describe the same real-world entity?"

    def render_object(self, obj: Any) -> str:
        left, right = _unpack_records(obj)
        keys = sorted(set(left) | set(right))
        rows = "".join(
            f"<tr><th>{key}</th><td>{left.get(key, '')}</td><td>{right.get(key, '')}</td></tr>"
            for key in keys
        )
        return (
            '<table class="pair">'
            "<tr><th>attribute</th><th>record A</th><th>record B</th></tr>"
            f"{rows}"
            "</table>"
        )


def _unpack_records(obj: Any) -> tuple[Mapping[str, Any], Mapping[str, Any]]:
    """Return the (left, right) record mappings of a pair object."""
    if isinstance(obj, dict) and "left" in obj and "right" in obj:
        left, right = obj["left"], obj["right"]
    elif isinstance(obj, (list, tuple)) and len(obj) == 2:
        left, right = obj
    else:
        raise PresenterError(
            f"record comparison expects a (left, right) pair, got {type(obj).__name__}"
        )
    if not isinstance(left, Mapping) or not isinstance(right, Mapping):
        raise PresenterError("record comparison expects mapping records on both sides")
    return left, right
