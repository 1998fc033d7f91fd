"""Majority vote — the aggregation rule used in Bob's experiment (Figure 2)."""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable

from repro.quality.aggregation import (
    AggregationResult,
    Aggregator,
    VoteTable,
    Votes,
)


def _majority(votes: Votes, tie_break: str) -> tuple[Any, float]:
    """Return (winning answer, vote share) for one item's votes.

    Ties are broken deterministically so that reruns of an experiment always
    produce the same decision: ``"lexicographic"`` picks the smallest answer
    by string representation, ``"first"`` picks the answer that reached the
    tied count first in submission order.
    """
    counts = Counter(answer for _, answer in votes)
    top_count = max(counts.values())
    tied = [answer for answer, count in counts.items() if count == top_count]
    if len(tied) == 1:
        winner = tied[0]
    elif tie_break == "lexicographic":
        winner = min(tied, key=lambda answer: str(answer))
    else:  # "first"
        winner = next(answer for _, answer in votes if answer in tied)
    return winner, top_count / len(votes)


class MajorityVoteAggregator(Aggregator):
    """Per-item plurality vote with deterministic tie-breaking.

    Args:
        tie_break: ``"lexicographic"`` (default) or ``"first"``.
    """

    name = "mv"

    def __init__(self, tie_break: str = "lexicographic"):
        if tie_break not in ("lexicographic", "first"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break

    def aggregate(self, votes: VoteTable) -> AggregationResult:
        self._validate(votes)
        result = AggregationResult(method=self.name)
        for item_id, item_votes in votes.items():
            winner, share = _majority(item_votes, self.tie_break)
            result.decisions[item_id] = winner
            result.confidences[item_id] = share
        return result


def majority_vote(votes: VoteTable, tie_break: str = "lexicographic") -> dict[Hashable, Any]:
    """Convenience wrapper returning only the per-item decisions."""
    return MajorityVoteAggregator(tie_break=tie_break).aggregate(votes).decisions
