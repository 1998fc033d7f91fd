"""Weighted majority vote.

Each worker's vote is weighted by (an estimate of) their accuracy.  The
standard log-odds weighting is used: a worker with accuracy p contributes
``log(p / (1 - p))`` to their chosen answer, which is the Bayes-optimal
weight for symmetric binary noise and a good heuristic beyond it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Hashable, Mapping

from repro.quality.aggregation import (
    AggregationResult,
    Aggregator,
    VoteTable,
)

#: Accuracies are clamped into this open interval before the log-odds
#: transform so that perfect (or perfectly bad) workers keep finite weights.
_EPSILON = 1e-3


def _log_odds(accuracy: float) -> float:
    """Return the log-odds weight of a worker with the given accuracy."""
    clamped = min(1.0 - _EPSILON, max(_EPSILON, accuracy))
    return math.log(clamped / (1.0 - clamped))


class WeightedVoteAggregator(Aggregator):
    """Majority vote with per-worker log-odds weights.

    Args:
        worker_accuracy: Mapping from worker id to accuracy in (0, 1).
            Workers missing from the mapping fall back to *default_accuracy*.
        default_accuracy: Accuracy assumed for unknown workers.
    """

    name = "wmv"

    def __init__(
        self,
        worker_accuracy: Mapping[str, float] | None = None,
        default_accuracy: float = 0.7,
    ):
        if not 0.0 < default_accuracy < 1.0:
            raise ValueError(f"default_accuracy must be in (0, 1), got {default_accuracy}")
        self.worker_accuracy = dict(worker_accuracy or {})
        self.default_accuracy = default_accuracy

    def _weight(self, worker_id: str) -> float:
        accuracy = self.worker_accuracy.get(worker_id, self.default_accuracy)
        return _log_odds(accuracy)

    def aggregate(self, votes: VoteTable) -> AggregationResult:
        self._validate(votes)
        result = AggregationResult(method=self.name)
        for item_id, item_votes in votes.items():
            scores: dict[Any, float] = defaultdict(float)
            for worker_id, answer in item_votes:
                scores[answer] += self._weight(worker_id)
            # Deterministic tie-break on the string form of the answer.
            winner = max(scores, key=lambda answer: (scores[answer], str(answer)))
            result.decisions[item_id] = winner
            result.confidences[item_id] = _softmax_share(scores, winner)
        result.worker_quality = {
            worker_id: self.worker_accuracy.get(worker_id, self.default_accuracy)
            for item_votes in votes.values()
            for worker_id, _ in item_votes
        }
        return result


def _softmax_share(scores: Mapping[Any, float], winner: Any) -> float:
    """Convert additive log-odds scores into a winner probability."""
    max_score = max(scores.values())
    exponentials = {answer: math.exp(score - max_score) for answer, score in scores.items()}
    total = sum(exponentials.values())
    return exponentials[winner] / total if total > 0 else 1.0


def weighted_vote(
    votes: VoteTable,
    worker_accuracy: Mapping[str, float] | None = None,
    default_accuracy: float = 0.7,
) -> dict[Hashable, Any]:
    """Convenience wrapper returning only the per-item decisions."""
    aggregator = WeightedVoteAggregator(
        worker_accuracy=worker_accuracy, default_accuracy=default_accuracy
    )
    return aggregator.aggregate(votes).decisions
