"""One-parameter-per-worker EM (GLAD-style, without item difficulty).

A lighter-weight alternative to full Dawid-Skene: each worker has a single
ability parameter (their probability of answering correctly, shared across
labels).  It converges faster, needs less data per worker, and is the model
weighted majority vote implicitly assumes — so comparing it against both MV
and Dawid-Skene in the quality-control benchmark shows where the extra
confusion-matrix structure pays off.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from repro.quality.aggregation import (
    AggregationResult,
    Aggregator,
    VoteTable,
)


class OneParameterEMAggregator(Aggregator):
    """EM with one ability scalar per worker and symmetric error model.

    Args:
        max_iterations: Hard cap on EM iterations.
        tolerance: Convergence threshold on posterior change.
        ability_floor: Lower clamp on estimated ability, keeping the error
            model away from degenerate zero/one probabilities.
    """

    name = "glad"

    def __init__(
        self,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        ability_floor: float = 0.05,
    ):
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if not 0.0 < ability_floor < 0.5:
            raise ValueError(f"ability_floor must be in (0, 0.5), got {ability_floor}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.ability_floor = ability_floor

    def aggregate(self, votes: VoteTable) -> AggregationResult:
        self._validate(votes)
        items = list(votes.keys())
        workers = sorted({worker for item_votes in votes.values() for worker, _ in item_votes})
        labels = sorted({answer for item_votes in votes.values() for _, answer in item_votes}, key=str)
        item_index = {item: i for i, item in enumerate(items)}
        worker_index = {worker: j for j, worker in enumerate(workers)}
        label_index = {label: k for k, label in enumerate(labels)}
        num_items, num_workers, num_labels = len(items), len(workers), len(labels)

        answer_matrix = np.full((num_items, num_workers), -1, dtype=np.int64)
        for item, item_votes in votes.items():
            for worker, answer in item_votes:
                answer_matrix[item_index[item], worker_index[worker]] = label_index[answer]

        # Initial posteriors: vote shares.  Initial abilities: 0.7 for everyone.
        posteriors = np.zeros((num_items, num_labels), dtype=np.float64)
        for item, item_votes in votes.items():
            for _, answer in item_votes:
                posteriors[item_index[item], label_index[answer]] += 1.0
        posteriors /= posteriors.sum(axis=1, keepdims=True)
        abilities = np.full(num_workers, 0.7, dtype=np.float64)

        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            abilities = self._m_step(answer_matrix, posteriors)
            new_posteriors = self._e_step(answer_matrix, posteriors, abilities, num_labels)
            delta = float(np.max(np.abs(new_posteriors - posteriors)))
            posteriors = new_posteriors
            if delta < self.tolerance:
                break

        result = AggregationResult(method=self.name, iterations=iterations)
        for item, i in item_index.items():
            best = int(np.argmax(posteriors[i]))
            result.decisions[item] = labels[best]
            result.confidences[item] = float(posteriors[i, best])
        for worker, j in worker_index.items():
            result.worker_quality[worker] = float(abilities[j])
        return result

    def _m_step(self, answer_matrix: np.ndarray, posteriors: np.ndarray) -> np.ndarray:
        """Re-estimate each worker's ability as expected fraction correct."""
        num_items, num_workers = answer_matrix.shape
        abilities = np.zeros(num_workers, dtype=np.float64)
        for j in range(num_workers):
            answered = answer_matrix[:, j] >= 0
            if not answered.any():
                abilities[j] = 0.5
                continue
            answers = answer_matrix[answered, j]
            expected_correct = posteriors[answered, answers].sum()
            abilities[j] = expected_correct / answered.sum()
        return np.clip(abilities, self.ability_floor, 1.0 - self.ability_floor)

    @staticmethod
    def _e_step(
        answer_matrix: np.ndarray,
        posteriors: np.ndarray,
        abilities: np.ndarray,
        num_labels: int,
    ) -> np.ndarray:
        """Recompute posteriors under the symmetric error model."""
        num_items, num_workers = answer_matrix.shape
        priors = posteriors.sum(axis=0)
        priors /= priors.sum()
        log_posteriors = np.tile(np.log(priors + 1e-300), (num_items, 1))
        wrong_probability = (1.0 - abilities) / max(1, num_labels - 1)
        for j in range(num_workers):
            answered = answer_matrix[:, j] >= 0
            if not answered.any():
                continue
            answers = answer_matrix[answered, j]
            contribution = np.full((answered.sum(), num_labels), np.log(wrong_probability[j] + 1e-300))
            contribution[np.arange(answered.sum()), answers] = np.log(abilities[j] + 1e-300)
            log_posteriors[answered] += contribution
        log_posteriors -= log_posteriors.max(axis=1, keepdims=True)
        new_posteriors = np.exp(log_posteriors)
        new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)
        return new_posteriors


def one_parameter_em(votes: VoteTable, max_iterations: int = 50) -> dict[Hashable, Any]:
    """Convenience wrapper returning only the per-item decisions."""
    return OneParameterEMAggregator(max_iterations=max_iterations).aggregate(votes).decisions
