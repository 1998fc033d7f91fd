"""Dawid-Skene expectation-maximisation over worker confusion matrices.

The classic (Dawid & Skene 1979) model: each item has a latent true label;
each worker has a confusion matrix giving the probability of reporting label
``l`` when the truth is ``k``.  EM alternates between estimating the posterior
over each item's true label (E-step) and re-estimating worker confusion
matrices and label priors (M-step), starting from majority-vote posteriors.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable

import numpy as np

from repro.quality.aggregation import (
    AggregationResult,
    Aggregator,
    VoteTable,
)


class DawidSkeneAggregator(Aggregator):
    """EM estimation of true labels and per-worker confusion matrices.

    Args:
        max_iterations: Hard cap on EM iterations.
        tolerance: Convergence threshold on the max absolute change of the
            item-label posteriors between iterations.
        smoothing: Laplace smoothing added to confusion-matrix counts so that
            a worker who never produced some label keeps a non-zero
            probability of producing it.
    """

    name = "em"

    def __init__(
        self,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        smoothing: float = 0.01,
    ):
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be non-negative, got {smoothing}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing

    def aggregate(self, votes: VoteTable) -> AggregationResult:
        self._validate(votes)
        items = list(votes.keys())
        workers = sorted({worker_id for item_votes in votes.values() for worker_id, _ in item_votes})
        labels = sorted(
            {answer for item_votes in votes.values() for _, answer in item_votes},
            key=str,
        )
        item_index = {item: i for i, item in enumerate(items)}
        worker_index = {worker: j for j, worker in enumerate(workers)}
        label_index = {label: k for k, label in enumerate(labels)}

        num_items, num_workers, num_labels = len(items), len(workers), len(labels)

        # answer_matrix[i, j] = label index answered by worker j on item i, or -1.
        answer_matrix = np.full((num_items, num_workers), -1, dtype=np.int64)
        for item, item_votes in votes.items():
            i = item_index[item]
            for worker_id, answer in item_votes:
                answer_matrix[i, worker_index[worker_id]] = label_index[answer]

        posteriors = self._initial_posteriors(votes, items, item_index, label_index)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            priors, confusion = self._m_step(answer_matrix, posteriors, num_labels)
            new_posteriors = self._e_step(answer_matrix, priors, confusion)
            delta = float(np.max(np.abs(new_posteriors - posteriors)))
            posteriors = new_posteriors
            if delta < self.tolerance:
                break

        result = AggregationResult(method=self.name, iterations=iterations)
        for item, i in item_index.items():
            best = int(np.argmax(posteriors[i]))
            result.decisions[item] = labels[best]
            result.confidences[item] = float(posteriors[i, best])
        # Worker quality = average diagonal of the estimated confusion matrix,
        # weighted by the estimated label priors.
        priors, confusion = self._m_step(answer_matrix, posteriors, num_labels)
        for worker, j in worker_index.items():
            diagonal = np.diag(confusion[j])
            result.worker_quality[worker] = float(np.dot(priors, diagonal))
        return result

    # -- EM steps ------------------------------------------------------------------

    @staticmethod
    def _initial_posteriors(
        votes: VoteTable,
        items: list[Hashable],
        item_index: dict[Hashable, int],
        label_index: dict[Any, int],
    ) -> np.ndarray:
        """Start from normalised per-item vote shares (soft majority vote)."""
        posteriors = np.zeros((len(items), len(label_index)), dtype=np.float64)
        for item, item_votes in votes.items():
            i = item_index[item]
            for _, answer in item_votes:
                posteriors[i, label_index[answer]] += 1.0
            posteriors[i] /= posteriors[i].sum()
        return posteriors

    def _m_step(
        self, answer_matrix: np.ndarray, posteriors: np.ndarray, num_labels: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-estimate label priors and per-worker confusion matrices."""
        num_items, num_workers = answer_matrix.shape
        priors = posteriors.sum(axis=0)
        priors = priors / priors.sum()

        confusion = np.full(
            (num_workers, num_labels, num_labels), self.smoothing, dtype=np.float64
        )
        for j in range(num_workers):
            answered = answer_matrix[:, j] >= 0
            if not answered.any():
                continue
            answers = answer_matrix[answered, j]
            weights = posteriors[answered]  # shape (n_answered, num_labels)
            for reported in range(num_labels):
                mask = answers == reported
                if mask.any():
                    confusion[j, :, reported] += weights[mask].sum(axis=0)
        # Normalise each row (true label) of each worker's confusion matrix.
        row_sums = confusion.sum(axis=2, keepdims=True)
        confusion = confusion / row_sums
        return priors, confusion

    @staticmethod
    def _e_step(
        answer_matrix: np.ndarray, priors: np.ndarray, confusion: np.ndarray
    ) -> np.ndarray:
        """Recompute item-label posteriors from priors and confusion matrices."""
        num_items, num_workers = answer_matrix.shape
        num_labels = priors.shape[0]
        log_posteriors = np.tile(np.log(priors + 1e-300), (num_items, 1))
        log_confusion = np.log(confusion + 1e-300)
        for j in range(num_workers):
            answered = answer_matrix[:, j] >= 0
            if not answered.any():
                continue
            answers = answer_matrix[answered, j]
            # log_confusion[j][:, answers].T has shape (n_answered, num_labels)
            log_posteriors[answered] += log_confusion[j][:, answers].T
        log_posteriors -= log_posteriors.max(axis=1, keepdims=True)
        posteriors = np.exp(log_posteriors)
        posteriors /= posteriors.sum(axis=1, keepdims=True)
        return posteriors


def dawid_skene(
    votes: VoteTable,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
) -> dict[Hashable, Any]:
    """Convenience wrapper returning only the per-item decisions."""
    aggregator = DawidSkeneAggregator(max_iterations=max_iterations, tolerance=tolerance)
    return aggregator.aggregate(votes).decisions
