"""Incremental aggregation: quality models updated one page at a time.

The batch aggregators in this package recompute everything from the full
vote table.  That is the wrong shape for the streaming adaptive loop in
:meth:`CrowdData.get_result_adaptive`, which sees answers arrive page by
page over many rounds: recomputing a 10k-item Dawid-Skene model on every
page turns an O(pages) collection into an O(pages × items × iterations)
one.  This module provides the incremental counterpart:

* :class:`IncrementalAggregator` — the contract: ``update(item,
  new_votes)`` folds newly arrived votes for one item into the model,
  ``partial_fit(page)`` folds a whole page, and ``result()`` produces the
  same :class:`AggregationResult` shape as the batch aggregators.
* :class:`IncrementalMajorityVote` — per-item tallies in a
  :class:`collections.Counter`; exactly equivalent to
  :class:`MajorityVoteAggregator` (including both tie-break modes) at a
  cost of O(new votes) per update.
* :class:`OnlineDawidSkene` — an online EM: each ``partial_fit`` runs a
  *damped* E-step on the touched items only, against priors and confusion
  matrices maintained as cached sufficient statistics (so the M-step is an
  O(1) subtraction/addition per touched item, never a full pass).
  ``result()`` optionally polishes with full undamped EM sweeps until the
  posteriors move less than ``tolerance``, which converges to the same
  fixed point as the batch :class:`DawidSkeneAggregator`.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import Any, Hashable, Mapping, Optional

from repro.exceptions import QualityControlError
from repro.quality.aggregation import AggregationResult, Votes


class IncrementalAggregator(abc.ABC):
    """Aggregator that can absorb new votes without a full recompute.

    Implementations keep whatever per-item state they need; callers feed
    them *only the votes that are new* since the previous update (the
    streaming collection loop slices each task's run list at the
    previously seen offset).
    """

    #: Registry-style name, overridden by subclasses.
    name = "incremental"

    @abc.abstractmethod
    def update(self, item: Hashable, new_votes: Votes) -> None:
        """Fold newly arrived ``(worker_id, answer)`` pairs for *item*."""

    def partial_fit(self, page: Mapping[Hashable, Votes]) -> None:
        """Fold one page of new votes (item -> new votes for that item)."""
        for item, new_votes in page.items():
            if new_votes:
                self.update(item, new_votes)

    @abc.abstractmethod
    def decision(self, item: Hashable) -> Any:
        """Current decision for *item* (raises if the item is unknown)."""

    @abc.abstractmethod
    def confidence(self, item: Hashable) -> float:
        """Current confidence in ``decision(item)``, in [0, 1]."""

    def counts(self, item: Hashable) -> Optional[Mapping[Any, int]]:
        """Per-answer tallies for *item*, when the model keeps exact counts.

        Returns ``None`` for model-based aggregators whose confidence is a
        posterior rather than a vote share; the adaptive loop then falls
        back to :meth:`confidence`.
        """
        return None

    @abc.abstractmethod
    def result(self) -> AggregationResult:
        """Materialise the full result (same shape as batch aggregators)."""


class IncrementalMajorityVote(IncrementalAggregator):
    """Streaming plurality vote, decision-identical to the batch ``mv``.

    Args:
        tie_break: ``"lexicographic"`` (default) or ``"first"`` — the same
            deterministic modes as :class:`MajorityVoteAggregator`.
            ``"first"`` picks, among tied answers, the one that was *first
            submitted* for the item, which matches the batch rule as long
            as votes are fed in submission order (the streaming collector
            preserves run order).
    """

    name = "mv-incremental"

    def __init__(self, tie_break: str = "lexicographic"):
        if tie_break not in ("lexicographic", "first"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break
        self._counts: dict[Hashable, Counter] = {}
        self._first_seen: dict[Hashable, dict[Any, int]] = {}
        self._arrivals: dict[Hashable, int] = {}

    def update(self, item: Hashable, new_votes: Votes) -> None:
        counts = self._counts.setdefault(item, Counter())
        first_seen = self._first_seen.setdefault(item, {})
        seq = self._arrivals.get(item, 0)
        for _, answer in new_votes:
            counts[answer] += 1
            first_seen.setdefault(answer, seq)
            seq += 1
        self._arrivals[item] = seq

    def _require(self, item: Hashable) -> Counter:
        try:
            counts = self._counts[item]
        except KeyError:
            raise QualityControlError(f"no votes for item {item!r}") from None
        if not counts:
            raise QualityControlError(f"no votes for item {item!r}")
        return counts

    def counts(self, item: Hashable) -> Optional[Mapping[Any, int]]:
        return self._counts.get(item)

    def decision(self, item: Hashable) -> Any:
        counts = self._require(item)
        top = max(counts.values())
        tied = [answer for answer, count in counts.items() if count == top]
        if len(tied) == 1:
            return tied[0]
        if self.tie_break == "lexicographic":
            return min(tied, key=str)
        first_seen = self._first_seen[item]
        return min(tied, key=lambda answer: first_seen[answer])

    def confidence(self, item: Hashable) -> float:
        counts = self._require(item)
        return max(counts.values()) / sum(counts.values())

    def result(self) -> AggregationResult:
        result = AggregationResult(method="mv")
        for item in self._counts:
            result.decisions[item] = self.decision(item)
            result.confidences[item] = self.confidence(item)
        return result


class OnlineDawidSkene(IncrementalAggregator):
    """Online Dawid-Skene EM with cached sufficient statistics.

    The model keeps, alongside per-item posteriors, the two sufficient
    statistics the M-step needs:

    * ``prior_counts[k]`` — the sum of item posteriors for label ``k``;
    * ``confusion_counts[j, k, l]`` — for worker ``j``, the posterior mass
      of true label ``k`` across the votes where the worker reported
      ``l``.

    ``update`` subtracts one item's old contribution, runs a *damped*
    E-step for that item against the current global estimates
    (``new = (1 - damping) * old + damping * e_step``, damping stabilises
    the estimates while statistics are still sparse early in a
    collection), and adds the refreshed contribution back — so every page
    costs O(votes on the page), independent of corpus size.

    ``result(refine=True)`` finishes with full undamped EM sweeps until
    the largest posterior change drops below ``tolerance``, making the
    final decisions converge to the batch :class:`DawidSkeneAggregator`
    fixed point.

    Args:
        damping: Step size of the per-item E-step during streaming updates
            (1.0 = jump straight to the E-step posterior).
        smoothing: Laplace smoothing on confusion rows (same meaning as in
            the batch aggregator).
        tolerance: Convergence threshold of the refinement sweeps.
        max_iterations: Cap on refinement sweeps in :meth:`result`.
    """

    name = "em-incremental"

    def __init__(
        self,
        damping: float = 0.6,
        smoothing: float = 0.01,
        tolerance: float = 1e-6,
        max_iterations: int = 50,
    ):
        # Bound here, not at module top: IncrementalMajorityVote (CrowdData's
        # default tracker) lives in this module and must not cost a numpy import.
        global np
        import numpy as np

        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be non-negative, got {smoothing}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.damping = damping
        self.smoothing = smoothing
        self.tolerance = tolerance
        self.max_iterations = max_iterations

        self._labels: list[Any] = []
        self._label_index: dict[Any, int] = {}
        self._workers: list[str] = []
        self._worker_index: dict[str, int] = {}
        #: item -> list of (worker_idx, label_idx) in submission order.
        self._votes: dict[Hashable, list[tuple[int, int]]] = {}
        #: item -> posterior over labels (len == len(self._labels)).
        self._posteriors: dict[Hashable, np.ndarray] = {}
        self._prior_counts = np.zeros(0, dtype=np.float64)
        self._confusion_counts = np.zeros((0, 0, 0), dtype=np.float64)
        self._refine_iterations = 0

    # -- index maintenance --------------------------------------------------

    def _label_id(self, answer: Any) -> int:
        index = self._label_index.get(answer)
        if index is None:
            index = len(self._labels)
            self._labels.append(answer)
            self._label_index[answer] = index
            self._prior_counts = np.pad(self._prior_counts, (0, 1))
            self._confusion_counts = np.pad(
                self._confusion_counts, ((0, 0), (0, 1), (0, 1))
            )
            for item, posterior in self._posteriors.items():
                self._posteriors[item] = np.pad(posterior, (0, 1))
        return index

    def _worker_id(self, worker: str) -> int:
        index = self._worker_index.get(worker)
        if index is None:
            index = len(self._workers)
            self._workers.append(worker)
            self._worker_index[worker] = index
            self._confusion_counts = np.pad(
                self._confusion_counts, ((0, 1), (0, 0), (0, 0))
            )
        return index

    # -- model estimates from cached statistics -----------------------------

    def _current_estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """(priors, confusion) derived from the cached sufficient stats.

        Mirrors the batch M-step exactly: raw normalised prior counts and
        Laplace-smoothed, row-normalised confusion rows — so the refined
        fixed point is the batch fixed point.
        """
        total = self._prior_counts.sum()
        if total > 0:
            priors = self._prior_counts / total
        else:
            priors = np.full(len(self._labels), 1.0 / max(len(self._labels), 1))
        confusion = self._confusion_counts + self.smoothing
        confusion = confusion / confusion.sum(axis=2, keepdims=True)
        return priors, confusion

    def _e_step_item(
        self,
        votes: list[tuple[int, int]],
        priors: np.ndarray,
        confusion: np.ndarray,
    ) -> np.ndarray:
        """Posterior over labels for one item given the current model."""
        log_post = np.log(priors + 1e-300)
        for worker_idx, label_idx in votes:
            log_post = log_post + np.log(confusion[worker_idx, :, label_idx] + 1e-300)
        log_post -= log_post.max()
        posterior = np.exp(log_post)
        return posterior / posterior.sum()

    def _apply_contribution(
        self, item: Hashable, posterior: np.ndarray, sign: float
    ) -> None:
        """Add (+1) or remove (-1) one item's mass from the cached stats."""
        self._prior_counts += sign * posterior
        for worker_idx, label_idx in self._votes[item]:
            self._confusion_counts[worker_idx, :, label_idx] += sign * posterior

    # -- IncrementalAggregator ----------------------------------------------

    def update(self, item: Hashable, new_votes: Votes) -> None:
        if not new_votes:
            return
        encoded = [
            (self._worker_id(worker), self._label_id(answer))
            for worker, answer in new_votes
        ]
        known = item in self._votes
        if known:
            self._apply_contribution(item, self._posteriors[item], -1.0)
            self._votes[item].extend(encoded)
        else:
            self._votes[item] = list(encoded)

        if not known:
            # Seed a new item from its normalised vote shares — the same
            # symmetry-breaking initialisation as the batch aggregator.  An
            # E-step here would answer with the (still near-uniform early
            # on) confusion matrices and pin every posterior at the
            # uninformative fixed point.
            posterior = np.zeros(len(self._labels), dtype=np.float64)
            for _, label_idx in self._votes[item]:
                posterior[label_idx] += 1.0
            posterior /= posterior.sum()
        else:
            priors, confusion = self._current_estimates()
            e_post = self._e_step_item(self._votes[item], priors, confusion)
            if self.damping < 1.0:
                posterior = (1.0 - self.damping) * self._posteriors[item]
                posterior = posterior + self.damping * e_post
                posterior = posterior / posterior.sum()
            else:
                posterior = e_post
        self._posteriors[item] = posterior
        self._apply_contribution(item, posterior, +1.0)

    def decision(self, item: Hashable) -> Any:
        posterior = self._posterior_of(item)
        return self._labels[int(np.argmax(posterior))]

    def confidence(self, item: Hashable) -> float:
        posterior = self._posterior_of(item)
        return float(posterior.max())

    def _posterior_of(self, item: Hashable) -> np.ndarray:
        try:
            return self._posteriors[item]
        except KeyError:
            raise QualityControlError(f"no votes for item {item!r}") from None

    def refine(self) -> int:
        """Run full undamped EM sweeps until converged; return sweep count.

        This is the step that closes the gap between the damped streaming
        posteriors and the batch fixed point: each sweep recomputes the
        sufficient statistics exactly from the current posteriors (washing
        out any accumulated float drift) and then E-steps every item.
        """
        if not self._votes:
            return 0
        items = list(self._votes)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            num_labels = len(self._labels)
            prior_counts = np.zeros(num_labels, dtype=np.float64)
            confusion_counts = np.zeros(
                (len(self._workers), num_labels, num_labels), dtype=np.float64
            )
            for item in items:
                posterior = self._posteriors[item]
                prior_counts += posterior
                for worker_idx, label_idx in self._votes[item]:
                    confusion_counts[worker_idx, :, label_idx] += posterior
            self._prior_counts = prior_counts
            self._confusion_counts = confusion_counts
            priors, confusion = self._current_estimates()
            delta = 0.0
            for item in items:
                new_post = self._e_step_item(self._votes[item], priors, confusion)
                delta = max(delta, float(np.max(np.abs(new_post - self._posteriors[item]))))
                self._posteriors[item] = new_post
            if delta < self.tolerance:
                break
        # Leave the cached statistics consistent with the final posteriors.
        num_labels = len(self._labels)
        prior_counts = np.zeros(num_labels, dtype=np.float64)
        confusion_counts = np.zeros(
            (len(self._workers), num_labels, num_labels), dtype=np.float64
        )
        for item in items:
            posterior = self._posteriors[item]
            prior_counts += posterior
            for worker_idx, label_idx in self._votes[item]:
                confusion_counts[worker_idx, :, label_idx] += posterior
        self._prior_counts = prior_counts
        self._confusion_counts = confusion_counts
        self._refine_iterations = iterations
        return iterations

    def result(self, refine: bool = True) -> AggregationResult:
        if not self._votes:
            raise QualityControlError("no items to aggregate")
        if refine:
            self.refine()
        result = AggregationResult(
            method="em", iterations=self._refine_iterations
        )
        for item in self._votes:
            posterior = self._posteriors[item]
            best = int(np.argmax(posterior))
            result.decisions[item] = self._labels[best]
            result.confidences[item] = float(posterior[best])
        priors, confusion = self._current_estimates()
        for worker, j in self._worker_index.items():
            diagonal = np.diag(confusion[j])
            result.worker_quality[worker] = float(np.dot(priors, diagonal))
        return result
