"""Shared aggregation interfaces and the aggregator registry.

An aggregation problem is a mapping from item id to the list of
``(worker_id, answer)`` pairs collected for that item.  Aggregators return an
:class:`AggregationResult` holding one decision and one confidence per item,
plus any per-worker quality estimates the method produces — those estimates
feed spammer detection and the lineage/examination API.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Hashable, Mapping, Sequence

from repro.exceptions import InsufficientAnswersError, QualityControlError

#: One item's crowd answers: list of (worker_id, answer).
Votes = Sequence[tuple[str, Any]]
#: A whole aggregation problem: item id -> votes.
VoteTable = Mapping[Hashable, Votes]


@dataclass
class AggregationResult:
    """Output of an aggregator.

    Attributes:
        decisions: item id -> chosen answer.
        confidences: item id -> posterior probability / vote share of the
            chosen answer, in [0, 1].
        worker_quality: worker id -> estimated accuracy in [0, 1] (empty for
            methods that do not estimate workers, e.g. plain majority vote).
        iterations: Number of EM iterations performed (0 for closed-form
            rules).
        method: Name of the aggregation method that produced the result.
    """

    decisions: dict[Hashable, Any] = field(default_factory=dict)
    confidences: dict[Hashable, float] = field(default_factory=dict)
    worker_quality: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    method: str = ""

    def decision(self, item_id: Hashable) -> Any:
        """Return the decision for *item_id*."""
        try:
            return self.decisions[item_id]
        except KeyError:
            raise QualityControlError(f"no decision for item {item_id!r}") from None

    def accuracy_against(self, truth: Mapping[Hashable, Any]) -> float:
        """Return the fraction of items whose decision matches *truth*.

        Items missing from either side are ignored; an empty intersection
        raises :class:`QualityControlError`.
        """
        common = [item for item in self.decisions if item in truth]
        if not common:
            raise QualityControlError("no overlapping items between decisions and truth")
        correct = sum(1 for item in common if self.decisions[item] == truth[item])
        return correct / len(common)


class Aggregator(abc.ABC):
    """Interface implemented by every answer-aggregation method."""

    #: Registry name, overridden by subclasses.
    name = "abstract"

    @abc.abstractmethod
    def aggregate(self, votes: VoteTable) -> AggregationResult:
        """Aggregate *votes* into one decision per item."""

    @staticmethod
    def _validate(votes: VoteTable) -> None:
        """Reject empty problems and items without any answers."""
        if not votes:
            raise InsufficientAnswersError("no items to aggregate")
        for item_id, item_votes in votes.items():
            if not item_votes:
                raise InsufficientAnswersError(f"item {item_id!r} has no answers")


#: Built-in aggregators by name: ``(module, class)``, imported on first use so
#: that nobody has to have imported ``em``/``glad`` (and numpy) for the name to work.
_BUILTIN = {
    "mv": ("repro.quality.majority_vote", "MajorityVoteAggregator"),
    "wmv": ("repro.quality.weighted_vote", "WeightedVoteAggregator"),
    "em": ("repro.quality.em", "DawidSkeneAggregator"),
    "glad": ("repro.quality.glad", "OneParameterEMAggregator"),
}
_AGGREGATORS: dict[str, Callable[[], Aggregator]] = {}


def register_aggregator(name: str, factory: Callable[[], Aggregator]) -> None:
    """Register an aggregator *factory* under *name* (e.g. ``"mv"``)."""
    _AGGREGATORS[name] = factory


def get_aggregator(name: str, **kwargs: Any) -> Aggregator:
    """Instantiate the aggregator built in or registered under *name*.

    Keyword arguments are forwarded to the aggregator constructor when the
    factory accepts them (factories are classes in practice).
    """
    factory = _AGGREGATORS.get(name)
    if factory is None and name in _BUILTIN:
        module, attribute = _BUILTIN[name]
        factory = getattr(import_module(module), attribute)
    if factory is None:
        raise QualityControlError(
            f"unknown aggregator {name!r}; known: {known_aggregators()}"
        )
    return factory(**kwargs) if kwargs else factory()


def known_aggregators() -> list[str]:
    """Return the names of all built-in and registered aggregators, sorted."""
    return sorted(_BUILTIN.keys() | _AGGREGATORS.keys())
