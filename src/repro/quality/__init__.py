"""Quality control: turning redundant noisy crowd answers into one result.

Figure 1 of the paper shows a quality-control component between CrowdData and
the crowdsourcing platform.  This package implements the widely used
techniques the paper alludes to:

* majority vote (the rule used in Bob's experiment),
* weighted majority vote (weights from known or estimated worker accuracy),
* Dawid-Skene expectation-maximisation over worker confusion matrices,
* a single-parameter EM variant (GLAD-style, one ability scalar per worker),
* spammer detection from estimated confusion matrices.

Every aggregator consumes the same input shape — a list of (worker_id,
answer) pairs per item — so CrowdData can expose them uniformly as ``mv()``,
``wmv()`` and ``em()`` verbs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdaptivePolicy": "adaptive",
    "AdaptiveCollectionStats": "adaptive",
    "GoldStandard": "gold",
    "GoldReport": "gold",
    "inject_gold": "gold",
    "Aggregator": "aggregation",
    "AggregationResult": "aggregation",
    "get_aggregator": "aggregation",
    "register_aggregator": "aggregation",
    "IncrementalAggregator": "incremental",
    "IncrementalMajorityVote": "incremental",
    "OnlineDawidSkene": "incremental",
    "MajorityVoteAggregator": "majority_vote",
    "majority_vote": "majority_vote",
    "WeightedVoteAggregator": "weighted_vote",
    "weighted_vote": "weighted_vote",
    "DawidSkeneAggregator": "em",
    "dawid_skene": "em",
    "OneParameterEMAggregator": "glad",
    "one_parameter_em": "glad",
    "spammer_score": "spammer",
    "detect_spammers": "spammer",
    "answer_entropy": "confidence",
    "vote_confidence": "confidence",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
