"""Crowdsourced data-processing operators built on CrowdData.

The paper's thesis is that crowdsourced operators implemented on top of the
CrowdData abstraction inherit the sharable and examinable properties for
free.  This package implements the operators the crowdsourced-data-management
literature centres on (Li et al. 2016) — the two join algorithms the paper
says it re-implemented (CrowdER, Wang et al. 2012; transitivity-aware joins,
Wang et al. 2013) plus sort, max, top-k, count, filter and dedup — all of
which publish their tasks exclusively through CrowdData.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CrowdLabel": "labeling",
    "LabelResult": "labeling",
    "CrowdGroupBy": "groupby",
    "GroupByResult": "groupby",
    "OperatorReport": "base",
    "SimilarityBlocker": "blocking",
    "all_pairs": "blocking",
    "blocked_pairs": "blocking",
    "CrowdJoin": "join",
    "JoinResult": "join",
    "TransitiveCrowdJoin": "transitive_join",
    "AllPairsCrowdJoin": "baselines",
    "MachineOnlyJoin": "baselines",
    "CrowdSort": "sort",
    "SortResult": "sort",
    "CrowdMax": "max_op",
    "MaxResult": "max_op",
    "CrowdTopK": "topk",
    "TopKResult": "topk",
    "CrowdCount": "count",
    "CountResult": "count",
    "CrowdFilter": "filter_op",
    "FilterResult": "filter_op",
    "CrowdDedup": "dedup",
    "DedupResult": "dedup",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
