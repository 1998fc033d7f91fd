"""Utility helpers shared by every repro sub-system."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "stable_hash": "hashing",
    "stable_json": "hashing",
    "cosine_similarity": "text",
    "edit_distance": "text",
    "edit_similarity": "text",
    "jaccard_similarity": "text",
    "ngrams": "text",
    "normalize_text": "text",
    "overlap_coefficient": "text",
    "token_vector": "text",
    "tokenize": "text",
    "Stopwatch": "timing",
    "SimulatedClock": "timing",
    "require_fraction": "validation",
    "require_in": "validation",
    "require_non_empty": "validation",
    "require_positive": "validation",
    "require_type": "validation",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
