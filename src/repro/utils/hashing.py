"""Stable hashing used for cache keys and content addressing.

Reprowd's fault-recovery cache keys every published task by the content of
the object it was built from, so that re-running the same program maps every
row to the same cached task and result regardless of process restarts.
Python's built-in ``hash`` is randomised per process, so we use SHA-1 over a
canonical JSON encoding instead.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

_encode_stable = json.JSONEncoder(
    sort_keys=True, default=repr, separators=(",", ":")
).encode


def stable_json(value: Any) -> str:
    """Return a canonical JSON encoding of *value*.

    Dict keys are sorted, tuples become lists and non-JSON scalars fall back
    to ``repr`` so that any picklable Python object gets a deterministic
    encoding.
    """
    return _encode_stable(value)


def stable_hash(value: Any, length: int = 16) -> str:
    """Return a deterministic hex digest of *value*.

    Args:
        value: Any JSON-encodable (or repr-able) Python value.
        length: Number of hex characters to keep (the full SHA-1 is 40).
    """
    digest = hashlib.sha1(stable_json(value).encode("utf-8")).hexdigest()
    return digest[:length]
