"""Golden bytes: the prebuilt encoders emit what ``json.dumps`` emitted.

The storage codec, the cache-key hash, the scenario digests and the wire
frames each encode through one module-level ``json.JSONEncoder`` instead
of a ``json.dumps`` call per record.  A database Bob wrote before that
change must still hit for Ally after it, so over the JSON value domain
(non-ASCII text, nesting, int-keyed dicts, a ``repr`` fallback object) the
bytes are required to equal the ``json.dumps`` spelling exactly, and the
error behaviour to stay what it was.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import StorageError
from repro.storage import CODECS, JsonCodec, MemoryEngine
from repro.utils.hashing import stable_json
from repro.workload.scenario import canonical_json

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.dictionaries(st.integers(-50, 50), children, max_size=4)
    )


json_values = st.recursive(scalars, containers, max_leaves=12)


class Opaque:
    """Not JSON: ``stable_json`` spells it with ``repr``, the codec refuses."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque({self.tag!r})"


hashable_values = st.recursive(
    scalars | st.builds(Opaque, st.text(max_size=5)), containers, max_leaves=12
)


class TestPrebuiltEncodersEmitTheSameBytes:
    @given(value=json_values)
    @settings(max_examples=200, deadline=None)
    def test_json_codec_equals_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert JsonCodec().encode(value) == expected
        assert CODECS["json"].encode_many([value, value]) == [expected, expected]
        assert canonical_json(value) == expected

    @given(value=hashable_values)
    @settings(max_examples=200, deadline=None)
    def test_stable_json_equals_json_dumps_with_repr_fallback(self, value):
        assert stable_json(value) == json.dumps(
            value, sort_keys=True, default=repr, separators=(",", ":")
        )

    def test_unencodable_and_circular_values_raise_storage_error(self):
        circular = {"self": None}
        circular["self"] = circular
        for bad in (Opaque("x"), {"nested": [Opaque("y")]}, circular, {1: 1, "a": 2}):
            with pytest.raises(StorageError, match="not JSON-encodable"):
                JsonCodec().encode(bad)
            with pytest.raises(StorageError, match="not JSON-encodable"):
                JsonCodec().encode_many([{"fine": 1}, bad])
        # ... and the shared encoder is as good as new after raising.
        assert JsonCodec().encode({"b": 1, "a": [True]}) == '{"a":[true],"b":1}'

    def test_stable_json_still_refuses_a_circular_value(self):
        circular = []
        circular.append(circular)
        with pytest.raises(ValueError, match="Circular"):
            stable_json(circular)
        assert stable_json({"again": []}) == '{"again":[]}'

    def test_memory_engine_validates_a_batch_by_encoding_all_or_nothing(self):
        engine = MemoryEngine()
        engine.create_table("t")
        with pytest.raises(StorageError):
            engine.put_many("t", [("a", 1), ("b", Opaque("z"))], if_absent=True)
        assert engine.count("t") == 0
