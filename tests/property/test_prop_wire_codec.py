"""Property-based tests: the wire value codec and its tag-free shortcut.

Two contracts of ``repro.platform.wire``:

* **round trip** — ``decode_value(encode_value(v)) == v``, through the JSON
  bytes a frame actually carries, over everything a verb can send or
  return: JSON values, tuples, int-keyed dicts, dicts that contain the tag
  key themselves, and model lists (homogeneous — which travel as positional
  rows —, mixed with a non-model, empty, nested inside ``(task_id, runs)``
  page tuples, a ``Task`` whose ``info`` itself spells the tag key);
* **shortcut exactness** — ``read_frame`` skips ``decode_value`` when the
  frame's bytes lack ``b"__wire__"``.  That is only sound if decoding such a
  frame would have rebuilt an equal structure, for every value an honest
  peer can encode.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.platform.models import Project, Task, TaskRun
from repro.platform.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    _encode_frame,
    decode_value,
    encode_value,
    read_frame,
    write_frame,
)

TAG = "__wire__"

# Floats that survive a JSON round trip (no NaN: it is never equal to itself).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
#: Dict keys lean on the reserved key and its neighbours.
keys = st.one_of(st.sampled_from([TAG, "__wire", "data", "row", "rows"]), st.text(max_size=5))

#: What may ride inside a model's ``info`` / ``answer``: JSON proper, the tag
#: key included — the row is never walked, so tuples would come back as lists.
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(keys, inner, max_size=4)
    ),
    max_leaves=12,
)

projects = st.builds(
    Project,
    project_id=st.integers(1, 99),
    name=st.text(max_size=6),
    short_name=st.text(max_size=6),
    description=st.text(max_size=6),
    task_presenter=st.sampled_from(["", "<b>{{object}}</b>", TAG]),
    created_at=st.floats(0, 1e6),
)
tasks = st.builds(
    Task,
    task_id=st.integers(1, 999),
    project_id=st.integers(1, 99),
    info=st.dictionaries(keys, json_values, max_size=3),
    n_assignments=st.integers(1, 9),
    priority=st.floats(0, 1),
    created_at=st.floats(0, 1e6),
    completed_at=st.one_of(st.none(), st.floats(0, 1e6)),
)
runs = st.builds(
    TaskRun,
    run_id=st.integers(1, 9999),
    task_id=st.integers(1, 999),
    project_id=st.integers(1, 99),
    worker_id=st.text(max_size=5),
    answer=json_values,
    submitted_at=st.floats(0, 1e6),
    latency_seconds=st.floats(0, 1e3),
    assignment_order=st.integers(1, 9),
)
run_lists = st.lists(runs, max_size=4)
pages = st.lists(st.tuples(st.integers(1, 999), run_lists), max_size=4)

#: Everything a verb's arguments or result can be made of.
wire_values = st.recursive(
    st.one_of(scalars, projects, tasks, runs, run_lists, st.lists(tasks, max_size=3), pages),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(st.integers(0, 50), inner, max_size=3),
    ),
    max_leaves=10,
)


class OneFrame:
    """A socket double holding exactly the frames written to it."""

    def __init__(self):
        self.data = b""

    def sendall(self, data):
        self.data += data

    def recv(self, size):
        chunk, self.data = self.data[:size], self.data[size:]
        return chunk


@settings(max_examples=300, deadline=None)
@given(value=wire_values)
def test_decode_inverts_encode_through_the_frame_bytes(value):
    body = _encode_frame(encode_value(value)).encode("utf-8")
    assert decode_value(json.loads(body)) == value
    # ...and through the framing itself, shortcut included.
    sock = OneFrame()
    write_frame(sock, {"ok": True, "result": value}, DEFAULT_MAX_FRAME_BYTES)
    assert read_frame(sock, DEFAULT_MAX_FRAME_BYTES) == {"ok": True, "result": value}
    assert sock.data == b""


@settings(max_examples=300, deadline=None)
@given(value=wire_values)
def test_a_frame_that_never_spells_the_tag_decodes_to_itself(value):
    body = _encode_frame(encode_value(value)).encode("utf-8")
    loaded = json.loads(body)
    if b"__wire__" not in body:
        assert decode_value(loaded) == loaded == value
    else:
        # The scan may only err towards walking: whatever needed rebuilding
        # (a tag, a tuple, an int key, a model) spelled the key in the bytes.
        assert decode_value(loaded) == value


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(runs, min_size=1, max_size=5), extra=st.one_of(scalars, tasks))
def test_model_lists_are_rows_exactly_when_homogeneous(batch, extra):
    assert encode_value(batch) == {
        TAG: "runs",
        "rows": [tuple(vars(run).values()) for run in batch],
    }
    mixed = encode_value(batch + [extra])
    assert isinstance(mixed, list) and len(mixed) == len(batch) + 1
    assert decode_value(json.loads(json.dumps(mixed))) == batch + [extra]


@given(info=st.dictionaries(st.just(TAG), json_values, min_size=1))
def test_a_task_whose_info_spells_the_tag_key_comes_back_equal(info):
    task = Task(task_id=1, project_id=1, info=info)
    for value in (task, [task], [(1, [task])], {"t": task}):
        assert decode_value(json.loads(json.dumps(encode_value(value)))) == value
