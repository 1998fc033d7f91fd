"""Self-checks of the E0 harness (``pytest benchmarks/e0``; not tier-1).

They check the measuring instrument, not the program: probes must not
change what the program computes, self-time arithmetic must add up, and the
names ``run.py`` emits must be exactly the names ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import re

import pytest

import run  # first: puts src/ and this directory on sys.path
import calibration
import probes as probing
from workloads import WORKLOADS, Env, Steps

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 23


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def _run_once(name: str, run_dir, traced: bool):
    workload = WORKLOADS[name]
    probes = probing.Probes(probing.Tracer()) if traced else None
    inputs = workload.setup(SEED, workload.sizes["smoke"], str(run_dir), probes)
    try:
        raw = workload.run(inputs, Env(Steps(probes), probes))
        return raw, workload.outputs(inputs, raw), probes
    finally:
        workload.teardown(inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probes_are_transparent(name, tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "probed").mkdir()
    plain_raw, plain, _ = _run_once(name, tmp_path / "plain", traced=False)
    probed_raw, probed, probes = _run_once(name, tmp_path / "probed", traced=True)
    assert probed.answers == plain.answers
    assert probed.purchased == plain.purchased
    if hasattr(plain_raw[0], "canonical_report"):  # the ScenarioRunner streams
        assert probed_raw[0].canonical_report == plain_raw[0].canonical_report
    spans = probes.tracer.spans
    assert spans, "the traced run recorded nothing"
    # Every second is in exactly one span's self time.
    top_level = sum(s[probing.SECONDS] for s in spans if s[probing.PARENT] < 0)
    assert sum(probing.self_seconds(spans)) == pytest.approx(top_level)


def test_self_time_on_a_synthetic_tree():
    # core(10) -> client(6) -> server(5) -> store(1), store(2); core -> storage(3)
    rows = [
        ("core", "publish_task", 10.0, -1),
        ("platform.client", "create_tasks", 6.0, 0),
        ("platform.server", "create_tasks", 5.0, 1),
        ("platform.store", "add_tasks", 1.0, 2),
        ("platform.store", "claim_dedup_keys", 2.0, 2),
        ("storage", "put_many", 3.0, 0),
    ]
    spans = [[layer, name, 0.0, seconds, parent, 0, 0, False] for layer, name, seconds, parent in rows]
    assert probing.self_seconds(spans) == [1.0, 1.0, 2.0, 1.0, 2.0, 3.0]
    assert probing.layer_self_seconds(spans) == {
        "core": 1.0,
        "platform.client": 1.0,
        "platform.server": 2.0,
        "platform.store": 3.0,
        "storage": 3.0,
    }


def test_probe_nests_spans_and_resumes_generators():
    class Inner:
        def rows(self, count):
            yield from range(count)

    class Outer:
        def __init__(self, inner):
            self.inner = inner

        def total(self, count):
            return sum(self.inner.rows(count))

        def chain(self):
            return self

    tracer = probing.Tracer()
    outer = probing.Probe(Outer(probing.Probe(Inner(), "storage", tracer)), "core", tracer)
    assert outer.chain() is outer  # chained verbs stay observed
    assert outer.total(4) == 6
    by_name = {span[probing.NAME]: span for span in tracer.spans}
    assert by_name["rows"][probing.PARENT] == tracer.spans.index(by_name["total"])
    assert by_name["rows"][probing.WEIGHT] == 4  # items the generator yielded
    assert 0.0 < by_name["rows"][probing.SECONDS] <= by_name["total"][probing.SECONDS]


def test_contract_names_and_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e0"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_emitted_names_are_the_contract_names(contract, tmp_path):
    gated = [w["name"] for w in contract["workloads"]]
    assert gated == list(WORKLOADS)[: len(gated)]  # the driver gates the first four
    for workload in contract["workloads"]:
        sizes = WORKLOADS[workload["name"]].sizes["full"]
        assert all(str(size) in workload["why"] for size in sizes.values()), workload
    result = run.measure("dedup_operator", SEED, "smoke", seconds=0.0, reps=1, trace=True)
    assert result["failed"] == 0, result["checks"]
    assert set(result["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in contract["per_layer"]}
    for trace in (False, True):
        line = json.loads(run.driver_line(result, contract, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        expected = contract["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in expected]


def test_times_are_the_fastest_in_reference_seconds():
    stat = run._stat([2.0, 1.0, 4.0], fastest=True, scale=0.5)
    assert (stat["value"], stat["median"], stat["min"], stat["max"], stat["n"]) == (0.5, 2.0, 1.0, 4.0, 3)
    assert run._stat([2.0, 1.0, 4.0])["value"] == 2.0  # not a time: the median, unscaled
    assert calibration.kernel() > 0.0


def test_compare_flags_only_what_got_worse(contract, tmp_path):
    base = tmp_path / "a.json"
    assert run.main(["--scale", "smoke", "--workload", "bob_oneshot", "--trace", "1", "--out", str(base)]) == 0
    assert run.compare(str(base), str(base), contract) == 0
    slower = json.loads(base.read_text())
    entry = slower["workloads"]["bob_oneshot"]
    entry["end_to_end"]["run_s"]["value"] *= 1.5
    entry["per_layer"]["storage.write_calls"] += 1
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert run.compare(str(base), str(worse), contract) == 2
    assert run.compare(str(worse), str(base), contract) == 1  # faster is fine, counts still differ
