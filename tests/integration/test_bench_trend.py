"""``tools/bench_trend.py`` compares against a real base, or says it did not.

The gate used to diff every trajectory against ``HEAD`` — inside ``make
check`` that is the file itself, so it could never fail.  It now takes a
``--base`` git ref (default ``HEAD~1``) and reports an identical or missing
baseline as *skipped*, never as a pass.  Loaded by file path: tools/ is a
script directory, not a package.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "bench_trend.py"


class Harness:
    """The tool with one working-tree trajectory and a stubbed ``git show``."""

    def __init__(self, module, results_dir):
        self.main = module.main
        self.results_dir = results_dir
        self.baseline = {"publish_seconds": 1.0, "rows_per_s": 100.0}
        self.bases = []

    def committed_payload(self, rel_path, base):
        self.bases.append(base)
        return self.baseline

    def write(self, payload):
        (self.results_dir / "BENCH_X.json").write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture
def trend(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trend_under_test", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    harness = Harness(module, tmp_path)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(module, "committed_payload", harness.committed_payload)
    return harness


def test_identical_trajectories_are_skipped_not_passed(trend, capsys):
    trend.write(trend.baseline)
    assert trend.main([]) == 0
    out = capsys.readouterr().out
    assert "SKIPPED, nothing to compare" in out and "within" not in out
    assert trend.bases == ["HEAD~1"]


def test_a_missing_baseline_is_skipped(trend, capsys):
    trend.write({"publish_seconds": 9.0})
    trend.baseline = None
    assert trend.main(["--base", "v0"]) == 0
    assert "no baseline in v0, skipped" in capsys.readouterr().out


def test_a_regression_against_the_base_fails(trend, capsys):
    trend.write({"publish_seconds": 1.5, "rows_per_s": 100.0})
    assert trend.main(["--base", "main"]) == 1
    out = capsys.readouterr().out
    assert "publish_seconds rose +50%" in out and "vs main" in out
    assert trend.bases == ["main"]


def test_a_change_within_tolerance_is_a_real_pass(trend, capsys):
    trend.write({"publish_seconds": 1.1, "rows_per_s": 95.0})
    assert trend.main([]) == 0
    assert "1 trajectory file(s) within 20% of HEAD~1, 0 skipped" in capsys.readouterr().out
