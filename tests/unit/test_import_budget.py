"""Import budget: an entry point loads only the layer it was asked for.

Every case runs in a fresh interpreter (one ``subprocess`` each) and reads
that process's ``sorted(sys.modules)``, so nothing pytest itself imported can
leak into a count.  The bounds are the issue's acceptance numbers; ``make
import-check`` gates the per-entry-point table of ``docs/architecture.md``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.platform",
    "repro.storage",
    "repro.quality",
    "repro.workers",
    "repro.utils",
    "repro.operators",
    "repro.workload",
]

#: A complete Bob program (Figure 2) on the memory engine, majority vote last.
BOB_MV_PROGRAM = """
from repro import CrowdContext
from repro.presenters import ImageLabelPresenter
images = [f"http://img/{i}.jpg" for i in range(6)]
cc = CrowdContext.in_memory(seed=3)
cc.set_ground_truth({image: "Yes" for image in images}.get)
data = (cc.CrowdData(images, table_name="budget")
          .set_presenter(ImageLabelPresenter(question="Is there a face?"))
          .publish_task(n_assignments=3).get_result().mv())
assert data.column("mv") == ["Yes"] * 6
"""


def run_fresh(code: str) -> dict:
    """Run *code* in a new interpreter; return what its last line ``REPORT``ed."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    # json arrives after REPORT was built: the harness adds ``sys`` and nothing else.
    script = f"import sys\n{code}\nimport json\nprint('REPORT=' + json.dumps(REPORT))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rsplit("REPORT=", 1)[1])


def modules_after(code: str) -> list[str]:
    return run_fresh(code + "\nREPORT = sorted(sys.modules)")


def loaded(modules: list[str], *prefixes: str) -> list[str]:
    """The members of *modules* that are one of *prefixes* or live under one."""
    return [
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


class TestEntryPoints:
    def test_wire_server_entry_point_loads_the_platform_layer_only(self):
        modules = modules_after("import repro.platform.wire")
        assert loaded(
            modules,
            "numpy",
            "repro.core",
            "repro.quality",
            "repro.operators",
            "repro.workload",
            "repro.presenters",
            "repro.storage.ring",
            "repro.storage.sharded_engine",
            "repro.storage.log_engine",
            "repro.storage.sqlite_engine",
        ) == []
        assert len(loaded(modules, "repro")) <= 25
        assert len(modules) <= 150

    def test_bare_import_loads_next_to_nothing(self):
        modules = modules_after("import repro")
        assert loaded(modules, "repro") == ["repro", "repro._lazy"]
        assert len(modules) <= 45

    def test_bob_mv_program_needs_no_numpy_and_no_unused_engine(self):
        modules = modules_after(BOB_MV_PROGRAM)
        assert "repro.core.crowddata" in modules
        assert loaded(
            modules,
            "numpy",
            "repro.quality.em",
            "repro.quality.glad",
            "repro.operators",
            "repro.storage.ring",
            "repro.storage.sharded_engine",
            "repro.storage.log_engine",
        ) == []

    def test_cli_tables_does_not_load_crowddata(self, tmp_path):
        db = str(tmp_path / "empty.db")
        modules = modules_after(
            f"from repro.cli import main\nassert main(['tables', {db!r}]) == 0"
        )
        assert loaded(
            modules, "numpy", "repro.core.crowddata", "repro.platform", "repro.quality",
            "repro.presenters", "repro.workers",
        ) == []


class TestAggregatorsByName:
    def test_builtins_are_known_before_anything_was_imported(self):
        report = run_fresh(
            "from repro.quality.aggregation import known_aggregators\n"
            "REPORT = {'known': known_aggregators(), 'numpy': 'numpy' in sys.modules,\n"
            "          'em': 'repro.quality.em' in sys.modules}"
        )
        assert report == {"known": ["em", "glad", "mv", "wmv"], "numpy": False, "em": False}

    def test_get_aggregator_em_brings_numpy_when_asked(self):
        report = run_fresh(
            "from repro.quality.aggregation import get_aggregator\n"
            "before = 'numpy' in sys.modules\n"
            "aggregator = get_aggregator('em')\n"
            "REPORT = {'before': before, 'after': 'numpy' in sys.modules,\n"
            "          'type': type(aggregator).__name__,\n"
            "          'glad': type(get_aggregator('glad')).__name__}"
        )
        assert report == {
            "before": False,
            "after": True,
            "type": "DawidSkeneAggregator",
            "glad": "OneParameterEMAggregator",
        }

    def test_crowddata_em_works_in_a_fresh_process(self):
        report = run_fresh(
            BOB_MV_PROGRAM
            + "before = 'numpy' in sys.modules\n"
            "data.em()\n"
            "REPORT = {'before': before, 'after': 'numpy' in sys.modules,\n"
            "          'em': data.column('em')}"
        )
        assert report == {"before": False, "after": True, "em": ["Yes"] * 6}

    def test_online_dawid_skene_imports_numpy_on_construction(self):
        report = run_fresh(
            "from repro.quality.incremental import IncrementalMajorityVote, OnlineDawidSkene\n"
            "IncrementalMajorityVote().update('x', [('w1', 'A')])\n"
            "before = 'numpy' in sys.modules\n"
            "tracker = OnlineDawidSkene()\n"
            "tracker.update('x', [('w1', 'A'), ('w2', 'A')])\n"
            "REPORT = {'before': before, 'after': 'numpy' in sys.modules,\n"
            "          'decision': tracker.decision('x')}"
        )
        assert report == {"before": False, "after": True, "decision": "A"}

    def test_registered_factory_still_wins_over_a_builtin_name(self):
        from repro.quality import aggregation
        from repro.quality.majority_vote import MajorityVoteAggregator

        class Custom(MajorityVoteAggregator):
            pass

        aggregation.register_aggregator("mv", Custom)
        try:
            assert type(aggregation.get_aggregator("mv")) is Custom
            assert aggregation.known_aggregators() == ["em", "glad", "mv", "wmv"]
        finally:
            del aggregation._AGGREGATORS["mv"]
        assert type(aggregation.get_aggregator("mv")) is MajorityVoteAggregator


class TestLazyPackages:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_public_surface_resolves(self, package):
        report = run_fresh(
            f"import importlib\npkg = importlib.import_module({package!r})\n"
            "resolved = {name: getattr(pkg, name) is not None for name in pkg.__all__}\n"
            "try:\n"
            "    pkg.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "namespace = {}\n"
            f"exec('from {package} import *', namespace)\n"
            "namespace.pop('__builtins__')\n"
            "REPORT = {'all': list(pkg.__all__), 'resolved': resolved, 'unknown': unknown,\n"
            "          'dir': dir(pkg), 'star': sorted(namespace),\n"
            "          'cached': all(name in vars(pkg) for name in pkg.__all__)}"
        )
        assert report["all"] and all(report["resolved"].values())
        assert set(report["dir"]) >= set(report["all"])
        assert "no_such_name" in report["unknown"] and package in report["unknown"]
        assert report["star"] == sorted(report["all"])
        assert report["cached"]

    def test_dir_lists_exports_before_any_was_resolved(self):
        report = run_fresh(
            "import repro.storage\n"
            "REPORT = {'dir': dir(repro.storage),\n"
            "          'sqlite': 'repro.storage.sqlite_engine' in sys.modules}"
        )
        assert {"SqliteEngine", "ConsistentHashEngine", "open_engine"} <= set(report["dir"])
        assert report["sqlite"] is False

    @pytest.mark.parametrize(
        "first",
        [
            "import repro.quality.weighted_vote, repro.quality.majority_vote",
            "from repro.quality import weighted_vote, majority_vote",
            "from repro.quality import WeightedVoteAggregator, MajorityVoteAggregator",
            "from repro.quality.aggregation import get_aggregator\n"
            "get_aggregator('wmv'), get_aggregator('mv')",
        ],
    )
    def test_function_named_like_its_submodule_stays_the_function(self, first):
        # The import system binds ``repro.quality.weighted_vote`` to the
        # *module* whenever that submodule is imported; the exported name must
        # be the function whatever ran first.
        report = run_fresh(
            first + "\n"
            "import repro.quality\n"
            "from repro.quality import majority_vote, weighted_vote\n"
            "votes = {'x': [('w1', 'A'), ('w2', 'A'), ('w3', 'B')]}\n"
            "REPORT = {'mv': majority_vote(votes), 'wmv': weighted_vote(votes),\n"
            "          'attr': callable(repro.quality.weighted_vote)\n"
            "                  and callable(repro.quality.majority_vote)}"
        )
        assert report == {"mv": {"x": "A"}, "wmv": {"x": "A"}, "attr": True}
