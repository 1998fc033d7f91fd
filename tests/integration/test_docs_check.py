"""Tier-1 smoke of ``make docs-check``.

Keeps the documentation contract enforced on every test run: README.md and
docs/*.md must exist and be link-lint clean, and the quickstart example must
run headlessly and reproduce from its cache.  The checker module is loaded
by file path because tools/ is a script directory, not a package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CHECKER_PATH = REPO_ROOT / "tools" / "docs_check.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("docs_check_smoke", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documentation_set_exists():
    assert (REPO_ROOT / "README.md").exists()
    for page in ("architecture", "storage", "platform", "transport", "benchmarks"):
        assert (REPO_ROOT / "docs" / f"{page}.md").exists(), page


def test_links_are_clean():
    checker = load_checker()
    problems = []
    for doc_path in checker.iter_doc_files():
        problems.extend(checker.lint_links(doc_path))
    assert problems == []


def test_lint_catches_a_broken_link(tmp_path):
    checker = load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](no/such/file.py) and [ok](https://example.org)")
    problems = checker.lint_links(str(bad))
    assert len(problems) == 1
    assert "no/such/file.py" in problems[0]


def test_docs_pages_are_cross_linked():
    checker = load_checker()
    assert checker.check_cross_links(checker.iter_doc_files()) == []


def test_cross_link_check_catches_an_orphan_page():
    checker = load_checker()
    # Pretend a docs page exists that nothing links to: check it against
    # the real set, which cannot reference it.
    orphan = str(REPO_ROOT / "docs" / "orphan-page-for-test.md")
    problems = checker.check_cross_links(checker.iter_doc_files() + [orphan])
    assert any("orphan" in problem for problem in problems)


def test_every_config_field_is_documented():
    checker = load_checker()
    assert checker.check_config_field_coverage(checker.iter_doc_files()) == []


def test_benchmark_catalogue_is_complete():
    checker = load_checker()
    assert checker.check_benchmark_catalogue() == []


def test_wire_op_table_matches_wire_ops():
    checker = load_checker()
    assert checker.check_wire_ops_documented() == []


def test_wire_op_check_catches_drift_in_both_directions(monkeypatch):
    checker = load_checker()
    page = checker._read(str(REPO_ROOT / checker.WIRE_DOC))
    drifted = page.replace("| `ping` |", "| `get_task_runs_slice` |")
    assert drifted != page
    monkeypatch.setattr(checker, "_read", lambda path: drifted)
    problems = checker.check_wire_ops_documented()
    assert len(problems) == 2
    assert any("'ping'" in problem for problem in problems)
    assert any("'get_task_runs_slice'" in problem for problem in problems)


def test_wire_tag_table_matches_the_codec():
    checker = load_checker()
    assert checker.check_wire_tags_documented() == []


def test_wire_tag_check_catches_drift_in_both_directions(monkeypatch):
    checker = load_checker()
    page = checker._read(str(REPO_ROOT / checker.WIRE_DOC))
    drifted = page.replace('| `"runs"` |', '| `"answers"` |')
    assert drifted != page
    monkeypatch.setattr(checker, "_read", lambda path: drifted)
    problems = checker.check_wire_tags_documented()
    assert len(problems) == 2
    assert any("'runs'" in problem for problem in problems)
    assert any("'answers'" in problem for problem in problems)
    # The two tables of the page do not read each other's rows.
    assert checker.check_wire_ops_documented() == []


def test_stale_name_check_is_clean_and_catches_a_deleted_name(tmp_path):
    checker = load_checker()
    assert checker.check_stale_names(checker.iter_doc_files()) == []
    page = tmp_path / "stale.md"
    page.write_text("pass `defer_commit=True`, then call `commit_group()`")
    problems = checker.check_stale_names([str(page)])
    assert len(problems) == 2
    assert any("'defer_commit'" in problem for problem in problems)
    assert any("'commit_group'" in problem for problem in problems)


def test_docs_check_passes_end_to_end():
    """The exact check `make docs-check` runs, quickstart included."""
    checker = load_checker()
    assert checker.main([]) == 0
