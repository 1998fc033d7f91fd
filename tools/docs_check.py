#!/usr/bin/env python
"""Documentation checker: lint the docs set, then smoke the quickstart.

Eight checks, all cheap enough for tier-1 (see ``make docs-check`` and
``tests/integration/test_docs_check.py``):

1. **Link lint** — every relative link or image target in ``README.md`` and
   ``docs/*.md`` must point at a file or directory that exists in the repo.
   External (``http(s)://``, ``mailto:``) and pure-anchor (``#...``) targets
   are skipped; a ``path#fragment`` target is checked for the path part.
2. **Cross-page links** — every page under ``docs/`` must be linked from at
   least one *other* checked document, so the set stays a navigable web
   rather than accumulating orphan pages.
3. **Config-field coverage** — every field of ``StorageConfig``,
   ``PlatformConfig``, ``ScenarioSpec``, ``TaskType`` and
   ``AdaptivePolicy`` (read live via ``dataclasses.fields``) must be
   mentioned somewhere under ``docs/``; adding a knob without documenting
   it fails the build.
4. **Benchmark catalogue** — every ``benchmarks/bench_*.py`` file must
   appear in ``docs/benchmarks.md``, keeping the catalogue unable to go
   stale.
5. **Wire-op table** — the op table of ``docs/wire.md`` must list exactly
   the ops in ``repro.platform.wire.WIRE_OPS``: the wire surface cannot
   change without its documentation changing with it.
6. **Wire-tag table** — the tag table of ``docs/wire.md`` must list exactly
   the tags in ``repro.platform.wire.WIRE_TAGS``, the ones the value codec
   emits and accepts.
7. **Stale names** — no checked document may mention a name a deletion PR
   removed from the code (:data:`STALE_NAMES`).
8. **Quickstart smoke** — ``examples/quickstart.py`` runs headlessly against
   a throwaway database and its output must prove the fault-recovery
   guarantee the README promises: the second run publishes zero new tasks.

Exit status 0 when everything passes; 1 with a per-problem report otherwise.

Usage:
    PYTHONPATH=src python tools/docs_check.py [--skip-quickstart]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown inline links and images: [text](target) / ![alt](target).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Target prefixes that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:")

#: The catalogue page every benchmark file must appear in.
BENCH_CATALOGUE = os.path.join("docs", "benchmarks.md")

#: The page whose op table must equal ``WIRE_OPS`` and tag table ``WIRE_TAGS``.
WIRE_DOC = os.path.join("docs", "wire.md")

#: Names deleted from the code that the docs must not go on describing; a PR
#: that deletes a public name adds it here.
STALE_NAMES = ("defer_commit", "commit_group", "log_buffer_size")


def iter_doc_files() -> list[str]:
    """The markdown files under the documentation contract."""
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return files


def lint_links(doc_path: str) -> list[str]:
    """Return one problem string per broken relative link in *doc_path*."""
    problems: list[str] = []
    with open(doc_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(doc_path), path))
        if not os.path.exists(resolved):
            relative = os.path.relpath(doc_path, REPO_ROOT)
            problems.append(f"{relative}: broken link target {target!r}")
    return problems


def _read(doc_path: str) -> str:
    with open(doc_path, "r", encoding="utf-8") as handle:
        return handle.read()


def check_cross_links(doc_files: list[str]) -> list[str]:
    """Every docs/ page must be linked from at least one other checked doc."""
    problems: list[str] = []
    link_targets: dict[str, set[str]] = {}
    for doc_path in doc_files:
        targets: set[str] = set()
        if not os.path.exists(doc_path):
            link_targets[doc_path] = targets
            continue
        for match in _LINK.finditer(_read(doc_path)):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if path:
                targets.add(
                    os.path.normpath(os.path.join(os.path.dirname(doc_path), path))
                )
        link_targets[doc_path] = targets
    for doc_path in doc_files:
        relative = os.path.relpath(doc_path, REPO_ROOT)
        if not relative.replace(os.sep, "/").startswith("docs/"):
            continue
        linked_from = [
            other
            for other, targets in link_targets.items()
            if other != doc_path and doc_path in targets
        ]
        if not linked_from:
            problems.append(
                f"{relative}: orphan page — not linked from any other "
                "documentation file"
            )
    return problems


def check_config_field_coverage(doc_files: list[str]) -> list[str]:
    """Every config/spec dataclass field must be mentioned in docs/."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.config import PlatformConfig, StorageConfig
        from repro.quality import AdaptivePolicy
        from repro.workload import ScenarioSpec, TaskType
    finally:
        sys.path.pop(0)
    docs_text = "\n".join(
        _read(doc_path)
        for doc_path in doc_files
        if os.path.relpath(doc_path, REPO_ROOT).replace(os.sep, "/").startswith("docs/")
    )
    problems: list[str] = []
    for config in (StorageConfig, PlatformConfig, ScenarioSpec, TaskType, AdaptivePolicy):
        for field in dataclasses.fields(config):
            # A mention must look like documentation of the field, not
            # incidental prose (several fields are common words: name,
            # seed, store, path...): either inside an inline-code span
            # (`engine`, `StorageConfig(engine=...)`) or as the leading
            # cell of a markdown table row.
            name = re.escape(field.name)
            pattern = re.compile(
                rf"`[^`\n]*\b{name}\b[^`\n]*`" rf"|^\|\s*`?{name}`?\s*\|",
                re.MULTILINE,
            )
            if not pattern.search(docs_text):
                problems.append(
                    f"docs/: {config.__name__}.{field.name} is not documented "
                    "anywhere under docs/ (expected in a code span or a "
                    "table row)"
                )
    return problems


def check_benchmark_catalogue() -> list[str]:
    """Every benchmarks/bench_*.py must appear in docs/benchmarks.md."""
    catalogue_path = os.path.join(REPO_ROOT, BENCH_CATALOGUE)
    if not os.path.exists(catalogue_path):
        return [f"missing benchmark catalogue: {BENCH_CATALOGUE}"]
    catalogue = _read(catalogue_path)
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    problems: list[str] = []
    for name in sorted(os.listdir(bench_dir)):
        if name.startswith("bench_") and name.endswith(".py") and name not in catalogue:
            problems.append(
                f"{BENCH_CATALOGUE}: stale catalogue — benchmarks/{name} has "
                "no entry"
            )
    return problems


def _check_wire_table(constant: str, what: str, leading_cell: str) -> list[str]:
    """A table of docs/wire.md must equal a name-set of the wire module, both ways.

    The table is the rows whose leading cell matches *leading_cell* — one
    lone code span, whose group 1 is the documented name.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.platform import wire
    finally:
        sys.path.pop(0)
    names = getattr(wire, constant)
    wire_doc = os.path.join(REPO_ROOT, WIRE_DOC)
    if not os.path.exists(wire_doc):
        return [f"missing wire protocol page: {WIRE_DOC}"]
    pattern = rf"^\|\s*`{leading_cell}`\s*\|"
    documented = set(re.findall(pattern, _read(wire_doc), re.MULTILINE))
    problems = [
        f"{WIRE_DOC}: wire {what} {name!r} is in {constant} but not in the {what} table"
        for name in sorted(names - documented)
    ]
    problems.extend(
        f"{WIRE_DOC}: the {what} table lists {name!r}, which is not in {constant}"
        for name in sorted(documented - names)
    )
    return problems


def check_wire_ops_documented() -> list[str]:
    """The op table of docs/wire.md must equal ``WIRE_OPS``, both ways."""
    return _check_wire_table("WIRE_OPS", "op", r"(\w+)")


def check_wire_tags_documented() -> list[str]:
    """The tag table of docs/wire.md must equal ``WIRE_TAGS``, both ways.

    Its leading cells spell the tag as it appears in a frame, quotes
    included (``"runs"``), which is what keeps the two tables apart.
    """
    return _check_wire_table("WIRE_TAGS", "tag", r'"(\w+)"')


def check_stale_names(doc_files: list[str]) -> list[str]:
    """No checked document may mention a name in :data:`STALE_NAMES`."""
    problems: list[str] = []
    for doc_path in doc_files:
        text = _read(doc_path)
        relative = os.path.relpath(doc_path, REPO_ROOT)
        problems.extend(
            f"{relative}: mentions {name!r}, which was deleted from the code"
            for name in STALE_NAMES
            if name in text
        )
    return problems


def run_quickstart() -> list[str]:
    """Run the quickstart headlessly; return problems (empty when healthy)."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        tail = (result.stderr or result.stdout).strip().splitlines()[-5:]
        return ["examples/quickstart.py exited non-zero: " + " | ".join(tail)]
    # The second run must replay entirely from the cache.
    published = re.findall(r"crowd tasks published this run\s*:\s*(\d+)", result.stdout)
    if len(published) < 2 or published[-1] != "0":
        return [
            "examples/quickstart.py did not reproduce from cache "
            f"(published-per-run counts: {published})"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-quickstart",
        action="store_true",
        help="only lint links, do not execute examples/quickstart.py",
    )
    args = parser.parse_args(argv)

    problems: list[str] = []
    checked = 0
    existing: list[str] = []
    for doc_path in iter_doc_files():
        if not os.path.exists(doc_path):
            problems.append(f"missing documentation file: {os.path.relpath(doc_path, REPO_ROOT)}")
            continue
        checked += 1
        existing.append(doc_path)
        problems.extend(lint_links(doc_path))
    problems.extend(check_cross_links(existing))
    problems.extend(check_config_field_coverage(existing))
    problems.extend(check_benchmark_catalogue())
    problems.extend(check_wire_ops_documented())
    problems.extend(check_wire_tags_documented())
    problems.extend(check_stale_names(existing))
    if not args.skip_quickstart:
        problems.extend(run_quickstart())

    if problems:
        print(f"docs-check: {len(problems)} problem(s) in {checked} file(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    quickstart_note = "skipped" if args.skip_quickstart else "ok"
    print(
        f"docs-check: {checked} markdown file(s) link-clean and cross-linked, "
        "config fields + benchmark catalogue + wire ops and tags covered, "
        "no stale names, "
        f"quickstart {quickstart_note}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
