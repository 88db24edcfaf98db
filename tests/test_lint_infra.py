"""Tests for lint infrastructure: cache, baseline, SARIF, discovery.

Covers the incremental analysis cache (a second run over an unchanged
tree re-analyzes zero files), the baseline workflow, SARIF 2.1.0
emission validated against a vendored schema subset, ``discover_root``
edge cases, statement-span pragma suppression, the REP005
type-only-import regression tree, and parse-failure reporting.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

from repro.lint import lint_paths, runner
from repro.lint.baseline import (
    BASELINE_FILENAME,
    load_baseline,
    write_baseline,
)
from repro.lint.findings import Finding, suppressions
from repro.lint.runner import discover_root
from repro.lint.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures" / "lint_bad"
TYPEONLY_ROOT = REPO_ROOT / "tests" / "fixtures" / "lint_typeonly"
SARIF_SCHEMA = (
    REPO_ROOT / "tests" / "fixtures" / "sarif-2.1.0-subset.schema.json"
)


def _subprocess_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else os.pathsep.join([src, existing])
    )
    return env


def _run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_subprocess_env(),
    )


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------


class TestIncrementalCache:
    def _tree(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "Theorem 1 holds.\n",
                "src/alpha.py": "import random\nx = random.random()\n",
                "src/beta.py": "def f():\n    return 1\n",
            },
        )
        return tmp_path

    def test_second_run_reanalyzes_zero_files(self, tmp_path):
        root = self._tree(tmp_path)
        cache_dir = str(tmp_path / "cachedir")
        first = lint_paths(
            [str(root / "src")], cache=True, cache_dir=cache_dir
        )
        assert first.files_reanalyzed == 2
        assert first.cache_hits == 0
        second = lint_paths(
            [str(root / "src")], cache=True, cache_dir=cache_dir
        )
        assert second.files_reanalyzed == 0
        assert second.cache_hits == 2
        # Findings identical across the cold and warm runs.
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]

    def test_editing_one_file_reanalyzes_only_it(self, tmp_path):
        root = self._tree(tmp_path)
        cache_dir = str(tmp_path / "cachedir")
        lint_paths([str(root / "src")], cache=True, cache_dir=cache_dir)
        (root / "src" / "beta.py").write_text(
            "def f():\n    return 2\n", encoding="utf-8"
        )
        rerun = lint_paths(
            [str(root / "src")], cache=True, cache_dir=cache_dir
        )
        # One per-file cache hit survives; the whole tree is re-parsed
        # because interprocedural facts can change from one edit.
        assert rerun.cache_hits == 1

    def test_rule_selection_invalidates_cache(self, tmp_path):
        root = self._tree(tmp_path)
        cache_dir = str(tmp_path / "cachedir")
        lint_paths(
            [str(root / "src")],
            select=["REP001"],
            cache=True,
            cache_dir=cache_dir,
        )
        other = lint_paths(
            [str(root / "src")],
            select=["REP005"],
            cache=True,
            cache_dir=cache_dir,
        )
        assert other.cache_hits == 0

    def test_corrupt_cache_discarded(self, tmp_path):
        root = self._tree(tmp_path)
        cache_dir = tmp_path / "cachedir"
        cache_dir.mkdir()
        (cache_dir / "cache.json").write_text("{not json", encoding="utf-8")
        report = lint_paths(
            [str(root / "src")], cache=True, cache_dir=str(cache_dir)
        )
        assert report.files_reanalyzed == 2
        # And the bad file was replaced by a valid one.
        json.loads((cache_dir / "cache.json").read_text(encoding="utf-8"))

    def test_cache_disabled_by_default(self, tmp_path):
        root = self._tree(tmp_path)
        report = lint_paths([str(root / "src")])
        assert report.cache_hits == 0
        assert not (root / ".repro-cache").exists()


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        finding = Finding(
            rule="REP007",
            file="src/mod.py",
            line=3,
            col=0,
            message="tainted",
            symbol="mod.f",
        )
        path = tmp_path / BASELINE_FILENAME
        assert write_baseline(path, [finding, finding]) == 1
        assert load_baseline(path) == {finding.fingerprint()}

    def test_unreadable_baseline_is_empty(self, tmp_path):
        path = tmp_path / BASELINE_FILENAME
        assert load_baseline(path) == set()
        path.write_text("[]", encoding="utf-8")
        assert load_baseline(path) == set()

    def test_fingerprint_survives_line_shift(self):
        a = Finding("REP007", "src/m.py", 3, 0, "msg", symbol="m.f")
        b = Finding("REP007", "src/m.py", 40, 8, "msg", symbol="m.f")
        c = Finding("REP007", "src/m.py", 3, 0, "other msg", symbol="m.f")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_baselined_findings_do_not_fail_the_run(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "Theorem 1 holds.\n",
                "src/alpha.py": "import random\nx = random.random()\n",
            },
        )
        dirty = lint_paths([str(tmp_path / "src")])
        assert not dirty.ok
        write_baseline(tmp_path / BASELINE_FILENAME, dirty.findings)
        clean = lint_paths([str(tmp_path / "src")])
        assert clean.ok
        assert clean.baselined == len(dirty.findings)
        # --no-baseline equivalent: explicit opt-out resurfaces them.
        again = lint_paths([str(tmp_path / "src")], use_baseline=False)
        assert not again.ok

    def test_write_baseline_cli_exits_zero(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "Theorem 1 holds.\n",
                "src/alpha.py": "import random\nx = random.random()\n",
            },
        )
        proc = _run_cli("src", "--write-baseline", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / BASELINE_FILENAME).is_file()
        follow = _run_cli("src", cwd=tmp_path)
        assert follow.returncode == 0, follow.stdout + follow.stderr


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------


class TestSarif:
    @pytest.fixture(scope="class")
    def schema(self):
        return json.loads(SARIF_SCHEMA.read_text(encoding="utf-8"))

    def test_fixture_findings_validate_against_schema(self, schema):
        report = lint_paths(
            [str(FIXTURE_ROOT)],
            paper=str(FIXTURE_ROOT / "PAPER.md"),
            docs=str(FIXTURE_ROOT / "docs"),
        )
        assert not report.ok
        doc = to_sarif(report)
        jsonschema.validate(doc, schema)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        result_rules = {r["ruleId"] for r in run["results"]}
        assert result_rules <= rule_ids
        assert {"REP007", "REP008"} <= result_rules
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            assert result["partialFingerprints"]["reproLintFingerprint/v1"]

    def test_clean_report_validates(self, schema):
        report = lint_paths([str(TYPEONLY_ROOT)])
        doc = to_sarif(report)
        jsonschema.validate(doc, schema)
        assert doc["runs"][0]["results"] == []

    def test_cli_sarif_output_parses_and_validates(self, schema):
        proc = _run_cli(str(FIXTURE_ROOT), "--format", "sarif")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, schema)
        assert doc["version"] == "2.1.0"


# ----------------------------------------------------------------------
# Root discovery
# ----------------------------------------------------------------------


class TestDiscoverRoot:
    def test_file_start_walks_up_to_marker(self, tmp_path):
        _write_tree(
            tmp_path,
            {"PAPER.md": "x\n", "src/deep/nested/mod.py": "x = 1\n"},
        )
        assert discover_root(tmp_path / "src/deep/nested/mod.py") == tmp_path

    def test_dir_start_walks_up_to_marker(self, tmp_path):
        _write_tree(
            tmp_path,
            {"pyproject.toml": "[project]\n", "src/pkg/mod.py": "x = 1\n"},
        )
        assert discover_root(tmp_path / "src" / "pkg") == tmp_path

    def test_nested_marker_wins_over_outer(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "outer\n",
                "vendor/PAPER.md": "inner\n",
                "vendor/src/mod.py": "x = 1\n",
            },
        )
        assert discover_root(tmp_path / "vendor" / "src") == (
            tmp_path / "vendor"
        )

    def test_no_marker_falls_back_to_start_dir(self, tmp_path):
        # A bare tree with no marker anywhere up to / keeps the start
        # directory (tmp trees under pytest never reach a real marker).
        target = tmp_path / "plain"
        target.mkdir()
        root = discover_root(target)
        assert root == target or (root / "PAPER.md").exists() or (
            root / "pyproject.toml"
        ).exists() or (root / ".git").exists()

    def test_paper_and_docs_overrides_respected(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "Theorem 1 holds.\n",
                "other/PAPER.md": "Lemma 9.9 holds.\n",
                "src/mod.py": '"""Implements Lemma 9.9."""\n',
            },
        )
        default = lint_paths([str(tmp_path / "src")], select=["REP004"])
        assert [f.rule for f in default.findings] == ["REP004"]
        overridden = lint_paths(
            [str(tmp_path / "src")],
            select=["REP004"],
            paper=str(tmp_path / "other" / "PAPER.md"),
        )
        assert overridden.ok


# ----------------------------------------------------------------------
# Pragma statement spans
# ----------------------------------------------------------------------


class TestPragmaSpans:
    def test_pragma_on_multiline_statement_head_covers_span(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "x\n",
                "src/mod.py": """
                import random

                value = max(  # repro-lint: disable=REP001
                    random.random(),
                    0.5,
                )
                """,
            },
        )
        report = lint_paths([str(tmp_path / "src")], select=["REP001"])
        assert report.ok, "\n".join(f.render() for f in report.findings)

    def test_pragma_does_not_leak_into_compound_body(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "x\n",
                "src/mod.py": """
                import random

                def f(  # repro-lint: disable=REP001
                    scale,
                ):
                    return scale * random.random()
                """,
            },
        )
        report = lint_paths([str(tmp_path / "src")], select=["REP001"])
        # The pragma covers the signature, not the function body.
        assert [f.rule for f in report.findings] == ["REP001"]

    def test_span_expansion_unit(self):
        source = textwrap.dedent(
            """
            x = call(  # repro-lint: disable=REP001
                1,
                2,
            )
            """
        )
        table = suppressions(source, ast.parse(source))
        assert table[2] == {"REP001"}
        assert table[3] == {"REP001"}
        assert table[5] == {"REP001"}


# ----------------------------------------------------------------------
# REP005 type-only regression tree + CLI formats
# ----------------------------------------------------------------------


class TestTypeOnlyImports:
    def test_typeonly_fixture_tree_clean(self):
        report = lint_paths([str(TYPEONLY_ROOT)])
        assert report.ok, "\n".join(f.render() for f in report.findings)

    def test_truly_dead_import_still_flagged(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "PAPER.md": "x\n",
                "src/mod.py": """
                from typing import TYPE_CHECKING

                import numpy as np

                if TYPE_CHECKING:
                    import scipy

                def f(x: "scipy.sparse.csr_matrix"):
                    return x
                """,
            },
        )
        report = lint_paths([str(tmp_path / "src")], select=["REP005"])
        # numpy is dead (flagged); scipy is annotation-used (clean).
        assert [f.symbol for f in report.findings] == ["numpy"]


class TestParseFailures:
    def test_invalid_source_is_rep000(self, tmp_path):
        _write_tree(tmp_path, {"PAPER.md": "x\n", "src/bad.py": "def f(:\n"})
        report = lint_paths([str(tmp_path / "src")])
        assert [f.rule for f in report.findings] == ["REP000"]

    def test_parser_fault_raises_naming_the_file(self, tmp_path, monkeypatch):
        # A failure of the parser itself (not of the file) must not be
        # reported as a false REP000.
        def broken_parse(source, filename):
            raise SystemError("AST constructor recursion depth mismatch")

        _write_tree(tmp_path, {"PAPER.md": "x\n", "src/mod.py": "x = 1\n"})
        monkeypatch.setattr(runner, "ast", SimpleNamespace(parse=broken_parse))
        with pytest.raises(RuntimeError, match="mod.py") as info:
            lint_paths([str(tmp_path / "src")])
        assert isinstance(info.value.__cause__, SystemError)


class TestCliFormats:
    def test_text_format_summary_reports_cache_counts(self, tmp_path):
        _write_tree(
            tmp_path,
            {"PAPER.md": "x\n", "src/mod.py": "x = 1\n"},
        )
        proc = _run_cli(
            "src",
            "--format",
            "text",
            "--cache",
            "--cache-dir",
            str(tmp_path / "cachedir"),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc2 = _run_cli(
            "src",
            "--format",
            "text",
            "--cache",
            "--cache-dir",
            str(tmp_path / "cachedir"),
            cwd=tmp_path,
        )
        assert "(0 analyzed, 1 cached)" in proc2.stdout

    def test_json_report_carries_new_counters(self):
        proc = _run_cli("src")
        payload = json.loads(proc.stdout)
        for key in ("files_reanalyzed", "cache_hits", "baselined"):
            assert key in payload
