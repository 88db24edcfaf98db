"""Tests for lint infrastructure: SARIF, discovery, pragmas, the CLI.

Covers SARIF 2.1.0 emission validated against a vendored schema subset
(and the line-independent fingerprint it carries), ``discover_root``
edge cases, statement-span pragma suppression, the REP005
type-only-import regression tree, parse-failure reporting, and the
CLI's report formats and flags.
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

    def test_fingerprint_survives_line_shift(self):
        a = Finding("REP007", "src/m.py", 3, 0, "msg", symbol="m.f")
        b = Finding("REP007", "src/m.py", 40, 8, "msg", symbol="m.f")
        c = Finding("REP007", "src/m.py", 3, 0, "other msg", symbol="m.f")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


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
    def test_text_format_summary(self, tmp_path):
        _write_tree(
            tmp_path,
            {"PAPER.md": "x\n", "src/mod.py": "x = 1\n"},
        )
        proc = _run_cli("src", "--format", "text", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == (
            "repro.lint: 1 files scanned, 0 finding(s)"
        )

    def test_json_report_keys(self, tmp_path):
        _write_tree(
            tmp_path,
            {"PAPER.md": "x\n", "src/mod.py": "x = 1\n"},
        )
        proc = _run_cli("src", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) == {
            "ok",
            "files_scanned",
            "rules_run",
            "counts",
            "findings",
        }

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cache"],
            ["--cache-dir", "d"],
            ["--baseline", "b.json"],
            ["--no-baseline"],
            ["--write-baseline"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_flag_is_a_usage_error(self, tmp_path, flag):
        _write_tree(
            tmp_path,
            {"PAPER.md": "x\n", "src/mod.py": "x = 1\n"},
        )
        proc = _run_cli("src", *flag, cwd=tmp_path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "unrecognized arguments" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["PAPER.md", "src"]
