"""Tests for the repo-specific static linter (``repro.lint``).

Each REP rule gets a triggering snippet and a clean counter-example,
plus pragma-suppression coverage, the committed fixture tree under
``tests/fixtures/lint_bad/`` (exactly one violation of each rule), and
the self-check that ``src/repro`` itself is violation-free.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import ALL_RULES, lint_paths
from repro.lint.findings import suppressions
from repro.lint.rules import (
    FileContext,
    RuleConfig,
    check_rep001,
    check_rep002,
    check_rep003,
    check_rep004,
    check_rep005,
    check_rep006,
    paper_references,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures" / "lint_bad"


def _subprocess_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def _ctx(source, path="src/repro/sim/snippet.py"):
    source = textwrap.dedent(source)
    return FileContext(
        path=Path(path),
        display_path=path,
        source=source,
        tree=ast.parse(source),
    )


def _rules(source, check, path="src/repro/sim/snippet.py", **config_kwargs):
    return check(_ctx(source, path=path), RuleConfig(**config_kwargs))


# ----------------------------------------------------------------------
# REP001 — global RNG
# ----------------------------------------------------------------------


class TestRep001:
    def test_module_level_random_call_flagged(self):
        findings = _rules(
            """
            import random

            def f():
                return random.random()
            """,
            check_rep001,
        )
        assert [f.rule for f in findings] == ["REP001"]
        assert "random.random()" in findings[0].message

    def test_numpy_global_state_flagged(self):
        findings = _rules(
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """,
            check_rep001,
        )
        assert [f.rule for f in findings] == ["REP001"]

    def test_unseeded_random_random_flagged(self):
        findings = _rules(
            """
            import random

            rng = random.Random()
            """,
            check_rep001,
        )
        assert [f.rule for f in findings] == ["REP001"]

    def test_from_import_of_global_fn_flagged(self):
        findings = _rules("from random import randrange\n", check_rep001)
        assert [f.rule for f in findings] == ["REP001"]

    def test_seeded_constructions_clean(self):
        findings = _rules(
            """
            import random
            import numpy as np

            def make(seed):
                r = random.Random(seed)
                g = np.random.default_rng(seed)
                return r.random() + g.random()
            """,
            check_rep001,
        )
        assert findings == []

    def test_allowlist_glob_exempts_file(self):
        findings = _rules(
            """
            import random

            def f():
                return random.random()
            """,
            check_rep001,
            path="scripts/demo.py",
            allow_global_random=("scripts/*.py",),
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003 — adversary knowledge boundary
# ----------------------------------------------------------------------


class TestRep003:
    ADV_PATH = "src/repro/adversary/snippet.py"

    def test_foreign_rng_access_flagged(self):
        findings = _rules(
            """
            class Peeker:
                def on_round(self, view):
                    return view.states[0].rng.random()
            """,
            check_rep003,
            path=self.ADV_PATH,
        )
        assert [f.rule for f in findings] == ["REP003"]

    def test_private_attr_access_flagged(self):
        findings = _rules(
            """
            class Peeker:
                def on_round(self, view):
                    return view.core._pending_coin
            """,
            check_rep003,
            path=self.ADV_PATH,
        )
        assert [f.rule for f in findings] == ["REP003"]

    def test_own_state_and_public_view_clean(self):
        findings = _rules(
            """
            class Fair:
                def __init__(self, t, rng):
                    self.rng = rng
                    self._budget = t

                def on_round(self, view):
                    self._budget -= 1
                    return [p for p in view.alive if self.rng.random() < 0.1]
            """,
            check_rep003,
            path=self.ADV_PATH,
        )
        assert findings == []

    def test_rule_inert_outside_adversary_package(self):
        findings = _rules(
            "def f(obj):\n    return obj.rng.random() + obj._hidden\n",
            check_rep003,
            path="src/repro/sim/engine.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — paper-reference hygiene
# ----------------------------------------------------------------------


PAPER_REFS = paper_references(
    "We prove Theorem 1 using Lemmas 3.1-3.5 and Lemma 4.2."
)


class TestRep004:
    def test_nonexistent_lemma_flagged(self):
        findings = _rules(
            '"""Implements Lemma 9.9."""\n',
            check_rep004,
            paper_refs=PAPER_REFS,
        )
        assert [f.rule for f in findings] == ["REP004"]
        assert "Lemma 9.9" in findings[0].message

    def test_existing_citations_clean(self):
        findings = _rules(
            '''
            """Module docstring citing Theorem 1."""

            def bound(n):
                """Per Lemma 3.4 (via the range Lemmas 3.1-3.5)."""
                return n
            ''',
            check_rep004,
            paper_refs=PAPER_REFS,
        )
        assert findings == []

    def test_range_citations_expand(self):
        refs = paper_references("Lemmas 2.1-2.3 and Theorems 1/2 hold.")
        assert ("lemma", "2.2") in refs
        assert ("theorem", "2") in refs

    def test_skipped_when_no_paper(self):
        findings = _rules(
            '"""Implements Lemma 9.9."""\n', check_rep004, paper_refs=None
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP005 — dead heavyweight imports
# ----------------------------------------------------------------------


class TestRep005:
    def test_unused_numpy_alias_flagged(self):
        findings = _rules(
            """
            import numpy as np

            def f(values):
                return sum(values)
            """,
            check_rep005,
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert findings[0].symbol == "numpy"
        assert "'np'" in findings[0].message

    def test_unused_from_import_flagged(self):
        findings = _rules(
            """
            from scipy import stats

            def f(x):
                return x
            """,
            check_rep005,
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert findings[0].symbol == "scipy.stats"

    def test_submodule_import_binds_top_level_name(self):
        # `import numpy.random` binds the name `numpy`; using `numpy`
        # anywhere counts as a use of the whole import.
        findings = _rules(
            """
            import numpy.random

            def f():
                return numpy.random.default_rng(0)
            """,
            check_rep005,
        )
        assert findings == []

    def test_used_import_clean(self):
        findings = _rules(
            """
            import numpy as np

            def f(values):
                return np.asarray(values).sum()
            """,
            check_rep005,
        )
        assert findings == []

    def test_all_reexport_counts_as_use(self):
        findings = _rules(
            """
            import pandas

            __all__ = ["pandas"]
            """,
            check_rep005,
        )
        assert findings == []

    def test_lightweight_imports_ignored(self):
        findings = _rules(
            """
            import os
            import json
            from dataclasses import dataclass
            """,
            check_rep005,
        )
        assert findings == []

    def test_fixture_file_flagged_via_runner(self):
        report = lint_paths(
            [str(FIXTURE_ROOT / "src" / "badimport.py")], select=["REP005"]
        )
        assert [f.rule for f in report.findings] == ["REP005"]


# ----------------------------------------------------------------------
# REP006 — fail-stop-safe futures
# ----------------------------------------------------------------------


class TestRep006:
    def test_unguarded_result_flagged(self):
        findings = _rules(
            """
            import concurrent.futures

            def collect(futures):
                return [f.result() for f in futures]
            """,
            check_rep006,
        )
        assert [f.rule for f in findings] == ["REP006"]
        assert findings[0].symbol == "result"
        assert "BrokenProcessPool" in findings[0].message

    def test_guarded_result_clean(self):
        findings = _rules(
            """
            import concurrent.futures

            def collect(futures):
                out = []
                for f in futures:
                    try:
                        out.append(f.result())
                    except Exception:
                        out.append(None)
                return out
            """,
            check_rep006,
        )
        assert findings == []

    def test_result_with_timeout_arg_not_flagged(self):
        # result(timeout=...) raises TimeoutError by design; the bare
        # collection pattern is the one that loses completed work.
        findings = _rules(
            """
            import concurrent.futures

            def collect(futures):
                return [f.result(timeout=1.0) for f in futures]
            """,
            check_rep006,
        )
        assert findings == []

    def test_lambda_submission_flagged(self):
        findings = _rules(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(values):
                with ProcessPoolExecutor() as pool:
                    futs = [pool.submit(lambda v: v, v) for v in values]
                out = []
                for f in futs:
                    try:
                        out.append(f.result())
                    except Exception:
                        pass
                return out
            """,
            check_rep006,
        )
        assert [f.rule for f in findings] == ["REP006"]
        assert findings[0].symbol == "lambda"

    def test_nested_def_submission_flagged(self):
        findings = _rules(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(values):
                def work(v):
                    return v + 1

                pool = ProcessPoolExecutor()
                try:
                    return [pool.submit(work, v) for v in values]
                finally:
                    pool.shutdown()
            """,
            check_rep006,
        )
        assert [f.rule for f in findings] == ["REP006"]
        assert findings[0].symbol == "work"

    def test_module_level_callable_clean(self):
        findings = _rules(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(v):
                return v + 1

            def run(values):
                with ProcessPoolExecutor() as pool:
                    futs = [pool.submit(work, v) for v in values]
                    out = []
                    for f in futs:
                        try:
                            out.append(f.result())
                        except Exception:
                            pass
                return out
            """,
            check_rep006,
        )
        assert findings == []

    def test_pool_bound_to_attribute_tracked(self):
        findings = _rules(
            """
            import concurrent.futures

            class Runner:
                def __init__(self):
                    self._pool = concurrent.futures.ProcessPoolExecutor()

                def go(self, values):
                    return [
                        self._pool.submit(lambda v: v, v) for v in values
                    ]
            """,
            check_rep006,
        )
        assert [f.symbol for f in findings] == ["lambda"]

    def test_module_without_futures_import_ignored(self):
        # `.result()` and `.submit()` on arbitrary objects are only
        # suspect in modules that actually use concurrent.futures.
        findings = _rules(
            """
            class Calc:
                def result(self):
                    return 42

            def f(c):
                return c.result()
            """,
            check_rep006,
        )
        assert findings == []

    def test_fixture_file_flagged_via_runner(self):
        report = lint_paths(
            [str(FIXTURE_ROOT / "src" / "badpool.py")], select=["REP006"]
        )
        assert {f.rule for f in report.findings} == {"REP006"}
        assert {f.symbol for f in report.findings} == {
            "lambda", "result", "double",
        }


# ----------------------------------------------------------------------
# REP002 — registry completeness
# ----------------------------------------------------------------------


class TestRep002:
    def _contexts(self):
        registry = _ctx(
            """
            from adversary.impl import GoodAdversary

            _FACTORIES = {"good": lambda n, t, proto: GoodAdversary(t)}
            """,
            path="pkg/adversary/registry.py",
        )
        impl = _ctx(
            """
            class Adversary:
                pass

            class GoodAdversary(Adversary):
                pass

            class RogueAdversary(Adversary):
                pass
            """,
            path="pkg/adversary/impl.py",
        )
        return [registry, impl]

    def test_unregistered_concrete_class_flagged(self):
        findings = check_rep002(self._contexts(), RuleConfig())
        assert [f.symbol for f in findings if f.rule == "REP002"] == [
            "RogueAdversary"
        ]

    def test_abstract_intermediate_not_flagged(self):
        contexts = [
            _ctx(
                """
                import abc

                class Adversary:
                    pass

                class CrashTemplate(Adversary, abc.ABC):
                    @abc.abstractmethod
                    def pick(self, view): ...
                """,
                path="pkg/adversary/base.py",
            )
        ]
        assert check_rep002(contexts, RuleConfig()) == []

    def test_registry_key_missing_from_docs_flagged(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "overview.md").write_text("Only `good` is documented.\n")
        registry = _ctx(
            """
            from adversary.impl import GoodAdversary

            _FACTORIES = {
                "good": lambda n, t, proto: GoodAdversary(t),
                "sneaky": lambda n, t, proto: GoodAdversary(t),
            }
            """,
            path="pkg/adversary/registry.py",
        )
        findings = check_rep002([registry], RuleConfig(docs_dir=docs))
        assert [f.symbol for f in findings] == ["sneaky"]

    def _engine_contexts(self, registered):
        # Registration is per concept: a counts adversary in sim/ is
        # held to the adversary package's one table.
        registry = _ctx(
            f"""
            from sim.batch import {registered}

            _FACTORIES = {{"good": {registered}}}
            """,
            path="pkg/adversary/registry.py",
        )
        engine = _ctx(
            """
            import abc

            class BatchFastAdversary(abc.ABC):
                @abc.abstractmethod
                def choose(self, view): ...

            class BatchRogue(BatchFastAdversary):
                def choose(self, view):
                    return None
            """,
            path="pkg/sim/batch.py",
        )
        return [registry, engine]

    def test_engine_adversary_missing_from_adversary_registry_flagged(self):
        findings = check_rep002(
            self._engine_contexts("BatchOther"), RuleConfig()
        )
        assert [(f.symbol, f.file) for f in findings] == [
            ("BatchRogue", "pkg/sim/batch.py")
        ]
        assert "adversary/registry.py" in findings[0].message

    def test_engine_adversary_in_adversary_registry_not_flagged(self):
        findings = check_rep002(
            self._engine_contexts("BatchRogue"), RuleConfig()
        )
        assert findings == []


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------


class TestPragmas:
    def test_parse(self):
        src = (
            "x = 1  # repro-lint: disable=REP001\n"
            "y = 2  # repro-lint: disable=REP001,REP003\n"
            "z = 3  # repro-lint: disable=all\n"
        )
        table = suppressions(src)
        assert table[1] == {"REP001"}
        assert table[2] == {"REP001", "REP003"}
        assert table[3] == {"all"}

    def test_pragma_silences_finding(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "import random\n"
            "x = random.random()  # repro-lint: disable=REP001\n"
            "y = random.random()\n"
        )
        report = lint_paths([str(tmp_path)], select=("REP001",))
        assert [f.line for f in report.findings] == [3]


# ----------------------------------------------------------------------
# Fixture tree + self-check + CLI
# ----------------------------------------------------------------------


class TestEndToEnd:
    def _run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_subprocess_env(),
        )

    def test_fixture_tree_one_violation_per_rule(self):
        proc = self._run_cli(
            str(FIXTURE_ROOT),
            "--paper",
            str(FIXTURE_ROOT / "PAPER.md"),
            "--docs",
            str(FIXTURE_ROOT / "docs"),
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        by_rule = {f["rule"]: f for f in payload["findings"]}
        assert sorted(by_rule) == sorted(ALL_RULES)
        for finding in payload["findings"]:
            assert finding["file"]
            assert finding["line"] >= 1

    def test_src_repro_is_violation_free(self):
        report = lint_paths([str(REPO_ROOT / "src")])
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert report.files_scanned > 0

    def test_cli_clean_exit_zero(self):
        proc = self._run_cli("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_unknown_rule_exit_two(self):
        proc = self._run_cli("src", "--select", "REP999")
        assert proc.returncode == 2

    def test_nonexistent_path_exit_two(self):
        # A typo'd path must not read as a clean run.
        proc = self._run_cli("src/no/such/dir")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_repro_cli_lint_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
