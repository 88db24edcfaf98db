"""Docs-vs-code consistency guards.

DESIGN.md's inventory, the experiment/ablation indices, the README's
example table, and the benchmark files must all refer to things that
exist — these tests fail when documentation drifts from the code.
"""

from pathlib import Path

import pytest

from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.experiments import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_mentions_every_experiment_id(self):
        design = read("DESIGN.md")
        for exp_id in ALL_EXPERIMENTS:
            assert f"| {exp_id} |" in design, exp_id

    def test_mentions_every_ablation_id(self):
        design = read("DESIGN.md")
        for ab_id in ALL_ABLATIONS:
            assert f"| {ab_id} |" in design, ab_id

    def test_inventory_modules_exist(self):
        design = read("DESIGN.md")
        for module in (
            "synran.py", "floodset.py", "benor.py", "symmetric.py",
            "gp_hybrid.py", "antisynran.py", "benorattack.py",
            "lowerbound.py", "multiround.py", "library_games.py",
            "valency.py", "stats.py",
        ):
            assert module in design, module
        src = ROOT / "src" / "repro"
        for rel in (
            "protocols/synran.py",
            "protocols/gp_hybrid.py",
            "adversary/antisynran.py",
            "coinflip/multiround.py",
            "analysis/valency.py",
            "harness/ablations.py",
        ):
            assert (src / rel).exists(), rel


class TestExperimentsDoc:
    def test_covers_every_experiment(self):
        experiments = read("EXPERIMENTS.md")
        for exp_id in ALL_EXPERIMENTS:
            assert f"## {exp_id} " in experiments, exp_id

    def test_full_output_recorded(self):
        recorded = read("experiments_full_output.txt")
        for exp_id in ALL_EXPERIMENTS:
            assert f"{exp_id} (" in recorded, exp_id


class TestReadme:
    def test_example_table_matches_disk(self):
        readme = read("README.md")
        examples = sorted(
            p.name for p in (ROOT / "examples").glob("*.py")
        )
        for name in examples:
            assert f"`{name}`" in readme, name

    def test_documented_commands_exist(self):
        readme = read("README.md")
        assert "python -m repro.harness.experiments" in readme
        assert "pytest benchmarks/ --benchmark-only" in readme


class TestBenchmarks:
    def test_one_bench_per_experiment_and_ablation(self):
        bench_dir = ROOT / "benchmarks"
        names = {p.name for p in bench_dir.glob("bench_*.py")}
        for exp_id in ALL_EXPERIMENTS:
            prefix = f"bench_{exp_id.lower()}_"
            assert any(n.startswith(prefix) for n in names), exp_id
        for ab_id in ALL_ABLATIONS:
            prefix = f"bench_{ab_id.lower()}_"
            assert any(n.startswith(prefix) for n in names), ab_id


class TestRegistriesDoc:
    def _rows(self, heading):
        section = read("docs/registries.md").split(heading, 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) > 1:
                rows[cells[0].strip("`")] = cells
        return rows

    def test_adversary_engines_match_the_table(self):
        from repro.adversary.registry import available_adversaries
        from repro.harness.exec import ENGINE_KINDS

        rows = self._rows("## Adversaries")
        assert sorted(rows) == available_adversaries(None)
        for name, cells in rows.items():
            documented = [e.strip() for e in cells[1].split(",")]
            engines = [
                e for e in ENGINE_KINDS if name in available_adversaries(e)
            ]
            assert documented == engines, name

    def test_every_protocol_documented(self):
        from repro.protocols.registry import available_protocols

        assert sorted(self._rows("## Protocols")) == available_protocols()
