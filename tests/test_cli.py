"""Tests for the command-line interface and the adversary registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversary import (
    BenOrQuorumAdversary,
    BenignAdversary,
    TallyAttackAdversary,
)
from repro.adversary.registry import (
    available_adversaries,
    make_adversary,
    register_adversary,
)
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.harness.resilience import CHAOS_ENV, Fault, FaultPlan
from repro.protocols import BenOrProtocol, SynRanProtocol


class TestAdversaryRegistry:
    def test_benign(self):
        adv = make_adversary("benign", 8, 4, SynRanProtocol())
        assert isinstance(adv, BenignAdversary)
        assert adv.t == 4

    def test_tally_variants(self):
        full = make_adversary("tally-attack", 8, 8, SynRanProtocol())
        split = make_adversary("tally-split-only", 8, 8, SynRanProtocol())
        bleed = make_adversary("tally-bleed-only", 8, 8, SynRanProtocol())
        assert isinstance(full, TallyAttackAdversary)
        assert full.enable_split and full.enable_bleed
        assert split.enable_split and not split.enable_bleed
        assert bleed.enable_bleed and not bleed.enable_split

    def test_quorum_reads_protocol_threshold(self):
        proto = BenOrProtocol(t=5)
        adv = make_adversary("benor-quorum", 16, 5, proto)
        assert isinstance(adv, BenOrQuorumAdversary)
        assert adv.decide_threshold == 6

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_adversary("mallory", 8, 4, SynRanProtocol())

    def test_available_sorted(self):
        names = available_adversaries()
        assert names == sorted(names)
        assert "tally-attack" in names

    def test_register_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            register_adversary(
                "benign", lambda n, t, p: BenignAdversary(t)
            )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "synran"
        assert args.adversary == "tally-attack"

    def test_bounds_requires_n_t(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bounds", "--n", "4"])


class TestMain:
    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "256", "--t", "128"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3" in out
        assert "det-stage threshold" in out

    def test_run_clean(self, capsys):
        code = main([
            "run", "--protocol", "synran", "--adversary", "benign",
            "--n", "8", "--trials", "2", "--inputs", "unanimous1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "consensus violations" in out
        assert "decision-1 fraction" in out

    def test_run_under_attack(self, capsys):
        code = main([
            "run", "--n", "16", "--trials", "2", "--inputs", "worst",
        ])
        assert code == 0

    def test_coin(self, capsys):
        code = main([
            "coin", "--game", "parity", "--n", "32", "--trials", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(control)" in out

    def test_valency(self, capsys):
        code = main([
            "valency", "--n", "3", "--budget", "1", "--horizon", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "class" in out
        assert "000" in out

    def test_error_exit_code(self, capsys):
        # benor with t >= n/2 is rejected by the protocol registry.
        code = main([
            "run", "--protocol", "benor", "--n", "8", "--t", "5",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    # Under receive-omission the tally attack's crash decisions make
    # every other alive process a faulty receiver, so every trial
    # exceeds the budget and every chunk is quarantined.
    BUDGET_ERROR = "BudgetExceededError: adversary used 32 crashes, budget is 16"

    @pytest.mark.parametrize("adversary", ["tally-attack", "random"])
    def test_run_prints_why_every_trial_failed(self, capsys, adversary):
        code = main([
            "run", "--engine", "reference", "--n", "32", "--t", "16",
            "--trials", "2", "--fault-model", "receive-omission",
            "--adversary", adversary,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert self.BUDGET_ERROR in captured.err
        assert "(exception)" in captured.err
        assert "missing trials (quarantined)" in captured.out
        assert "mean decision round" not in captured.out

    def test_sweep_fails_and_prints_why_a_cell_lost_trials(self, capsys):
        code = main([
            "sweep", "--protocols", "synran", "--adversaries",
            "tally-attack", "--ns", "32", "--t-frac", "0.5",
            "--trials", "2", "--no-cache",
            "--fault-model", "receive-omission",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert self.BUDGET_ERROR in captured.err
        assert "synran/tally-attack/n=32" in captured.err

    def test_experiments_fail_and_count_only_completed_runs(
        self, capsys, monkeypatch, tmp_path
    ):
        # Trial 0's chunk raises in every E9 batch; with no retries each
        # batch's one chunk is quarantined and none of its trials runs.
        path = FaultPlan(faults=(Fault(kind="raise", trial=0, times=5),)).dump(
            tmp_path / "plan.json"
        )
        monkeypatch.setenv(CHAOS_ENV, str(path))
        code = main([
            "experiments", "--only", "E9", "--no-cache", "--retries", "0",
            "--chaos", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 1
        errors = captured.err.splitlines()
        assert len(errors) == 180
        assert all(
            line.startswith("error: E9/") and "(exception): ChaosError" in line
            for line in errors
        )
        assert "180 quarantined" in captured.out
        rows = [line.split() for line in captured.out.splitlines()]
        runs = [int(row[3]) for row in rows if len(row) == 5 and row[2] == "6"]
        assert runs == [0] * 10

    def test_chaos_plan_corrupts_the_cached_batch_document(
        self, capsys, monkeypatch, tmp_path
    ):
        # The CLI exports --chaos into this process's environment.  An
        # empty value reads as no plan, and setting it (deleting an
        # unset variable records nothing) makes monkeypatch restore
        # the environment afterwards.
        monkeypatch.setenv(CHAOS_ENV, "")
        path = FaultPlan(faults=(Fault(kind="corrupt", trial=0),)).dump(
            tmp_path / "plan.json"
        )
        sweep = [
            "sweep", "--protocols", "synran", "--adversaries", "benign",
            "--ns", "16", "--trials", "3",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(sweep) == 0
        clean = capsys.readouterr().out
        assert "0 cell(s) resumed, 1 computed" in clean
        # The corrupted batch document reads as a miss: the cell is
        # recomputed, to the same table.
        assert main([*sweep, "--chaos", str(path)]) == 0
        assert capsys.readouterr().out == clean

    @pytest.mark.parametrize("before", [None, "earlier-plan.json"])
    def test_chaos_flag_leaves_the_environment_as_it_found_it(
        self, before, capsys, monkeypatch, tmp_path
    ):
        # Setting the variable first makes monkeypatch restore it
        # afterwards, even where the command leaks its plan.
        monkeypatch.setenv(CHAOS_ENV, "")
        if before is None:
            monkeypatch.delenv(CHAOS_ENV)
        else:
            monkeypatch.setenv(CHAOS_ENV, before)
        path = FaultPlan(faults=(Fault(kind="raise", trial=99),)).dump(
            tmp_path / "plan.json"
        )
        code = main([
            "run", "--protocol", "synran", "--adversary", "benign",
            "--n", "8", "--t", "8", "--trials", "2", "--chaos", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        assert os.environ.get(CHAOS_ENV) == before

    def test_experiments_subset(self, capsys):
        code = main(["experiments", "--only", "E4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E4" in out

    def test_both_experiment_entry_points_agree(self, tmp_path):
        # `python -m repro.harness.experiments` is the `repro
        # experiments` command: same bytes out, same exit code.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        args = ["--only", "E4,E13", "--no-cache"]
        runs = [
            subprocess.run(
                [sys.executable, "-m", *module, *args],
                capture_output=True,
                cwd=tmp_path,
                env=env,
            )
            for module in (["repro", "experiments"], ["repro.harness.experiments"])
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
        assert b"E13" in runs[0].stdout
