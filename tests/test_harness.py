"""Tests for the harness: workloads, report tables, trial runners."""

import random

import pytest

from repro.adversary import BenignAdversary, RandomCrashAdversary
from repro.errors import ConfigurationError
from repro.harness.exec import SerialExecutor, TrialBatch, TrialSpec
from repro.harness.exec.trial import TrialOutcome
from repro.harness.report import Table, format_cell, render_table
from repro.harness.runner import (
    TrialStats,
    run_fast_trials,
    run_reference_trials,
)
from repro.harness.workloads import (
    half_split,
    random_inputs,
    unanimous,
    worst_case_split,
)
from repro.protocols import SynRanProtocol
from repro.sim.batch import BatchBenign, BatchTallyAttack
from repro.sim.batch2d import Batch2DPartition


class TestWorkloads:
    def test_unanimous(self):
        assert unanimous(4, 1) == [1, 1, 1, 1]
        assert unanimous(3, 0) == [0, 0, 0]

    def test_unanimous_validation(self):
        with pytest.raises(ConfigurationError):
            unanimous(4, 2)
        with pytest.raises(ConfigurationError):
            unanimous(0, 1)

    def test_half_split(self):
        assert half_split(4) == [1, 1, 0, 0]
        assert half_split(5) == [1, 1, 1, 0, 0]

    def test_worst_case_split_fraction(self):
        inputs = worst_case_split(100)
        assert sum(inputs) == 55

    def test_worst_case_split_in_coin_window(self):
        # The point of the vector: strictly inside (n/2, 6n/10].
        for n in (40, 100, 1000):
            ones = sum(worst_case_split(n))
            assert n / 2 < ones <= 0.6 * n

    def test_worst_case_validation(self):
        with pytest.raises(ConfigurationError):
            worst_case_split(10, fraction=1.5)

    def test_random_inputs_deterministic(self):
        a = random_inputs(20, random.Random(3))
        b = random_inputs(20, random.Random(3))
        assert a == b

    def test_random_inputs_bias(self):
        inputs = random_inputs(2000, random.Random(0), p_one=0.9)
        assert sum(inputs) > 1600


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_float_ranges(self):
        assert format_cell(0.0) == "0"
        assert format_cell(1234.5) == "1.234e+03"
        assert format_cell(0.00001) == "1.000e-05"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(0.25) == "0.2500"

    def test_int_and_str(self):
        assert format_cell(42) == "42"
        assert format_cell("abc") == "abc"


class TestTable:
    def test_add_row_checks_arity(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row(1)

    def test_column_extraction(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_column_unknown_name(self):
        table = Table(title="t", columns=["a"])
        with pytest.raises(ConfigurationError):
            table.column("z")

    def test_render_contains_everything(self):
        table = Table(title="My Table", columns=["n", "p"])
        table.add_row(8, 0.5)
        table.add_note("a footnote")
        text = render_table(table)
        assert "My Table" in text
        assert "0.5000" in text
        assert "a footnote" in text

    def test_render_alignment_is_consistent(self):
        table = Table(title="t", columns=["col"])
        table.add_row(1)
        table.add_row(100000)
        lines = render_table(table).splitlines()
        assert len(set(len(l) for l in lines[2:4])) >= 1


class TestReferenceRunner:
    def test_deterministic_given_base_seed(self):
        kwargs = dict(trials=5, base_seed=77)
        a = run_reference_trials(
            SynRanProtocol,
            BenignAdversary,
            9,
            lambda rng: [i % 2 for i in range(9)],
            **kwargs,
        )
        b = run_reference_trials(
            SynRanProtocol,
            BenignAdversary,
            9,
            lambda rng: [i % 2 for i in range(9)],
            **kwargs,
        )
        assert a.decision_rounds == b.decision_rounds
        assert a.decisions == b.decisions

    def test_collects_verdicts(self):
        stats = run_reference_trials(
            SynRanProtocol,
            lambda: RandomCrashAdversary(4, rate=0.2),
            8,
            lambda rng: [rng.randrange(2) for _ in range(8)],
            trials=6,
            base_seed=1,
        )
        assert len(stats.verdicts) == 6
        assert stats.all_ok()
        assert stats.violation_count() == 0

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            run_reference_trials(
                SynRanProtocol,
                BenignAdversary,
                4,
                lambda rng: [0] * 4,
                trials=0,
            )

    def test_rounds_summary(self):
        stats = run_reference_trials(
            SynRanProtocol,
            BenignAdversary,
            6,
            lambda rng: [1] * 6,
            trials=4,
            base_seed=5,
        )
        summary = stats.rounds_summary()
        assert summary.count == 4
        assert summary.mean >= 0


class TestFastRunner:
    def test_deterministic(self):
        a = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            32,
            lambda rng: [i % 2 for i in range(32)],
            trials=4,
            base_seed=3,
        )
        b = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            32,
            lambda rng: [i % 2 for i in range(32)],
            trials=4,
            base_seed=3,
        )
        assert a.decision_rounds == b.decision_rounds

    def test_no_verdicts_for_fast(self):
        stats = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            16,
            lambda rng: [1] * 16,
            trials=2,
            base_seed=0,
        )
        assert stats.verdicts == []
        assert stats.timeouts == 0


class TestBatchRunner:
    def test_batch_mode_matches_fast_on_coin_free_runs(self):
        # Unanimous inputs under benign crashes never reach a coin, so
        # the vectorized runner must reproduce the reference runner
        # exactly (both derive per-trial seeds from FACTORY_SCOPE).
        kwargs = dict(trials=5, base_seed=11)
        reference = run_reference_trials(
            SynRanProtocol, BenignAdversary, 16, lambda rng: [1] * 16,
            **kwargs,
        )
        batch = run_fast_trials(
            SynRanProtocol, BatchBenign, 16, lambda rng: [1] * 16, **kwargs
        )
        assert batch.engine_kind == "batch"
        assert batch.decision_rounds == reference.decision_rounds
        assert batch.decisions == reference.decisions

    def test_adversary_type_selects_the_engine(self):
        # Counts decisions run on BatchFastEngine, mask decisions on
        # Batch2DEngine.
        kwargs = dict(trials=6, base_seed=3)
        inputs = lambda rng: [rng.randrange(2) for _ in range(32)]
        one_d = run_fast_trials(
            SynRanProtocol, lambda: BatchTallyAttack(32), 32, inputs,
            **kwargs,
        )
        two_d = run_fast_trials(
            SynRanProtocol, lambda: Batch2DPartition(32), 32, inputs,
            **kwargs,
        )
        assert one_d.engine_kind == "batch"
        assert two_d.engine_kind == "batch2d"
        assert one_d.structural_ok() and two_d.structural_ok()

    def test_batch_mode_is_deterministic(self):
        runs = [
            run_fast_trials(
                SynRanProtocol,
                BatchBenign,
                32,
                lambda rng: [rng.randrange(2) for _ in range(32)],
                trials=6,
                base_seed=3,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_batch_mode_rejects_scalar_adversary(self):
        # A message-level adversary has no counts-level engine.
        with pytest.raises(ConfigurationError):
            run_fast_trials(
                SynRanProtocol,
                BenignAdversary,
                16,
                lambda rng: [1] * 16,
                trials=2,
            )

    def test_batch_stats_refuse_verdict_queries(self):
        stats = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            16,
            lambda rng: [1] * 16,
            trials=2,
        )
        assert not stats.checked
        with pytest.raises(ConfigurationError):
            stats.all_ok()
        assert stats.structural_ok()


def _outcome(index, decision, crashes, timeout=False):
    return TrialOutcome(
        trial_index=index,
        seed=index,
        rounds=3,
        decision_round=None if timeout else 2,
        timeout=timeout,
        crashes=crashes,
        decision=decision,
    )


class TestStructuralCheck:
    """A trial that lost every process has nothing to decide; one whose
    survivors disagree or never decide still fails."""

    def _stats(self, *outcomes, n=4):
        return TrialStats.from_outcomes(outcomes, engine_kind="batch", n=n)

    def test_trial_without_survivor_passes(self):
        assert self._stats(_outcome(0, 1, 2), _outcome(1, None, 4)).structural_ok()

    def test_survivors_without_common_decision_fail(self):
        assert not self._stats(_outcome(0, 1, 2), _outcome(1, None, 3)).structural_ok()

    def test_timeout_fails_even_without_survivor(self):
        assert not self._stats(_outcome(0, None, 4, timeout=True)).structural_ok()

    def test_unknown_n_asks_every_trial_for_a_decision(self):
        assert not self._stats(_outcome(0, None, 4), n=None).structural_ok()

    @pytest.mark.parametrize("engine", ["reference", "batch", "batch2d"])
    def test_budget_of_n_passes_on_every_engine(self, engine):
        # `repro run --n 32 --t 32 --trials 5 --adversary random`: on
        # batch2d, trial 4 crashes all 32 processes.
        spec = TrialSpec(
            protocol="synran", adversary="random", n=32, t=32, engine=engine
        )
        stats = SerialExecutor().run_batch(TrialBatch(spec=spec, trials=5))
        assert stats.n == 32
        if engine == "batch2d":
            assert stats.decisions[4] is None and stats.crashes[4] == 32
        assert stats.structural_ok()
