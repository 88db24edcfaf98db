"""Per-trial tests for the counts-level BatchFastEngine (one trial per
run, M = 1) and its equivalence to the reference engine under the
silent-crash restriction."""

import math

import numpy as np
import pytest

from repro.adversary import BenignAdversary, TallyAttackAdversary
from repro.errors import BudgetExceededError, ConfigurationError
from repro.protocols import (
    FloodSetProtocol,
    SymmetricRanProtocol,
    SynRanProtocol,
)
from repro.sim.batch import (
    STAGE_PROBABILISTIC,
    BatchBenign,
    BatchFastEngine,
    BatchFastView,
    BatchRandomCrash,
    BatchTallyAttack,
)
from repro.sim.engine import Engine


def run_one(adversary, n, inputs, seed=0, **kwargs):
    """One trial of the counts engine, as a ``FastResult``."""
    engine = BatchFastEngine(SynRanProtocol(), adversary, n, **kwargs)
    return engine.run(inputs, [seed]).trial(0)


class TestConstruction:
    def test_rejects_non_synran_protocol(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(
                FloodSetProtocol.for_resilience(1), BatchBenign(), 4
            )

    def test_accepts_symmetric_subclass(self):
        BatchFastEngine(SymmetricRanProtocol(), BatchBenign(), 4)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(SynRanProtocol(), BatchBenign(), 0)

    def test_rejects_overbudget_adversary(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(SynRanProtocol(), BatchBenign(t=9), 4)

    def test_rejects_non_bit_inputs(self):
        engine = BatchFastEngine(SynRanProtocol(), BatchBenign(), 3)
        with pytest.raises(ConfigurationError):
            engine.run([0, 1, 2], [0])

    def test_rejects_wrong_length(self):
        engine = BatchFastEngine(SynRanProtocol(), BatchBenign(), 3)
        with pytest.raises(ConfigurationError):
            engine.run([0, 1], [0])


class TestBasicRuns:
    def test_unanimous_decides_that_value(self):
        for bit in (0, 1):
            result = run_one(BatchBenign(), 16, [bit] * 16, seed=1)
            assert result.decision == bit
            assert result.terminated

    def test_deterministic_replay(self):
        inputs = [i % 2 for i in range(32)]
        a = run_one(BatchBenign(), 32, inputs, seed=9)
        b = run_one(BatchBenign(), 32, inputs, seed=9)
        assert a.decision_round == b.decision_round
        assert a.decision == b.decision

    def test_crash_accounting(self):
        n = 64
        result = run_one(
            BatchTallyAttack(n), n, [1] * 36 + [0] * 28, seed=2,
            strict_termination=False,
        )
        assert result.crashes_used == sum(result.crashes_per_round)
        assert result.crashes_used <= n
        assert result.survivors == n - result.crashes_used

    def test_bad_adversary_counts_rejected(self):
        class Liar(BatchBenign):
            def choose(self, view):
                return (view.ones + 1, np.zeros_like(view.zeros))

        with pytest.raises(ConfigurationError):
            run_one(Liar(t=0), 4, [1, 1, 0, 0])

    def test_budget_overdraft_rejected(self):
        class Overspender(BatchBenign):
            def __init__(self):
                super().__init__(t=1)

            def choose(self, view):
                return (np.minimum(2, view.ones), np.zeros_like(view.zeros))

        with pytest.raises(BudgetExceededError):
            run_one(Overspender(), 8, [1] * 8)


def _view(round_index, n, ones, zeros, history):
    """A one-trial probabilistic-stage view."""
    trial = lambda value: np.array([value], dtype=np.int64)
    return BatchFastView(
        round_index=round_index,
        n=n,
        stage=np.array([STAGE_PROBABILISTIC], dtype=np.int8),
        senders=trial(ones + zeros),
        ones=trial(ones),
        zeros=trial(zeros),
        tentative=trial(0),
        budget_remaining=trial(2),
        received_history=tuple(trial(h) for h in history),
        active=np.array([True]),
    )


class TestFastView:
    def test_received_count_convention(self):
        view = _view(round_index=2, n=10, ones=5, zeros=3, history=(10, 9))
        assert view.received_count(-1).tolist() == [10]
        assert view.received_count(0).tolist() == [10]
        assert view.received_count(1).tolist() == [9]

    def test_every_negative_index_is_n(self):
        # The paper's N^{-1} = N^0 = n convention extends to any
        # before-the-start index (the bleed rule reads N^{r-3} in
        # rounds 0-2).
        view = _view(round_index=0, n=7, ones=4, zeros=3, history=())
        for j in (-1, -2, -3):
            assert view.received_count(j).tolist() == [7]


class TestEngineEquivalence:
    """The two engines implement the same protocol: identical
    distributions of (decision round, decision) under matched
    adversaries.  Verified by comparing Monte-Carlo means."""

    def _reference_mean(self, n, inputs, seeds):
        rounds, ones = [], 0
        for seed in seeds:
            result = Engine(
                SynRanProtocol(), BenignAdversary(), n, seed=seed
            ).run(inputs)
            rounds.append(result.decision_round)
            ones += 1 if result.common_decision() == 1 else 0
        return sum(rounds) / len(rounds), ones / len(seeds)

    def _batch_mean(self, n, inputs, seeds):
        result = BatchFastEngine(SynRanProtocol(), BatchBenign(), n).run(
            inputs, list(seeds)
        )
        return (
            float(result.decision_round.mean()),
            float((result.decision == 1).mean()),
        )

    def test_benign_distribution_matches(self):
        n = 21
        inputs = [1] * 11 + [0] * 10
        ref_rounds, ref_ones = self._reference_mean(
            n, inputs, range(60)
        )
        fast_rounds, fast_ones = self._batch_mean(n, inputs, range(60))
        assert fast_rounds == pytest.approx(ref_rounds, abs=1.0)
        assert fast_ones == pytest.approx(ref_ones, abs=0.25)

    def test_attack_stall_matches(self):
        n = 32
        inputs = [1] * 18 + [0] * 14
        ref = []
        for seed in range(6):
            result = Engine(
                SynRanProtocol(),
                TallyAttackAdversary(n),
                n,
                seed=seed,
                strict_termination=False,
            ).run(inputs)
            ref.append(result.decision_round)
        fast = BatchFastEngine(
            SynRanProtocol(), BatchTallyAttack(n), n,
            strict_termination=False,
        ).run(inputs, list(range(6))).decision_round
        ref_mean = sum(ref) / len(ref)
        fast_mean = float(fast.mean())
        assert fast_mean == pytest.approx(ref_mean, rel=0.35)


class TestFastAdversaries:
    def test_fast_random_respects_budget(self):
        n = 64
        result = run_one(
            BatchRandomCrash(10, rate=0.5), n, [i % 2 for i in range(n)],
            seed=3, strict_termination=False,
        )
        assert result.crashes_used <= 10

    def test_fast_tally_stalls(self):
        n = 128
        inputs = [1] * 71 + [0] * 57
        benign = run_one(BatchBenign(), n, inputs, seed=4)
        attacked = run_one(
            BatchTallyAttack(n), n, inputs, seed=4,
            strict_termination=False,
        )
        assert attacked.decision_round > 5 * benign.decision_round

    def test_fast_tally_validation(self):
        with pytest.raises(ConfigurationError):
            BatchTallyAttack(4, propose_lo=0.9, propose_hi=0.5)

    def test_scale_run_completes(self):
        n = 4096
        ones = math.ceil(0.55 * n)
        result = run_one(
            BatchTallyAttack(n), n, [1] * ones + [0] * (n - ones), seed=5,
            strict_termination=False,
        )
        assert result.terminated
        assert result.decision in (0, 1)
