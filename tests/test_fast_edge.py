"""Edge-path tests for the counts-level BatchFastEngine and its
adversaries, one trial per run (M = 1)."""

import numpy as np
import pytest

from repro._math import deterministic_stage_threshold
from repro.adversary.oblivious import calibrated_drip_schedule
from repro.errors import ConfigurationError, TerminationViolation
from repro.protocols import SynRanProtocol
from repro.sim.batch import (
    BatchBenign,
    BatchFastEngine,
    BatchOblivious,
    BatchRandomCrash,
    BatchTallyAttack,
)


def run_one(adversary, n, inputs, seed=0, **kwargs):
    """One trial of the counts engine, as a ``FastResult``."""
    engine = BatchFastEngine(SynRanProtocol(), adversary, n, **kwargs)
    return engine.run(inputs, [seed]).trial(0)


def _split(k, view):
    """``k`` kills, 1-senders first, as a one-trial count pair."""
    k1 = np.minimum(k, view.ones)
    return (k1, np.minimum(k - k1, view.zeros))


class TestStrictTermination:
    def test_strict_raises_on_horizon(self):
        # Mixed inputs with max_rounds=1 cannot decide in time.
        with pytest.raises(TerminationViolation):
            run_one(
                BatchBenign(), 16, [1] * 9 + [0] * 7,
                max_rounds=1, strict_termination=True,
            )

    def test_lenient_flags_instead(self):
        result = run_one(
            BatchBenign(), 16, [1] * 9 + [0] * 7,
            max_rounds=1, strict_termination=False,
        )
        assert not result.terminated
        assert result.decision_round is None
        assert result.rounds == 1


class TestDeterministicStagePath:
    def test_mass_kill_reaches_det_stage_and_agrees(self):
        n = 64
        threshold = deterministic_stage_threshold(n)
        kill = n - max(1, int(threshold) - 1)

        class Burst(BatchBenign):
            def __init__(self):
                super().__init__(t=kill)

            def choose(self, view):
                return _split(kill if view.round_index == 1 else 0, view)

        result = run_one(Burst(), n, [1] * n, seed=3)
        assert result.terminated
        assert result.decision == 1

    def test_kill_during_det_stage(self):
        """Crashes continuing into the flood must not break agreement
        or termination in the counts engine."""
        n = 64
        threshold = int(deterministic_stage_threshold(n))

        class BurstThenDrip(BatchBenign):
            def __init__(self):
                super().__init__(t=n - 1)
                self.spent = 0

            def choose(self, view):
                senders = int(view.senders[0])
                if view.round_index == 1:
                    k = n - threshold + 1
                elif senders > 2:
                    k = 1
                else:
                    k = 0
                k = min(k, self.t - self.spent, max(0, senders - 1))
                self.spent += k
                return _split(k, view)

        result = run_one(
            BurstThenDrip(), n, [1] * n, seed=4, strict_termination=False
        )
        assert result.terminated
        assert result.decision == 1


class TestFastOblivious:
    def test_from_schedule_matches_budget(self):
        n = 128
        adv = BatchOblivious.from_schedule(n, calibrated_drip_schedule)
        result = run_one(
            adv, n, [1] * 71 + [0] * 57, seed=1, strict_termination=False
        )
        assert result.terminated
        assert result.crashes_used <= n

    def test_calibrated_stalls_like_reference(self):
        """The calibrated oblivious run matches the reference-engine
        stall magnitude (same deterministic count recursion)."""
        n = 128
        adv = BatchOblivious.from_schedule(n, calibrated_drip_schedule)
        result = run_one(
            adv, n, [1] * 71 + [0] * 57, seed=1, strict_termination=False
        )
        assert result.decision_round > 15

    def test_overbudget_plan_rejected(self):
        adv = BatchOblivious(1, lambda n, t, rng: {0: 5})
        with pytest.raises(ConfigurationError):
            run_one(adv, 8, [1] * 8)

    def test_plan_clamped_to_senders(self):
        # A plan killing more than the survivors simply clamps; the
        # run still terminates.
        adv = BatchOblivious(7, lambda n, t, rng: {0: 7})
        result = run_one(adv, 8, [1] * 8, strict_termination=False)
        assert result.terminated
        assert result.survivors >= 1


class TestSendersPerRound:
    def test_tracked_and_monotone(self):
        n = 64
        result = run_one(
            BatchTallyAttack(n), n, [1] * 36 + [0] * 28, seed=5,
            strict_termination=False,
        )
        senders = result.senders_per_round
        assert len(senders) == result.rounds
        assert senders[0] == n
        assert senders == sorted(senders, reverse=True)
        # The population shrinks by exactly the crashes (no halts
        # until the very end of a stalled run).
        for r in range(1, len(senders)):
            drop = senders[r - 1] - senders[r]
            assert drop >= result.crashes_per_round[r - 1]


class TestFastRandomCrashTrimLoop:
    def test_trims_to_budget_when_rate_is_high(self):
        n = 64
        result = run_one(
            BatchRandomCrash(5, rate=1.0), n, [1] * n, seed=2,
            strict_termination=False,
        )
        assert result.crashes_used <= 5
        assert result.terminated
