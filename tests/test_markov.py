"""Tests for the benign-case Markov analysis, including the analytic
cross-validation of both simulation engines."""

import pytest

from repro.analysis.markov import (
    COIN,
    DECIDE,
    PROPOSE,
    absorption_rounds,
    band_of,
    expected_decision_round,
)
from repro.errors import ConfigurationError
from repro.harness.runner import run_fast_trials, run_reference_trials
from repro.protocols import SynRanProtocol
from repro.sim.batch import BatchBenign


class TestBands:
    def setup_method(self):
        self.proto = SynRanProtocol()

    def test_decide_bands(self):
        n = 20
        assert band_of(self.proto, n, 15) == DECIDE  # > 14
        assert band_of(self.proto, n, 20) == DECIDE
        assert band_of(self.proto, n, 7) == DECIDE  # < 8
        assert band_of(self.proto, n, 0) == DECIDE

    def test_propose_bands(self):
        n = 20
        assert band_of(self.proto, n, 13) == PROPOSE  # (12, 14]
        assert band_of(self.proto, n, 14) == PROPOSE
        assert band_of(self.proto, n, 8) == PROPOSE  # [8, 10)
        assert band_of(self.proto, n, 9) == PROPOSE

    def test_coin_band(self):
        n = 20
        for ones in (10, 11, 12):
            assert band_of(self.proto, n, ones) == COIN

    def test_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            band_of(self.proto, 10, 11)
        with pytest.raises(ConfigurationError):
            band_of(self.proto, 10, -1)


class TestAbsorption:
    def setup_method(self):
        self.proto = SynRanProtocol()

    def test_decide_band_is_two_rounds(self):
        assert absorption_rounds(self.proto, 20, 16) == 2.0

    def test_propose_band_is_three_rounds(self):
        assert absorption_rounds(self.proto, 20, 13) == 3.0

    def test_coin_band_exceeds_three(self):
        value = absorption_rounds(self.proto, 20, 11)
        assert value > 3.0

    def test_coin_band_value_is_band_independent(self):
        # Every coin-band start flips the same binomial.
        a = absorption_rounds(self.proto, 20, 10)
        b = absorption_rounds(self.proto, 20, 12)
        assert a == pytest.approx(b)

    def test_large_n_stays_constant_order(self):
        # The O(1)-benign claim: expected rounds bounded for any n.
        for n in (64, 256, 1024):
            assert absorption_rounds(self.proto, n, int(0.55 * n)) < 8


class TestCrossValidation:
    """The analytic chain must match both engines' Monte-Carlo means."""

    def _analytic(self, n, ones):
        inputs = [1] * ones + [0] * (n - ones)
        return expected_decision_round(SynRanProtocol(), inputs), inputs

    def test_reference_engine_matches(self):
        n, ones = 21, 12
        analytic, inputs = self._analytic(n, ones)
        stats = run_reference_trials(
            SynRanProtocol,
            __import__(
                "repro.adversary", fromlist=["BenignAdversary"]
            ).BenignAdversary,
            n,
            lambda rng: inputs,
            trials=300,
            base_seed=5,
        )
        summary = stats.rounds_summary()
        assert analytic == pytest.approx(
            summary.mean, abs=3.5 * summary.ci95_half_width + 0.05
        )

    def test_fast_engine_matches(self):
        n, ones = 64, 36
        analytic, inputs = self._analytic(n, ones)
        stats = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            n,
            lambda rng: inputs,
            trials=300,
            base_seed=6,
        )
        summary = stats.rounds_summary()
        assert analytic == pytest.approx(
            summary.mean, abs=3.5 * summary.ci95_half_width + 0.05
        )

    def test_unanimous_inputs_exactly(self):
        # Unanimity is deterministic: decide at round 0, STOP at 1.
        for n in (4, 16, 64):
            for bit in (0, 1):
                analytic = expected_decision_round(
                    SynRanProtocol(), [bit] * n
                )
                assert analytic == pytest.approx(1.0)
