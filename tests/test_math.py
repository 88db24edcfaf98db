"""Unit tests for the guarded math helpers in repro._math."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro._math import (
    adversary_round_budget,
    binomial_sum,
    coin_control_budget,
    deterministic_stage_threshold,
    expected_rounds_bound,
    isqrt_ceil,
    lower_bound_rounds,
    safe_log,
    safe_sqrt_log,
)


class TestSafeLog:
    def test_log_of_large_value(self):
        assert safe_log(math.e ** 3) == pytest.approx(3.0)

    def test_clamped_at_floor_below_one(self):
        assert safe_log(0.5) == 0.0

    def test_zero_input_returns_floor_log(self):
        assert safe_log(0.0) == 0.0

    def test_negative_input_returns_floor_log(self):
        assert safe_log(-5.0) == 0.0

    def test_custom_floor(self):
        assert safe_log(2.0, floor=8.0) == pytest.approx(math.log(8.0))


class TestSafeSqrtLog:
    def test_matches_sqrt_log_for_large_n(self):
        assert safe_sqrt_log(1000) == pytest.approx(
            math.sqrt(math.log(1000))
        )

    def test_clamped_for_small_n(self):
        assert safe_sqrt_log(1) == 1.0
        assert safe_sqrt_log(2) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            safe_sqrt_log(0)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_always_at_least_one(self, n):
        assert safe_sqrt_log(n) >= 1.0


class TestAdversaryRoundBudget:
    def test_formula_at_large_n(self):
        n = 4096
        expected = 4.0 * math.sqrt(n * math.log(n))
        assert adversary_round_budget(n) == math.ceil(expected)

    def test_minimum_is_one(self):
        assert adversary_round_budget(1) >= 1

    def test_monotone_in_n(self):
        values = [adversary_round_budget(n) for n in (2, 8, 64, 512, 4096)]
        assert values == sorted(values)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            adversary_round_budget(0)


class TestCoinControlBudget:
    def test_scales_linearly_in_k(self):
        n = 4096
        assert coin_control_budget(n, 4) == pytest.approx(
            4 * coin_control_budget(n, 1), abs=4
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            coin_control_budget(16, 0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            coin_control_budget(0, 2)


class TestDeterministicStageThreshold:
    def test_formula_at_large_n(self):
        n = 10_000
        assert deterministic_stage_threshold(n) == pytest.approx(
            math.sqrt(n / math.log(n))
        )

    def test_positive_for_tiny_n(self):
        for n in (1, 2, 3):
            assert deterministic_stage_threshold(n) > 0

    def test_at_most_sqrt_n(self):
        for n in (1, 4, 100, 10_000):
            assert deterministic_stage_threshold(n) <= math.sqrt(n) + 1e-9

    @given(st.integers(min_value=1, max_value=10 ** 7))
    def test_below_n_for_nontrivial_systems(self, n):
        assert deterministic_stage_threshold(n) <= max(n, 1.0001)


class TestExpectedRoundsBound:
    def test_zero_failures(self):
        assert expected_rounds_bound(100, 0) == 0.0

    def test_constant_regime_small_t(self):
        # t = sqrt(n): the bound is O(1).
        n = 10_000
        assert expected_rounds_bound(n, 100) < 10

    def test_large_t_regime(self):
        n = 10_000
        value = expected_rounds_bound(n, n)
        expected = n / math.sqrt(n * math.log(2 + math.sqrt(n)))
        assert value == pytest.approx(expected)

    def test_monotone_in_t(self):
        n = 1024
        values = [expected_rounds_bound(n, t) for t in range(0, n + 1, 64)]
        assert values == sorted(values)

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            expected_rounds_bound(10, 11)
        with pytest.raises(ValueError):
            expected_rounds_bound(10, -1)


class TestLowerBoundRounds:
    def test_formula(self):
        n, t = 4096, 2048
        expected = t / (4.0 * math.sqrt(n * math.log(n)) + 1.0)
        assert lower_bound_rounds(n, t) == pytest.approx(expected)

    def test_below_upper_bound_shape_asymptotically(self):
        # Theorem 1's shape must not exceed Theorem 3's at t = n for
        # large n (they differ by the sqrt(log) factor).
        n = 2 ** 20
        assert lower_bound_rounds(n, n) <= expected_rounds_bound(n, n)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            lower_bound_rounds(16, 17)


class TestIsqrtCeil:
    def test_perfect_squares(self):
        for k in range(0, 40):
            assert isqrt_ceil(k * k) == k

    def test_non_squares_round_up(self):
        assert isqrt_ceil(2) == 2
        assert isqrt_ceil(5) == 3
        assert isqrt_ceil(99) == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            isqrt_ceil(-1)

    @given(st.integers(min_value=0, max_value=10 ** 12))
    def test_is_ceiling_of_sqrt(self, x):
        r = isqrt_ceil(x)
        assert r * r >= x
        assert (r - 1) * (r - 1) < x or r == 0


class TestBinomialSum:
    # The per-term reference sum is the slow side at n near 3000.
    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(min_value=0, max_value=3000),
        lo=st.integers(min_value=-5, max_value=3005),
        width=st.integers(min_value=-5, max_value=3005),
    )
    def test_equals_per_term_comb_sum(self, n, lo, width):
        hi = lo + width
        expected = sum(
            math.comb(n, i) for i in range(max(lo, 0), min(hi, n) + 1)
        )
        assert binomial_sum(n, lo, hi) == expected

    def test_full_range_is_two_to_the_n(self):
        assert binomial_sum(64, 0, 64) == 2**64

    def test_e3_exact_tails_at_n_16384(self):
        # E3's full-scale exact column, computed with the per-term
        # math.comb sum this helper replaced.
        from repro.analysis.deviation import (
            corollary45_threshold,
            exact_deviation_probability,
        )

        n = 16384
        root = math.sqrt(n)
        assert [
            exact_deviation_probability(n, t * root)
            for t in (0.25, 0.5, 0.75, 1.0)
        ] == [
            0.31129407064554687,
            0.1605530537540435,
            0.06782377925248051,
            0.02317359484685994,
        ]
        assert (
            exact_deviation_probability(n, corollary45_threshold(n))
            == 0.219632219654398
        )
