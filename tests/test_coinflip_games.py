"""Tests for the concrete one-round coin-flipping games."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coinflip.control import exhaustive_force_set
from repro.coinflip.game import HIDDEN, hide
from repro.coinflip.games import (
    LeaderGame,
    MajorityDefaultZeroGame,
    MajorityGame,
    ParityGame,
    QuantileGame,
    RandomFunctionGame,
)
from repro.errors import ConfigurationError


bit_vectors = st.lists(
    st.integers(min_value=0, max_value=1), min_size=1, max_size=12
)


class TestHide:
    def test_hides_selected_coordinates(self):
        assert hide((1, 0, 1), {1}) == (1, HIDDEN, 1)

    def test_empty_set_is_identity(self):
        assert hide((1, 0), set()) == (1, 0)


class TestGameConstruction:
    def test_rejects_zero_players(self):
        with pytest.raises(ConfigurationError):
            MajorityGame(0)

    def test_rejects_one_outcome(self):
        with pytest.raises(ConfigurationError):
            QuantileGame(8, k=1)

    def test_rejects_bad_bias(self):
        with pytest.raises(ConfigurationError):
            MajorityGame(4, bias=1.5)

    def test_sample_respects_bias(self):
        game = MajorityGame(2000, bias=0.9)
        values = game.sample(random.Random(1))
        assert sum(values) > 1500


class TestMajorityGame:
    def test_outcome_majority_one(self):
        assert MajorityGame(5).outcome((1, 1, 1, 0, 0)) == 1

    def test_outcome_majority_zero(self):
        assert MajorityGame(5).outcome((1, 0, 0, 0, 1)) == 0

    def test_tie_is_zero(self):
        assert MajorityGame(4).outcome((1, 1, 0, 0)) == 0

    def test_hidden_are_absent(self):
        game = MajorityGame(5)
        assert game.outcome((1, HIDDEN, HIDDEN, HIDDEN, HIDDEN)) == 1

    def test_force_one_hides_zeros(self):
        game = MajorityGame(5)
        values = (1, 1, 0, 0, 0)
        s = game.force_set(values, 1, t=2)
        assert s is not None and len(s) <= 2
        assert game.outcome_of_hidden(values, s) == 1

    def test_force_zero_hides_ones(self):
        game = MajorityGame(5)
        values = (1, 1, 1, 1, 0)
        s = game.force_set(values, 0, t=3)
        assert s is not None
        assert game.outcome_of_hidden(values, s) == 0

    def test_force_impossible_with_tiny_budget(self):
        game = MajorityGame(5)
        assert game.force_set((1, 1, 1, 1, 1), 0, t=1) is None

    @given(bit_vectors, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150)
    def test_oracle_witnesses_are_valid(self, bits, t):
        game = MajorityGame(len(bits))
        for target in (0, 1):
            s = game.force_set(tuple(bits), target, t)
            if s is not None:
                assert len(s) <= t
                assert game.outcome_of_hidden(tuple(bits), s) == target


class TestMajorityDefaultZeroGame:
    def test_hidden_counts_as_zero(self):
        game = MajorityDefaultZeroGame(5)
        assert game.outcome((1, 1, HIDDEN, HIDDEN, HIDDEN)) == 0
        assert game.outcome((1, 1, 1, HIDDEN, HIDDEN)) == 1

    def test_cannot_force_one(self):
        game = MajorityDefaultZeroGame(5)
        assert game.force_set((1, 1, 0, 0, 0), 1, t=5) is None

    def test_force_one_trivial_when_already_one(self):
        game = MajorityDefaultZeroGame(5)
        assert game.force_set((1, 1, 1, 0, 0), 1, t=0) == set()

    def test_force_zero_by_hiding_surplus_ones(self):
        game = MajorityDefaultZeroGame(5)
        values = (1, 1, 1, 1, 0)
        s = game.force_set(values, 0, t=2)
        assert s is not None and len(s) == 2
        assert game.outcome_of_hidden(values, s) == 0

    @given(bit_vectors, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150)
    def test_one_side_bias_invariant(self, bits, t):
        """Forcing 1 is possible iff the game already outputs 1."""
        game = MajorityDefaultZeroGame(len(bits))
        s = game.force_set(tuple(bits), 1, t)
        if game.outcome(tuple(bits)) == 1:
            assert s == set()
        else:
            assert s is None


class TestParityGame:
    def test_outcome_is_xor(self):
        assert ParityGame(4).outcome((1, 1, 0, 1)) == 1
        assert ParityGame(4).outcome((1, 1, 0, 0)) == 0

    def test_hidden_counts_as_zero(self):
        assert ParityGame(3).outcome((1, HIDDEN, 0)) == 1

    def test_single_hiding_flips(self):
        game = ParityGame(4)
        values = (1, 0, 1, 1)
        for target in (0, 1):
            s = game.force_set(values, target, t=1)
            assert s is not None
            assert game.outcome_of_hidden(values, s) == target

    def test_all_zeros_cannot_reach_one(self):
        game = ParityGame(4)
        assert game.force_set((0, 0, 0, 0), 1, t=4) is None


class TestQuantileGame:
    def test_buckets_cover_range(self):
        game = QuantileGame(9, k=3)
        buckets = {game._bucket_of(o) for o in range(10)}
        assert buckets == {0, 1, 2}

    def test_cannot_raise_bucket(self):
        game = QuantileGame(9, k=3)
        values = (1, 1, 0, 0, 0, 0, 0, 0, 0)  # bucket 0
        assert game.force_set(values, 2, t=9) is None

    def test_lower_bucket_exactly(self):
        game = QuantileGame(9, k=3)
        values = (1, 1, 1, 1, 1, 1, 1, 1, 0)  # 8 ones: bucket 2
        s = game.force_set(values, 1, t=4)
        assert s is not None
        assert game.outcome_of_hidden(values, s) == 1

    @given(
        st.lists(st.integers(0, 1), min_size=4, max_size=12),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=150)
    def test_oracle_witnesses_valid(self, bits, t, k):
        game = QuantileGame(len(bits), k=k)
        for target in range(k):
            s = game.force_set(tuple(bits), target, t)
            if s is not None:
                assert len(s) <= t
                assert game.outcome_of_hidden(tuple(bits), s) == target

    @pytest.mark.parametrize("n,k", [(1, 4), (2, 5), (3, 3), (4, 9), (6, 4)])
    def test_oracle_matches_exhaustive_search(self, n, k):
        """Exact on every vector, also when k > n + 1 leaves buckets
        that no 1-count reaches."""
        game = QuantileGame(n, k=k)
        for bits in itertools.product((0, 1), repeat=n):
            for target in range(k):
                for t in range(n + 1):
                    s = game.force_set(bits, target, t)
                    smallest = exhaustive_force_set(game, bits, target, t)
                    assert (s is None) == (smallest is None)
                    if s is not None:
                        assert len(s) == len(smallest)
                        assert game.outcome_of_hidden(bits, s) == target


class TestLeaderGame:
    def test_first_visible_wins(self):
        game = LeaderGame(4)
        assert game.outcome((0, 1, 1, 1)) == 0
        assert game.outcome((HIDDEN, 1, 0, 0)) == 1

    def test_all_hidden_defaults_zero(self):
        game = LeaderGame(3)
        assert game.outcome((HIDDEN, HIDDEN, HIDDEN)) == 0

    def test_force_by_hiding_prefix(self):
        game = LeaderGame(5)
        values = (0, 0, 1, 0, 1)
        s = game.force_set(values, 1, t=2)
        assert s == {0, 1}
        assert game.outcome_of_hidden(values, s) == 1

    def test_force_absent_value(self):
        game = LeaderGame(3)
        assert game.force_set((1, 1, 1), 0, t=2) is None
        assert game.force_set((1, 1, 1), 0, t=3) == {0, 1, 2}


class TestRandomFunctionGame:
    def test_deterministic_given_seed(self):
        a = RandomFunctionGame(6, k=3, seed=9)
        b = RandomFunctionGame(6, k=3, seed=9)
        values = (1, 0, 1, 1, 0, 0)
        assert a.outcome(values) == b.outcome(values)

    def test_different_seeds_differ_somewhere(self):
        a = RandomFunctionGame(6, k=2, seed=1)
        b = RandomFunctionGame(6, k=2, seed=2)
        rng = random.Random(0)
        assert any(
            a.outcome(v) != b.outcome(v)
            for v in (a.sample(rng) for _ in range(50))
        )

    def test_outcomes_in_range(self):
        game = RandomFunctionGame(5, k=4, seed=3)
        rng = random.Random(1)
        for _ in range(50):
            assert 0 <= game.outcome(game.sample(rng)) < 4

    def test_hidden_pattern_changes_outcome_somewhere(self):
        game = RandomFunctionGame(8, k=2, seed=5)
        rng = random.Random(2)
        found = False
        for _ in range(50):
            values = game.sample(rng)
            if game.outcome(values) != game.outcome_of_hidden(values, {0}):
                found = True
                break
        assert found
