"""Pin the coin games' draws and estimates.

Two gates keep the Monte-Carlo estimates of E1/E2 byte-identical
across changes to how a vector is drawn or counted:

* a differential test: ``sample`` returns the vector the per-player
  loop ``1 if rng.random() < bias else 0`` would, and leaves the
  generator in the same state;
* goldens: exact ``per_outcome`` tuples at budgets where the estimates
  lie strictly inside (0, 1), and the rows of E2's quick table.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coinflip.control import find_controllable_outcome
from repro.coinflip.games import (
    MajorityDefaultZeroGame,
    MajorityGame,
    ParityGame,
    QuantileGame,
)
from repro.coinflip.library_games import ThresholdGame
from repro.harness.experiments import experiment_e2_one_side_bias

biases = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 0.9, 1.0 - 2.0 ** -53]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestSampleMatchesPerPlayerLoop:
    @given(
        n=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
        bias=biases,
    )
    @settings(max_examples=200, deadline=None)
    def test_same_vector_and_generator_state(self, n, seed, bias):
        rng, ref = random.Random(seed), random.Random(seed)
        values = MajorityGame(n, bias=bias).sample(rng)
        expected = tuple(1 if ref.random() < bias else 0 for _ in range(n))
        assert values == expected
        assert all(type(v) is int for v in values)
        assert rng.getstate() == ref.getstate()

    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
        j=st.integers(min_value=0, max_value=299),
        above=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bias_at_a_drawn_value(self, n, seed, j, above):
        """A bias equal to player ``j``'s draw, or one ulp above it, puts
        the threshold exactly at that draw, so every low bit counts."""
        ref = random.Random(seed)
        draws = [ref.random() for _ in range(n)]
        bias = draws[j % n]
        if above:
            bias = math.nextafter(bias, 1.0)
        values = MajorityGame(n, bias=bias).sample(random.Random(seed))
        assert values == tuple(1 if u < bias else 0 for u in draws)

    def test_consecutive_draws_continue_the_stream(self):
        rng, ref = random.Random(5), random.Random(5)
        game = QuantileGame(37, k=3, bias=0.4)
        for _ in range(3):
            expected = tuple(
                1 if ref.random() < 0.4 else 0 for _ in range(37)
            )
            assert game.sample(rng) == expected
        assert rng.random() == ref.random()


#: (label, t, trials) -> per_outcome, captured with the per-player
#: sampler above and generator-sum counting oracles.
GOLDENS = {
    ("MajorityGame(1025)", 1, 150): (0.5, 0.5333333333333333),
    ("MajorityGame(1025)", 7, 150): (0.5733333333333334, 0.62),
    ("MajorityGame(1025)", 16, 150): (0.7333333333333333, 0.6866666666666666),
    ("MajorityGame(1025)", 40, 150): (0.88, 0.9),
    ("MajorityDefaultZeroGame(1025)", 1, 150): (0.5, 0.5333333333333333),
    ("MajorityDefaultZeroGame(1025)", 7, 150): (0.6133333333333333, 0.52),
    ("MajorityDefaultZeroGame(1025)", 16, 150): (0.86, 0.48),
    ("MajorityDefaultZeroGame(1025)", 40, 150): (1.0, 0.47333333333333333),
    ("ParityGame(64)", 0, 300): (0.51, 0.49666666666666665),
    ("ParityGame(64, bias=0.02)", 1, 300): (1.0, 0.7133333333333334),
    ("QuantileGame(4097, k=4)", 1, 60): (
        0.0, 0.48333333333333334, 0.48333333333333334, 0.0,
    ),
    ("QuantileGame(4097, k=4)", 7, 60): (0.0, 0.5, 0.5333333333333333, 0.0),
    ("QuantileGame(4097, k=4)", 16, 60): (
        0.0, 0.6333333333333333, 0.6166666666666667, 0.0,
    ),
    ("QuantileGame(4097, k=4)", 40, 60): (0.0, 0.85, 0.45, 0.0),
    ("QuantileGame(101, k=3)", 7, 150): (0.013333333333333334, 1.0, 0.0),
    ("QuantileGame(101, k=3)", 12, 150): (0.14666666666666667, 1.0, 0.0),
    ("QuantileGame(101, k=3)", 16, 150): (0.41333333333333333, 1.0, 0.0),
    ("QuantileGame(101, k=3)", 20, 150): (0.7466666666666667, 1.0, 0.0),
    ("ThresholdGame(513, 257)", 1, 150): (0.54, 0.4866666666666667),
    ("ThresholdGame(513, 257)", 7, 150): (0.7, 0.4533333333333333),
    ("ThresholdGame(513, 257)", 16, 150): (0.94, 0.44666666666666666),
    ("ThresholdGame(513, 257)", 40, 150): (1.0, 0.5),
    ("MajorityGame(301, bias=0.45)", 7, 150): (
        0.9866666666666667, 0.08666666666666667,
    ),
    ("MajorityGame(301, bias=0.45)", 40, 150): (1.0, 0.7466666666666667),
}

GAMES = {
    "MajorityGame(1025)": lambda: MajorityGame(1025),
    "MajorityDefaultZeroGame(1025)": lambda: MajorityDefaultZeroGame(1025),
    "ParityGame(64)": lambda: ParityGame(64),
    "ParityGame(64, bias=0.02)": lambda: ParityGame(64, bias=0.02),
    "QuantileGame(4097, k=4)": lambda: QuantileGame(4097, k=4),
    "QuantileGame(101, k=3)": lambda: QuantileGame(101, k=3),
    "ThresholdGame(513, 257)": lambda: ThresholdGame(513, 257),
    "MajorityGame(301, bias=0.45)": lambda: MajorityGame(301, bias=0.45),
}


class TestControlGoldens:
    @pytest.mark.parametrize("label,t,trials", sorted(GOLDENS))
    def test_per_outcome_is_pinned(self, label, t, trials):
        report = find_controllable_outcome(
            GAMES[label](), t, trials=trials, rng=random.Random(1000 + t)
        )
        assert report.per_outcome == GOLDENS[(label, t, trials)]

    def test_e2_quick_rows_are_pinned(self):
        assert experiment_e2_one_side_bias("quick").rows == [
            (256, 151, 1.0, 0.515, 0.47509044503192993),
            (1024, 337, 1.0, 0.495, 0.48753609705351025),
        ]
