"""Property-based tests on the system's core invariants (hypothesis).

These complement the unit suites: instead of scripted scenarios, they
drive the engine, protocols, and games with generated inputs and assert
the invariants the paper's definitions demand.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import RandomCrashAdversary, TallyAttackAdversary
from repro.coinflip.control import exhaustive_force_set, force_set
from repro.coinflip.game import hide
from repro.coinflip.games import (
    MajorityDefaultZeroGame,
    MajorityGame,
    ParityGame,
    QuantileGame,
)
from repro.coinflip.library_games import ThresholdGame
from repro.protocols import (
    BenOrProtocol,
    FloodSetProtocol,
    SynRanProtocol,
)
from repro.sim.checks import verify_execution
from repro.sim.engine import Engine

# Engine runs are slow-ish; keep example counts moderate and silence
# the per-example deadline (run times are dominated by n, not by bugs).
engine_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def consensus_instance(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    inputs = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)
    )
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return n, inputs, seed


class TestSynRanInvariants:
    @given(consensus_instance())
    @engine_settings
    def test_consensus_under_random_crashes(self, instance):
        n, inputs, seed = instance
        adv = RandomCrashAdversary(n, rate=0.2, burst_probability=0.1)
        result = Engine(SynRanProtocol(), adv, n, seed=seed).run(inputs)
        verdict = verify_execution(result)
        assert verdict.ok

    @given(consensus_instance())
    @engine_settings
    def test_consensus_under_tally_attack(self, instance):
        n, inputs, seed = instance
        adv = TallyAttackAdversary(n)
        result = Engine(
            SynRanProtocol(), adv, n, seed=seed, strict_termination=False
        ).run(inputs)
        assert verify_execution(result).ok

    @given(consensus_instance(max_n=10))
    @engine_settings
    def test_unanimity_is_sticky(self, instance):
        """Lemma 4.1's premise: unanimous inputs decide that value even
        under crashes (Validity, which subsumes it at round 0)."""
        n, _, seed = instance
        for bit in (0, 1):
            adv = RandomCrashAdversary(n, rate=0.25)
            result = Engine(SynRanProtocol(), adv, n, seed=seed).run(
                [bit] * n
            )
            assert set(result.decisions.values()) <= {bit}


class TestFloodSetInvariants:
    @given(consensus_instance(max_n=10))
    @engine_settings
    def test_consensus_under_random_crashes(self, instance):
        n, inputs, seed = instance
        t = max(0, n - 1)
        adv = RandomCrashAdversary(t, rate=0.2)
        result = Engine(
            FloodSetProtocol.for_resilience(t), adv, n, seed=seed
        ).run(inputs)
        assert verify_execution(result).ok

    @given(consensus_instance(max_n=10))
    @engine_settings
    def test_decision_is_min_of_surviving_knowledge(self, instance):
        n, inputs, seed = instance
        result = Engine(
            FloodSetProtocol.for_resilience(1),
            RandomCrashAdversary(1, rate=0.1),
            n,
            seed=seed,
        ).run(inputs)
        if not result.decisions:
            # The adversary may crash every process (e.g. n = 1,
            # t = 1); the conditions hold vacuously and there is no
            # decision to check.
            return
        decision = verify_execution(result).decision
        assert decision in set(inputs)


class TestBenOrInvariants:
    @given(consensus_instance(max_n=11))
    @engine_settings
    def test_consensus_within_resilience(self, instance):
        n, inputs, seed = instance
        t = max(0, n // 3)
        adv = RandomCrashAdversary(t, rate=0.15)
        result = Engine(
            BenOrProtocol(t=t), adv, n, seed=seed, max_rounds=8 * n + 200
        ).run(inputs)
        assert verify_execution(result).ok


class TestCoinGameInvariants:
    games = st.sampled_from(
        [
            MajorityGame(9),
            MajorityDefaultZeroGame(9),
            ParityGame(9),
            QuantileGame(9, k=3),
            QuantileGame(9, k=4),
            ThresholdGame(9, 5),
        ]
    )

    @given(
        games,
        st.lists(st.integers(0, 1), min_size=9, max_size=9),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=150)
    def test_force_set_witnesses_are_sound(self, game, bits, t):
        for target in range(game.k):
            witness = force_set(game, tuple(bits), target, t)
            if witness is not None:
                assert len(witness) <= t
                assert (
                    game.outcome(hide(tuple(bits), witness)) == target
                )

    @given(
        games,
        st.lists(st.integers(0, 1), min_size=9, max_size=9),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100)
    def test_budget_monotonicity(self, game, bits, t):
        """A witness within budget t is a witness within budget t+1."""
        for target in range(game.k):
            small = force_set(game, tuple(bits), target, t)
            if small is not None:
                big = force_set(game, tuple(bits), target, t + 1)
                assert big is not None

    @given(
        games,
        st.lists(st.integers(0, 1), min_size=9, max_size=9),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=150)
    def test_exact_oracles_are_exact(self, game, bits, t):
        """``None`` only when no hiding set within ``t`` forces the
        target; otherwise a witness of the minimum size."""
        assert game.force_set_exact
        for target in range(game.k):
            witness = game.force_set(tuple(bits), target, t)
            smallest = exhaustive_force_set(game, tuple(bits), target, t)
            if smallest is None:
                assert witness is None
            else:
                assert witness is not None
                assert len(witness) == len(smallest)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=12))
    @settings(max_examples=100)
    def test_outcome_defined_without_hiding(self, bits):
        for game_cls in (MajorityGame, MajorityDefaultZeroGame, ParityGame):
            game = game_cls(len(bits))
            assert game.outcome(tuple(bits)) in (0, 1)


class TestTraceInvariants:
    @given(consensus_instance(max_n=10))
    @engine_settings
    def test_trace_crash_count_matches_result(self, instance):
        n, inputs, seed = instance
        adv = RandomCrashAdversary(n, rate=0.2)
        result = Engine(SynRanProtocol(), adv, n, seed=seed).run(inputs)
        assert result.trace.total_crashes() == len(result.crashed)
        assert result.trace.crashed() == result.crashed

    @given(consensus_instance(max_n=10))
    @engine_settings
    def test_senders_shrink_monotonically(self, instance):
        n, inputs, seed = instance
        adv = RandomCrashAdversary(n, rate=0.2)
        result = Engine(SynRanProtocol(), adv, n, seed=seed).run(inputs)
        prev = None
        for record in result.trace:
            senders = set(record.senders)
            if prev is not None:
                assert senders <= prev
            prev = senders
