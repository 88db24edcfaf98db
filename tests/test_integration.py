"""Integration tests: multi-component scenarios spanning engines,
protocols, adversaries, analysis, and the harness."""

import math
import random

import pytest

from repro._math import adversary_round_budget, deterministic_stage_threshold
from repro.adversary import (
    BenignAdversary,
    ExactValencyAdversary,
    RandomCrashAdversary,
    StaticAdversary,
    TallyAttackAdversary,
)
from repro.analysis.valency import ValencyAnalyzer
from repro.harness.runner import run_fast_trials, run_reference_trials
from repro.harness.workloads import worst_case_split
from repro.protocols import (
    FloodSetProtocol,
    GPHybridProtocol,
    SynRanProtocol,
    make_protocol,
)
from repro.protocols.synran import Stage
from repro.sim.checks import verify_execution
from repro.sim.comm import communication_stats
from repro.sim.engine import Engine
from repro.sim.batch import BatchFastEngine, BatchTallyAttack


class TestPaperAdversaryDiscipline:
    """The Section-3 adversary promises <= 4 sqrt(n log n) + 1 crashes
    per round; our implementable attack must respect the same
    discipline to count as evidence for Theorem 1."""

    def test_tally_attack_stays_within_round_budget(self):
        n = 128
        engine = Engine(
            SynRanProtocol(),
            TallyAttackAdversary(n),
            n,
            seed=11,
            strict_termination=False,
        )
        result = engine.run(worst_case_split(n))
        cap = adversary_round_budget(n) + 1
        assert result.trace.max_crashes_in_a_round() <= cap

    def test_stall_survives_until_near_det_threshold(self):
        n = 128
        engine = Engine(
            SynRanProtocol(),
            TallyAttackAdversary(n),
            n,
            seed=11,
            strict_termination=False,
        )
        result = engine.run(worst_case_split(n))
        survivors = n - len(result.crashed)
        # The attack concedes only around the deterministic threshold.
        assert survivors <= 3 * deterministic_stage_threshold(n)


class TestDeterministicStageScenario:
    """Mass crash drives SynRan through SYNC into the deterministic
    stage; the trace must show the stage progression and agreement."""

    def test_stage_progression_visible_in_states(self):
        n = 40
        # sqrt(n / log n) is ~3.3 here: leave 3 survivors so the
        # hand-off genuinely fires (4 survivors would stay
        # probabilistic and decide via STOP instead).
        kill = 37
        adv = StaticAdversary(t=kill, schedule={1: list(range(kill))})
        engine = Engine(SynRanProtocol(), adv, n, seed=5)
        result = engine.run([i % 2 for i in range(n)])
        assert verify_execution(result).ok
        survivors = [
            result.states[pid]
            for pid in range(n)
            if pid not in result.crashed
        ]
        assert survivors
        assert all(s.stage == Stage.DETERMINISTIC for s in survivors)
        assert all(s.decided for s in survivors)

    def test_decision_matches_flooded_minimum(self):
        n = 40
        kill = 36
        # Crash every 0-holder: survivors all hold 1 -> decide 1.
        zeros = [pid for pid in range(n) if pid % 2 == 0][: kill // 2]
        ones = [pid for pid in range(n) if pid % 2 == 1][
            : kill - len(zeros)
        ]
        adv = StaticAdversary(t=kill, schedule={0: zeros + ones})
        engine = Engine(SynRanProtocol(), adv, n, seed=6)
        inputs = [pid % 2 for pid in range(n)]
        result = engine.run(inputs)
        verdict = verify_execution(result)
        assert verdict.ok
        survivor_bits = {
            inputs[pid] for pid in range(n) if pid not in result.crashed
        }
        assert verdict.decision in survivor_bits


class TestCrossEngineAgreement:
    """The same (protocol config, adversary strategy) measured on both
    engines must tell the same story."""

    def test_stop_fraction_effect_on_both_engines(self):
        n = 64
        inputs = worst_case_split(n)

        def reference_mean(fraction):
            stats = run_reference_trials(
                lambda: SynRanProtocol(stop_fraction=fraction),
                lambda: TallyAttackAdversary(n, stop_fraction=fraction),
                n,
                lambda rng: inputs,
                trials=4,
                base_seed=3,
            )
            return stats.rounds_summary().mean

        def batch_mean(fraction):
            stats = run_fast_trials(
                lambda: SynRanProtocol(stop_fraction=fraction),
                lambda: BatchTallyAttack(n, stop_fraction=fraction),
                n,
                lambda rng: inputs,
                trials=4,
                base_seed=3,
            )
            return stats.rounds_summary().mean

        for engine_mean in (reference_mean, batch_mean):
            strict = engine_mean(0.05)
            lax = engine_mean(0.2)
            assert strict > lax, (
                f"stricter STOP must stall longer ({engine_mean})"
            )


class TestExactVsHeuristicAdversary:
    def test_exact_stall_dominates_on_floodset(self):
        """On FloodSet the decision round is fixed (t+1 rounds), so
        both the optimal and the trivial adversary measure the same —
        a consistency check between the expectimax and the engine."""
        n, t = 3, 1
        analyzer = ValencyAnalyzer(
            FloodSetProtocol.for_resilience(t),
            n,
            budget=t,
            horizon=10,
            objective="rounds",
        )
        predicted = analyzer.max_rounds((0, 1, 1))
        engine = Engine(
            FloodSetProtocol.for_resilience(t),
            ExactValencyAdversary(
                t, FloodSetProtocol.for_resilience(t), n,
                objective="rounds", horizon=10,
            ),
            n,
            seed=0,
        )
        result = engine.run([0, 1, 1])
        assert result.rounds == int(predicted)

    def test_exact_forcing_matches_min_max(self):
        """The engine run under the exact forcing adversary must land
        exactly on the analyzer's min/max probabilities when those are
        0/1 (deterministic control)."""
        n, budget = 3, 2
        analyzer = ValencyAnalyzer(
            SynRanProtocol(), n, budget=budget, horizon=40
        )
        report = analyzer.min_max((0, 1, 1))
        assert report.min_p == 0.0 and report.max_p == 1.0
        for target in (0, 1):
            adv = ExactValencyAdversary(
                budget, SynRanProtocol(), n,
                objective="decide1", target=target, horizon=40,
            )
            for seed in range(4):
                result = Engine(
                    SynRanProtocol(), adv, n, seed=seed
                ).run([0, 1, 1])
                assert verify_execution(result).decision == target


class TestCommunicationIntegration:
    def test_registry_protocols_have_quadratic_rounds(self):
        """Every registered protocol broadcasts: failure-free rounds
        carry exactly n(n-1) deliveries."""
        n = 8
        for name in ("synran", "floodset", "benor"):
            t = 2
            proto = make_protocol(name, n, t)
            engine = Engine(proto, BenignAdversary(), n, seed=2)
            result = engine.run([i % 2 for i in range(n)])
            stats = communication_stats(result.trace)
            assert stats.peak_round == n * (n - 1), name

    def test_gp_hybrid_pays_messages_for_its_tail(self):
        n, t = 16, 15
        gp = Engine(
            GPHybridProtocol.for_resilience(n, t, random_rounds=3),
            BenignAdversary(),
            n,
            seed=4,
        ).run([i % 2 for i in range(n)])
        synran = Engine(
            SynRanProtocol(), BenignAdversary(), n, seed=4
        ).run([i % 2 for i in range(n)])
        assert (
            communication_stats(gp.trace).total_messages
            > 2 * communication_stats(synran.trace).total_messages
        )


class TestSeedReproducibility:
    """A whole experiment cell must replay bit-for-bit: same seeds in,
    same rounds, decisions, and crash schedules out."""

    def test_reference_engine_full_replay(self):
        n = 24
        def run():
            engine = Engine(
                SynRanProtocol(),
                RandomCrashAdversary(n, rate=0.15),
                n,
                seed=99,
            )
            return engine.run(worst_case_split(n))

        a, b = run(), run()
        assert a.decisions == b.decisions
        assert a.crashed == b.crashed
        assert [r.victims for r in a.trace] == [
            r.victims for r in b.trace
        ]

    def test_fast_engine_full_replay(self):
        n = 256
        def run():
            return BatchFastEngine(
                SynRanProtocol(),
                BatchTallyAttack(n),
                n,
                strict_termination=False,
            ).run(worst_case_split(n), [123]).trial(0)

        a, b = run(), run()
        assert a.decision == b.decision
        assert a.crashes_per_round == b.crashes_per_round
