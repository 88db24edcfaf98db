"""Differential tests: the reference and counts-level engines must agree
exactly on coin-free executions.

When no process ever reaches the coin band (unanimous inputs, or
tallies that never enter the window), the execution is a deterministic
function of the inputs and the crash schedule — so the message-level
reference engine and :class:`BatchFastEngine` (run here one trial at a
time, M = 1) must produce *identical* results, not merely the same
distribution.  This pins the two implementations of the cascade,
the STOP rule, the hand-off, and the deterministic stage against each
other, branch by branch.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro._math import deterministic_stage_threshold
from repro.adversary import StaticAdversary
from repro.protocols import SynRanProtocol
from repro.sim.batch import BatchFastAdversary, BatchFastEngine
from repro.sim.engine import Engine


class ScriptedBatchAdversary(BatchFastAdversary):
    """Counts adversary that kills scripted counts per round,
    matching a reference-engine silent StaticAdversary."""

    name = "scripted-batch"

    def __init__(self, t, kills_per_round):
        super().__init__(t)
        self.kills_per_round = dict(kills_per_round)

    def choose(self, view):
        # Counts must match what the scripted reference schedule
        # kills among each bit class this round.
        k1, k0 = self.kills_per_round.get(view.round_index, (0, 0))
        return (np.minimum(k1, view.ones), np.minimum(k0, view.zeros))


def _matched_adversaries(n, kills, inputs):
    """Build (reference StaticAdversary, ScriptedBatchAdversary) that
    crash the same bit-classes in the same rounds.

    ``kills`` maps round -> (kill_ones, kill_zeros).  Victims for the
    reference schedule are chosen in pid order within each class
    (which victims die is immaterial under uniform views).  Only valid while bits
    equal inputs (round 0) or unanimity (later) — i.e. for coin-free
    executions, which is what these tests run.
    """
    total = sum(a + b for a, b in kills.values())
    # For unanimous inputs every sender has the same bit, so a silent
    # schedule just needs the right *count* in pid order among
    # survivors; precompute pids lazily is impossible statically, so
    # tests only use round-0 kills for mixed checks and unanimous
    # inputs for multi-round ones.
    schedule = {}
    remaining_ones = [i for i, b in enumerate(inputs) if b == 1]
    remaining_zeros = [i for i, b in enumerate(inputs) if b == 0]
    for r in sorted(kills):
        k1, k0 = kills[r]
        victims = remaining_ones[:k1] + remaining_zeros[:k0]
        remaining_ones = remaining_ones[k1:]
        remaining_zeros = remaining_zeros[k0:]
        if victims:
            schedule[r] = list(victims)
    return (
        StaticAdversary(t=total, schedule=schedule),
        ScriptedBatchAdversary(total, kills),
    )


def run_both(n, inputs, kills, seed=0):
    ref_adv, counts_adv = _matched_adversaries(n, kills, inputs)
    ref = Engine(
        SynRanProtocol(), ref_adv, n, seed=seed,
        strict_termination=False,
    ).run(inputs)
    fast = BatchFastEngine(
        SynRanProtocol(), counts_adv, n, strict_termination=False,
    ).run(inputs, [seed]).trial(0)
    return ref, fast


class TestUnanimousDifferential:
    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=10),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_round0_mass_kill(self, n, bit, kill):
        kill = min(kill, n - 1)
        inputs = [bit] * n
        kills = {0: (kill, 0) if bit == 1 else (0, kill)}
        ref, fast = run_both(n, inputs, kills)
        assert ref.decision_round == fast.decision_round
        assert ref.common_decision() == fast.decision

    def test_kill_into_deterministic_stage(self):
        n = 30
        threshold = deterministic_stage_threshold(n)
        kill = n - max(1, int(threshold) - 1)
        inputs = [1] * n
        ref, fast = run_both(n, inputs, {1: (kill, 0)})
        assert ref.decision_round == fast.decision_round
        assert ref.common_decision() == fast.decision == 1

    def test_staggered_drip(self):
        n = 20
        inputs = [0] * n
        kills = {r: (0, 1) for r in range(0, 12, 2)}
        ref, fast = run_both(n, inputs, kills)
        assert ref.decision_round == fast.decision_round
        assert ref.common_decision() == fast.decision == 0


class TestMixedCoinFreeDifferential:
    def test_decide_band_inputs(self):
        # 80% ones: decide band, no coins ever.
        n = 20
        inputs = [1] * 16 + [0] * 4
        ref, fast = run_both(n, inputs, {})
        assert ref.decision_round == fast.decision_round == 1
        assert ref.common_decision() == fast.decision == 1

    def test_propose_band_inputs(self):
        # 65% ones: propose band -> unanimity -> decide: 3 rounds.
        n = 20
        inputs = [1] * 13 + [0] * 7
        ref, fast = run_both(n, inputs, {})
        assert ref.decision_round == fast.decision_round == 2
        assert ref.common_decision() == fast.decision == 1

    def test_round0_trim_through_bands(self):
        # Start at 16 ones (decide band); kill 3 ones silently in
        # round 0 so survivors see 13 of prev 20 — strictly inside the
        # propose-1 band (12 exactly would hit the strict > boundary
        # and fall into the coin band) — exercising the
        # adversary-shifted band logic identically in both engines.
        n = 20
        inputs = [1] * 16 + [0] * 4
        ref, fast = run_both(n, inputs, {0: (3, 0)})
        assert ref.decision_round == fast.decision_round
        assert ref.common_decision() == fast.decision == 1
