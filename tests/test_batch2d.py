"""Differential + semantic gates for the two-axis (M, n) engine.

Four tiers, matching the engine's parity contract:

* **Exact 1-D/2-D agreement.**  A counts-form adversary lifted via
  ``Batch2DCounts`` must produce **bit-for-bit** the trajectories of
  ``BatchFastEngine`` — coin rounds included, because the 2-D engine
  assigns flip rank ``j`` the ``j``-th bit of the round's word block,
  the exact bit set ``fair_binomial`` popcounts.  Checked for every
  ported adversary under every batch-realised fault model (crash,
  send-omission, late), seed for seed, on coin-flipping mixed inputs,
  at a one-word (n = 48) and a three-word (n = 130) coin block.

* **Mask semantics.**  After-send victims with an empty recipient mask
  are behaviourally identical to silent victims; with a full recipient
  mask their last message lands everywhere first, which changes the
  trajectory.  Plus the budget, stray-target, and invalid-counts
  sanitizers.

* **Mask-path goldens.**  Split-delivery runs have no 1-D reference,
  so exact recorded results pin them.

* **Budget invariants.**  A Hypothesis property: no adversary/fault
  combination ever reports ``crashes_used > t`` for any trial.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BudgetExceededError, ConfigurationError
from repro.faultmodels.late import LateFaultModel
from repro.protocols import SynRanProtocol
from repro.sim.batch import (
    BatchBenign,
    BatchFastEngine,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)
from repro.sim.batch2d import (
    Batch2DAdversary,
    Batch2DCounts,
    Batch2DDecision,
    Batch2DEngine,
    Batch2DPartition,
)


def _mixed_inputs(n):
    return [i % 2 for i in range(n)]


_RESULT_FIELDS = (
    "rounds",
    "decision_round",
    "decision",
    "crashes_used",
    "survivors",
    "terminated",
    "crashes_per_round",
    "senders_per_round",
)


def _assert_results_equal(a, b, label=""):
    for field in _RESULT_FIELDS:
        fa, fb = getattr(a, field), getattr(b, field)
        assert np.array_equal(fa, fb), f"{label}: {field} diverged"


_ADVERSARIES = {
    "benign": lambda t: BatchBenign(),
    "random": lambda t: BatchRandomCrash(t, rate=0.1),
    "tally-attack": lambda t: BatchTallyAttack(t),
    "valency-keeper": lambda t: BatchValencyKeeper(t),
}

_FAULT_MODELS = {
    "crash": None,
    "send-omission": "send-omission",
    "late": LateFaultModel(lag=1),
}


#: Widths for the exact gates: n = 48 fits one 64-bit coin word per
#: round; n = 130 spans three, so flip ranks >= 64 read later words.
#: The one-word cases keep their unsuffixed ids.
_EXACT_CASES = [
    pytest.param(
        name, fault, n, id=f"{name}-{fault}" + ("" if n == 48 else f"-n{n}")
    )
    for n in (48, 130)
    for name in sorted(_ADVERSARIES)
    for fault in sorted(_FAULT_MODELS)
]


class TestExact1D2DAgreement:
    """Every ported adversary x every batch fault model x both coin
    widths: the lifted 2-D run equals the 1-D run bit-for-bit, coins
    and histories included."""

    M = 16
    N = 48
    T = 16

    @pytest.mark.parametrize("name,fault,n", _EXACT_CASES)
    def test_lifted_counts_adversary_is_bit_identical(self, name, fault, n):
        seeds = list(range(self.M))
        inputs = _mixed_inputs(n)
        model = _FAULT_MODELS[fault]
        t = n // 3
        one_d = BatchFastEngine(
            SynRanProtocol(),
            _ADVERSARIES[name](t),
            n,
            fault_model=model,
            strict_termination=False,
        ).run(inputs, seeds)
        two_d = Batch2DEngine(
            SynRanProtocol(),
            Batch2DCounts(_ADVERSARIES[name](t)),
            n,
            fault_model=model,
            strict_termination=False,
        ).run(inputs, seeds)
        _assert_results_equal(one_d, two_d, f"{name}/{fault}/n={n}")

    def test_per_trial_input_matrix(self):
        # (M, n) inputs: trial i flips the parity of trial 0's vector.
        seeds = list(range(8))
        base = np.array(_mixed_inputs(self.N), dtype=np.int8)
        mat = np.stack([base ^ (i % 2) for i in range(8)])
        one_d = BatchFastEngine(
            SynRanProtocol(),
            BatchTallyAttack(self.T),
            self.N,
            strict_termination=False,
        ).run(mat, seeds)
        two_d = Batch2DEngine(
            SynRanProtocol(),
            Batch2DCounts(BatchTallyAttack(self.T)),
            self.N,
            strict_termination=False,
        ).run(mat, seeds)
        _assert_results_equal(one_d, two_d, "tally-attack/matrix")


# ----------------------------------------------------------------------
# Mask semantics
# ----------------------------------------------------------------------


class _OneShotMask(Batch2DAdversary):
    """Round-0 mask injection: ``k`` victims (lowest pids), either
    silent or after-send with a fixed recipient prefix."""

    name = "test-one-shot-mask"

    def __init__(self, t, k, *, silent, recipient_cut):
        super().__init__(t)
        self.k = k
        self.silent_kind = silent
        self.recipient_cut = recipient_cut

    def choose(self, view):
        M, n = view.senders.shape
        mask = np.zeros((M, n), dtype=bool)
        if view.round_index == 0:
            mask[:, : self.k] = view.senders[:, : self.k]
        if self.silent_kind:
            return Batch2DDecision.masks(silent=mask)
        recipients = np.zeros((M, n), dtype=bool)
        recipients[:, : self.recipient_cut] = True
        return Batch2DDecision.masks(
            silent=np.zeros((M, n), dtype=bool),
            after_send=mask,
            recipients=recipients,
        )


class _PeriodicSplit(Batch2DAdversary):
    """Tally-attack counts rounds with a split mask round every fifth.

    On a split round, the first sender of each trial with budget left
    is an after-send victim heard only by pids below ``n // 3``, so the
    round's receivers tally different counts.  The four counts rounds
    in between are long enough for the split to leave the three-round
    tally history before the next one.
    """

    name = "test-periodic-split"

    def __init__(self, t):
        super().__init__(t)
        self.inner = BatchTallyAttack(t)

    def reset(self, n, seeds):
        self.inner.reset(n, seeds)

    def choose(self, view):
        if view.round_index % 5:
            k1, k0 = self.inner.choose(view.counts_view())
            return Batch2DDecision.counts(k1, k0)
        M, n = view.senders.shape
        room = view.active & (view.budget_remaining > 0)
        first = view.senders & (np.cumsum(view.senders, axis=1) == 1)
        recipients = np.zeros((M, n), dtype=bool)
        recipients[:, : n // 3] = True
        return Batch2DDecision.masks(
            silent=np.zeros((M, n), dtype=bool),
            after_send=first & room[:, None],
            recipients=recipients,
        )


class TestMaskSemantics:
    N = 16
    SEEDS = list(range(6))

    def _run(self, adv, n=None):
        n = n or self.N
        return Batch2DEngine(
            SynRanProtocol(), adv, n, strict_termination=False
        ).run([1] * n, self.SEEDS)

    def test_empty_recipients_equals_silent(self):
        # An after-send victim nobody hears from is a silent victim.
        k = 4
        silent = self._run(_OneShotMask(self.N, k, silent=True, recipient_cut=0))
        empty = self._run(
            _OneShotMask(self.N, k, silent=False, recipient_cut=0)
        )
        _assert_results_equal(silent, empty, "empty-recipients")

    def test_full_recipients_changes_trajectory(self):
        # With the mask wide open the victims' last messages land, so
        # the survivors tally n (not n-k) in round 0 and the run takes
        # a different path than the silent kill.
        k = 4
        silent = self._run(_OneShotMask(self.N, k, silent=True, recipient_cut=0))
        full = self._run(
            _OneShotMask(self.N, k, silent=False, recipient_cut=self.N)
        )
        assert not np.array_equal(silent.rounds, full.rounds) or not (
            np.array_equal(silent.decision_round, full.decision_round)
            and np.array_equal(
                silent.senders_per_round, full.senders_per_round
            )
        )
        # Both runs crash the same processes, so budgets agree.
        assert np.array_equal(silent.crashes_used, full.crashes_used)
        assert (silent.crashes_used == k).all()

    def test_partition_respects_budget_and_decides(self):
        n, t = 32, 8
        result = Batch2DEngine(
            SynRanProtocol(),
            Batch2DPartition(t),
            n,
            strict_termination=False,
        ).run(_mixed_inputs(n), list(range(12)))
        assert (result.crashes_used <= t).all()
        assert result.terminated.all()

    def test_partition_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            Batch2DPartition(4, fraction=1.5)


# ----------------------------------------------------------------------
# Mask-path goldens
# ----------------------------------------------------------------------

#: ``(adversary, fault, n) -> (digest, rows)`` for 8 trials (seeds
#: 0..7) on mixed inputs.  ``digest`` is :func:`_result_digest` of the
#: whole :class:`BatchResult`; each row is one trial's ``[rounds,
#: decision_round, decision, crashes_used, survivors, terminated]`` so
#: a mismatch says where it starts.  Mask-form decisions have no 1-D
#: counterpart to diff against, so these values pin them instead.
MASK_GOLDENS = {
    ("partition", "crash", 48): (
        "392c8d4c4f05e90039d9889d01b592e5c5c569e0bae6376397448938a0301a72",
        [
            [7, 6, 0, 7, 41, 1],
            [15, 14, 0, 12, 36, 1],
            [4, 3, 0, 4, 44, 1],
            [4, 3, 0, 4, 44, 1],
            [4, 3, 0, 4, 44, 1],
            [4, 3, 0, 4, 44, 1],
            [4, 3, 0, 4, 44, 1],
            [3, 2, 0, 3, 45, 1],
        ],
    ),
    ("partition", "crash", 130): (
        "d43ddd5a01f5576d97ddc9865e6c95288e924b0c4be961a91542ee1b45c70967",
        [
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
            [4, 3, 0, 4, 126, 1],
        ],
    ),
    ("partition", "late", 48): (
        "cc5458ed73c8d723fd28ed5625597b90867586147b41391eba04d6dc98512be4",
        [
            [5, 4, 0, 3, 45, 1],
            [5, 4, 0, 3, 45, 1],
            [4, 3, 0, 2, 46, 1],
            [4, 3, 0, 2, 46, 1],
            [4, 3, 0, 2, 46, 1],
            [5, 4, 0, 3, 45, 1],
            [4, 3, 0, 2, 46, 1],
            [3, 2, 0, 2, 46, 1],
        ],
    ),
    ("partition", "late", 130): (
        "eb1b34a1ed3929fb7c95078d0e2f3b29dfee70640e751ce0e28fa87b1f0b63e8",
        [
            [4, 3, 0, 2, 128, 1],
            [4, 3, 0, 2, 128, 1],
            [4, 3, 0, 2, 128, 1],
            [4, 3, 0, 2, 128, 1],
            [4, 3, 0, 2, 128, 1],
            [5, 4, 0, 3, 127, 1],
            [4, 3, 0, 2, 128, 1],
            [4, 3, 0, 2, 128, 1],
        ],
    ),
    ("partition", "send-omission", 48): (
        "85393202907491a16345ffb7628c35e1ecd6a4a1fbb473ce3f91dcbb5ee97ec3",
        [
            [5, 4, 0, 1, 48, 1],
            [5, 4, 0, 1, 48, 1],
            [4, 3, 0, 1, 48, 1],
            [4, 3, 0, 1, 48, 1],
            [4, 3, 0, 1, 48, 1],
            [5, 4, 0, 1, 48, 1],
            [8, 7, 0, 1, 48, 1],
            [3, 2, 0, 1, 48, 1],
        ],
    ),
    ("partition", "send-omission", 130): (
        "6071dd526bb2983277dd3d901978cf11ad67564d6d9069243957520b3393a6f5",
        [
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
            [4, 3, 0, 1, 130, 1],
        ],
    ),
    ("periodic-split", "crash", 48): (
        "c500d2d456675f9256bae20680c2d996d8836c45eb414d73896f6682ad717cb4",
        [
            [16, 15, 0, 17, 31, 1],
            [11, 10, 0, 13, 35, 1],
            [16, 15, 0, 21, 27, 1],
            [16, 15, 0, 21, 27, 1],
            [16, 15, 0, 21, 27, 1],
            [11, 10, 0, 13, 35, 1],
            [16, 15, 0, 21, 27, 1],
            [6, 5, 0, 7, 41, 1],
        ],
    ),
    ("periodic-split", "crash", 130): (
        "7270e25be3776c0f3821292988b69d21222f85943a776f91516988e7729645ea",
        [
            [16, 15, 0, 49, 81, 1],
            [16, 15, 0, 49, 81, 1],
            [16, 15, 0, 49, 81, 1],
            [16, 15, 0, 49, 81, 1],
            [16, 15, 0, 49, 81, 1],
            [11, 10, 0, 28, 102, 1],
            [16, 15, 0, 49, 81, 1],
            [16, 15, 0, 49, 81, 1],
        ],
    ),
    ("periodic-split", "late", 48): (
        "d10c83e91ab89692615a6b9066fe0af270009e7eecf4d803aa53c3402b8f0a48",
        [
            [7, 6, 0, 2, 46, 1],
            [5, 4, 0, 1, 47, 1],
            [4, 3, 0, 1, 47, 1],
            [4, 3, 0, 1, 47, 1],
            [4, 3, 0, 1, 47, 1],
            [5, 4, 0, 1, 47, 1],
            [4, 3, 0, 1, 47, 1],
            [3, 2, 0, 1, 47, 1],
        ],
    ),
    ("periodic-split", "late", 130): (
        "159cd6760ca86147d0728add17fbab9c8aa5976828d82a26765955176a8d38d1",
        [
            [4, 3, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
            [5, 4, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
            [4, 3, 0, 1, 129, 1],
        ],
    ),
    ("periodic-split", "send-omission", 48): (
        "5efe60620d2f2ea65ae2ebe86384cefe8d878266230ed4580666f3b77c06c813",
        [
            [11, 10, 0, 5, 48, 1],
            [6, 5, 0, 5, 48, 1],
            [6, 5, 0, 6, 48, 1],
            [6, 5, 0, 6, 48, 1],
            [6, 5, 0, 6, 48, 1],
            [6, 5, 0, 5, 48, 1],
            [6, 5, 0, 6, 48, 1],
            [6, 5, 0, 6, 48, 1],
        ],
    ),
    ("periodic-split", "send-omission", 130): (
        "d315a00fc6ccd5682958aba92dccc3d26787896569f7af3ec6ebf2423fad427b",
        [
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 14, 130, 1],
            [6, 5, 0, 15, 130, 1],
            [6, 5, 0, 15, 130, 1],
        ],
    ),
}

_MASK_ADVERSARIES = {
    "partition": lambda n: Batch2DPartition(n // 4),
    "periodic-split": lambda n: _PeriodicSplit(n // 2),
}


def _result_digest(result):
    """sha256 over every field's name, dtype, shape and values."""
    digest = hashlib.sha256()
    for field in _RESULT_FIELDS:
        value = getattr(result, field)
        digest.update(f"{field}:{value.dtype}:{value.shape}".encode())
        digest.update(value.astype("<i8").tobytes())
    return digest.hexdigest()


class TestMaskPathGoldens:
    """Split-delivery runs reproduce their goldens exactly: the
    partition adversary, and an adversary whose tallies differ per
    receiver on every fifth round and agree again in between."""

    @pytest.mark.parametrize(
        "name,fault,n", sorted(MASK_GOLDENS), ids=lambda v: str(v)
    )
    def test_full_result_matches_golden(self, name, fault, n):
        digest, rows = MASK_GOLDENS[(name, fault, n)]
        result = Batch2DEngine(
            SynRanProtocol(),
            _MASK_ADVERSARIES[name](n),
            n,
            fault_model=_FAULT_MODELS[fault],
            strict_termination=False,
        ).run(_mixed_inputs(n), list(range(8)))
        got = np.stack(
            [getattr(result, f).astype(np.int64) for f in _RESULT_FIELDS[:6]],
            axis=1,
        )
        assert got.tolist() == rows
        assert _result_digest(result) == digest


class _StrayTargeter(Batch2DAdversary):
    """Targets pid 0 every round — including after it is dead."""

    name = "test-stray"

    def choose(self, view):
        M, n = view.senders.shape
        mask = np.zeros((M, n), dtype=bool)
        mask[:, 0] = True
        return Batch2DDecision.masks(silent=mask)


class _OverBudget(Batch2DAdversary):
    """Kills every sender every round, ignoring the budget."""

    name = "test-over-budget"

    def choose(self, view):
        return Batch2DDecision.masks(silent=view.senders.copy())


class _BadCounts(Batch2DAdversary):
    name = "test-bad-counts"

    def choose(self, view):
        M = view.sender_count.shape[0]
        return Batch2DDecision.counts(
            np.full(M, view.n + 1, dtype=np.int64), np.zeros(M, dtype=np.int64)
        )


class TestSanitizers:
    def _engine(self, adv, n=12, **kw):
        return Batch2DEngine(SynRanProtocol(), adv, n, **kw)

    def test_stray_mask_target_rejected(self):
        with pytest.raises(ConfigurationError, match="non-senders"):
            self._engine(_StrayTargeter(2)).run([1] * 12, [0, 1])

    def test_over_budget_raises(self):
        with pytest.raises(BudgetExceededError):
            self._engine(_OverBudget(2)).run(_mixed_inputs(12), [0, 1])

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid kill counts"):
            self._engine(_BadCounts(12)).run(_mixed_inputs(12), [0, 1])

    def test_receive_omission_has_no_grid_realisation(self):
        with pytest.raises(ConfigurationError, match="grid realisation"):
            self._engine(
                Batch2DCounts(BatchBenign()),
                fault_model="receive-omission",
            )

    def test_bad_input_shapes_rejected(self):
        engine = self._engine(Batch2DCounts(BatchBenign()))
        with pytest.raises(ConfigurationError):
            engine.run([1] * 5, [0])
        with pytest.raises(ConfigurationError):
            engine.run(np.ones((3, 12), dtype=np.int8), [0])
        with pytest.raises(ConfigurationError):
            engine.run([2] * 12, [0])


# ----------------------------------------------------------------------
# Budget invariant (property-based)
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    t_frac=st.floats(min_value=0.0, max_value=1.0),
    fault=st.sampled_from(sorted(_FAULT_MODELS)),
    name=st.sampled_from(sorted(_ADVERSARIES) + ["partition"]),
    seed0=st.integers(min_value=0, max_value=2**32),
)
def test_budget_never_exceeds_t(n, t_frac, fault, name, seed0):
    """2-D kill masks never spend more than ``t`` per trial, under any
    adversary/fault-model combination the engine accepts."""
    t = int(round(t_frac * n))
    if name == "partition":
        adv = Batch2DPartition(t) if t else Batch2DPartition(0)
    else:
        adv = Batch2DCounts(_ADVERSARIES[name](t))
    result = Batch2DEngine(
        SynRanProtocol(),
        adv,
        n,
        fault_model=_FAULT_MODELS[fault],
        strict_termination=False,
    ).run(_mixed_inputs(n), [seed0, seed0 + 1, seed0 + 2])
    assert (result.crashes_used <= t).all()
    assert (result.crashes_used >= 0).all()
