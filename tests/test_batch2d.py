"""Differential + semantic gates for the two-axis (M, n) engine.

Five tiers, matching the engine's parity contract:

* **Exact 1-D/2-D agreement.**  A counts adversary driven through
  ``_SilentCounts`` (silent masks crashing the first ``k`` members of
  each bit class in pid order, the counts engine's victim rule) must
  produce **bit-for-bit** the trajectories of ``BatchFastEngine`` —
  coin rounds included, because the 2-D engine assigns flip rank ``j``
  the ``j``-th bit of the round's word block, the exact bit set
  ``fair_binomial`` popcounts.  Checked for every ported adversary
  under every batch-realised fault model (crash, send-omission, late),
  seed for seed, on coin-flipping mixed inputs, at a one-word (n = 48)
  and a three-word (n = 130) coin block.  Under ``late`` a mask
  adversary sees only the stale classes, so an attack that crashes in
  consecutive rounds (``random``) has no exact mask twin there.

* **Mask semantics.**  After-send victims with an empty recipient mask
  are behaviourally identical to silent victims; with a full recipient
  mask their last message lands everywhere first, which changes the
  trajectory.  Plus the budget and stray-target sanitizers.

* **Mask-path goldens.**  Split-delivery runs have no 1-D reference,
  so exact recorded results pin them.

* **Spec outcomes.**  Every name the adversary table builds for
  ``engine="batch2d"`` keeps its recorded outcome digests; counts
  attacks among them run on the counts engine.

* **Budget invariants.**  A Hypothesis property: no adversary/fault
  combination ever reports ``crashes_used > t`` for any trial.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.registry import available_adversaries
from repro.errors import BudgetExceededError, ConfigurationError
from repro.faultmodels.late import LateFaultModel
from repro.harness.exec.builders import build_batch_adversary
from repro.harness.exec.spec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    TrialSpec,
    spec_params,
)
from repro.harness.exec.trial import (
    outcomes_digest,
    run_spec_batch,
    vectorized_kind,
)
from repro.protocols import SynRanProtocol
from repro.sim.batch import (
    BatchBenign,
    BatchFastEngine,
    BatchFastView,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)
from repro.sim.batch2d import (
    Batch2DAdversary,
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


def _first_k(members, k):
    """The first ``k[i]`` members of row ``i``, in pid order."""
    return members & (np.cumsum(members, axis=1) <= k[:, None])


class _SilentCounts(Batch2DAdversary):
    """A counts adversary on the 2-D engine: it reads the view's
    per-trial aggregates and crashes the first ``k`` members of each
    bit class silently, the victim rule of the counts engine."""

    name = "test-silent-counts"

    def __init__(self, inner):
        super().__init__(inner.t)
        self.inner = inner

    def reset(self, n, seeds):
        self.inner.reset(n, seeds)

    def choose(self, view):
        ones = view.senders & (view.bits == 1)
        zeros = view.senders & ~ones
        k1, k0 = self.inner.choose(
            BatchFastView(
                round_index=view.round_index,
                n=view.n,
                stage=view.trial_stage,
                senders=view.sender_count,
                ones=ones.sum(axis=1),
                zeros=zeros.sum(axis=1),
                tentative=(view.tentative & view.senders).sum(axis=1),
                budget_remaining=view.budget_remaining,
                received_history=view.received_totals,
                active=view.active,
            )
        )
        return Batch2DDecision(silent=_first_k(ones, k1) | _first_k(zeros, k0))


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
#: The one-word cases keep their unsuffixed ids.  ``random`` under
#: ``late`` is left out: the counts engine clamps a stale kill count
#: to today's classes, which a mask chosen from the stale view cannot
#: see.
_EXACT_CASES = [
    pytest.param(
        name, fault, n, id=f"{name}-{fault}" + ("" if n == 48 else f"-n{n}")
    )
    for n in (48, 130)
    for name in sorted(_ADVERSARIES)
    for fault in sorted(_FAULT_MODELS)
    if (name, fault) != ("random", "late")
]


class TestExact1D2DAgreement:
    """Every ported adversary x every batch fault model x both coin
    widths: the counts adversary as silent masks on the 2-D engine
    equals its 1-D run bit-for-bit, coins and histories included."""

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
            _SilentCounts(_ADVERSARIES[name](t)),
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
            _SilentCounts(BatchTallyAttack(self.T)),
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
            return Batch2DDecision(silent=mask)
        recipients = np.zeros((M, n), dtype=bool)
        recipients[:, : self.recipient_cut] = True
        return Batch2DDecision(
            silent=np.zeros((M, n), dtype=bool),
            after_send=mask,
            recipients=recipients,
        )


class _PeriodicSplit(Batch2DAdversary):
    """Tally-attack rounds (as silent first-k masks) with a split
    round every fifth.

    On a split round, the first sender of each trial with budget left
    is an after-send victim heard only by pids below ``n // 3``, so the
    round's receivers tally different counts.  The four counts rounds
    in between are long enough for the split to leave the three-round
    tally history before the next one.
    """

    name = "test-periodic-split"

    def __init__(self, t):
        super().__init__(t)
        self.counts = _SilentCounts(BatchTallyAttack(t))

    def reset(self, n, seeds):
        self.counts.reset(n, seeds)

    def choose(self, view):
        if view.round_index % 5:
            return self.counts.choose(view)
        M, n = view.senders.shape
        room = view.active & (view.budget_remaining > 0)
        first = view.senders & (np.cumsum(view.senders, axis=1) == 1)
        recipients = np.zeros((M, n), dtype=bool)
        recipients[:, : n // 3] = True
        return Batch2DDecision(
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


# ----------------------------------------------------------------------
# Spec outcomes on engine="batch2d"
# ----------------------------------------------------------------------

#: ``(adversary, fault, n) -> outcomes_digest`` of trials 0..19 of the
#: ``engine="batch2d"`` spec ``synran`` x adversary, ``t = n``, default
#: (``worst``) inputs, base seed 5; ``late`` runs with lag 1.  The
#: values were recorded from the 2-D engine's own counts path, so the
#: counts names also pin that the counts engine reproduces it.
SPEC_DIGESTS = {
    ("benign", "crash", 32): "18ebe3abfb7ba22db178bfc15f00ee1c21f4f73b8cdf66e2943959aad4be1eba",
    ("benign", "crash", 130): "5493c1818b2a2ec5b1229ea76585e2d0010af2f312b313416afd215ccd37eb83",
    ("benign", "send-omission", 32): "a2ff321ef435269d37340ce5e01b6686e68e9b8925679ed40f38474eebfcb573",
    ("benign", "send-omission", 130): "d0ef54817c08dd115adf7f01cf7c377551bd40b7fadf7808310034a9d075b9f4",
    ("benign", "late", 32): "8ee18aac2dee450203721197e4137100523d64cca5737f551ec3832420ec68be",
    ("benign", "late", 130): "48fdea7b21ae3ba4a7fbda54c099ddf04f138b8557bdc11ccbf18b6c428c5f1a",
    ("oblivious-calibrated", "crash", 32): "e027ddbb086739e8cb4618b0825121cd2eee6e63d7e9fe423eb494421b0b3681",
    ("oblivious-calibrated", "crash", 130): "e6a51a51fa58c21f83c01a487d1673fdfbc9fd203d9210a9c63c3df0d79ec033",
    ("oblivious-calibrated", "send-omission", 32): "7b6b5a578a412c16b2872fedff41a7eff43b019a0c951aad71f80888b82ebb7d",
    ("oblivious-calibrated", "send-omission", 130): "aa56c16d993e06cc68fa1e2d41f4a9f66018bc802d87a2721897f788a01f17a3",
    ("oblivious-calibrated", "late", 32): "f327bdc6aa6e93a17fb639489ede0a62ca546cf82a8c1cffaf2cd0675291d534",
    ("oblivious-calibrated", "late", 130): "29db959e0e2c44029b53cabdebef2043e8b2791ceed2cc0dd8cc8822873cf615",
    ("partition", "crash", 32): "5834c491d77b35100bf8ec578b9fc698ceab076ad5430d8ad465e094ac368683",
    ("partition", "crash", 130): "4bba90b4d9bc7dc1a18c077335b4dfb9535b5a9f94b5ad418ba76f8aef3a2feb",
    ("partition", "send-omission", 32): "1f760425f211dc560aa97cb0e681eb3c9f3c91310f27a6498ae20727c7eec36b",
    ("partition", "send-omission", 130): "5432df45f9d5ff858a5ad12c6100c65e88ae4d975bcd41697a961d1092307a13",
    ("partition", "late", 32): "35c6450135ed8ca5c42bbc5bcb2cde67dc575487cb43c4635557d81ea915e226",
    ("partition", "late", 130): "3396b088698956fb2f89ab427dad3882cd64c29d07a82c28c46a3c911897d298",
    ("random", "crash", 32): "573770e68edeb850422544e60823b19a50110956172ae757978d001c0cf0d518",
    ("random", "crash", 130): "fa2fade8a3b9ec90223f25a33e2d3b95d865c539769f6b1dcf9ad4236c28cc57",
    ("random", "send-omission", 32): "28e224058a9599478bf7eb557d4003f41ea2c332e2a6ec435bfb2ed99386616c",
    ("random", "send-omission", 130): "6f0fd2dcdfacc3055627a3c6d6a221c1c3d9096158c7f7910d1d5d5bbb5b3cbb",
    ("random", "late", 32): "cc3f83cd56e8ac74d4f5c66ca49e25ed0d51b6cd26351be8cc3626c9b0ea1fb5",
    ("random", "late", 130): "eafabaf4160525ec44e36d6d8df1c5e48521eb827709ecd5c7579b00f7e55925",
    ("tally-attack", "crash", 32): "902257b6b85585e7608921404b8425078ee483b75d17f31079e3e60bff9f4adf",
    ("tally-attack", "crash", 130): "d255ce027db3a6f2265931e84b39f4b382c920c82fe7fc08d01c92fa0c310414",
    ("tally-attack", "send-omission", 32): "bbe87de9cd5b2ba2919b6991592d15fce226ea25263e55b0aa8a8073e6ade305",
    ("tally-attack", "send-omission", 130): "e538131a60789c4d6324064f23b85527f378135e0b0805c8aa424808aa627504",
    ("tally-attack", "late", 32): "aefc9f23f6fff397d15c06d470b423c2275612c3a202f5639aceafff680fdeee",
    ("tally-attack", "late", 130): "ef5f724f5a72cd652b61ff499c0d149a23897033e81a98cf5c2fea612aee01e2",
    ("tally-bleed-only", "crash", 32): "8fdb92b757773424f75045779a45b934d7c4cd0bba821f2ec70fe3338112d67f",
    ("tally-bleed-only", "crash", 130): "b89e42f23a2d12a917b7e8e26a75530afa47260f91d690f1fb93f63c464a7d55",
    ("tally-bleed-only", "send-omission", 32): "51d23350087b4b1c188597f330e10d0790ec06540a38e8329fddbebfc1604085",
    ("tally-bleed-only", "send-omission", 130): "9aaad3555d091492e96e9cc5c2867ace12988968016a7f601c2a9fc1e12b284e",
    ("tally-bleed-only", "late", 32): "92b2bbf395f74015a1e19c467b61c5660162dd3116fe2c08c37520ce8cbcd88f",
    ("tally-bleed-only", "late", 130): "5be387ef02217b3392600fd5306a2eeb23dbd56c2b3d1fb8173a0fd01077a4b6",
    ("tally-split-only", "crash", 32): "3701f6f4abd2a4153de838565a4ae24d490968bb12580d8d42e5882ac4f108ad",
    ("tally-split-only", "crash", 130): "e79541a6bef4609fba76981a13f12f1ca7389c16438e6d83e2a5ddb19d3ed333",
    ("tally-split-only", "send-omission", 32): "fa3b97d0c41f09c83823476fd1120ff628c87f58bfded9d72749fba45c9b11b1",
    ("tally-split-only", "send-omission", 130): "6cda693bece29c50aaf5040f53025f5d28ef56f5ac3c8e491cf89c0c01f26d0e",
    ("tally-split-only", "late", 32): "ec387372350582ce9a4d7c92e6b9902f3ea414119a5d5c0a6dffe39dd7f29fe0",
    ("tally-split-only", "late", 130): "e01c4e3715cdf5efd5e35a6767ce10f38bcd819b9d098243ce6fddf3cde59b3c",
    ("valency-keeper", "crash", 32): "4dd6ab080f94dbc27edee52a671ff037a2af9cb3e9165ef2576159631a5ed777",
    ("valency-keeper", "crash", 130): "50337368d0c85f662ef35b9ca5d4191dc8ecb38c1464fc0858d5b1e687e86508",
    ("valency-keeper", "send-omission", 32): "677ada29ffcff469d7f6abf72f0648ff3d20cf49ff6136de33ed81a05f5852ec",
    ("valency-keeper", "send-omission", 130): "7106834c1422f742fc833545c3f478179f7ea9d6a1c3b317831a0d5e0e54639c",
    ("valency-keeper", "late", 32): "1cfcf68e68f0b6e8c75d735de55b52894ae5ed9133fb615c714a5e464df47bf1",
    ("valency-keeper", "late", 130): "4825b8860d4275e7c40537c6f521adcd4684d3a88c2eecdeaf4190cee183e819",
}

_SPEC_FAULTS = {
    "crash": (),
    "send-omission": (),
    "late": spec_params(lag=1),
}


class TestBatch2DSpecDigests:
    """Every name the table builds for ``batch2d``, under every
    batch-realised fault model: outcomes are the pinned ones, and the
    engine is the one the decision form picks."""

    def test_every_batch2d_name_is_pinned(self):
        assert sorted({name for name, _, _ in SPEC_DIGESTS}) == (
            available_adversaries(ENGINE_BATCH2D)
        )

    @pytest.mark.parametrize(
        "name,fault,n", sorted(SPEC_DIGESTS), ids=lambda v: str(v)
    )
    def test_outcomes_match_digest(self, name, fault, n):
        spec = TrialSpec(
            protocol="synran",
            adversary=name,
            n=n,
            t=n,
            engine=ENGINE_BATCH2D,
            fault_model=fault,
            fault_model_params=_SPEC_FAULTS[fault],
        )
        kind = vectorized_kind(build_batch_adversary(spec))
        assert kind == (ENGINE_BATCH2D if name == "partition" else ENGINE_BATCH)
        outcomes = run_spec_batch(spec, range(20), 5)
        assert outcomes_digest(outcomes) == SPEC_DIGESTS[(name, fault, n)]


class _StrayTargeter(Batch2DAdversary):
    """Targets pid 0 every round — including after it is dead."""

    name = "test-stray"

    def choose(self, view):
        M, n = view.senders.shape
        mask = np.zeros((M, n), dtype=bool)
        mask[:, 0] = True
        return Batch2DDecision(silent=mask)


class _OverBudget(Batch2DAdversary):
    """Kills every sender every round, ignoring the budget."""

    name = "test-over-budget"

    def choose(self, view):
        return Batch2DDecision(silent=view.senders.copy())


class TestSanitizers:
    def _engine(self, adv, n=12, **kw):
        return Batch2DEngine(SynRanProtocol(), adv, n, **kw)

    def test_stray_mask_target_rejected(self):
        with pytest.raises(ConfigurationError, match="non-senders"):
            self._engine(_StrayTargeter(2)).run([1] * 12, [0, 1])

    def test_over_budget_raises(self):
        with pytest.raises(BudgetExceededError):
            self._engine(_OverBudget(2)).run(_mixed_inputs(12), [0, 1])

    def test_receive_omission_has_no_grid_realisation(self):
        with pytest.raises(ConfigurationError, match="grid realisation"):
            self._engine(
                Batch2DPartition(2),
                fault_model="receive-omission",
            )

    def test_bad_input_shapes_rejected(self):
        engine = self._engine(Batch2DPartition(2))
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
        adv = _SilentCounts(_ADVERSARIES[name](t))
    result = Batch2DEngine(
        SynRanProtocol(),
        adv,
        n,
        fault_model=_FAULT_MODELS[fault],
        strict_termination=False,
    ).run(_mixed_inputs(n), [seed0, seed0 + 1, seed0 + 2])
    assert (result.crashes_used <= t).all()
    assert (result.crashes_used >= 0).all()
