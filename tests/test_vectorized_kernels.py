"""Pin the vectorized round step's whole-array kernels to the forms
they replaced.

Each replaced idiom is kept here as the reference, and the code in
``src`` must equal it:

* ``fair_binomial`` masks and popcounts the whole ``(M, width)`` word
  block at once; the reference loops over the word columns.
* ``Batch2DEngine`` runs each protocol test on per-trial tallies and
  spreads the bool result over the receivers; the reference widens
  the tallies to ``(M, n)`` int32 arrays with ``np.where`` and runs the
  sequential cascade on them.  The engine keeps a recipients mask for
  three rounds, so an adversary that rewrites one buffer in place must
  get what fresh arrays give.
* a trial's stage takes two ``any`` tests; the reference is the masked
  ``np.min``.
* ``Batch2DPartition.choose`` finds each first sender with ``argmax``;
  the reference is the ``cumsum`` form.
* ``batch_outcomes`` reads each result column once; the reference
  rehydrates one ``BatchResult.trial`` per slot.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.exec.trial import TrialOutcome, batch_outcomes, encode_outcomes
from repro.protocols import SynRanProtocol
from repro.sim.batch import (
    STAGE_DETERMINISTIC,
    STAGE_PROBABILISTIC,
    BatchFastEngine,
    BatchResult,
    BatchTallyAttack,
)
from repro.sim.batch2d import (
    Batch2DAdversary,
    Batch2DDecision,
    Batch2DEngine,
    Batch2DPartition,
    Batch2DView,
    _below,
    _cascade,
    _heard,
    _lowest_stage,
    _per_receiver,
    _stable,
    _Tally,
)
from repro.sim.streams import counter_words, fair_binomial, stream_keys

# ----------------------------------------------------------------------
# fair_binomial
# ----------------------------------------------------------------------


def _per_word_binomial(keys, counter, counts):
    """The per-word loop ``fair_binomial`` replaced, popcounting by
    unpacking bits."""
    counts = np.asarray(counts, dtype=np.int64)
    result = np.zeros(counts.shape, dtype=np.int64)
    max_count = int(counts.max()) if counts.size else 0
    if max_count <= 0:
        return result
    width = (max_count + 63) // 64
    words = counter_words(keys, counter, width)
    for j in range(width):
        nbits = np.clip(counts - 64 * j, 0, 64)
        partial = np.where(nbits == 64, 0, nbits).astype(np.uint64)
        mask = np.where(
            nbits == 64,
            np.uint64(2**64 - 1),
            (np.uint64(1) << partial) - np.uint64(1),
        )
        kept = (words[:, j] & mask).astype("<u8").view(np.uint8)
        bits = np.unpackbits(kept.reshape(-1, 8), axis=1)
        result += bits.sum(axis=1, dtype=np.int64)
    return result


_COUNTS = [0, 1, 63, 64, 65, 4095, 4096, 16384]


class TestFairBinomialMatchesPerWordLoop:
    @pytest.mark.parametrize("count", _COUNTS)
    @pytest.mark.parametrize("counter", [0, 7, 2**40])
    def test_every_row_one_count(self, count, counter):
        keys = stream_keys(range(6))
        counts = np.full(6, count, dtype=np.int64)
        got = fair_binomial(keys, counter, counts)
        assert got.dtype == np.int64
        assert np.array_equal(got, _per_word_binomial(keys, counter, counts))

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_rows_that_mix_counts(self, order):
        counts = list(_COUNTS)
        if order == "reversed":
            counts.reverse()
        elif order == "shuffled":
            counts = [counts[i] for i in (3, 7, 0, 5, 1, 6, 2, 4)]
        keys = stream_keys(range(100, 100 + len(counts)), salt=3)
        got = fair_binomial(keys, 11, counts)
        assert np.array_equal(got, _per_word_binomial(keys, 11, counts))
        assert got[counts.index(0)] == 0
        assert got[counts.index(1)] in (0, 1)

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=16384), min_size=1, max_size=9
        ),
        counter=st.integers(min_value=0, max_value=2**32),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_rows(self, counts, counter, seed):
        keys = stream_keys([seed + i for i in range(len(counts))])
        assert np.array_equal(
            fair_binomial(keys, counter, counts),
            _per_word_binomial(keys, counter, counts),
        )


# ----------------------------------------------------------------------
# Per-trial tallies
# ----------------------------------------------------------------------


def _widen(tally, n):
    """The old ``(M, n)`` int32 tally: ``np.where`` over the mask."""
    full = tally.full.astype(np.int32)
    if tally.mask is None:
        return np.broadcast_to(full, (full.shape[0], n))
    return np.where(tally.mask, full + tally.split.astype(np.int32), full)


def _old_cascade(proto, cascade, rcv1, rcv0, prev1):
    """The old sequential cascade on ``(M, n)`` tallies."""
    rem = cascade.copy()
    b_dec1 = rem & (rcv1 > proto.decide_hi * prev1)
    rem &= ~b_dec1
    b_prop1 = rem & (rcv1 > proto.propose_hi * prev1)
    rem &= ~b_prop1
    if proto.one_side_bias:
        b_bias = rem & (rcv0 == 0)
        rem &= ~b_bias
    else:
        b_bias = np.zeros_like(rem)
    b_dec0 = rem & (rcv1 < proto.decide_lo * prev1)
    rem &= ~b_dec0
    b_prop0 = rem & (rcv1 < proto.propose_lo * prev1)
    flip = rem & ~b_prop0
    return (
        b_dec1 | b_prop1 | b_bias,
        b_dec0 | b_prop0,
        b_dec1 | b_dec0,
        flip,
    )


_PROTOCOLS = {
    "default": SynRanProtocol(),
    "no-bias": SynRanProtocol(one_side_bias=False),
    "tight": SynRanProtocol(
        decide_hi=0.6,
        propose_hi=0.55,
        propose_lo=0.55,
        decide_lo=0.5,
        stop_fraction=0.3,
    ),
}

#: Which mask each tally of a test carries: indices into a list of
#: distinct random masks, ``None`` for an unsplit tally.  Each test
#: meets one, two and three distinct masks, and masks shared by
#: several tallies.
_MASK_LAYOUTS = {
    1: [(0,), (None,)],
    2: [(0, 0), (0, 1), (None, 0), (1, None), (None, None)],
    3: [
        (0, 1, 2),
        (0, 0, 0),
        (0, 1, 0),
        (None, 1, 2),
        (2, None, None),
        (None, None, None),
    ],
}


def _tallies(rng, M, n, layout):
    """Random tallies in ``layout``; counts are small, so the threshold
    comparisons land on their edges."""
    masks = [
        rng.random((M, n)) < rng.random((M, 1)) for _ in range(3)
    ]
    out = []
    for slot in layout:
        full = rng.integers(0, n + 1, size=(M, 1)).astype(np.int64)
        split = rng.integers(0, 6, size=(M, 1)).astype(np.int64)
        split[rng.random((M, 1)) < 0.3] = 0
        out.append(_Tally(full, split, None if slot is None else masks[slot]))
    return out


class TestPerTrialTalliesMatchMaterialised:
    M = 24
    N = 20

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("layout", _MASK_LAYOUTS[1])
    def test_single_tally_tests(self, seed, layout):
        rng = np.random.default_rng([1, seed])
        (received,) = _tallies(rng, self.M, self.N, layout)
        wide = _widen(received, self.N)
        for threshold in (1, 7, 12, 21):
            (low,) = _per_receiver(
                functools.partial(_below, threshold), received
            )
            assert np.array_equal(
                np.broadcast_to(low, wide.shape), wide < threshold
            )
        (heard,) = _per_receiver(_heard, received)
        assert np.array_equal(np.broadcast_to(heard, wide.shape), wide > 0)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("layout", _MASK_LAYOUTS[3])
    @pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
    def test_stop_rule(self, seed, layout, proto):
        stop_fraction = _PROTOCOLS[proto].stop_fraction
        rng = np.random.default_rng([2, seed])
        prev3, received, prev2 = _tallies(rng, self.M, self.N, layout)
        (steady,) = _per_receiver(
            functools.partial(_stable, stop_fraction), prev3, received, prev2
        )
        old = _widen(prev3, self.N) - _widen(
            received, self.N
        ) <= _widen(prev2, self.N) * stop_fraction
        assert np.array_equal(np.broadcast_to(steady, old.shape), old)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("layout", _MASK_LAYOUTS[2])
    @pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
    def test_cascade(self, seed, layout, proto):
        protocol = _PROTOCOLS[proto]
        rng = np.random.default_rng([3, seed])
        rcv_mask, prev_mask = layout
        # The round's ones and zeros share its recipients mask.
        rcv1, prev1 = _tallies(rng, self.M, self.N, (rcv_mask, prev_mask))
        (rcv0,) = _tallies(rng, self.M, self.N, (None,))
        rcv0 = rcv0._replace(mask=rcv1.mask)
        cascade = rng.random((self.M, self.N)) < 0.8
        new = _per_receiver(
            functools.partial(_cascade, protocol), rcv1, rcv0, prev1
        )
        old = _old_cascade(
            protocol,
            cascade,
            _widen(rcv1, self.N),
            _widen(rcv0, self.N),
            _widen(prev1, self.N),
        )
        for got, want in zip(new, old):
            assert np.array_equal(cascade & got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_mask_that_splits_nothing_keeps_the_trial_shape(self, seed):
        rng = np.random.default_rng([4, seed])
        (tally,) = _tallies(rng, self.M, self.N, (0,))
        tally = tally._replace(split=np.zeros_like(tally.split))
        (heard,) = _per_receiver(_heard, tally)
        assert heard.shape == (self.M, 1)


class TestLowestStageMatchesMaskedMin:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_stages(self, seed):
        rng = np.random.default_rng([5, seed])
        M, n = 30, 17
        stage = rng.integers(0, 3, size=(M, n)).astype(np.int8)
        senders = rng.random((M, n)) < rng.random((M, 1))
        senders[:4] = False
        old = np.min(
            stage, axis=1, where=senders, initial=STAGE_DETERMINISTIC
        ).astype(np.int8)
        got = _lowest_stage(stage, senders)
        assert got.dtype == np.int8
        assert np.array_equal(got, old)


# ----------------------------------------------------------------------
# Engine: recipients masks held across rounds
# ----------------------------------------------------------------------


class _RandomSplit(Batch2DAdversary):
    """Each round, the first sender of every trial with budget left is
    an after-send victim heard by a random recipients mask, drawn
    fresh or written into one reused buffer."""

    name = "test-random-split"

    def __init__(self, t, *, reuse):
        super().__init__(t)
        self.reuse = reuse

    def reset(self, n, seeds):
        self.rng = np.random.default_rng([int(s) % 2**32 for s in seeds])
        self.buffer = None

    def choose(self, view):
        M, n = view.senders.shape
        room = view.active & (view.budget_remaining > 0)
        first = view.senders & (np.cumsum(view.senders, axis=1) == 1)
        recipients = self.rng.random((M, n)) < self.rng.random((M, 1))
        if self.reuse:
            if self.buffer is None:
                self.buffer = np.empty((M, n), dtype=bool)
            self.buffer[...] = recipients
            recipients = self.buffer
        return Batch2DDecision(
            silent=np.zeros((M, n), dtype=bool),
            after_send=first & room[:, None],
            recipients=recipients,
        )


class TestRecipientsBuffer:
    @pytest.mark.parametrize("n", [9, 40, 130])
    def test_reused_buffer_equals_fresh_masks(self, n):
        def run(reuse):
            return Batch2DEngine(
                SynRanProtocol(),
                _RandomSplit(n // 2, reuse=reuse),
                n,
                strict_termination=False,
            ).run([i % 2 for i in range(n)], list(range(12)))

        fresh, reused = run(False), run(True)
        for field in (
            "rounds",
            "decision_round",
            "decision",
            "crashes_per_round",
            "senders_per_round",
        ):
            assert np.array_equal(
                getattr(fresh, field), getattr(reused, field)
            ), field


# ----------------------------------------------------------------------
# Batch2DPartition.choose
# ----------------------------------------------------------------------


def _old_choose(adversary, view):
    """The ``cumsum`` form of the partition's choice."""
    M, n = view.senders.shape
    eligible = (
        view.active
        & (view.budget_remaining > 0)
        & (view.sender_count > 1)
        & (view.trial_stage == STAGE_PROBABILISTIC)
    )
    after = np.zeros((M, n), dtype=bool)
    if eligible.any():
        first = view.senders & (np.cumsum(view.senders, axis=1) == 1)
        after[eligible] = first[eligible]
    cut = min(n, max(1, int(round(adversary.fraction * n))))
    recipients = np.zeros((M, n), dtype=bool)
    recipients[:, :cut] = True
    return Batch2DDecision(
        silent=np.zeros((M, n), dtype=bool),
        after_send=after,
        recipients=recipients,
    )


def _random_view(rng, M, n):
    senders = rng.random((M, n)) < rng.random((M, 1))
    senders[0] = False  # no senders
    senders[1] = False
    senders[1, n - 1] = True  # one sender: not eligible
    sender_count = senders.sum(axis=1)
    sender_count[2] = 5  # claims senders it does not have
    senders[2] = False
    return Batch2DView(
        round_index=int(rng.integers(0, 9)),
        n=n,
        stage=rng.integers(0, 3, size=(M, n)).astype(np.int8),
        senders=senders,
        bits=rng.integers(0, 2, size=(M, n)).astype(np.int8),
        tentative=rng.random((M, n)) < 0.2,
        alive=senders | (rng.random((M, n)) < 0.5),
        trial_stage=rng.integers(0, 3, size=M).astype(np.int8),
        sender_count=sender_count.astype(np.int64),
        budget_remaining=rng.integers(-1, 3, size=M),
        received_history=(),
        active=rng.random(M) < 0.8,
    )


class TestPartitionChooseMatchesCumsum:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n,fraction", [(5, 0.5), (64, 0.1), (130, 0.9)])
    def test_random_senders(self, seed, n, fraction):
        rng = np.random.default_rng([6, seed])
        adversary = Batch2DPartition(n, fraction=fraction)
        view = _random_view(rng, 40, n)
        got = adversary.choose(view)
        want = _old_choose(adversary, view)
        for field in ("silent", "after_send", "recipients"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert not got.after_send[:3].any()


# ----------------------------------------------------------------------
# batch_outcomes
# ----------------------------------------------------------------------


def _old_batch_outcomes(result, indices, seeds):
    """One ``BatchResult.trial`` rehydration per slot."""
    outcomes = []
    for slot, (index, seed) in enumerate(zip(indices, seeds)):
        trial = result.trial(slot)
        outcomes.append(
            TrialOutcome(
                trial_index=index,
                seed=seed,
                rounds=trial.rounds,
                decision_round=trial.decision_round,
                timeout=trial.decision_round is None,
                crashes=trial.crashes_used,
                decision=trial.decision,
                crashes_per_round=trial.crashes_per_round,
                senders_per_round=trial.senders_per_round,
            )
        )
    return outcomes


def _assert_same_outcomes(result, indices, seeds):
    got = batch_outcomes(result, indices, seeds)
    want = _old_batch_outcomes(result, indices, seeds)
    assert got == want
    assert encode_outcomes(got) == encode_outcomes(want)
    for outcome in got:
        for value in (outcome.rounds, outcome.crashes):
            assert type(value) is int
        assert all(type(c) is int for c in outcome.crashes_per_round)
        assert all(type(s) is int for s in outcome.senders_per_round)


class TestBatchOutcomesMatchRehydration:
    def test_hand_built_result(self):
        # Trial 0 times out, trial 1 decides 1, trial 2 ends without a
        # decision (everyone crashed), trial 3 ran no round, trial 4
        # decides 0 in its first round; rows past a trial's rounds pad.
        R = 6
        rounds = np.array([6, 3, 4, 0, 1], dtype=np.int64)
        crashes = np.zeros((R, 5), dtype=np.int64)
        senders = np.zeros((R, 5), dtype=np.int64)
        for i, r in enumerate(rounds):
            crashes[:r, i] = np.arange(r) % 3
            senders[:r, i] = 50 - np.arange(r)
        result = BatchResult(
            rounds=rounds,
            decision_round=np.array([-1, 2, 3, -1, 0], dtype=np.int64),
            decision=np.array([-1, 1, -1, -1, 0], dtype=np.int64),
            crashes_used=crashes.sum(axis=0),
            survivors=50 - crashes.sum(axis=0),
            terminated=np.array([False, True, True, False, True]),
            crashes_per_round=crashes,
            senders_per_round=senders,
        )
        _assert_same_outcomes(result, [7, 3, 9, 4, 0], [11, 12, 13, 14, 15])
        got = batch_outcomes(result, range(5), range(5))
        assert got[0].timeout and got[0].decision_round is None
        assert got[2].decision is None and not got[2].timeout
        assert got[3].crashes_per_round == []

    @pytest.mark.parametrize("engine", ["batch", "batch2d"])
    def test_engine_results_with_timeouts(self, engine):
        n = 32
        if engine == "batch":
            run = BatchFastEngine(
                SynRanProtocol(),
                BatchTallyAttack(4),
                n,
                max_rounds=7,
                strict_termination=False,
            )
        else:
            run = Batch2DEngine(
                SynRanProtocol(),
                Batch2DPartition(n // 2),
                n,
                max_rounds=6,
                strict_termination=False,
            )
        # Unanimous trials decide early; the others may time out.
        inputs = np.array(
            [[1] * n if k % 3 == 0 else [i % 2 for i in range(n)]
             for k in range(16)],
            dtype=np.int8,
        )
        seeds = list(range(40, 56))
        result = run.run(inputs, seeds)
        assert len(set(result.rounds.tolist())) > 1
        assert (result.decision_round < 0).any()
        _assert_same_outcomes(result, list(range(16)), seeds)
