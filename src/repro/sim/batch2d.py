"""Two-axis vectorized engine: ``(M, n)`` state, one array op per round.

:class:`~repro.sim.batch.BatchFastEngine` vectorizes the *trial* axis
but keeps the uniform-view collapse: each trial is two counts, so every
receiver must see the same tallies.  That is exactly the restriction
the paper's adversary constructions violate on purpose — delivering a
victim's last message to only part of the population is how the lower
bound splits views.  This module lifts the batch engine to full
two-axis state: every per-process quantity (bit, stage, tentative flag,
flood set, decision) is an ``(M, n)`` array, victim selection is a
boolean mask, and deliveries may carry a per-recipient mask, so M
trials times n processes advance in one NumPy operation per round.

Adversaries return a :class:`Batch2DDecision`: explicit ``(M, n)``
victim masks, optionally split into silent victims and after-send
victims plus one shared per-recipient delivery mask per trial.  This
is the paper's view-splitting move, inexpressible at counts level
(:class:`Batch2DPartition` uses it).  Counts-level attacks
(:class:`~repro.sim.batch.BatchFastAdversary`) leave every receiver
with the same tallies and run on the counts engine instead; the
harness picks the engine from the adversary's decision form.

Both engines subclass :class:`~repro.sim.batch.VectorizedEngine`, so
the constructor checks, input validation, seed derivation and coin
stride, the horizon, the budget ledger, lagged views and result
assembly are one code path, not two copies.  Crash kinds remove
victims, omission kinds suppress broadcasts while preserving the
population, and a positive ``lag`` serves the adversary a stale
snapshot.  Models with no counts realisation (``receive-omission``)
are rejected: a per-receiver *inbox* mask is still out of scope (the
delivery mask here is per *sender class*, not per pair).

Flipping receivers are assigned the round's hash bits in pid order
(rank ``j`` reads bit ``j`` of the round's word block, precisely the
bit set :func:`repro.sim.streams.fair_binomial` popcounts), so silent
masks that crash the first ``k`` members of each bit class reproduce a
counts adversary's trajectories bit for bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro._math import deterministic_stage_threshold
from repro.errors import ConfigurationError
from repro.sim.batch import (
    STAGE_DETERMINISTIC,
    STAGE_PROBABILISTIC,
    STAGE_SYNC,
    BatchResult,
    VectorizedEngine,
    _Run,
)
from repro.sim.model import COUNTS_OMISSION
from repro.sim.streams import counter_words

__all__ = [
    "Batch2DAdversary",
    "Batch2DDecision",
    "Batch2DEngine",
    "Batch2DPartition",
    "Batch2DView",
]


@dataclass(frozen=True)
class Batch2DDecision:
    """One round's fault injection as ``(M, n)`` boolean victim masks.

    ``silent`` victims deliver nothing; ``after_send`` victims
    broadcast to the trial's shared ``recipients`` mask before failing.
    """

    silent: np.ndarray
    after_send: Optional[np.ndarray] = None
    recipients: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Batch2DView:
    """Per-round view handed to a :class:`Batch2DAdversary`.

    Per-process fields are ``(M, n)`` arrays, per-trial aggregates are
    ``(M,)``; all are snapshots or live references the adversary must
    not mutate.  ``received_history[r]`` is the per-trial count of
    messages every receiver of round ``r`` saw (the common, unmasked
    deliveries) — the tally history of the 1-D engine while no
    delivery mask split a round, and the conservative lower envelope
    once one did.
    """

    round_index: int
    n: int
    stage: np.ndarray
    senders: np.ndarray
    bits: np.ndarray
    tentative: np.ndarray
    alive: np.ndarray
    trial_stage: np.ndarray
    sender_count: np.ndarray
    budget_remaining: np.ndarray
    received_history: Tuple[np.ndarray, ...]
    active: np.ndarray

    def received_count(self, round_index: int) -> np.ndarray:
        """``(M,)`` array of ``N^r`` with ``N^{-1} = N^0 = n``."""
        if round_index < 0:
            return np.full(self.sender_count.shape, self.n, dtype=np.int64)
        return self.received_history[round_index]


class Batch2DAdversary(abc.ABC):
    """Adversary for the two-axis engine.

    ``reset(n, seeds)`` mirrors the 1-D batch contract (``seeds[i]`` is
    trial ``i``'s adversary seed); ``choose`` returns a
    :class:`Batch2DDecision` per round.
    """

    name: str = "batch2d-abstract"

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ConfigurationError(f"budget t must be >= 0, got {t}")
        self.t = t

    def reset(self, n: int, seeds: Sequence[int]) -> None:
        """Re-key for a new batch."""

    @abc.abstractmethod
    def choose(self, view: Batch2DView) -> Batch2DDecision:
        """Return this round's fault injection."""


class Batch2DPartition(Batch2DAdversary):
    """The paper's view-splitting move: crash senders *after* they
    deliver to only a fixed prefix of the population.

    Each round, while budget and the probabilistic stage last, the
    first sender (pid order) of every trial with more than one sender
    becomes an after-send victim whose final message reaches only pids
    ``< round(fraction * n)`` — so the two halves of the population
    tally different counts from the same round.  Inexpressible at
    counts level; exists to exercise (and test) per-recipient delivery
    masks and divergent per-process stages.
    """

    name = "batch2d-partition"

    def __init__(self, t: int, *, fraction: float = 0.5) -> None:
        super().__init__(t)
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1), got {fraction}"
            )
        self.fraction = fraction

    def choose(self, view: Batch2DView) -> Batch2DDecision:
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
        cut = min(n, max(1, int(round(self.fraction * n))))
        recipients = np.zeros((M, n), dtype=bool)
        recipients[:, :cut] = True
        return Batch2DDecision(
            silent=np.zeros((M, n), dtype=bool),
            after_send=after,
            recipients=recipients,
        )


def _row_count(mask: np.ndarray) -> np.ndarray:
    """``mask.sum(axis=1)`` as int64, accumulated in int32 (faster)."""
    return mask.sum(axis=1, dtype=np.int32).astype(np.int64)


class Batch2DEngine(VectorizedEngine):
    """Two-axis vectorized executor: M trials × n processes per op.

    The constructor and run scaffold are
    :class:`~repro.sim.batch.VectorizedEngine`'s; the adversary is a
    :class:`Batch2DAdversary`.

    Per-process state (bits, stages, flags, decisions) is always
    ``(M, n)``.  The per-receiver tallies (the round's ones and zeros
    received, and the three-round history of totals that the cascade
    and STOP rule read) are held per *trial*, ``(M, 1)``, while every
    receiver of a trial hears the same broadcasts: in every round
    without a recipient split.  A round whose after-send victims reach
    only a ``recipients`` mask makes that round's tallies per
    *process*, ``(M, n)``.  The history keeps them for the three
    rounds it looks back, then narrows again.  NumPy broadcasting runs
    both shapes through the same code.
    """

    _unrealised = (
        "grid realisation on the 2-D engine (its delivery mask is per "
        "sender class, not per pair)"
    )

    def run(
        self,
        inputs: Union[Sequence[int], np.ndarray],
        seeds: Sequence[int],
    ) -> BatchResult:
        """Execute one trial per seed on the given input bits.

        ``inputs`` is one ``(n,)`` bit vector shared by every trial or
        an ``(M, n)`` matrix of per-trial vectors.
        """
        proto = self.protocol
        n = self.n
        M = len(seeds)
        b = np.broadcast_to(self._input_bits(inputs, M), (M, n)).astype(
            np.int8, order="C"
        )
        run = _Run(self, seeds)
        active = run.active

        alive = np.ones((M, n), dtype=bool)
        halted = np.zeros((M, n), dtype=bool)
        tent = np.zeros((M, n), dtype=bool)
        stage = np.full((M, n), STAGE_PROBABILISTIC, dtype=np.int8)
        decision = np.full((M, n), -1, dtype=np.int8)
        det_rounds = np.zeros((M, n), dtype=np.int32)
        det_has0 = np.zeros((M, n), dtype=bool)
        det_has1 = np.zeros((M, n), dtype=bool)

        # Per-receiver N^{r-1}/N^{r-2}/N^{r-3} for cascade and STOP.
        # Each is (M, 1) while every receiver of a trial heard the same
        # broadcasts, (M, n) for three rounds after a split delivery;
        # never written in place, so the shift below can alias them.
        prev1 = prev2 = prev3 = np.full((M, 1), n, dtype=np.int32)

        omission = self.fault_model.counts_kind == COUNTS_OMISSION
        lag = self.fault_model.lag
        threshold = deterministic_stage_threshold(n)
        det_total = proto.det_stage_rounds(n)

        for r in run.round_indices():
            senders = alive & ~halted & active[:, None]
            p = _row_count(senders)
            ones_mask = senders & (b == 1)
            s1 = _row_count(ones_mask)
            s0 = p - s1
            trial_stage = np.min(
                stage,
                axis=1,
                where=senders,
                initial=STAGE_DETERMINISTIC,
            ).astype(np.int8)
            view = Batch2DView(
                round_index=r,
                n=n,
                stage=stage,
                senders=senders,
                bits=b,
                tentative=tent,
                alive=alive,
                trial_stage=trial_stage,
                sender_count=p,
                budget_remaining=run.budget_remaining(),
                received_history=tuple(run.received),
                active=active,
            )
            dec = self.adversary.choose(run.adversary_view(view))

            # Per trial: killed1/killed0 silent victims and a1/a0
            # after-send victims by bit.  Crash kinds remove them from
            # ``alive`` here; ``senders`` and ``ones_mask`` keep the
            # round's start.
            silent = dec.silent & senders
            after = (
                dec.after_send & senders & ~silent
                if dec.after_send is not None
                else None
            )
            if not lag:
                # Non-lagged adversaries must aim at actual senders; a
                # stale view may name processes that stopped since.
                stray = dec.silent & ~senders
                if dec.after_send is not None:
                    stray |= dec.after_send & ~senders
                stray &= active[:, None]
                if stray.any():
                    i = int(np.flatnonzero(stray.any(axis=1))[0])
                    raise ConfigurationError(
                        f"batch2d adversary targeted non-senders in "
                        f"trial {i}"
                    )
            killed1 = _row_count(silent & ones_mask)
            injected = _row_count(silent)
            killed0 = injected - killed1
            if not omission:
                alive &= ~silent
            a1 = a0 = 0
            rmask = None
            if after is not None:
                a1 = _row_count(after & ones_mask)
                a_all = _row_count(after)
                a0 = a_all - a1
                injected = injected + a_all
                if not omission:
                    alive &= ~after
                if dec.recipients is not None and a_all.any():
                    rmask = dec.recipients
            run.charge(injected, p)

            # Delivery: the common full broadcasts reach every receiver
            # of a trial, so its tallies stay (M, 1).  After-send
            # victims' last messages reach only the recipient mask,
            # which widens them to (M, n) for this round.
            f1 = s1 - killed1 - a1
            f0 = s0 - killed0 - a0
            run.received.append(f1 + f0)
            rcv1 = f1.astype(np.int32)[:, None]
            rcv0 = f0.astype(np.int32)[:, None]
            if rmask is not None:
                rcv1 = np.where(rmask, rcv1 + a1[:, None].astype(np.int32), rcv1)
                rcv0 = np.where(rmask, rcv0 + a0[:, None].astype(np.int32), rcv0)
            received = rcv1 + rcv0

            receivers = alive & ~halted & active[:, None]

            # Stage masks from the pre-round stages (transitions are
            # one-way, so no process moves twice in a round).
            prob = receivers & (stage == STAGE_PROBABILISTIC)
            syncm = receivers & (stage == STAGE_SYNC)
            det = receivers & (stage == STAGE_DETERMINISTIC)
            if proto.det_handoff:
                handoff = prob & (received < threshold)
                stage[handoff] = STAGE_SYNC
                prob_cont = prob & ~handoff
            else:
                prob_cont = prob

            # STOP rule for tentative deciders (needs a live receiver).
            stop_cand = prob_cont & tent & (received > 0)
            cascade = prob_cont
            if stop_cand.any():
                stopped = stop_cand & (
                    prev3 - received <= prev2 * proto.stop_fraction
                )
                decision[stopped] = b[stopped]
                halted |= stopped
                tent &= ~stop_cand
                cascade = prob_cont & ~stopped

            # Threshold cascade (first matching branch wins).
            if cascade.any():
                rem = cascade.copy()
                b_dec1 = rem & (rcv1 > proto.decide_hi * prev1)
                rem &= ~b_dec1
                b_prop1 = rem & (rcv1 > proto.propose_hi * prev1)
                rem &= ~b_prop1
                if proto.one_side_bias:
                    b_bias = rem & (rcv0 == 0)
                    rem &= ~b_bias
                else:
                    b_bias = np.zeros((M, n), dtype=bool)
                b_dec0 = rem & (rcv1 < proto.decide_lo * prev1)
                rem &= ~b_dec0
                b_prop0 = rem & (rcv1 < proto.propose_lo * prev1)
                flip = rem & ~b_prop0

                # Bits are 0/1, so in-place or/and set and clear them.
                b |= b_dec1 | b_prop1 | b_bias
                b &= ~(b_dec0 | b_prop0)
                tent |= b_dec1 | b_dec0
                if flip.any():
                    # Rank j (pid order) reads bit j of the round's
                    # word block: the exact bit set fair_binomial
                    # popcounts, hence bit-identical 1-D/2-D coins.
                    # Each row's flippers take its first bits in order.
                    words = counter_words(
                        run.coin_keys, r * run.coin_stride, run.coin_stride
                    )
                    coins = np.unpackbits(
                        words.astype("<u8").view(np.uint8),
                        axis=1,
                        bitorder="little",
                    )
                    ranked = (
                        np.arange(coins.shape[1]) < _row_count(flip)[:, None]
                    )
                    b[flip] = coins[ranked]

            # SYNC: one-round delay — inbox ignored, bits frozen, flood
            # set starts empty.
            if syncm.any():
                stage[syncm] = STAGE_DETERMINISTIC
                det_rounds[syncm] = 0
                det_has0[syncm] = False
                det_has1[syncm] = False

            # Deterministic flooding over the two frozen bit values.
            if det.any():
                det_has1 |= det & (rcv1 > 0)
                det_has0 |= det & (rcv0 > 0)
                det_rounds[det] += 1
                finish = det & (det_rounds >= det_total) & (received > 0)
                if finish.any():
                    # Decide 0 if a 0 was seen, else 1 if a 1 was.
                    decision[finish] = det_has1[finish] & ~det_has0[finish]
                    halted |= finish

            prev3, prev2, prev1 = prev2, prev1, received

            # A trial ends when no alive process is undecided — which
            # covers every-tentative-stopped, deterministic finish, and
            # the degenerate all-crashed case alike (mirroring the
            # scalar engine's undecided_alive bookkeeping).
            und = (alive & (decision < 0)).any(axis=1)
            run.finish(active & ~und, r)

        any0 = (decision == 0).any(axis=1)
        any1 = (decision == 1).any(axis=1)
        return run.result(
            np.where(any0 & ~any1, 0, np.where(any1 & ~any0, 1, -1)).astype(
                np.int64
            )
        )
