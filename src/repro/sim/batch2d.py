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

The per-receiver tallies never need ``(M, n)`` integers: a decision
carries one ``recipients`` mask per trial, so in any round a receiver
hears one of two counts, the common deliveries or those plus the
after-send victims' last messages.  Tallies are held per trial with
the mask that tells them apart (:class:`_Tally`), every protocol test
runs on those per-trial counts, and only its bool result is spread
over the receivers.

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
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro._math import deterministic_stage_threshold
from repro.errors import ConfigurationError
from repro.protocols.synran import SynRanProtocol
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
        self._shared: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _shared_masks(self, M: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The read-only ``(silent, recipients)`` masks of every round:
        one object each, so the engine sees the same recipients mask
        in every round's tallies."""
        if self._shared is None or self._shared[1].shape != (M, n):
            silent = np.zeros((M, n), dtype=bool)
            recipients = np.zeros((M, n), dtype=bool)
            recipients[:, : min(n, max(1, int(round(self.fraction * n))))] = True
            silent.flags.writeable = recipients.flags.writeable = False
            self._shared = (silent, recipients)
        return self._shared

    def choose(self, view: Batch2DView) -> Batch2DDecision:
        M, n = view.senders.shape
        eligible = (
            view.active
            & (view.budget_remaining > 0)
            & (view.sender_count > 1)
            & (view.trial_stage == STAGE_PROBABILISTIC)
        )
        # The first sender of each eligible row (argmax finds the first
        # True; a row without senders has none to pick).
        rows = np.flatnonzero(eligible)
        first = view.senders[rows].argmax(axis=1)
        after = np.zeros((M, n), dtype=bool)
        after[rows, first] = view.senders[rows, first]
        silent, recipients = self._shared_masks(M, n)
        return Batch2DDecision(
            silent=silent, after_send=after, recipients=recipients
        )


def _row_count(mask: np.ndarray) -> np.ndarray:
    """``mask.sum(axis=1)`` as int64, accumulated in int32 (faster)."""
    return mask.sum(axis=1, dtype=np.int32).astype(np.int64)


class _Tally(NamedTuple):
    """One round's count per receiver, held per trial.

    Every receiver of trial ``i`` hears ``full[i]`` messages; the
    receivers in ``mask`` (the round's ``recipients`` mask, ``None``
    when no message was split) hear ``split[i]`` more.  ``full`` and
    ``split`` are ``(M, 1)`` int64 columns.
    """

    full: np.ndarray
    split: np.ndarray
    mask: Optional[np.ndarray] = None


def _select(mask: np.ndarray, out: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``inside`` on the receivers in ``mask``, ``out`` elsewhere.

    Bool ops only (``np.where`` on bools is many times slower); when
    the two agree on every row the result keeps ``out``'s shape.
    """
    diff = out ^ inside
    if not diff.any():
        return out
    return out ^ (mask & diff)


def _per_receiver(
    test: Callable[..., Tuple[np.ndarray, ...]], *tallies: _Tally
) -> Tuple[np.ndarray, ...]:
    """``test`` applied to every receiver's counts of ``tallies``.

    ``test`` maps one ``(M, 1)`` count column per tally to a tuple of
    ``(M, 1)`` bool columns.  A receiver's counts depend only on which
    of the tallies' masks it is in, so ``test`` runs once per
    combination of the distinct masks (at most ``2**len(tallies)``
    times) and each result is spread over the receivers.  A result is
    ``(M, n)`` where a mask splits it and ``(M, 1)`` otherwise; both
    broadcast against the engine's ``(M, n)`` state.
    """
    # Distinct masks by identity, in first-seen order.
    masks = list(
        {id(t.mask): t.mask for t in tallies if t.mask is not None}.values()
    )
    slot = {id(m): k for k, m in enumerate(masks)}
    results = [
        test(
            *(
                t.full + t.split
                if t.mask is not None and inside[slot[id(t.mask)]]
                else t.full
                for t in tallies
            )
        )
        for inside in itertools.product((False, True), repeat=len(masks))
    ]
    # Combinations run in product order, so the first mask splits the
    # list in halves: out of it, then in it.
    for mask in masks:
        half = len(results) // 2
        results = [
            tuple(_select(mask, o, i) for o, i in zip(out, inside))
            for out, inside in zip(results[:half], results[half:])
        ]
    return results[0]


def _heard(count: np.ndarray) -> Tuple[np.ndarray]:
    """A receiver heard someone (STOP, finish), or heard a 1 or a 0
    (flooding)."""
    return (count > 0,)


def _below(threshold: int, received: np.ndarray) -> Tuple[np.ndarray]:
    """The deterministic handoff: fewer than ``threshold`` messages."""
    return (received < threshold,)


def _stable(
    stop_fraction: float,
    prev3: np.ndarray,
    received: np.ndarray,
    prev2: np.ndarray,
) -> Tuple[np.ndarray]:
    """STOP's stability test, ``N^{r-3} - N^r <= stop_fraction * N^{r-2}``."""
    return (prev3 - received <= prev2 * stop_fraction,)


def _cascade(
    proto: SynRanProtocol,
    rcv1: np.ndarray,
    rcv0: np.ndarray,
    prev1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The threshold cascade, first matching branch winning:
    ``(to_one, to_zero, decided, coin)``."""
    dec1 = rcv1 > proto.decide_hi * prev1
    prop1 = ~dec1 & (rcv1 > proto.propose_hi * prev1)
    rem = ~(dec1 | prop1)
    if proto.one_side_bias:
        bias = rem & (rcv0 == 0)
        rem &= ~bias
    else:
        bias = np.zeros_like(rem)
    dec0 = rem & (rcv1 < proto.decide_lo * prev1)
    rem &= ~dec0
    prop0 = rem & (rcv1 < proto.propose_lo * prev1)
    return dec1 | prop1 | bias, dec0 | prop0, dec1 | dec0, rem & ~prop0


def _lowest_stage(stage: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """Each trial's lowest sender stage, ``STAGE_DETERMINISTIC`` for a
    trial without senders (``(M,)`` int8)."""
    return np.where(
        (senders & (stage == STAGE_PROBABILISTIC)).any(axis=1),
        STAGE_PROBABILISTIC,
        np.where(
            (senders & (stage == STAGE_SYNC)).any(axis=1),
            STAGE_SYNC,
            STAGE_DETERMINISTIC,
        ),
    ).astype(np.int8)


class Batch2DEngine(VectorizedEngine):
    """Two-axis vectorized executor: M trials × n processes per op.

    The constructor and run scaffold are
    :class:`~repro.sim.batch.VectorizedEngine`'s; the adversary is a
    :class:`Batch2DAdversary`.

    Per-process state (bits, stages, flags, flood sets, decisions) is
    ``(M, n)``.  The per-receiver tallies (the round's ones and zeros
    received, and the three-round history of totals that the cascade
    and STOP rule read) are :class:`_Tally` values: per-trial counts
    plus the round's ``recipients`` mask.  Each protocol test runs on
    the per-trial counts, once per combination of the masks it reads,
    and only its bool result is spread over the receivers.
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
        prev1 = prev2 = prev3 = _Tally(
            np.full((M, 1), n, dtype=np.int64), np.zeros((M, 1), np.int64)
        )

        omission = self.fault_model.counts_kind == COUNTS_OMISSION
        lag = self.fault_model.lag
        threshold = deterministic_stage_threshold(n)
        det_total = proto.det_stage_rounds(n)

        below = functools.partial(_below, threshold)
        stable = functools.partial(_stable, proto.stop_fraction)
        branches = functools.partial(_cascade, proto)

        for r in run.round_indices():
            senders = alive & ~halted & active[:, None]
            p = _row_count(senders)
            ones_mask = senders & (b == 1)
            s1 = _row_count(ones_mask)
            s0 = p - s1
            view = Batch2DView(
                round_index=r,
                n=n,
                stage=stage,
                senders=senders,
                bits=b,
                tentative=tent,
                alive=alive,
                trial_stage=_lowest_stage(stage, senders),
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
            a1 = a0 = np.zeros(M, dtype=np.int64)
            rmask = None
            if after is not None:
                a1 = _row_count(after & ones_mask)
                a_all = _row_count(after)
                a0 = a_all - a1
                injected = injected + a_all
                if not omission:
                    alive &= ~after
                if dec.recipients is not None and a_all.any():
                    # The tally history holds the mask for three rounds:
                    # copy one the adversary could still write to.
                    rmask = dec.recipients
                    if rmask.flags.writeable:
                        rmask = rmask.copy()
            run.charge(injected, p)

            # Delivery: the common full broadcasts reach every receiver
            # of a trial; after-send victims' last messages reach only
            # the recipients mask.
            f1 = s1 - killed1 - a1
            f0 = s0 - killed0 - a0
            run.received.append(f1 + f0)
            rcv1 = _Tally(f1[:, None], a1[:, None], rmask)
            rcv0 = _Tally(f0[:, None], a0[:, None], rmask)
            received = _Tally(
                rcv1.full + rcv0.full, rcv1.split + rcv0.split, rmask
            )
            (heard,) = _per_receiver(_heard, received)

            receivers = alive & ~halted & active[:, None]

            # Stage masks from the pre-round stages (transitions are
            # one-way, so no process moves twice in a round).
            prob = receivers & (stage == STAGE_PROBABILISTIC)
            syncm = receivers & (stage == STAGE_SYNC)
            det = receivers & (stage == STAGE_DETERMINISTIC)
            if proto.det_handoff:
                (low,) = _per_receiver(below, received)
                handoff = prob & low
                np.copyto(stage, STAGE_SYNC, where=handoff)
                prob_cont = prob & ~handoff
            else:
                prob_cont = prob

            # STOP rule for tentative deciders (needs a live receiver).
            stop_cand = prob_cont & tent & heard
            cascade = prob_cont
            if stop_cand.any():
                (steady,) = _per_receiver(stable, prev3, received, prev2)
                stopped = stop_cand & steady
                np.copyto(decision, b, where=stopped)
                halted |= stopped
                tent &= ~stop_cand
                cascade = prob_cont & ~stopped

            if cascade.any():
                to_one, to_zero, decided, coin = _per_receiver(
                    branches, rcv1, rcv0, prev1
                )
                # Bits are 0/1, so in-place or/and set and clear them.
                b |= cascade & to_one
                b &= ~(cascade & to_zero)
                tent |= cascade & decided
                flip = cascade & coin
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
                    ranked = np.arange(
                        coins.shape[1], dtype=np.int32
                    ) < flip.sum(axis=1, dtype=np.int32)[:, None]
                    b[flip] = coins[ranked]

            # SYNC: one-round delay — inbox ignored, bits frozen, flood
            # set starts empty.
            if syncm.any():
                np.copyto(stage, STAGE_DETERMINISTIC, where=syncm)
                np.copyto(det_rounds, 0, where=syncm)
                det_has0 &= ~syncm
                det_has1 &= ~syncm

            # Deterministic flooding over the two frozen bit values.
            if det.any():
                (saw1,) = _per_receiver(_heard, rcv1)
                (saw0,) = _per_receiver(_heard, rcv0)
                det_has1 |= det & saw1
                det_has0 |= det & saw0
                det_rounds += det
                finish = det & (det_rounds >= det_total) & heard
                if finish.any():
                    # Decide 0 if a 0 was seen, else 1 if a 1 was.
                    np.copyto(decision, det_has1 & ~det_has0, where=finish)
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
