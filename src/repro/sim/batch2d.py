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

Fault realisations follow the 1-D engine: crash kinds remove victims,
omission kinds suppress broadcasts while preserving the population
(budgeted by the shared
:class:`~repro.faultmodels.omission.BatchSuppressionLedger` high-water
rule), and a positive ``lag`` serves the adversary a stale snapshot via
:class:`~repro.faultmodels.late.LagRing`.  Models with no counts
realisation (``receive-omission``) are rejected: a per-receiver *inbox*
mask is still out of scope (the delivery mask here is per *sender
class*, not per pair).

Randomness, seed derivation, and the coin-stride layout are byte-for-
byte those of the 1-D batch engine: flipping receivers are assigned
the round's hash bits in pid order (rank ``j`` reads bit ``j`` of the
round's word block, precisely the bit set
:func:`repro.sim.streams.fair_binomial` popcounts), so silent masks
that crash the first ``k`` members of each bit class reproduce a
counts adversary's trajectories bit for bit.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    TerminationViolation,
)
from repro.faultmodels.late import LagRing
from repro.faultmodels.omission import BatchSuppressionLedger
from repro.faultmodels.registry import resolve_fault_model
from repro.protocols.synran import SynRanProtocol
from repro.sim.batch import (
    STAGE_DETERMINISTIC,
    STAGE_PROBABILISTIC,
    STAGE_SYNC,
    BatchResult,
)
from repro.sim.engine import default_max_rounds
from repro.sim.model import COUNTS_OMISSION, FaultModel
from repro.sim.streams import counter_words, stream_keys
from repro._math import deterministic_stage_threshold

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
    not mutate.  ``received_totals[r]`` is the per-trial count of
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
    received_totals: Tuple[np.ndarray, ...]
    active: np.ndarray

    def received_count(self, round_index: int) -> np.ndarray:
        """``(M,)`` array of ``N^r`` with ``N^{-1} = N^0 = n``."""
        if round_index < 0:
            return np.full(self.sender_count.shape, self.n, dtype=np.int64)
        return self.received_totals[round_index]


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


class Batch2DEngine:
    """Two-axis vectorized executor: M trials × n processes per op.

    Constructor contract mirrors
    :class:`~repro.sim.batch.BatchFastEngine` (protocol instance as
    configuration, per-trial budget enforcement, fault model resolved
    by name, no sanitizer, seeds passed to :meth:`run`); the adversary
    is a :class:`Batch2DAdversary`.

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

    def __init__(
        self,
        protocol: SynRanProtocol,
        adversary: Batch2DAdversary,
        n: int,
        *,
        max_rounds: Optional[int] = None,
        strict_termination: bool = True,
        fault_model: Union[str, FaultModel, None] = None,
    ) -> None:
        if not isinstance(protocol, SynRanProtocol):
            raise ConfigurationError(
                "Batch2DEngine supports SynRanProtocol configurations; "
                f"got {type(protocol).__name__}"
            )
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if adversary.t > n:
            raise ConfigurationError(
                f"adversary budget t={adversary.t} exceeds n={n}"
            )
        self.protocol = protocol
        self.adversary = adversary
        self.n = n
        self.max_rounds = (
            default_max_rounds(n) if max_rounds is None else max_rounds
        )
        self.strict_termination = strict_termination
        self.fault_model: FaultModel = resolve_fault_model(fault_model)
        if self.fault_model.counts_kind is None:
            raise ConfigurationError(
                f"fault model {self.fault_model.name!r} has no "
                "grid realisation on the 2-D engine (its delivery mask "
                "is per sender class, not per pair); use the reference "
                "engine"
            )

    # ------------------------------------------------------------------

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
        if M < 1:
            raise ConfigurationError("need at least one trial seed")
        bits = np.asarray(inputs, dtype=np.int8)
        if not np.isin(bits, (0, 1)).all():
            raise ConfigurationError("inputs must be bits")
        if bits.ndim == 1:
            if bits.shape[0] != n:
                raise ConfigurationError(
                    f"expected {n} inputs, got {bits.shape[0]}"
                )
            b = np.tile(bits, (M, 1))
        elif bits.ndim == 2:
            if bits.shape != (M, n):
                raise ConfigurationError(
                    f"expected inputs of shape ({M}, {n}), got {bits.shape}"
                )
            b = bits.copy()
        else:
            raise ConfigurationError(
                f"inputs must be 1- or 2-dimensional, got {bits.ndim}"
            )

        # Per-trial stream keys, mirroring the 1-D engines' derivation.
        coin_raw = np.empty(M, dtype=np.uint64)
        adv_seeds: List[int] = []
        for i, seed in enumerate(seeds):
            master = random.Random(int(seed))
            coin_raw[i] = master.getrandbits(64)
            adv_seeds.append(master.getrandbits(64))
        coin_keys = stream_keys(coin_raw)
        self.adversary.reset(n, adv_seeds)

        t = self.adversary.t
        alive = np.ones((M, n), dtype=bool)
        halted = np.zeros((M, n), dtype=bool)
        tent = np.zeros((M, n), dtype=bool)
        stage = np.full((M, n), STAGE_PROBABILISTIC, dtype=np.int8)
        decision = np.full((M, n), -1, dtype=np.int8)
        det_rounds = np.zeros((M, n), dtype=np.int32)
        det_has0 = np.zeros((M, n), dtype=bool)
        det_has1 = np.zeros((M, n), dtype=bool)
        active = np.ones(M, dtype=bool)
        budget_used = np.zeros(M, dtype=np.int64)
        decision_round = np.full(M, -1, dtype=np.int64)
        rounds = np.zeros(M, dtype=np.int64)

        # Per-receiver N^{r-1}/N^{r-2}/N^{r-3} for cascade and STOP.
        # Each is (M, 1) while every receiver of a trial heard the same
        # broadcasts, (M, n) for three rounds after a split delivery;
        # never written in place, so the shift below can alias them.
        prev1 = prev2 = prev3 = np.full((M, 1), n, dtype=np.int32)

        hist_totals: List[np.ndarray] = []
        crashes_hist: List[np.ndarray] = []
        senders_hist: List[np.ndarray] = []

        omission = self.fault_model.counts_kind == COUNTS_OMISSION
        ledger = BatchSuppressionLedger(t, M) if omission else None
        lag = self.fault_model.lag
        ring: LagRing[Batch2DView] = LagRing(lag)

        threshold = deterministic_stage_threshold(n)
        det_total = proto.det_stage_rounds(n)
        coin_stride = (n + 63) // 64

        r = 0
        while active.any():
            if r >= self.max_rounds:
                if self.strict_termination:
                    raise TerminationViolation(
                        f"{int(active.sum())} of {M} trials undecided "
                        f"after {self.max_rounds} rounds (batch2d engine)"
                    )
                rounds[active] = self.max_rounds
                break

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
                budget_remaining=t - budget_used,
                received_totals=tuple(hist_totals),
                active=active,
            )
            if lag:
                ring.push(self._freeze(view))
                stale = ring.stale(r)
                adv_view = Batch2DView(
                    round_index=stale.round_index,
                    n=n,
                    stage=stale.stage,
                    senders=stale.senders,
                    bits=stale.bits,
                    tentative=stale.tentative,
                    alive=stale.alive,
                    trial_stage=stale.trial_stage,
                    sender_count=stale.sender_count,
                    budget_remaining=t - budget_used,
                    received_totals=tuple(
                        hist_totals[: stale.round_index]
                    ),
                    active=active,
                )
            else:
                adv_view = view
            dec = self.adversary.choose(adv_view)

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

            if omission:
                ledger.charge(injected)
                budget_used = ledger.used
            else:
                budget_used = budget_used + injected
                if (budget_used > t).any():
                    i = int(np.flatnonzero(budget_used > t)[0])
                    raise BudgetExceededError(
                        f"batch2d adversary used {int(budget_used[i])} "
                        f"crashes in trial {i}, budget is {t}"
                    )
            crashes_hist.append(injected)
            senders_hist.append(p.copy())

            # Delivery: the common full broadcasts reach every receiver
            # of a trial, so its tallies stay (M, 1).  After-send
            # victims' last messages reach only the recipient mask,
            # which widens them to (M, n) for this round.
            f1 = s1 - killed1 - a1
            f0 = s0 - killed0 - a0
            hist_totals.append(f1 + f0)
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
                        coin_keys, r * coin_stride, coin_stride
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
            newly = active & ~und
            decision_round[newly] = r
            rounds[newly] = r + 1
            active &= und
            r += 1

        horizon = len(crashes_hist)
        crashes = (
            np.stack(crashes_hist)
            if horizon
            else np.zeros((0, M), dtype=np.int64)
        )
        senders_rounds = (
            np.stack(senders_hist)
            if horizon
            else np.zeros((0, M), dtype=np.int64)
        )
        any0 = (decision == 0).any(axis=1)
        any1 = (decision == 1).any(axis=1)
        common = np.where(
            any0 & ~any1, 0, np.where(any1 & ~any0, 1, -1)
        ).astype(np.int64)
        return BatchResult(
            rounds=rounds,
            decision_round=decision_round,
            decision=common,
            crashes_used=budget_used,
            survivors=_row_count(alive),
            terminated=decision_round >= 0,
            crashes_per_round=crashes,
            senders_per_round=senders_rounds,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _freeze(view: Batch2DView) -> Batch2DView:
        """A deep-copied snapshot for the lag ring (the live arrays are
        mutated as the round executes)."""
        return Batch2DView(
            round_index=view.round_index,
            n=view.n,
            stage=view.stage.copy(),
            senders=view.senders.copy(),
            bits=view.bits.copy(),
            tentative=view.tentative.copy(),
            alive=view.alive.copy(),
            trial_stage=view.trial_stage.copy(),
            sender_count=view.sender_count.copy(),
            budget_remaining=view.budget_remaining.copy(),
            received_totals=view.received_totals,
            active=view.active.copy(),
        )
