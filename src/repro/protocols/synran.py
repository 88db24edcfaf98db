"""SynRan — the paper's randomized synchronous consensus protocol (§4).

SynRan is Ben-Or's protocol [BO83] with two changes that make it
optimally resilient against the adaptive full-information fail-stop
adversary, for *any* ``t <= n``:

1. **A one-side-biased collective coin.**  The proposal rule contains
   the asymmetric clause ``Z_i^r = 0  =>  b_i = 1`` ("if I saw no zeros
   at all, propose 1 regardless of how few messages arrived").  The
   adversary can push tallies *down* by crashing 1-senders, but it can
   never manufacture a zero — so biasing the round towards 0 requires
   actually crashing every zero-sender forever, which burns its budget
   at the rate the upper-bound analysis (Lemma 4.6) charges it.

2. **A deterministic tail keyed on survivor count.**  When a process
   receives fewer than ``sqrt(n / log n)`` messages in a round it
   performs one more plain exchange round (the *one-round delay* that
   Lemma 4.3 uses to make the hand-off consistent) and then runs a
   FloodSet-style deterministic protocol among the few survivors.
   Unlike Goldreich–Petrank's round-number trigger, this trigger fires
   only when the adversary has already spent almost all of its budget.

Early stopping works through a tentative ``decided`` flag: a process
that sees a ``> 7/10`` supermajority marks itself decided, and actually
STOPs (halts, fixing its decision) one round later only if the
population was stable (``N^{r-3} - N^r <= N^{r-2}/10``); otherwise it
un-marks and continues.  Lemma 4.2 shows any process that STOPs this
way drags every other process to the same value.

Message wire format (payloads seen by the adversary and receivers):

* ``("BIT", b)`` — probabilistic stage and the one-round-delay SYNC
  round both broadcast the current choice bit.
* ``("DET", frozenset_of_bits)`` — deterministic-stage flooding of the
  set of frozen ``b`` values heard so far.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Set, Tuple

from repro._math import deterministic_stage_threshold
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.protocols.base import ConsensusProtocol
from repro.sim.inbox import tally
from repro.sim.model import ProcessCore

__all__ = ["SynRanProtocol", "SynRanState", "Stage"]


class Stage:
    """Per-process protocol stage constants."""

    PROBABILISTIC = "probabilistic"
    SYNC = "sync"  # the one-round delay before the deterministic stage
    DETERMINISTIC = "deterministic"


@dataclass
class SynRanState(ProcessCore):
    """Local state of one SynRan process.

    Attributes:
        b: Current choice for the consensus value (``b_i``); initialised
            to the input bit and frozen once the process leaves the
            probabilistic stage.
        tentative_decided: The algorithm's ``decided`` flag.  Tentative:
            it is cleared again if the population proves unstable.  The
            irrevocable decision is :attr:`ProcessCore.decision`, set at
            STOP or at the end of the deterministic stage.
        stage: One of the :class:`Stage` constants.
        n_hist: ``N_i^r`` for each probabilistic round executed, i.e.
            the number of messages received in round ``r`` (including
            the process's own); rounds before the start count as ``n``.
        det_known: Deterministic-stage flood set of frozen ``b`` values.
        det_rounds_done: Deterministic-stage round counter.
    """

    b: int = 0
    tentative_decided: bool = False
    stage: str = Stage.PROBABILISTIC
    n_hist: Dict[int, int] = field(default_factory=dict)
    det_known: Set[int] = field(default_factory=set)
    det_rounds_done: int = 0

    def received_count(self, round_index: int) -> int:
        """``N_i^r`` with the paper's convention ``N^{-1} = N^0 = n``.

        Rounds before the first are defined as ``n``; asking for a round
        the process has not executed is a programming error.
        """
        if round_index < 0:
            return self.n
        if round_index not in self.n_hist:
            raise ProtocolViolationError(
                f"process {self.pid} has no N for round {round_index}"
            )
        return self.n_hist[round_index]


class SynRanProtocol(ConsensusProtocol):
    """The paper's protocol.  Tolerates any number of crash failures.

    Args:
        decide_hi: Fraction for "decide 1" (paper: 7/10).
        propose_hi: Fraction for "propose 1" (paper: 6/10).
        propose_lo: Fraction for "propose 0" (paper: 5/10).
        decide_lo: Fraction for "decide 0" (paper: 4/10).
        stop_fraction: Population-stability fraction in the STOP rule
            (paper: 1/10).
        one_side_bias: Keep the ``Z == 0 => b = 1`` clause.  Setting
            this ``False`` yields the symmetric-coin ablation (see
            :class:`repro.protocols.symmetric.SymmetricRanProtocol`).
        det_handoff: Keep the deterministic tail.  Setting this
            ``False`` yields the pure-probabilistic ablation, which is
            *not* correct for ``t`` close to ``n`` (the adversary can
            whittle the system down to one process per camp); used only
            in ablation experiments.
        det_extra_rounds: Safety margin added to the deterministic
            stage length beyond ``ceil(sqrt(n / log n))``, covering the
            one-round hand-off skew Lemma 4.3 reasons about.

    The defaults are exactly the paper's constants.
    """

    name = "synran"
    requires_majority = False

    def __init__(
        self,
        *,
        decide_hi: float = 0.7,
        propose_hi: float = 0.6,
        propose_lo: float = 0.5,
        decide_lo: float = 0.4,
        stop_fraction: float = 0.1,
        one_side_bias: bool = True,
        det_handoff: bool = True,
        det_extra_rounds: int = 2,
    ) -> None:
        if not 0 < decide_lo <= propose_lo <= propose_hi <= decide_hi < 1:
            raise ConfigurationError(
                "thresholds must satisfy 0 < decide_lo <= propose_lo <= "
                f"propose_hi <= decide_hi < 1; got {decide_lo}, "
                f"{propose_lo}, {propose_hi}, {decide_hi}"
            )
        if not 0 < stop_fraction < 1:
            raise ConfigurationError(
                f"stop_fraction must be in (0, 1), got {stop_fraction}"
            )
        if det_extra_rounds < 0:
            raise ConfigurationError(
                f"det_extra_rounds must be >= 0, got {det_extra_rounds}"
            )
        self.decide_hi = decide_hi
        self.propose_hi = propose_hi
        self.propose_lo = propose_lo
        self.decide_lo = decide_lo
        self.stop_fraction = stop_fraction
        self.one_side_bias = one_side_bias
        self.det_handoff = det_handoff
        self.det_extra_rounds = det_extra_rounds

    # ------------------------------------------------------------------
    # protocol interface
    # ------------------------------------------------------------------

    def initial_state(
        self, pid: int, n: int, input_bit: int, rng: random.Random
    ) -> SynRanState:
        if input_bit not in (0, 1):
            raise ConfigurationError(
                f"SynRan input must be a bit, got {input_bit!r}"
            )
        return SynRanState(
            pid=pid, n=n, input_bit=input_bit, rng=rng, b=input_bit
        )

    def send(self, state: SynRanState, round_index: int) -> Tuple[str, Any]:
        if state.stage == Stage.DETERMINISTIC:
            return ("DET", frozenset(state.det_known))
        # Probabilistic stage and the SYNC delay round both broadcast b.
        return ("BIT", state.b)

    def receive(
        self,
        state: SynRanState,
        round_index: int,
        inbox: Mapping[int, Tuple[str, Any]],
    ) -> None:
        if state.stage == Stage.PROBABILISTIC:
            self._receive_probabilistic(state, round_index, inbox)
        elif state.stage == Stage.SYNC:
            # One-round delay (Lemma 4.3): broadcast happened in Phase A,
            # the inbox is deliberately ignored so b stays frozen.
            state.det_known = {state.b}
            state.stage = Stage.DETERMINISTIC
        elif state.stage == Stage.DETERMINISTIC:
            self._receive_deterministic(state, inbox)
        else:  # pragma: no cover - defensive
            raise ProtocolViolationError(
                f"process {state.pid} in unknown stage {state.stage!r}"
            )

    # ------------------------------------------------------------------
    # probabilistic stage
    # ------------------------------------------------------------------

    def _receive_probabilistic(
        self,
        state: SynRanState,
        round_index: int,
        inbox: Mapping[int, Tuple[str, Any]],
    ) -> None:
        ones, zeros = self._count_bits(state, round_index, inbox)
        received = ones + zeros
        state.n_hist[round_index] = received

        # Step 1 (checked before the STOP rule, as Lemma 4.3 requires):
        # too few survivors -> hand off to the deterministic stage.
        if self.det_handoff and received < deterministic_stage_threshold(
            state.n
        ):
            state.stage = Stage.SYNC
            return

        # Step 2: the STOP rule for a process that tentatively decided
        # in an earlier round.
        if state.tentative_decided:
            diff = state.received_count(round_index - 3) - received
            if diff <= state.received_count(round_index - 2) * (
                self.stop_fraction
            ):
                state.decide(state.b)
                state.halt()
                return
            state.tentative_decided = False

        # Step 3: the threshold / one-side-biased-coin update of b.
        self._update_choice(state, round_index, ones, zeros)

    def _count_bits(
        self,
        state: SynRanState,
        round_index: int,
        inbox: Mapping[int, Tuple[str, Any]],
    ) -> Tuple[int, int]:
        """``(ones, zeros)`` over the round's ``BIT`` messages."""
        ones = 0
        zeros = 0
        for payload, (count, _) in tally(inbox).items():
            tag, value = payload
            if tag != "BIT":
                # By Lemma 4.3's hand-off argument DET messages cannot
                # reach a probabilistic-stage process; seeing one means
                # the engine or a protocol subclass is broken.
                raise ProtocolViolationError(
                    f"probabilistic-stage process {state.pid} received "
                    f"{tag!r} message in round {round_index}"
                )
            if value == 1:
                ones += count
            else:
                zeros += count
        return ones, zeros

    def _update_choice(
        self, state: SynRanState, round_index: int, ones: int, zeros: int
    ) -> None:
        """The paper's cascade of tally thresholds (quoted in order)."""
        prev = state.received_count(round_index - 1)
        if ones > self.decide_hi * prev:
            state.b = 1
            state.tentative_decided = True
        elif ones > self.propose_hi * prev:
            state.b = 1
        elif self.one_side_bias and zeros == 0:
            # The one-side bias: no zeros seen at all => propose 1.
            state.b = 1
        elif ones < self.decide_lo * prev:
            state.b = 0
            state.tentative_decided = True
        elif ones < self.propose_lo * prev:
            state.b = 0
        else:
            state.b = state.rng.randrange(2)

    # ------------------------------------------------------------------
    # deterministic stage (FloodSet over the frozen b values)
    # ------------------------------------------------------------------

    def det_stage_rounds(self, n: int) -> int:
        """Length of the deterministic stage for an ``n``-process system.

        ``ceil(sqrt(n / log n))`` as in the paper, plus a small constant
        margin for the one-round hand-off skew.  Fewer than
        ``sqrt(n / log n)`` processes are alive when the stage starts,
        so the number of crashes it must ride out is strictly smaller
        than the number of rounds — the classic FloodSet clean-round
        argument then gives agreement.
        """
        return (
            math.ceil(deterministic_stage_threshold(n))
            + self.det_extra_rounds
        )

    def _receive_deterministic(
        self,
        state: SynRanState,
        inbox: Mapping[int, Tuple[str, Any]],
    ) -> None:
        for payload in tally(inbox):
            if payload[0] == "DET":
                state.det_known |= payload[1]
            else:
                # A BIT (or subclass variant) from a SYNC-round
                # straggler (one-round skew); its b value is frozen, so
                # absorbing it is sound.
                state.det_known.add(payload[1])
        state.det_rounds_done += 1
        if state.det_rounds_done >= self.det_stage_rounds(state.n):
            state.decide(min(state.det_known))
            state.halt()
