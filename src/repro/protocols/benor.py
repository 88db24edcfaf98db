"""Classic Ben-Or consensus [BO83], ported to the synchronous model.

This is the correct randomized baseline for ``t < n/2``: the two-phase
(report / propose) structure with symmetric local coins.  The paper's
point of comparison: against a full-information adaptive fail-stop
adversary this protocol is fast only for ``t = O(sqrt(n))``; SynRan's
one-side-biased coin is what extends fast agreement to all ``t``.

Synchronous port of the textbook protocol:

* **Report round** (even engine rounds): broadcast ``("R", b)``.  If
  some value ``v`` was reported by more than ``n/2`` *distinct
  processes* (an absolute quorum, so two different values can never
  both be proposed), propose ``v``; otherwise propose "no preference"
  (``None``).
* **Propose round** (odd engine rounds): broadcast ``("P", proposal)``.
  If at least ``t + 1`` copies of a value ``v`` arrive, decide ``v``
  (at least one proposer survives the round, so every process hears
  ``v``); else if at least one copy arrives, adopt ``b = v``; else flip
  a fair local coin.
* **Decision broadcast**: a decided process broadcasts ``("D", v)`` for
  two further rounds so laggards catch up, then halts; a process that
  receives any ``("D", v)`` decides ``v`` immediately (sound under
  fail-stop faults — senders never lie).

Validity: unanimous input ``v`` means every report is ``v``, every
process counts at least ``n - t > n/2`` of them, proposes ``v``, then
counts at least ``n - t >= t + 1`` proposals and decides in the first
phase pair.  Agreement: the absolute quorum makes concurrent proposals
for different values impossible, and a ``t+1`` count guarantees a
surviving proposer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.protocols.base import ConsensusProtocol
from repro.sim.inbox import Tally, tally
from repro.sim.model import ProcessCore

__all__ = ["BenOrProtocol", "BenOrState"]


@dataclass
class BenOrState(ProcessCore):
    """Local state: current value, the pending proposal, and the
    countdown of post-decision broadcast rounds."""

    b: int = 0
    proposal: Optional[int] = None
    d_rounds_left: int = 0


class BenOrProtocol(ConsensusProtocol):
    """Two-phase Ben-Or with symmetric coins; requires ``t < n/2``.

    Args:
        t: The crash budget the instance is configured to tolerate;
            used in the ``t + 1`` decision threshold.
        decision_broadcast_rounds: How many rounds a decided process
            keeps broadcasting its decision before halting.
    """

    name = "benor"
    requires_majority = True

    def __init__(self, t: int, *, decision_broadcast_rounds: int = 2) -> None:
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if decision_broadcast_rounds < 1:
            raise ConfigurationError(
                "decision_broadcast_rounds must be >= 1, got "
                f"{decision_broadcast_rounds}"
            )
        self.t = t
        self.decision_broadcast_rounds = decision_broadcast_rounds

    def initial_state(
        self, pid: int, n: int, input_bit: int, rng: random.Random
    ) -> BenOrState:
        if input_bit not in (0, 1):
            raise ConfigurationError(
                f"Ben-Or input must be a bit, got {input_bit!r}"
            )
        if self.t >= (n + 1) // 2 and n > 1:
            # Configured beyond its resilience; permitted (experiments
            # probe exactly this regime) but the quorum logic below is
            # only guaranteed correct for t < n/2.
            pass
        return BenOrState(
            pid=pid, n=n, input_bit=input_bit, rng=rng, b=input_bit
        )

    def send(
        self, state: BenOrState, round_index: int
    ) -> Tuple[str, Any]:
        if state.decided:
            return ("D", state.decision)
        if round_index % 2 == 0:
            return ("R", state.b)
        return ("P", state.proposal)

    def receive(
        self,
        state: BenOrState,
        round_index: int,
        inbox: Mapping[int, Tuple[str, Any]],
    ) -> None:
        if state.decided:
            state.d_rounds_left -= 1
            if state.d_rounds_left <= 0:
                state.halt()
            return

        counts = tally(inbox)
        for tag, value in counts:
            if tag == "D":
                self._decide(state, value)
                return

        if round_index % 2 == 0:
            self._receive_reports(state, counts)
        else:
            self._receive_proposals(state, counts)

    # ------------------------------------------------------------------

    def _decide(self, state: BenOrState, value: int) -> None:
        state.decide(value)
        state.d_rounds_left = self.decision_broadcast_rounds

    def _receive_reports(
        self, state: BenOrState, messages: Tally
    ) -> None:
        counts = {0: 0, 1: 0}
        for (tag, value), (count, _) in messages.items():
            if tag == "R":
                counts[value] += count
        state.proposal = None
        for v in (0, 1):
            if counts[v] * 2 > state.n:
                state.proposal = v
                break

    def _receive_proposals(
        self, state: BenOrState, messages: Tally
    ) -> None:
        counts = {0: 0, 1: 0}
        for (tag, value), (count, _) in messages.items():
            if tag == "P" and value is not None:
                counts[value] += count
        if counts[0] and counts[1]:
            # The absolute > n/2 report quorum makes this impossible in
            # the fail-stop model; reaching here means an engine bug.
            raise ProtocolViolationError(
                f"process {state.pid} saw proposals for both values: "
                f"{counts}"
            )
        value = 0 if counts[0] else 1
        if counts[value] >= self.t + 1:
            self._decide(state, value)
        elif counts[value] >= 1:
            state.b = value
        else:
            state.b = state.rng.randrange(2)
