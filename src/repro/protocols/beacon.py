"""BeaconRan: a shared-coin variant that is fast against *non-adaptive*
adversaries (the [CMS89] direction the paper discusses in §1.2).

The paper: "Chor, Merritt and Shmoys [CMS89] provide a randomized O(1)
expected number of rounds protocol for non-adaptive fail-stop
adversaries.  In particular this shows that our lower bound does not
hold without the adaptive selection of the faulty processes."

BeaconRan realises that regime with a light-weight mechanism on top of
SynRan's tally cascade: every round, each process independently
self-elects as a *beacon* with probability ≈ ``beacon_rate / p`` and
attaches a coin to its broadcast.  A process that lands in the
coin-flip band adopts the minimum-pid visible beacon's coin instead of
flipping privately — a *shared* coin:

* Against an **oblivious** adversary, some beacon survives and reaches
  everyone with constant probability per round, so all flippers adopt
  the *same* value, unanimity forms, and the protocol decides in O(1)
  expected rounds even at t = Θ(n) — beating SynRan's own log-order
  bleed stall in that regime.
* Against the **adaptive** adversary the beacons are announced in
  Phase A before delivery, so the adversary simply crashes every
  beacon each round (they self-identify!) and BeaconRan degrades to
  private coins plus a per-round beacon-assassination tax on the
  adversary — the protocol is still correct, just no faster than
  SynRan under full attack (:class:`repro.adversary.antibeacon.AntiBeaconAdversary`,
  experiment E12).

Safety is inherited unchanged from SynRan: the shared coin only
replaces the private flip inside the coin band, which affects no
agreement or validity argument (a common coin is just a particularly
correlated coin vector).

Wire format: ``("BBIT", b, beacon_coin_or_None)`` in the probabilistic
and SYNC stages; the deterministic stage is identical to SynRan's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.protocols.synran import Stage, SynRanProtocol, SynRanState
from repro.sim.inbox import tally

__all__ = ["BeaconRanProtocol", "BeaconRanState"]


@dataclass
class BeaconRanState(SynRanState):
    """SynRan state plus the beacon coin announced this round (if any)."""

    beacon_coin: Optional[int] = None


class BeaconRanProtocol(SynRanProtocol):
    """SynRan with a self-electing shared coin.

    Args:
        beacon_rate: Expected number of beacons per round (the
            self-election probability is ``beacon_rate / N^{r-1}``,
            clamped to 1).  A handful suffices; more beacons cost the
            adaptive adversary more to assassinate but change nothing
            against oblivious adversaries.
        **kwargs: Forwarded to :class:`SynRanProtocol` (thresholds,
            hand-off knobs).
    """

    name = "beacon-ran"

    def __init__(self, *, beacon_rate: float = 4.0, **kwargs: Any) -> None:
        if beacon_rate <= 0:
            raise ConfigurationError(
                f"beacon_rate must be > 0, got {beacon_rate}"
            )
        super().__init__(**kwargs)
        self.beacon_rate = beacon_rate

    def initial_state(
        self, pid: int, n: int, input_bit: int, rng: random.Random
    ) -> BeaconRanState:
        base = super().initial_state(pid, n, input_bit, rng)
        return BeaconRanState(
            pid=base.pid,
            n=base.n,
            input_bit=base.input_bit,
            rng=base.rng,
            b=base.b,
        )

    # ------------------------------------------------------------------

    def send(self, state: BeaconRanState, round_index: int):
        if state.stage == Stage.DETERMINISTIC:
            return ("DET", frozenset(state.det_known))
        if state.stage == Stage.PROBABILISTIC:
            prev = state.received_count(round_index - 1)
            probability = min(1.0, self.beacon_rate / max(prev, 1))
            if state.rng.random() < probability:
                state.beacon_coin = state.rng.randrange(2)
            else:
                state.beacon_coin = None
        else:
            state.beacon_coin = None  # SYNC round carries no beacon
        return ("BBIT", state.b, state.beacon_coin)

    def _count_bits(
        self,
        state: BeaconRanState,
        round_index: int,
        inbox: Mapping[int, Tuple[Any, ...]],
    ) -> Tuple[int, int]:
        # Count the bits for the inherited cascade while extracting the
        # shared coin: the lowest-pid sender's announced beacon coin.
        ones = 0
        zeros = 0
        shared: Optional[int] = None
        shared_pid: Optional[int] = None
        for payload, (count, lowest) in tally(inbox).items():
            if payload[0] == "BBIT":
                value = payload[1]
                coin = payload[2]
                if coin is not None and (
                    shared_pid is None or lowest < shared_pid
                ):
                    shared_pid = lowest
                    shared = coin
            elif payload[0] == "BIT":
                _, value = payload
            else:
                raise ProtocolViolationError(
                    f"probabilistic-stage process {state.pid} received "
                    f"{payload[0]!r} message in round {round_index}"
                )
            if value == 1:
                ones += count
            else:
                zeros += count
        state._shared_coin = shared  # consumed by _update_choice
        return ones, zeros

    def _update_choice(
        self, state: BeaconRanState, round_index: int, ones: int, zeros: int
    ) -> None:
        shared = getattr(state, "_shared_coin", None)
        prev = state.received_count(round_index - 1)
        # Exactly the complement of the cascade's non-coin branches:
        # coin iff ones <= propose_hi*prev, the bias clause does not
        # fire, and ones >= propose_lo*prev (which subsumes decide_lo).
        in_coin_band = (
            ones <= self.propose_hi * prev
            and not (self.one_side_bias and zeros == 0)
            and ones >= self.propose_lo * prev
        )
        if in_coin_band and shared is not None:
            state.b = shared
            state.tentative_decided = False
            return
        super()._update_choice(state, round_index, ones, zeros)
