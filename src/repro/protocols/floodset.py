"""FloodSet: the deterministic ``t+1``-round fail-stop consensus protocol.

This is the textbook protocol (Lynch, *Distributed Algorithms*, §6.2)
the paper refers to when it notes that "for larger t the best known
randomized solution is the deterministic t+1-round protocol".  Every
process maintains the set ``W`` of input values it has heard of, floods
``W`` every round, and after ``t + 1`` rounds decides ``min(W)``.

Correctness for fail-stop faults is classical: among any ``t + 1``
rounds there is at least one round in which no process crashes, and
after such a *clean* round all live processes hold the same ``W``.

It doubles as the reference implementation for SynRan's deterministic
stage (SynRan embeds its own copy of the flooding logic because its
stage runs on ``b_i`` values under a different message tagging scheme).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Set

from repro.errors import ConfigurationError
from repro.protocols.base import ConsensusProtocol
from repro.sim.inbox import tally
from repro.sim.model import ProcessCore

__all__ = ["FloodSetProtocol", "FloodSetState"]


@dataclass
class FloodSetState(ProcessCore):
    """Local state: the set of values heard so far and a round counter."""

    known: Set[int] = field(default_factory=set)
    rounds_completed: int = 0


class FloodSetProtocol(ConsensusProtocol):
    """Deterministic flooding consensus, resilient to ``rounds - 1`` crashes.

    Args:
        rounds: Number of flooding rounds to execute before deciding.
            Must be at least 1.  To tolerate a budget of ``t`` crashes,
            use ``rounds = t + 1`` (see :meth:`for_resilience`).

    The decision rule is ``min(W)`` — deterministic and input-valid:
    ``W`` only ever contains input values, and when all inputs equal
    ``v``, ``W == {v}`` everywhere.
    """

    name = "floodset"
    requires_majority = False

    def __init__(self, rounds: int) -> None:
        if rounds < 1:
            raise ConfigurationError(
                f"floodset needs at least 1 round, got {rounds}"
            )
        self.rounds = rounds

    @classmethod
    def for_resilience(cls, t: int) -> "FloodSetProtocol":
        """The ``t + 1``-round instance that tolerates ``t`` crashes."""
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        return cls(rounds=t + 1)

    def initial_state(
        self, pid: int, n: int, input_bit: int, rng: random.Random
    ) -> FloodSetState:
        return FloodSetState(
            pid=pid,
            n=n,
            input_bit=input_bit,
            rng=rng,
            known={input_bit},
        )

    def send(self, state: FloodSetState, round_index: int) -> FrozenSet[int]:
        return frozenset(state.known)

    def receive(
        self,
        state: FloodSetState,
        round_index: int,
        inbox: Mapping[int, FrozenSet[int]],
    ) -> None:
        for values in tally(inbox):
            state.known |= values
        state.rounds_completed += 1
        if state.rounds_completed >= self.rounds:
            state.decide(min(state.known))
            state.halt()
