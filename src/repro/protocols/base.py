"""The protocol interface consumed by both simulator engines.

A protocol is a *stateless* strategy object; all per-process mutable
data lives in the :class:`~repro.sim.model.ProcessCore` subclass the
protocol creates in :meth:`ConsensusProtocol.initial_state`.  This split
lets one protocol instance drive thousands of independent executions
concurrently and keeps executions replayable from seeds.

The engine calls, per round and per live non-halted process:

1. ``send(state, r)`` — Phase A.  Returns the payload the process
   wishes to broadcast to everyone (``None`` means "send nothing").
   May flip coins via ``state.rng``; the adversary sees the results.
2. ``receive(state, r, inbox)`` — Phase B.  ``inbox`` maps sender pid
   to payload, in ascending sender order, for every message that
   reached this process *including its own broadcast* (a process always
   knows its own value; the adversary cannot suppress local knowledge).
   The transition mutates ``state`` and may call ``state.decide(v)``
   and/or ``state.halt()``.

The inbox contract: an inbox is read-only (item assignment raises
``TypeError``), and the engine hands the *same* inbox object to every
receiver that got the same messages that round, so a protocol must
never mutate it or keep per-process data in it.  Count it with
:func:`repro.sim.inbox.tally` — each distinct payload mapped to
``(count, lowest sender)``, in sender order of first appearance —
which a shared inbox computes once per round instead of once per
receiver.  ``tally`` counts a plain dict too, so tests and direct
callers may pass one.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Mapping

from repro.sim.model import ProcessCore

__all__ = ["ConsensusProtocol"]


class ConsensusProtocol(abc.ABC):
    """Abstract base class for synchronous consensus protocols.

    Subclasses must set :attr:`name` (used by the registry and in
    reports) and implement the three methods below.  A subclass may
    also declare :attr:`requires_majority` if it is only correct for
    ``t < n/2`` (the harness uses this to skip invalid configurations).
    """

    name: str = "abstract"
    #: True for protocols that are only t-resilient when t < n/2
    #: (e.g. classic Ben-Or).  SynRan and FloodSet tolerate any t <= n.
    requires_majority: bool = False

    @abc.abstractmethod
    def initial_state(
        self, pid: int, n: int, input_bit: int, rng: random.Random
    ) -> ProcessCore:
        """Create the local state of process ``pid`` with the given input."""

    @abc.abstractmethod
    def send(self, state: ProcessCore, round_index: int) -> Any:
        """Phase A: return the payload ``state``'s process broadcasts."""

    @abc.abstractmethod
    def receive(
        self, state: ProcessCore, round_index: int, inbox: Mapping[int, Any]
    ) -> None:
        """Phase B: consume the round's read-only, possibly shared inbox
        and update ``state``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
