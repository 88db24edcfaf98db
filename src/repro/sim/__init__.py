"""Synchronous message-passing system simulator (the paper's model).

This subpackage implements the substrate of Section 3.1 of the paper: a
collection of ``n`` processes that proceed in synchronous rounds, each
round split into

* **Phase A** — local computation and local coin flips, producing the
  messages the process *wishes* to send this round, and
* **Phase B** — message exchange, mediated by a fail-stop adversary that
  has already seen every local state, coin, and pending message, and may
  crash processes mid-broadcast (choosing exactly which subset of the
  victim's round messages is still delivered).

Communication links are perfectly reliable: every message a live (or
partially-delivering crashing) process sends is delivered in the same
round.  A process that crashes sends nothing in any later round.

Three engines are provided:

* :mod:`repro.sim.engine` — the message-level reference engine.  Works
  with any :class:`repro.protocols.base.ConsensusProtocol`, records full
  execution traces, and enforces the model's invariants strictly.
* :mod:`repro.sim.batch` — the counts-level engine for broadcast-bit
  protocols (SynRan and its ablations) that scales to tens of thousands
  of processes: M seeded trials advance in lockstep as ``(M,)`` tally
  arrays, drawing coins from counter-based hash streams
  (:mod:`repro.sim.streams`); cross-checked against the reference
  engine in the differential tests.
* :mod:`repro.sim.batch2d` — the two-axis engine: full ``(M, n)``
  per-process state with mask-level victim selection and per-recipient
  delivery masks; counts adversaries lift onto it bit-identically.

Adversary names resolve, per engine, through the one table in
:mod:`repro.adversary.registry`.
"""

from repro.sim.model import (
    FailureDecision,
    ProcessCore,
    RoundView,
    Verdict,
)
from repro.sim.engine import Engine, ExecutionResult
from repro.sim.checks import verify_execution
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = [
    "Engine",
    "ExecutionResult",
    "ExecutionTrace",
    "FailureDecision",
    "ProcessCore",
    "RoundRecord",
    "RoundView",
    "Verdict",
    "verify_execution",
]
