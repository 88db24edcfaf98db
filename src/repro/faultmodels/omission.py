"""Adaptive omission faults: messages dropped, processes preserved.

In the omission regime (the adaptive-omission setting of
Hajiaghayi–Kowalski–Olkowski, arXiv:2405.04762) a faulty process never
dies: the adversary may suppress messages on one side of a faulty
endpoint, but the process keeps computing, keeps receiving whatever is
delivered, and always sees its own broadcast value.  The budget ``t``
bounds the number of *distinct* faulty processes over the execution —
charging happens the first round a pid is marked faulty, and re-serving
an already-faulty pid is free.

Two variants:

* **send-omission** — the faulty endpoint is the *sender*: chosen
  recipients miss its round message.  Supported by every engine; the
  counts engines realise it as per-round suppression counts over the
  uniform view (see ``docs/model.md`` for the approximation).
* **receive-omission** — the faulty endpoint is the *receiver*: it
  misses chosen senders' messages while everyone else gets them.
  Reference engine only — per-receiver inboxes are exactly what the
  uniform-view collapse of the counts engines cannot express
  (``counts_kind`` is ``None``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import BudgetExceededError, ConfigurationError
from repro.sim.model import (
    COUNTS_OMISSION,
    FailureDecision,
    FaultDecision,
    FaultModel,
    ReceiveOmissionDecision,
    RoundView,
    SendOmissionDecision,
)

__all__ = [
    "BatchSuppressionLedger",
    "ReceiveOmissionFaultModel",
    "SendOmissionFaultModel",
]


class BatchSuppressionLedger:
    """Vectorized budget accounting for counts-level send-omission.

    The counts engines cannot name pids, so the distinct-faulty budget
    is charged as the *high-water mark* of per-round suppression: one
    round suppressing ``k`` senders proves at least ``k`` distinct
    faulty processes (a lower bound on the true distinct count — see
    ``docs/model.md``).  This ledger is that rule over ``(M,)`` trial
    vectors, shared by :class:`~repro.sim.batch.BatchFastEngine` and
    the two-axis :class:`~repro.sim.batch2d.Batch2DEngine` so the 1-D
    and 2-D realisations of the PR-7 model stay numerically identical.
    """

    def __init__(self, t: int, trials: int) -> None:
        if t < 0:
            raise ConfigurationError(f"budget t must be >= 0, got {t}")
        self.t = t
        self.used = np.zeros(trials, dtype=np.int64)

    def charge(self, suppressed: np.ndarray, what: str = "senders") -> None:
        """Record one round's per-trial suppression counts; raises
        :class:`~repro.errors.BudgetExceededError` past the budget."""
        self.used = np.maximum(self.used, suppressed)
        if (self.used > self.t).any():
            i = int(np.flatnonzero(self.used > self.t)[0])
            raise BudgetExceededError(
                f"batch adversary suppressed {int(self.used[i])} "
                f"{what} in one round of trial {i}; distinct-faulty "
                f"budget is {self.t}"
            )


def _check_pids(
    faulty: FrozenSet[int], peers, view: RoundView, role: str
) -> None:
    """Shared structural validation for both omission variants."""
    for pid in faulty:
        if pid not in view.alive:
            raise ConfigurationError(
                f"adversary marked pid {pid} omission-faulty, but it is "
                f"not a participant of round {view.round_index}"
            )
    for peer_set in peers:
        for pid in peer_set:
            if not 0 <= pid < view.n:
                raise ConfigurationError(
                    f"omission decision references unknown {role} pid "
                    f"{pid} (n={view.n})"
                )


class SendOmissionFaultModel(FaultModel):
    """Faulty senders' messages are dropped for chosen recipients.

    Decisions are :class:`~repro.sim.model.SendOmissionDecision`;
    crash-shaped :class:`~repro.sim.model.FailureDecision` returns are
    coerced (each victim becomes a faulty sender whose withheld
    recipients are suppressed — it just doesn't die), so crash-era
    adversaries run unmodified under this model.
    """

    name = "send-omission"
    counts_kind = COUNTS_OMISSION

    def __init__(self) -> None:
        self._faulty: Set[int] = set()

    def begin_run(self, n: int, t: int) -> None:
        self._faulty = set()

    def normalize(
        self, decision: Optional[FaultDecision], view: RoundView
    ) -> FaultDecision:
        if decision is None:
            return SendOmissionDecision.none()
        if isinstance(decision, SendOmissionDecision):
            return SendOmissionDecision.of(decision.suppressed)
        if isinstance(decision, FailureDecision):
            everyone = frozenset(range(view.n))
            return SendOmissionDecision.of(
                {
                    v: everyone - allowed - {v}
                    for v, allowed in decision.deliveries.items()
                }
            )
        raise ConfigurationError(
            f"the {self.name!r} fault model expects a "
            f"SendOmissionDecision (or a coercible FailureDecision), "
            f"got {type(decision).__name__}"
        )

    def validate(self, decision: FaultDecision, view: RoundView) -> None:
        _check_pids(
            decision.faulty,
            decision.suppressed.values(),
            view,
            "recipient",
        )

    def charge(
        self, decision: FaultDecision
    ) -> Tuple[int, FrozenSet[int]]:
        new = frozenset(decision.faulty - self._faulty)
        self._faulty |= new
        return len(new), new

    def crash_victims(self, decision: FaultDecision) -> FrozenSet[int]:
        return frozenset()

    def withheld(
        self,
        decision: FaultDecision,
        participants: Sequence[int],
        receivers: Sequence[int],
    ) -> Dict[int, FrozenSet[int]]:
        receiver_set = set(receivers)
        out: Dict[int, FrozenSet[int]] = {}
        for sender, suppressed in decision.suppressed.items():
            missed = frozenset(
                r for r in suppressed if r in receiver_set and r != sender
            )
            if missed:
                out[sender] = missed
        return out


class ReceiveOmissionFaultModel(FaultModel):
    """Faulty receivers miss chosen senders' messages.

    The dual of :class:`SendOmissionFaultModel`: drops are keyed by the
    receiving endpoint, so two receivers of the same round can see
    different inboxes even though every sender is healthy.  That
    per-receiver asymmetry is exactly what the counts engines' uniform
    views cannot express, so this model is reference-engine only
    (``counts_kind`` is ``None``).
    """

    name = "receive-omission"
    counts_kind = None

    def __init__(self) -> None:
        self._faulty: Set[int] = set()

    def begin_run(self, n: int, t: int) -> None:
        self._faulty = set()

    def normalize(
        self, decision: Optional[FaultDecision], view: RoundView
    ) -> FaultDecision:
        if decision is None:
            return ReceiveOmissionDecision.none()
        if isinstance(decision, ReceiveOmissionDecision):
            return ReceiveOmissionDecision.of(decision.blocked)
        if isinstance(decision, FailureDecision):
            # Inversion of the crash shape: every receiver the victim
            # would have withheld from becomes a faulty receiver that
            # blocks the victim.  Legal, but budget-expensive — crash
            # adversaries are better matched to send-omission.
            blocked: Dict[int, Set[int]] = {}
            for victim, allowed in decision.deliveries.items():
                for pid in view.alive:
                    if pid != victim and pid not in allowed:
                        blocked.setdefault(pid, set()).add(victim)
            return ReceiveOmissionDecision.of(blocked)
        raise ConfigurationError(
            f"the {self.name!r} fault model expects a "
            f"ReceiveOmissionDecision (or a coercible FailureDecision), "
            f"got {type(decision).__name__}"
        )

    def validate(self, decision: FaultDecision, view: RoundView) -> None:
        _check_pids(
            decision.faulty, decision.blocked.values(), view, "sender"
        )

    def charge(
        self, decision: FaultDecision
    ) -> Tuple[int, FrozenSet[int]]:
        new = frozenset(decision.faulty - self._faulty)
        self._faulty |= new
        return len(new), new

    def crash_victims(self, decision: FaultDecision) -> FrozenSet[int]:
        return frozenset()

    def withheld(
        self,
        decision: FaultDecision,
        participants: Sequence[int],
        receivers: Sequence[int],
    ) -> Dict[int, FrozenSet[int]]:
        out: Dict[int, Set[int]] = {}
        for receiver, senders in decision.blocked.items():
            for sender in senders:
                if sender != receiver:
                    out.setdefault(sender, set()).add(receiver)
        return {s: frozenset(rs) for s, rs in out.items()}
