"""The paper's fail-stop crash model as a :class:`FaultModel` plug-in.

This is the semantics every engine hardcoded before the fault layer
existed, expressed through the pluggable interface without behavioural
change: the exact-seed differential suite pins the ``crash`` default to
the pre-refactor executions bit for bit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.model import (
    COUNTS_CRASH,
    FailureDecision,
    FaultDecision,
    FaultModel,
    RoundView,
    validate_failure_decision,
)

__all__ = ["CrashFaultModel"]


class CrashFaultModel(FaultModel):
    """Fail-stop crashes with partial last-round broadcast.

    The adversary's decision is a
    :class:`~repro.sim.model.FailureDecision`: each victim is mapped to
    the recipients that still receive its final message, and from the
    next round on the victim sends nothing, forever.  One budget unit
    per victim, exactly ``t`` over the execution.

    Type discipline: :meth:`normalize` is the only method that checks
    decision shapes; :meth:`withheld` stays branch-lean, one set
    difference per victim.
    """

    name = "crash"
    counts_kind = COUNTS_CRASH

    def normalize(
        self, decision: Optional[FaultDecision], view: RoundView
    ) -> FaultDecision:
        if decision is None:
            return FailureDecision.none()
        if not isinstance(decision, FailureDecision):
            raise ConfigurationError(
                f"the {self.name!r} fault model expects a "
                f"FailureDecision, got {type(decision).__name__}"
            )
        return decision

    def validate(self, decision: FaultDecision, view: RoundView) -> None:
        validate_failure_decision(decision, view)

    def charge(
        self, decision: FaultDecision
    ) -> Tuple[int, FrozenSet[int]]:
        return decision.count(), frozenset()

    def crash_victims(self, decision: FaultDecision) -> FrozenSet[int]:
        return decision.victims

    def withheld(
        self,
        decision: FaultDecision,
        participants: Sequence[int],
        receivers: Sequence[int],
    ) -> Dict[int, FrozenSet[int]]:
        everyone = frozenset(receivers)
        return {
            v: everyone.difference(decision.deliveries[v], (v,))
            for v in decision.victims
        }
