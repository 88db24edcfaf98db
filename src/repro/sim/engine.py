"""The message-level reference engine for the synchronous fail-stop model.

One :class:`Engine` instance runs one protocol against one adversary on
one input vector.  Each round is executed exactly as in Section 3.1 of
the paper:

1. **Phase A** — every alive, non-halted process computes the payload it
   wishes to broadcast (flipping local coins as needed; each process
   owns a deterministically-seeded private PRNG).
2. **Adversary** — the adversary receives the
   :class:`~repro.sim.model.RoundView` the active
   :class:`~repro.sim.model.FaultModel` serves it (the full-information
   crash model passes the current view through; the late model serves a
   stale one) and returns a fault decision: a
   :class:`~repro.sim.model.FailureDecision` under the crash/late
   models, an omission decision under the omission models.
3. **Phase B** — messages are delivered (reliable links: senders whose
   messages the fault model does not drop deliver to everyone; every
   process always sees its own broadcast value, since it is local
   knowledge) and each surviving process runs its receive transition,
   possibly deciding or halting.  Receivers that got the same messages
   share one read-only :class:`~repro.sim.inbox.Inbox`
   (:func:`~repro.sim.inbox.deliver`).

All failure semantics — who counts against the budget ``t``, who stops
participating, which messages are dropped — are delegated to the fault
model (see :mod:`repro.faultmodels`); the default ``crash`` model
reproduces the paper's fail-stop semantics bit for bit.  The engine
enforces the model's invariants (budget, victim liveness, irrevocable
decisions) and records a full
:class:`~repro.sim.trace.ExecutionTrace`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ProtocolViolationError,
    TerminationViolation,
)
from repro.faultmodels.registry import resolve_fault_model
from repro.lint.sanitizer import SimSanitizer
from repro.sim.inbox import deliver
from repro.sim.model import (
    FaultModel,
    ProcessCore,
    RoundView,
    Verdict,
)
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = ["Engine", "ExecutionResult", "default_max_rounds"]


def default_max_rounds(n: int) -> int:
    """Generous round horizon used when the caller does not supply one.

    The paper's protocol finishes in expected O(sqrt(n / log n)) rounds
    even at t = n, and any t+1-round deterministic protocol finishes in
    at most n rounds, so ``8 * n + 64`` leaves a wide safety margin:
    exceeding it almost surely indicates a livelocked protocol, which
    the engine must surface as :class:`TerminationViolation` rather
    than loop forever.
    """
    return 8 * n + 64


@dataclass
class ExecutionResult:
    """Everything known about one finished execution.

    Attributes:
        trace: The full per-round record of the run.
        states: Final per-process states (protocol subclass instances).
        decisions: pid -> decided value, for every process that decided
            (including processes that crashed after deciding).
        crashed: Pids crashed by the adversary at any point.
        rounds: Total number of rounds executed.
        decision_round: The paper's complexity metric — the first round
            by whose end every non-crashed process had decided; ``None``
            if the adversary crashed every process before that point.
    """

    trace: ExecutionTrace
    states: Dict[int, ProcessCore]
    decisions: Dict[int, int]
    crashed: FrozenSet[int]
    rounds: int
    decision_round: Optional[int]

    @property
    def survivors(self) -> FrozenSet[int]:
        """Pids that never crashed."""
        return frozenset(
            pid for pid in self.states if pid not in self.crashed
        )

    def common_decision(self) -> Optional[int]:
        """The unique decided value, or ``None`` if absent/ambiguous."""
        values = set(self.decisions.values())
        if len(values) == 1:
            return next(iter(values))
        return None


class Engine:
    """Runs one consensus protocol against one adversary.

    Args:
        protocol: A :class:`repro.protocols.base.ConsensusProtocol`.
        adversary: A :class:`repro.adversary.base.Adversary`; its crash
            budget ``t`` is read from the adversary itself.
        n: Number of processes.
        seed: Master seed.  Process PRNGs and the adversary PRNG are
            derived from it, so executions replay exactly.
        max_rounds: Round horizon; ``None`` selects
            :func:`default_max_rounds`.
        strict_termination: When ``True`` (default) hitting the horizon
            raises :class:`TerminationViolation`; when ``False`` the
            engine returns the partial result with
            ``decision_round=None``, which lower-bound experiments use
            to mean "the adversary stalled the protocol past the
            horizon".
        record_payloads: Store every round's payloads in the trace.
            Disable for long measurement runs to save memory.
        sanitizer: Runtime model-contract monitor.  ``True`` builds a
            default :class:`~repro.lint.sanitizer.SimSanitizer` (total
            budget only) configured for the active fault model; pass an
            instance (e.g. ``SimSanitizer.lower_bound(n, t)``) to also
            enforce the paper's per-round failure budget.  ``None``
            (default) disables the sanitizer entirely — zero overhead.
        fault_model: Failure regime to simulate: a registered name
            (``"crash"``, ``"send-omission"``, ``"receive-omission"``,
            ``"late"``), a :class:`~repro.sim.model.FaultModel`
            instance, or ``None`` for the default ``crash`` model,
            which reproduces the pre-fault-layer fail-stop semantics
            bit for bit.
    """

    def __init__(
        self,
        protocol: Any,
        adversary: Any,
        n: int,
        *,
        seed: Optional[int] = None,
        max_rounds: Optional[int] = None,
        strict_termination: bool = True,
        record_payloads: bool = True,
        sanitizer: Union[SimSanitizer, bool, None] = None,
        fault_model: Union[str, FaultModel, None] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if adversary.t < 0 or adversary.t > n:
            raise ConfigurationError(
                f"adversary budget t={adversary.t} outside [0, n]={n}"
            )
        self.protocol = protocol
        self.adversary = adversary
        self.n = n
        self.seed = seed
        self.max_rounds = (
            default_max_rounds(n) if max_rounds is None else max_rounds
        )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        self.strict_termination = strict_termination
        self.record_payloads = record_payloads
        self.fault_model: FaultModel = resolve_fault_model(fault_model)
        if sanitizer is True:
            sanitizer = SimSanitizer(
                n,
                adversary.t,
                fault_model=self.fault_model.name,
                lag=self.fault_model.lag,
            )
        self.sanitizer: Optional[SimSanitizer] = sanitizer or None

    def run(self, inputs: Sequence[int]) -> ExecutionResult:
        """Execute the protocol on ``inputs`` and return the result.

        Args:
            inputs: Length-``n`` sequence of input bits (or whatever
                input domain the protocol declares; SynRan uses bits).

        Raises:
            ConfigurationError: bad inputs or a rule violation by the
                adversary.
            BudgetExceededError: the adversary crashed more than ``t``
                processes.
            TerminationViolation: the horizon was hit with undecided
                survivors and ``strict_termination`` is set.
        """
        if len(inputs) != self.n:
            raise ConfigurationError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        master = random.Random(self.seed)
        if self.sanitizer is not None:
            self.sanitizer.begin_run()
        model = self.fault_model
        model.begin_run(self.n, self.adversary.t)
        states: Dict[int, ProcessCore] = {}
        for pid in range(self.n):
            rng = random.Random(master.getrandbits(64))
            states[pid] = self.protocol.initial_state(
                pid, self.n, inputs[pid], rng
            )
        self.adversary.reset(self.n, random.Random(master.getrandbits(64)))

        trace = ExecutionTrace(
            n=self.n,
            t=self.adversary.t,
            inputs=tuple(inputs),
            seed=self.seed,
        )
        alive = set(range(self.n))
        crashed: set = set()
        budget_used = 0
        decisions: Dict[int, int] = {}

        round_index = 0
        while True:
            participants = sorted(
                pid for pid in alive if not states[pid].halted
            )
            if not participants:
                break
            if round_index >= self.max_rounds:
                if self.strict_termination:
                    raise TerminationViolation(
                        f"{len(participants)} processes undecided after "
                        f"{self.max_rounds} rounds "
                        f"(protocol={getattr(self.protocol, 'name', '?')})"
                    )
                break

            # Phase A: collect the payloads processes wish to broadcast.
            payloads: Dict[int, Any] = {}
            for pid in participants:
                payloads[pid] = self.protocol.send(states[pid], round_index)

            view = RoundView(
                round_index=round_index,
                n=self.n,
                alive=frozenset(participants),
                states=states,
                payloads=payloads,
                budget_remaining=self.adversary.t - budget_used,
                inputs=trace.inputs,
            )
            adv_view = model.adversary_view(view)
            decision = model.normalize(
                self.adversary.on_round(adv_view), view
            )
            model.validate(decision, view)
            cost, newly_faulty = model.charge(decision)
            budget_used += cost
            if budget_used > self.adversary.t:
                raise BudgetExceededError(
                    f"adversary used {budget_used} crashes, budget is "
                    f"{self.adversary.t}"
                )
            victims = model.crash_victims(decision)

            # Phase B: deliver and run receive transitions.  The
            # withheld map (sender -> recipients that miss its round
            # message) is the single delivery oracle: it drives the
            # inboxes here and is recorded verbatim in the trace.
            # Receivers that miss the same senders share one inbox.
            receivers = [pid for pid in participants if pid not in victims]
            withheld = model.withheld(decision, participants, receivers)
            inboxes = deliver(payloads, withheld, receivers)
            decided_this_round: Dict[int, int] = {}
            halted_this_round = set()
            for pid in receivers:
                state = states[pid]
                was_decided = state.decided
                self.protocol.receive(state, round_index, inboxes[pid])
                if state.decided and not was_decided:
                    decided_this_round[pid] = state.decision
                    decisions[pid] = state.decision
                if state.halted:
                    if not state.decided:
                        raise ProtocolViolationError(
                            f"process {pid} halted without deciding in "
                            f"round {round_index}"
                        )
                    halted_this_round.add(pid)

            if self.sanitizer is not None:
                self.sanitizer.observe_round(
                    round_index,
                    participants,
                    victims,
                    decided_this_round,
                    halted_this_round,
                    faulty=newly_faulty,
                    dropped=withheld,
                    view_round=model.view_round(round_index),
                )

            alive -= victims
            crashed |= victims

            trace.append(
                RoundRecord(
                    index=round_index,
                    senders=tuple(participants),
                    payloads=dict(payloads) if self.record_payloads else {},
                    victims=frozenset(victims),
                    withheld=withheld,
                    decided_this_round=decided_this_round,
                    halted_this_round=frozenset(halted_this_round),
                    alive_after=frozenset(alive),
                )
            )
            round_index += 1

        return ExecutionResult(
            trace=trace,
            states=states,
            decisions=decisions,
            crashed=frozenset(crashed),
            rounds=round_index,
            decision_round=trace.decision_round(),
        )
