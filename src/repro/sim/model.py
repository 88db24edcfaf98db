"""Core data model shared by the simulator engines and adversaries.

The types here encode the paper's synchronous round structure, plus the
pluggable fault layer the engines inject failures through:

* :class:`ProcessCore` — the engine-visible part of a process's local
  state (identity, input, RNG, decision/halt flags).  Protocol
  implementations subclass it with their own variables.
* :class:`RoundView` — the *full-information* snapshot handed to the
  adversary after Phase A of each round: every local state and every
  pending message, plus budget bookkeeping.
* :class:`FaultDecision` — the abstract per-round action of an
  adversary; its concrete family is per fault model:
  :class:`FailureDecision` (crash), :class:`SendOmissionDecision`, and
  :class:`ReceiveOmissionDecision`.
* :class:`FaultModel` — the pluggable fault-injection protocol: how a
  decision is validated, charged against the budget ``t``, and turned
  into deliveries, and what view the adversary gets to see.  Concrete
  models (``crash``, ``send-omission``, ``receive-omission``, ``late``)
  live in :mod:`repro.faultmodels`.
* :class:`Verdict` — the outcome of checking Agreement / Validity /
  Termination on a finished execution.
"""

from __future__ import annotations

import abc
import random
import types
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError

__all__ = [
    "COUNTS_CRASH",
    "COUNTS_OMISSION",
    "CrashDecision",
    "FaultDecision",
    "FaultModel",
    "FailureDecision",
    "ProcessCore",
    "ReceiveOmissionDecision",
    "RoundView",
    "SendOmissionDecision",
    "Verdict",
]

#: ``FaultModel.counts_kind`` value for models the counts engines run
#: with crash semantics (population shrinks by the kill counts).
COUNTS_CRASH = "crash"
#: ``FaultModel.counts_kind`` value for models the counts engines run
#: with omission semantics (sends suppressed, population preserved).
COUNTS_OMISSION = "omission"


@dataclass
class ProcessCore:
    """Engine-visible local state of one process.

    Protocols subclass this with their own fields (tallies, proposal
    bits, stage markers...).  The engine reads and enforces only the
    fields declared here.

    Attributes:
        pid: Process identifier in ``range(n)``.
        n: Total number of processes in the system.
        input_bit: The consensus input ``x_i`` of this process.
        rng: Private PRNG for this process's local coins.  Seeded
            deterministically by the engine so whole executions replay
            bit-for-bit from a master seed.
        decided: ``True`` once the process has fixed its output.  The
            engine raises :class:`~repro.errors.ProtocolViolationError`
            if a protocol clears this flag or changes ``decision`` after
            it is set — the paper's model forbids changing a decision.
        decision: The decided output value, meaningful when ``decided``.
        halted: ``True`` once the process voluntarily stops
            participating (SynRan's ``STOP``).  A halted process sends no
            further messages and receives none; to its peers it is
            indistinguishable from a crash, exactly as in the paper.
    """

    pid: int
    n: int
    input_bit: int
    rng: random.Random
    decided: bool = False
    decision: Optional[int] = None
    halted: bool = False

    def decide(self, value: int) -> None:
        """Fix this process's decision to ``value`` (idempotent).

        Raises:
            ConfigurationError: if the process previously decided a
                *different* value; a protocol doing so is broken.
        """
        if self.decided and self.decision != value:
            raise ConfigurationError(
                f"process {self.pid} attempted to change its decision "
                f"from {self.decision} to {value}"
            )
        self.decided = True
        self.decision = value

    def halt(self) -> None:
        """Voluntarily stop participating after the current round."""
        self.halted = True


@dataclass(frozen=True)
class RoundView:
    """Everything the full-information adversary sees before Phase B.

    Per the model in Section 3.1, the adversary examines the local coins
    and variables of all active processes *and the messages they wish to
    send*, then chooses failures.  ``states`` and ``payloads`` are
    live references for efficiency, wrapped in
    :class:`types.MappingProxyType` at construction: reading is free,
    but adding/removing/replacing entries raises ``TypeError`` instead
    of silently corrupting the run.  (The proxy cannot freeze the
    *objects* inside ``states``; mutating a foreign process state
    remains undefined behaviour, policed by the REP003 lint rule.)

    Attributes:
        round_index: Zero-based index of the current round.
        n: Total number of processes the system started with.
        alive: Pids that have not crashed and not halted before this
            round; exactly these processes produced a payload.
        states: Mapping from *every* pid (including crashed/halted ones)
            to its :class:`ProcessCore` subclass instance.
        payloads: Mapping from each alive pid to the payload it wishes
            to broadcast this round (``None`` payloads are allowed and
            mean "no message").
        budget_remaining: How many more processes the adversary may
            crash over the rest of the execution (``t`` minus crashes so
            far).
        inputs: The original input vector, indexed by pid.
    """

    round_index: int
    n: int
    alive: FrozenSet[int]
    states: Mapping[int, ProcessCore]
    payloads: Mapping[int, Any]
    budget_remaining: int
    inputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        # Read-only proxies over the live mappings: entry-level
        # mutation by an adversary raises instead of corrupting the
        # engine's bookkeeping.  Guard against double-wrapping so views
        # can be rebuilt from other views (the late model does).
        for name in ("states", "payloads"):
            value = getattr(self, name)
            if not isinstance(value, types.MappingProxyType):
                object.__setattr__(
                    self, name, types.MappingProxyType(value)
                )

    def alive_count(self) -> int:
        """Number of processes still participating this round."""
        return len(self.alive)


class FaultDecision:
    """Marker base of the per-model decision family.

    An adversary's per-round action is a concrete subclass whose shape
    matches the active :class:`FaultModel`: :class:`FailureDecision`
    under ``crash`` and ``late``, :class:`SendOmissionDecision` under
    ``send-omission``, :class:`ReceiveOmissionDecision` under
    ``receive-omission``.  Models *coerce* a crash-shaped decision into
    their own shape (see :meth:`FaultModel.normalize`), so every
    crash-era adversary remains usable under every model.
    """

    __slots__ = ()


@dataclass(frozen=True)
class FailureDecision(FaultDecision):
    """The adversary's action for one round under the crash model.

    ``deliveries`` maps each victim pid to the frozen set of recipient
    pids that *do* receive the victim's round message; every recipient
    outside the set sees silence from the victim.  A victim is crashed
    from the end of this round onward.  Non-victim senders always
    deliver to everyone — links are reliable.

    The paper allows the adversary to fail a process *after* it sent all
    its messages ("fail the sender but send all its messages"), which is
    expressed here by mapping the victim to the full recipient set.

    Use the constructors :meth:`none`, :meth:`silence`, and
    :meth:`after_sending` for the common cases.
    """

    deliveries: Mapping[int, FrozenSet[int]] = field(default_factory=dict)

    @classmethod
    def none(cls) -> "FailureDecision":
        """Crash nobody this round."""
        return cls(deliveries={})

    @classmethod
    def silence(cls, victims: Iterable[int]) -> "FailureDecision":
        """Crash ``victims`` before any of their messages are sent."""
        return cls(deliveries={v: frozenset() for v in victims})

    @classmethod
    def after_sending(
        cls, victims: Iterable[int], recipients: Iterable[int]
    ) -> "FailureDecision":
        """Crash ``victims`` after they delivered to all ``recipients``."""
        everyone = frozenset(recipients)
        return cls(deliveries={v: everyone for v in victims})

    @classmethod
    def partial(
        cls, deliveries: Mapping[int, Iterable[int]]
    ) -> "FailureDecision":
        """Crash each key pid, delivering only to the mapped recipients."""
        return cls(
            deliveries={v: frozenset(rs) for v, rs in deliveries.items()}
        )

    @property
    def victims(self) -> FrozenSet[int]:
        """Pids crashed by this decision."""
        return frozenset(self.deliveries)

    def count(self) -> int:
        """Number of processes crashed by this decision."""
        return len(self.deliveries)

    def receives_from(self, victim: int, recipient: int) -> bool:
        """Whether ``recipient`` still gets ``victim``'s round message."""
        allowed = self.deliveries.get(victim)
        return allowed is not None and recipient in allowed


#: Backwards-compatible alias: ``FailureDecision`` predates the fault
#: layer and keeps its name; ``CrashDecision`` is the model-family name.
CrashDecision = FailureDecision


@dataclass(frozen=True)
class SendOmissionDecision(FaultDecision):
    """One round of send-omission faults.

    ``suppressed`` maps each faulty *sender* to the frozen set of
    recipients that do **not** receive its round message.  Unlike a
    crash, the sender stays alive: it keeps participating, keeps
    receiving, and may broadcast normally in later rounds.  A process
    always sees its own broadcast value — self-knowledge is not a
    message — so a sender never appears in its own suppressed set's
    effect.

    A pid becomes *faulty* (and is charged against the budget ``t``)
    the first round it appears as a key with a non-empty recipient set;
    once faulty it stays faulty for accounting but may still be served
    by the adversary in any later round at no extra cost.
    """

    suppressed: Mapping[int, FrozenSet[int]] = field(default_factory=dict)

    @classmethod
    def none(cls) -> "SendOmissionDecision":
        """Suppress nothing this round."""
        return cls(suppressed={})

    @classmethod
    def silence(
        cls, senders: Iterable[int], recipients: Iterable[int]
    ) -> "SendOmissionDecision":
        """Suppress each sender's message to every listed recipient."""
        everyone = frozenset(recipients)
        return cls(suppressed={s: everyone for s in senders})

    @classmethod
    def of(
        cls, suppressed: Mapping[int, Iterable[int]]
    ) -> "SendOmissionDecision":
        """Normalise an arbitrary mapping into the frozen form."""
        return cls(
            suppressed={
                s: frozenset(rs) for s, rs in suppressed.items() if rs
            }
        )

    @property
    def faulty(self) -> FrozenSet[int]:
        """Senders marked omission-faulty by this decision."""
        return frozenset(
            s for s, rs in self.suppressed.items() if rs
        )

    def drops(self, sender: int, recipient: int) -> bool:
        """Whether ``sender``'s message to ``recipient`` is dropped."""
        return recipient in self.suppressed.get(sender, frozenset())


@dataclass(frozen=True)
class ReceiveOmissionDecision(FaultDecision):
    """One round of receive-omission faults.

    ``blocked`` maps each faulty *receiver* to the frozen set of
    senders whose round messages it misses.  The senders are healthy —
    every other receiver gets their messages — and the faulty receiver
    still sees its own broadcast value (self-knowledge is not a
    message).  Budget accounting mirrors
    :class:`SendOmissionDecision`: a receiver is charged once, the
    first round it blocks anything.
    """

    blocked: Mapping[int, FrozenSet[int]] = field(default_factory=dict)

    @classmethod
    def none(cls) -> "ReceiveOmissionDecision":
        """Block nothing this round."""
        return cls(blocked={})

    @classmethod
    def of(
        cls, blocked: Mapping[int, Iterable[int]]
    ) -> "ReceiveOmissionDecision":
        """Normalise an arbitrary mapping into the frozen form."""
        return cls(
            blocked={
                r: frozenset(ss) for r, ss in blocked.items() if ss
            }
        )

    @property
    def faulty(self) -> FrozenSet[int]:
        """Receivers marked omission-faulty by this decision."""
        return frozenset(r for r, ss in self.blocked.items() if ss)

    def drops(self, sender: int, recipient: int) -> bool:
        """Whether ``sender``'s message to ``recipient`` is dropped."""
        return sender in self.blocked.get(recipient, frozenset())


class FaultModel(abc.ABC):
    """The pluggable fault-injection protocol of the engines.

    A fault model owns the semantics of one failure regime: which
    decision shapes are legal, how a round's decision is charged
    against the budget ``t``, which processes (if any) crash, which
    point-to-point deliveries are dropped, and what view of the system
    the adversary is allowed to condition on.  The reference engine
    drives the full protocol; the counts engines (batch/batch2d) consume
    only :attr:`counts_kind` and :attr:`lag`, because under uniform
    views a round's faults collapse to per-bit-class counts.

    Concrete models live in :mod:`repro.faultmodels` and are resolved
    by name through :func:`repro.faultmodels.registry.make_fault_model`
    (``crash``, ``send-omission``, ``receive-omission``, ``late``).

    Class attributes:
        name: Registry name of the model.
        counts_kind: How the counts engines realise the model —
            ``"crash"`` (kill counts shrink the population),
            ``"omission"`` (suppression counts, population preserved),
            or ``None`` (reference engine only; the counts engines
            refuse the model at construction).

    Attributes:
        lag: How many rounds the adversary's view trails reality.
            ``0`` for every full-information model; the ``late`` model
            sets its ε here.

    A model instance may keep per-run accounting state (the omission
    models track the distinct-faulty set); engines call
    :meth:`begin_run` before every execution, so one instance can be
    reused across trials but must not be shared across concurrently
    running engines.
    """

    name: ClassVar[str] = "abstract"
    counts_kind: ClassVar[Optional[str]] = COUNTS_CRASH
    lag: int = 0

    def begin_run(self, n: int, t: int) -> None:
        """Reset per-run accounting for a fresh execution."""

    @abc.abstractmethod
    def normalize(
        self, decision: Optional[FaultDecision], view: RoundView
    ) -> FaultDecision:
        """Coerce an adversary's raw return into this model's shape.

        ``None`` becomes the model's no-op decision.  A crash-shaped
        :class:`FailureDecision` is reinterpreted by non-crash models
        (e.g. send-omission treats each victim as a faulty sender whose
        withheld recipients are suppressed), so crash-era adversaries
        work under every model.  Raises
        :class:`~repro.errors.ConfigurationError` for shapes the model
        cannot express.
        """

    @abc.abstractmethod
    def validate(self, decision: FaultDecision, view: RoundView) -> None:
        """Check per-round structural rules (liveness, pid ranges)."""

    @abc.abstractmethod
    def charge(
        self, decision: FaultDecision
    ) -> Tuple[int, FrozenSet[int]]:
        """Account one round's decision against the budget.

        Returns ``(cost, newly_faulty)``: how many budget units the
        decision consumes *this round* and which pids were newly marked
        omission-faulty (empty for crash-family models, whose cost is
        the victim count).  Stateful: omission models remember the
        faulty set across rounds so re-serving a faulty pid is free.
        """

    @abc.abstractmethod
    def crash_victims(self, decision: FaultDecision) -> FrozenSet[int]:
        """Pids that stop participating forever after this round."""

    @abc.abstractmethod
    def delivers(
        self, decision: FaultDecision, sender: int, recipient: int
    ) -> bool:
        """Whether ``sender``'s round message reaches ``recipient``.

        Only consulted for ``sender != recipient``; a process always
        sees its own broadcast value regardless of the model.
        """

    def adversary_view(self, view: RoundView) -> RoundView:
        """The view the adversary conditions on this round.

        Full-information models return ``view`` unchanged.  The late
        model records a snapshot and serves the one from ``lag`` rounds
        ago (coin-free initial information before round ``lag``), with
        only ``budget_remaining`` reflecting the present.
        """
        return view

    def view_round(self, round_index: int) -> int:
        """The round whose coin-dependent data the adversary saw.

        Equals ``round_index`` for full-information models; the late
        model reports ``max(0, round_index - lag)``.  The sanitizer
        uses this to police that a lagged adversary never conditioned
        on data fresher than its declared lag.
        """
        return round_index

    def withheld(
        self,
        decision: FaultDecision,
        participants: Sequence[int],
        receivers: Sequence[int],
    ) -> Dict[int, FrozenSet[int]]:
        """Trace record: sender -> receivers that missed its message.

        The default covers crash-family models (entries for every
        victim, even when nothing was withheld, matching the historical
        trace shape); omission models override to record their drops.
        """
        return {
            v: frozenset(
                r
                for r in receivers
                if r != v and not self.delivers(decision, v, r)
            )
            for v in self.crash_victims(decision)
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking the three consensus conditions on a run.

    Attributes:
        agreement: All processes that decided (whether they later
            crashed or not) decided the same value.  SynRan guarantees
            this *uniform* form (Lemma 4.2); the consensus definition
            only requires it of non-faulty processes, so uniform is the
            stricter check and is what we verify.
        validity: Every decision equals some process's input; and when
            all inputs agree on ``v``, every decision is ``v``.
        termination: Every non-crashed process decided within the
            engine's round horizon.
        decision: The common decision value, when one exists and at
            least one process decided; ``None`` otherwise (e.g. the
            adversary crashed everyone before any decision).
    """

    agreement: bool
    validity: bool
    termination: bool
    decision: Optional[int]

    @property
    def ok(self) -> bool:
        """All three consensus conditions hold."""
        return self.agreement and self.validity and self.termination


def validate_failure_decision(
    decision: FailureDecision,
    view: RoundView,
) -> None:
    """Check a :class:`FailureDecision` against the model's rules.

    Raises:
        ConfigurationError: if a victim is not alive this round, or a
            delivery set references an unknown pid.

    Budget enforcement lives in the engine (it owns the running total);
    this helper validates only per-round structural rules.
    """
    for victim, recipients in decision.deliveries.items():
        if victim not in view.alive:
            raise ConfigurationError(
                f"adversary crashed pid {victim}, which is not alive in "
                f"round {view.round_index}"
            )
        for r in recipients:
            if not 0 <= r < view.n:
                raise ConfigurationError(
                    f"delivery set of victim {victim} references unknown "
                    f"pid {r} (n={view.n})"
                )
