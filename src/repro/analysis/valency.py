"""Exact probabilistic valency analysis for tiny systems (Section 3).

The lower-bound proof classifies execution states by the minimum and
maximum, over a class of adversaries B, of the probability that the
protocol decides 1.  For real protocols those quantities are defined by
an exponential game tree: adversary nodes (choice of failures each
round) alternating with chance nodes (the processes' local coins).  The
paper's adversary is computationally unbounded and simply *has* these
numbers; this module computes them exactly, by exhaustive expectimax
with memoisation, for systems small enough to enumerate.

Restrictions that keep the tree finite and small (all configurable):

* the adversary crashes at most ``max_failures_per_round`` processes
  per round (the paper's B fails at most ``4 sqrt(n log n) + 1``; for
  ``n <= 4`` that is everything anyway);
* crash deliveries are drawn from ``delivery_modes`` — ``"silent"``
  (no messages out), ``"full"`` (all messages out, the paper's "fail
  the sender but send all its messages"), and optionally ``"subsets"``
  (every recipient subset — the §3.4 message-by-message strategy);
* protocols draw coins only through ``rng.randrange(2)`` /
  ``rng.getrandbits(1)`` (true of every protocol in this package);
* the protocol satisfies Agreement, which lets the evaluator stop at
  the first decision (the eventual common value is then known).

Used by experiment E4 to verify Lemma 3.5 (a non-univalent initial
state exists) and to tabulate the paper's classification table on real
small systems, and by
:class:`repro.adversary.lowerbound.ExactValencyAdversary` to *play* the
optimal strategy.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ReproError
from repro.faultmodels.crash import CrashFaultModel
from repro.sim.inbox import deliver
from repro.sim.model import FailureDecision, ProcessCore

__all__ = [
    "Classification",
    "ValencyAnalyzer",
    "ValencyReport",
    "classify",
    "paper_epsilon",
]

#: The evaluator's actions are crash decisions; this model turns one
#: into the round's withheld map for :func:`~repro.sim.inbox.deliver`.
_CRASH = CrashFaultModel()


class AnalysisBudgetExceeded(ReproError):
    """The expectimax exceeded its node limit; shrink the instance."""


class _NeedCoin(Exception):
    """Internal: a scripted RNG ran past the end of its script."""


class _ScriptedRandom:
    """Serves a fixed script of fair bits; raises :class:`_NeedCoin`
    when the script is exhausted, so the evaluator can branch."""

    def __init__(self, script: Sequence[int]) -> None:
        self._script = list(script)
        self.used = 0

    def _next_bit(self) -> int:
        if self.used >= len(self._script):
            raise _NeedCoin()
        bit = self._script[self.used]
        self.used += 1
        return bit

    def randrange(self, stop: int) -> int:
        if stop != 2:
            raise ConfigurationError(
                "valency analysis supports only fair-bit coins "
                f"(randrange(2)); protocol asked for randrange({stop})"
            )
        return self._next_bit()

    def getrandbits(self, k: int) -> int:
        if k != 1:
            raise ConfigurationError(
                "valency analysis supports only fair-bit coins "
                f"(getrandbits(1)); protocol asked for getrandbits({k})"
            )
        return self._next_bit()

    def random(self) -> float:
        raise ConfigurationError(
            "valency analysis supports only fair-bit coins; protocol "
            "called random()"
        )


def _freeze(value: Any) -> Any:
    """Canonical hashable form of a protocol state (rng excluded)."""
    if isinstance(value, ProcessCore):
        parts = []
        for f in dataclasses.fields(value):
            if f.name == "rng":
                continue
            parts.append((f.name, _freeze(getattr(value, f.name))))
        return (type(value).__name__, tuple(parts))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


# ----------------------------------------------------------------------
# classification (the paper's table in §3.2)
# ----------------------------------------------------------------------


class Classification:
    """The four classes of the paper's exhaustive table."""

    BIVALENT = "bivalent"
    ZERO_VALENT = "0-valent"
    ONE_VALENT = "1-valent"
    NULL_VALENT = "null-valent"

    ALL = (BIVALENT, ZERO_VALENT, ONE_VALENT, NULL_VALENT)


def paper_epsilon(n: int, k: int = 0) -> float:
    """The paper's round-``k`` margin ``1/sqrt(n) - k/n`` (§3.2)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return 1.0 / (n ** 0.5) - k / n


def classify(min_p: float, max_p: float, epsilon: float) -> str:
    """Classify a state from its min/max decide-1 probabilities.

    Matches the paper's table: a state is *bivalent* when the adversary
    can push the decision probability below ``epsilon`` and also above
    ``1 - epsilon``; *0-/1-valent* when only one of those holds; and
    *null-valent* when neither does (the decision is genuinely open but
    no adversary fully controls it).
    """
    low = min_p < epsilon
    high = max_p > 1.0 - epsilon
    if low and high:
        return Classification.BIVALENT
    if low:
        return Classification.ZERO_VALENT
    if high:
        return Classification.ONE_VALENT
    return Classification.NULL_VALENT


@dataclass(frozen=True)
class ValencyReport:
    """Exact min/max decide-1 probabilities of one configuration.

    Attributes:
        min_p: ``min`` over adversaries in the configured class of
            ``Pr[protocol decides 1]``.
        max_p: the corresponding ``max``.
        n: System size.
        budget: The adversary budget the analysis used.
        nodes: Expectimax nodes visited (both passes).
    """

    min_p: float
    max_p: float
    n: int
    budget: int
    nodes: int

    def classification(self, epsilon: Optional[float] = None) -> str:
        eps = paper_epsilon(self.n) if epsilon is None else epsilon
        return classify(self.min_p, self.max_p, eps)

    def is_univalent(self, epsilon: Optional[float] = None) -> bool:
        return self.classification(epsilon) in (
            Classification.ZERO_VALENT,
            Classification.ONE_VALENT,
        )


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------


class ValencyAnalyzer:
    """Exhaustive expectimax over adversary choices and local coins.

    Args:
        protocol: Any :class:`repro.protocols.base.ConsensusProtocol`
            that (a) guarantees Agreement and (b) flips only fair bits.
        n: System size (keep tiny; the tree is exponential in ``n``).
        budget: Total crash budget of the adversary class analysed.
            Must be < ``n`` (an adversary that kills everyone leaves the
            decision probability undefined).
        max_failures_per_round: Per-round crash cap of the class
            (the analog of the paper's ``4 sqrt(n log n) + 1``).
        delivery_modes: Subset of ``{"silent", "full", "subsets"}``.
        horizon: Hard cap on rounds; exceeded means the protocol failed
            to terminate against this adversary class and an error is
            raised.
        node_limit: Hard cap on expectimax nodes.
        objective: ``"decide1"`` evaluates Pr[decide 1] (the paper's
            valency quantity; supports both min and max passes) or
            ``"rounds"`` evaluates the expected round at which every
            surviving process has decided (the paper's complexity
            measure; the adversary maximises it — the *stall* value).
        horizon_policy: What to do on a branch that reaches the round
            horizon undecided.  ``"bound"`` (default) substitutes the
            conservative value — 0 in the min pass, 1 in the max pass,
            the horizon itself for the rounds objective — so the
            reported numbers are *outer bounds* whose error is at most
            the probability of ever reaching the horizon (for
            coin-driven protocols that probability vanishes
            geometrically in the horizon; SynRan at n = 2 with mixed
            inputs is the canonical example of a zero-probability
            infinite coin branch).  ``"raise"`` treats horizon contact
            as a configuration error, for protocols whose executions
            are genuinely bounded.
    """

    def __init__(
        self,
        protocol: Any,
        n: int,
        *,
        budget: int,
        max_failures_per_round: int = 1,
        delivery_modes: Tuple[str, ...] = ("silent", "full"),
        horizon: int = 64,
        node_limit: int = 2_000_000,
        objective: str = "decide1",
        horizon_policy: str = "bound",
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not 0 <= budget < n:
            raise ConfigurationError(
                f"budget must be in [0, n) = [0, {n}), got {budget}"
            )
        unknown = set(delivery_modes) - {"silent", "full", "subsets"}
        if unknown:
            raise ConfigurationError(
                f"unknown delivery modes: {sorted(unknown)}"
            )
        if max_failures_per_round < 0:
            raise ConfigurationError(
                "max_failures_per_round must be >= 0, got "
                f"{max_failures_per_round}"
            )
        if objective not in ("decide1", "rounds"):
            raise ConfigurationError(
                f"objective must be 'decide1' or 'rounds', got "
                f"{objective!r}"
            )
        if horizon_policy not in ("bound", "raise"):
            raise ConfigurationError(
                f"horizon_policy must be 'bound' or 'raise', got "
                f"{horizon_policy!r}"
            )
        self.objective = objective
        self.horizon_policy = horizon_policy
        self.protocol = protocol
        self.n = n
        self.budget = budget
        self.max_failures_per_round = max_failures_per_round
        self.delivery_modes = tuple(delivery_modes)
        self.horizon = horizon
        self.node_limit = node_limit
        self._memo: Dict[Any, float] = {}
        self._nodes = 0

    # -- public API ----------------------------------------------------

    def min_max(self, inputs: Sequence[int]) -> ValencyReport:
        """Exact min/max decide-1 probability from the initial state."""
        if self.objective != "decide1":
            raise ConfigurationError(
                "min_max requires objective='decide1'"
            )
        if len(inputs) != self.n:
            raise ConfigurationError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        self._memo.clear()
        self._nodes = 0
        states = self._initial_states(inputs)
        alive = frozenset(range(self.n))
        min_p = self._evaluate(states, alive, self.budget, 0, True)
        states = self._initial_states(inputs)
        max_p = self._evaluate(states, alive, self.budget, 0, False)
        return ValencyReport(
            min_p=min_p,
            max_p=max_p,
            n=self.n,
            budget=self.budget,
            nodes=self._nodes,
        )

    def max_rounds(self, inputs: Sequence[int]) -> float:
        """Expected decision round under the stall-maximising adversary.

        The exact small-system analogue of Theorem 1: the best any
        adversary in the configured class can do at delaying the
        protocol, in expectation over the protocol's coins.
        """
        if self.objective != "rounds":
            raise ConfigurationError(
                "max_rounds requires objective='rounds'"
            )
        if len(inputs) != self.n:
            raise ConfigurationError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        self._memo.clear()
        self._nodes = 0
        states = self._initial_states(inputs)
        alive = frozenset(range(self.n))
        return self._evaluate(states, alive, self.budget, 0, False)

    def scan_initial_states(
        self,
    ) -> Dict[Tuple[int, ...], ValencyReport]:
        """Valency of every input vector (Lemma 3.5's search space)."""
        out: Dict[Tuple[int, ...], ValencyReport] = {}
        for bits in itertools.product((0, 1), repeat=self.n):
            out[bits] = self.min_max(bits)
        return out

    def best_action(
        self,
        states: Mapping[int, ProcessCore],
        alive: FrozenSet[int],
        budget: int,
        round_index: int,
        minimize: bool,
    ) -> FailureDecision:
        """The optimal adversary action at a live configuration.

        Used by :class:`repro.adversary.lowerbound.ExactValencyAdversary`
        to actually play the optimal strategy inside the engine.
        """
        participants = self._participants(states, alive)
        if not participants:
            return FailureDecision.none()
        payloads = {
            pid: self.protocol.send(states[pid], round_index)
            for pid in participants
        }
        best_action = FailureDecision.none()
        best_value: Optional[float] = None
        for action in self._actions(participants, budget):
            value = self._chance(
                states,
                participants,
                payloads,
                action,
                alive,
                budget,
                round_index,
                minimize,
            )
            if (
                best_value is None
                or (minimize and value < best_value)
                or (not minimize and value > best_value)
            ):
                best_value = value
                best_action = action
        return best_action

    # -- internals -----------------------------------------------------

    def _initial_states(
        self, inputs: Sequence[int]
    ) -> Dict[int, ProcessCore]:
        states = {}
        for pid in range(self.n):
            states[pid] = self.protocol.initial_state(
                pid, self.n, inputs[pid], _ScriptedRandom([])
            )
        return states

    @staticmethod
    def _participants(
        states: Mapping[int, ProcessCore], alive: FrozenSet[int]
    ) -> List[int]:
        return sorted(
            pid for pid in alive if not states[pid].halted
        )

    def _actions(
        self, participants: List[int], budget: int
    ) -> Iterator[FailureDecision]:
        yield FailureDecision.none()
        cap = min(self.max_failures_per_round, budget)
        everyone = frozenset(range(self.n))
        for size in range(1, cap + 1):
            if size >= len(participants):
                break  # never crash the last participant
            for combo in itertools.combinations(participants, size):
                for modes in itertools.product(
                    *(self._victim_modes(v) for v in combo)
                ):
                    yield FailureDecision(
                        deliveries=dict(zip(combo, modes))
                    )

    def _victim_modes(self, victim: int) -> List[FrozenSet[int]]:
        """Delivery sets available for one victim."""
        others = [p for p in range(self.n) if p != victim]
        out: List[FrozenSet[int]] = []
        if "subsets" in self.delivery_modes:
            for size in range(0, len(others) + 1):
                for combo in itertools.combinations(others, size):
                    out.append(frozenset(combo))
            return out
        if "silent" in self.delivery_modes:
            out.append(frozenset())
        if "full" in self.delivery_modes:
            out.append(frozenset(others))
        return out

    def _evaluate(
        self,
        states: Dict[int, ProcessCore],
        alive: FrozenSet[int],
        budget: int,
        round_index: int,
        minimize: bool,
    ) -> float:
        # Agreement lets us stop at the first decision.
        decided_values = {
            s.decision for s in states.values() if s.decided
        }
        if len(decided_values) > 1:
            raise ConfigurationError(
                "protocol violated Agreement during valency analysis: "
                f"decisions {sorted(decided_values)}"
            )
        if self.objective == "decide1":
            # Agreement fixes the eventual common value at the first
            # decision; stop immediately.
            if decided_values:
                return float(next(iter(decided_values)))
        else:  # objective == "rounds"
            if all(states[pid].decided for pid in alive):
                # Number of rounds executed until every survivor decided.
                return float(round_index)

        participants = self._participants(states, alive)
        if not participants:
            raise ConfigurationError(
                "no participants and no decisions: the protocol halted "
                "undecided or the adversary killed everyone"
            )
        if round_index >= self.horizon:
            if self.horizon_policy == "bound":
                if self.objective == "rounds":
                    return float(self.horizon)
                return 0.0 if minimize else 1.0
            raise ConfigurationError(
                f"horizon {self.horizon} reached without a decision; "
                "the protocol does not terminate against this adversary "
                "class (or the horizon is too small)"
            )

        key = (
            round_index,
            budget,
            alive,
            minimize,
            tuple(_freeze(states[pid]) for pid in sorted(states)),
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        self._nodes += 1
        if self._nodes > self.node_limit:
            raise AnalysisBudgetExceeded(
                f"expectimax node limit {self.node_limit} exceeded at "
                f"round {round_index}"
            )

        payloads = {
            pid: self.protocol.send(states[pid], round_index)
            for pid in participants
        }
        best: Optional[float] = None
        for action in self._actions(participants, budget):
            value = self._chance(
                states,
                participants,
                payloads,
                action,
                alive,
                budget,
                round_index,
                minimize,
            )
            if best is None:
                best = value
            elif minimize:
                best = min(best, value)
            else:
                best = max(best, value)
        assert best is not None  # FailureDecision.none() always present
        self._memo[key] = best
        return best

    def _chance(
        self,
        states: Dict[int, ProcessCore],
        participants: List[int],
        payloads: Mapping[int, Any],
        action: FailureDecision,
        alive: FrozenSet[int],
        budget: int,
        round_index: int,
        minimize: bool,
    ) -> float:
        victims = action.victims
        receivers = [p for p in participants if p not in victims]
        inboxes = deliver(
            payloads,
            _CRASH.withheld(action, participants, receivers),
            receivers,
        )
        branch_lists: List[Tuple[int, List[Tuple[float, ProcessCore]]]] = [
            (pid, self._branch_receive(states[pid], round_index, inboxes[pid]))
            for pid in receivers
        ]

        new_alive = alive - victims
        total = 0.0
        for combo in itertools.product(
            *(branches for _, branches in branch_lists)
        ):
            prob = 1.0
            new_states = dict(states)
            for (pid, _), (p, new_state) in zip(branch_lists, combo):
                prob *= p
                new_states[pid] = new_state
            total += prob * self._evaluate(
                new_states,
                new_alive,
                budget - len(victims),
                round_index + 1,
                minimize,
            )
        return total

    def _branch_receive(
        self,
        state: ProcessCore,
        round_index: int,
        inbox: Mapping[int, Any],
    ) -> List[Tuple[float, ProcessCore]]:
        """All coin outcomes of one process's receive transition."""
        results: List[Tuple[float, ProcessCore]] = []
        stack: List[List[int]] = [[]]
        while stack:
            script = stack.pop()
            candidate = copy.deepcopy(state)
            rng = _ScriptedRandom(script)
            candidate.rng = rng
            try:
                self.protocol.receive(candidate, round_index, inbox)
            except _NeedCoin:
                stack.append(script + [0])
                stack.append(script + [1])
                continue
            candidate.rng = _ScriptedRandom([])
            results.append((0.5 ** rng.used, candidate))
        return results
