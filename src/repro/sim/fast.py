"""Vectorized engine for SynRan-family protocols at large ``n``.

The reference engine (:mod:`repro.sim.engine`) runs one ``receive``
transition per process per round and builds one inbox per distinct
delivery; at ``n`` in the thousands that dominates every experiment.
This engine exploits a structural fact: under
*silent* crashes (the only kind the scale experiments' adversaries
use), every receiver of a SynRan round sees exactly the same tallies —
so the whole population's transition is one vectorized update plus one
batch of coin flips, and the adversary's entire per-round choice
collapses to two integers: how many 1-senders and how many 0-senders to
crash.

The engine mirrors :class:`repro.protocols.synran.SynRanProtocol`'s
semantics exactly under that restriction (the integration tests
cross-check the two engines' round distributions at small ``n``), and
supports the same constants/ablation knobs by consuming a
``SynRanProtocol`` instance as its configuration.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro._math import deterministic_stage_threshold
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    TerminationViolation,
)
from repro.faultmodels.registry import resolve_fault_model
from repro.lint.sanitizer import SimSanitizer
from repro.protocols.synran import Stage, SynRanProtocol
from repro.sim.engine import default_max_rounds
from repro.sim.model import COUNTS_OMISSION, FaultModel

__all__ = [
    "FastAdversary",
    "FastBenign",
    "FastOblivious",
    "FastRandomCrash",
    "FastResult",
    "FastTallyAttack",
    "FastValencyKeeper",
    "FastView",
    "FastEngine",
    "valency_keeper_counts",
]


@dataclass(frozen=True)
class FastView:
    """Per-round view handed to a :class:`FastAdversary`.

    All quantities are population-level (views are uniform under silent
    crashes).  ``received_history[r]`` is the common ``N^r``; rounds
    before the start count as ``n`` via :meth:`received_count`.
    """

    round_index: int
    n: int
    stage: str
    senders: int
    ones: int
    zeros: int
    tentative: int
    budget_remaining: int
    received_history: Tuple[int, ...]

    def received_count(self, round_index: int) -> int:
        """``N^r`` with the paper's ``N^{-1} = N^0 = n`` convention."""
        if round_index < 0:
            return self.n
        return self.received_history[round_index]


class FastAdversary(abc.ABC):
    """Adversary for the vectorized engine: silent crashes only.

    Returns, per round, ``(kill_ones, kill_zeros)`` — how many of the
    current 1-senders and 0-senders to crash before delivery.
    """

    name: str = "fast-abstract"

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ConfigurationError(f"budget t must be >= 0, got {t}")
        self.t = t
        self.rng: random.Random = random.Random(0)

    def reset(self, n: int, rng: random.Random) -> None:
        self.rng = rng

    @abc.abstractmethod
    def choose(self, view: FastView) -> Tuple[int, int]:
        """Return ``(kill_ones, kill_zeros)`` for this round."""


class FastBenign(FastAdversary):
    """Crashes nobody."""

    name = "fast-benign"

    def __init__(self, t: int = 0) -> None:
        super().__init__(t)

    def choose(self, view: FastView) -> Tuple[int, int]:
        return (0, 0)


class FastRandomCrash(FastAdversary):
    """Binomial random crashes at ``rate`` per process per round."""

    name = "fast-random-crash"

    def __init__(self, t: int, *, rate: float = 0.05) -> None:
        super().__init__(t)
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate

    def choose(self, view: FastView) -> Tuple[int, int]:
        budget = view.budget_remaining
        if budget <= 0:
            return (0, 0)
        k1 = sum(
            1 for _ in range(view.ones) if self.rng.random() < self.rate
        )
        k0 = sum(
            1 for _ in range(view.zeros) if self.rng.random() < self.rate
        )
        while k1 + k0 > budget:
            if k1 >= k0:
                k1 -= 1
            else:
                k0 -= 1
        return (k1, k0)


class FastOblivious(FastAdversary):
    """Non-adaptive kill counts, committed at reset time.

    The vectorized counterpart of
    :class:`repro.adversary.oblivious.ObliviousAdversary` for silent
    crashes: a generator produces, before the first coin is flipped, a
    mapping from round index to how many senders to kill (bit classes
    are immaterial to an oblivious plan; kills are taken zeros-first,
    which is deterministic and coin-independent).

    Args:
        t: Total crash budget.
        generator: ``generator(n, t, rng) -> Mapping[int, int]``
            (round -> kill count).  Use
            :func:`repro.adversary.oblivious.calibrated_drip_schedule`
            via :meth:`from_schedule` to reuse the reference-engine
            schedule families.
    """

    name = "fast-oblivious"

    def __init__(self, t: int, generator) -> None:
        super().__init__(t)
        self.generator = generator
        self._plan: dict = {}
        self._n = 0

    @classmethod
    def from_schedule(cls, t: int, schedule_generator) -> "FastOblivious":
        """Adapt a reference-engine schedule generator (which returns
        round -> victim -> recipients) into kill counts."""

        def generator(n, t_, rng):
            schedule = schedule_generator(n, t_, rng)
            return {r: len(plan) for r, plan in schedule.items()}

        return cls(t, generator)

    def reset(self, n: int, rng: random.Random) -> None:
        super().reset(n, rng)
        self._n = n
        plan = dict(self.generator(n, self.t, rng))
        total = sum(plan.values())
        if total > self.t:
            raise ConfigurationError(
                f"oblivious plan kills {total} processes; budget is "
                f"{self.t}"
            )
        self._plan = plan

    def choose(self, view: FastView) -> Tuple[int, int]:
        k = min(
            self._plan.get(view.round_index, 0),
            view.budget_remaining,
            max(0, view.senders - 1),
        )
        k0 = min(k, view.zeros)
        return (k - k0, k0)


class FastTallyAttack(FastAdversary):
    """Scalar port of :class:`repro.adversary.antisynran.TallyAttackAdversary`.

    Split mode trims the 1-count into the coin window; bleed mode
    breaks the STOP stability check just in time.  Identical economics,
    expressed over the uniform-view counts.
    """

    name = "fast-tally-attack"

    def __init__(
        self,
        t: int,
        *,
        propose_lo: float = 0.5,
        propose_hi: float = 0.6,
        stop_fraction: float = 0.1,
        enable_split: bool = True,
        enable_bleed: bool = True,
    ) -> None:
        super().__init__(t)
        if not 0.0 < propose_lo < propose_hi < 1.0:
            raise ConfigurationError(
                f"need 0 < propose_lo < propose_hi < 1, got "
                f"{propose_lo}, {propose_hi}"
            )
        self.propose_lo = propose_lo
        self.propose_hi = propose_hi
        self.stop_fraction = stop_fraction
        self.enable_split = enable_split
        self.enable_bleed = enable_bleed

    def choose(self, view: FastView) -> Tuple[int, int]:
        budget = view.budget_remaining
        if budget <= 0 or view.stage != Stage.PROBABILISTIC:
            return (0, 0)
        p = view.senders
        if p < deterministic_stage_threshold(view.n):
            return (0, 0)  # endgame; save the budget

        prev = view.received_count(view.round_index - 1)
        if self.enable_split and view.zeros > 0:
            window_hi = math.floor(self.propose_hi * prev)
            window_lo = math.floor(self.propose_lo * prev) + 1
            if window_lo <= window_hi and view.ones >= window_lo:
                if view.ones <= window_hi:
                    return (0, 0)
                excess = view.ones - window_hi
                if excess <= budget:
                    return (excess, 0)

        if not self.enable_bleed or view.tentative == 0:
            return (0, 0)
        r = view.round_index
        n3 = view.received_count(r - 3)
        n2 = view.received_count(r - 2)
        bound = n3 - n2 * self.stop_fraction
        if p < bound:
            return (0, 0)  # already unstable enough
        k = math.floor(p - bound) + 1
        if k > budget or k >= p:
            return (0, 0)
        k0 = min(k, view.zeros)
        k1 = k - k0
        return (k1, k0)


def valency_keeper_counts(
    ones: int,
    zeros: int,
    senders: int,
    tentative: int,
    budget: int,
    n: int,
    prev: int,
    n2: int,
    n3: int,
    *,
    propose_lo: float = 0.5,
    propose_hi: float = 0.6,
    decide_hi: float = 0.7,
    stop_fraction: float = 0.1,
) -> Tuple[int, int]:
    """One valency-keeper decision over uniform-view counts.

    The counts-level port of :class:`repro.adversary.lowerbound.
    ExactValencyAdversary`'s *strategy* (keep both outcomes reachable,
    block imminent decisions) without its expectimax search, so it
    scales to arbitrary ``n``.  Branches, in order:

    1. **Split to the coin window** — if both bit classes are live and
       the bivalent window ``(propose_lo*prev, propose_hi*prev]`` is
       reachable, trim the 1-count into it (a round that ends in a
       coin flip is maximally bivalent and costs nothing extra when
       the count is already inside).
    2. **Block the tentative decide** — if the window is unaffordable
       but the 1-count sits above the ``decide_hi`` edge, kill just
       enough 1-senders to drop below it: the round degrades to a
       propose, not a decision.  (This branch is what distinguishes
       the keeper from the tally attack, which concedes here.)
    3. **Break STOP stability** — identical economics to the tally
       attack's bleed: if tentative deciders would pass the STOP check,
       kill the minimum count that re-destabilises it, zeros first.

    Shared by the scalar :class:`FastValencyKeeper` and the vectorized
    :class:`repro.sim.batch.BatchValencyKeeper`, whose elementwise
    agreement with this function is differential-tested.  All arguments
    are plain integers (``prev``/``n2``/``n3`` are ``N^{r-1}``/
    ``N^{r-2}``/``N^{r-3}`` with the ``N^{<0} = n`` convention);
    callers are responsible for the stage gate.
    """
    if budget <= 0 or senders < deterministic_stage_threshold(n):
        return (0, 0)
    window_hi = math.floor(propose_hi * prev)
    window_lo = math.floor(propose_lo * prev) + 1
    if zeros > 0 and window_lo <= window_hi and ones >= window_lo:
        if ones <= window_hi:
            return (0, 0)  # already in the bivalent coin window; free
        excess = ones - window_hi
        if excess <= budget:
            return (excess, 0)
        edge = math.floor(decide_hi * prev)
        k = ones - edge
        if ones > edge and k <= budget and k < senders:
            return (k, 0)
    if tentative > 0:
        bound = n3 - n2 * stop_fraction
        if senders >= bound:
            k = math.floor(senders - bound) + 1
            if k <= budget and k < senders:
                k0 = min(k, zeros)
                return (k - k0, k0)
    return (0, 0)


class FastValencyKeeper(FastAdversary):
    """Scalar valency keeper: the tractable port of the exact-valency
    adversary's strategy (see :func:`valency_keeper_counts`).

    Deterministic and full-information, like
    :class:`repro.adversary.lowerbound.ExactValencyAdversary`, but
    decided by closed-form count thresholds instead of expectimax over
    the reachable tree — usable at ``n`` in the thousands.
    """

    name = "fast-valency-keeper"

    def __init__(
        self,
        t: int,
        *,
        propose_lo: float = 0.5,
        propose_hi: float = 0.6,
        decide_hi: float = 0.7,
        stop_fraction: float = 0.1,
    ) -> None:
        super().__init__(t)
        if not 0.0 < propose_lo < propose_hi < decide_hi < 1.0:
            raise ConfigurationError(
                f"need 0 < propose_lo < propose_hi < decide_hi < 1, got "
                f"{propose_lo}, {propose_hi}, {decide_hi}"
            )
        self.propose_lo = propose_lo
        self.propose_hi = propose_hi
        self.decide_hi = decide_hi
        self.stop_fraction = stop_fraction

    def choose(self, view: FastView) -> Tuple[int, int]:
        if view.stage != Stage.PROBABILISTIC:
            return (0, 0)
        r = view.round_index
        return valency_keeper_counts(
            view.ones,
            view.zeros,
            view.senders,
            view.tentative,
            view.budget_remaining,
            view.n,
            view.received_count(r - 1),
            view.received_count(r - 2),
            view.received_count(r - 3),
            propose_lo=self.propose_lo,
            propose_hi=self.propose_hi,
            decide_hi=self.decide_hi,
            stop_fraction=self.stop_fraction,
        )


@dataclass
class FastResult:
    """Outcome of one vectorized execution.

    Attributes:
        rounds: Total rounds executed.
        decision_round: First round by whose end every surviving
            process had decided (``None`` if the horizon was hit).
        decision: The common decision value (``None`` if none).
        crashes_used: Total processes crashed.
        survivors: Number of never-crashed processes.
        terminated: Whether every survivor decided within the horizon.
        crashes_per_round: Crash counts, indexed by round.
        senders_per_round: Number of broadcasting (alive, non-halted)
            processes at the start of each round — the ``p`` of the
            paper's Lemma 4.6 cost accounting.
    """

    rounds: int
    decision_round: Optional[int]
    decision: Optional[int]
    crashes_used: int
    survivors: int
    terminated: bool
    crashes_per_round: List[int] = field(default_factory=list)
    senders_per_round: List[int] = field(default_factory=list)


class FastEngine:
    """Vectorized executor for ``SynRanProtocol`` configurations.

    Args:
        protocol: A :class:`SynRanProtocol` (or subclass) instance; its
            thresholds/knobs configure the engine.
        adversary: A :class:`FastAdversary`.
        n: Number of processes.
        seed: Master seed (process coins and adversary randomness).
        max_rounds: Horizon; ``None`` selects the engine default.
        strict_termination: Raise on horizon instead of flagging.
        sanitizer: Runtime model-contract monitor.  ``True`` builds a
            default :class:`~repro.lint.sanitizer.SimSanitizer`
            configured for the active fault model; pass an instance to
            configure the per-round budget.  ``None`` (default)
            disables it — zero overhead.
        fault_model: Failure regime (name, instance, or ``None`` for
            ``crash``).  The counts-level engine consumes only the
            model's ``counts_kind`` and ``lag``: ``crash``-kind models
            remove victims from the population, ``omission``-kind
            models suppress senders' broadcasts for one round without
            shrinking the population (budgeted by the per-round
            high-water mark, a lower bound on distinct faulty
            processes), and a positive ``lag`` serves the adversary the
            stale view of ``lag`` rounds earlier.  Models whose
            ``counts_kind`` is ``None`` (e.g. ``receive-omission``)
            cannot collapse to uniform counts and are rejected.
    """

    def __init__(
        self,
        protocol: SynRanProtocol,
        adversary: FastAdversary,
        n: int,
        *,
        seed: Optional[int] = None,
        max_rounds: Optional[int] = None,
        strict_termination: bool = True,
        sanitizer: Union[SimSanitizer, bool, None] = None,
        fault_model: Union[str, FaultModel, None] = None,
    ) -> None:
        if not isinstance(protocol, SynRanProtocol):
            raise ConfigurationError(
                "FastEngine supports SynRanProtocol configurations; got "
                f"{type(protocol).__name__}"
            )
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if adversary.t > n:
            raise ConfigurationError(
                f"adversary budget t={adversary.t} exceeds n={n}"
            )
        self.protocol = protocol
        self.adversary = adversary
        self.n = n
        self.seed = seed
        self.max_rounds = (
            default_max_rounds(n) if max_rounds is None else max_rounds
        )
        self.strict_termination = strict_termination
        self.fault_model: FaultModel = resolve_fault_model(fault_model)
        if self.fault_model.counts_kind is None:
            raise ConfigurationError(
                f"fault model {self.fault_model.name!r} has no "
                "counts-level realisation (counts_kind is None); use "
                "the reference engine"
            )
        if sanitizer is True:
            sanitizer = SimSanitizer(
                n,
                adversary.t,
                fault_model=self.fault_model.name,
                lag=self.fault_model.lag,
            )
        self.sanitizer: Optional[SimSanitizer] = sanitizer or None

    def run(self, inputs: Sequence[int]) -> FastResult:
        """Execute on the given input bits."""
        if len(inputs) != self.n:
            raise ConfigurationError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        proto = self.protocol
        n = self.n
        master = random.Random(self.seed)
        coin_gen = np.random.default_rng(master.getrandbits(64))
        self.adversary.reset(n, random.Random(master.getrandbits(64)))
        if self.sanitizer is not None:
            self.sanitizer.begin_run()

        b = np.asarray(inputs, dtype=np.int8).copy()
        if not np.isin(b, (0, 1)).all():
            raise ConfigurationError("inputs must be bits")
        alive = np.ones(n, dtype=bool)
        halted = np.zeros(n, dtype=bool)
        tentative = np.zeros(n, dtype=bool)
        decision = np.full(n, -1, dtype=np.int8)

        n_hist: List[int] = []
        crashes_per_round: List[int] = []
        senders_per_round: List[int] = []
        stage = Stage.PROBABILISTIC
        det_known: Set[int] = set()
        det_rounds_done = 0
        det_total = proto.det_stage_rounds(n)
        threshold = deterministic_stage_threshold(n)
        budget_used = 0
        decision_round: Optional[int] = None
        model = self.fault_model
        omission = model.counts_kind == COUNTS_OMISSION
        lag = model.lag
        # With a lagged adversary, past views are kept so round r can be
        # served the (fully self-consistent) view of round r - lag.
        view_hist: List[FastView] = []

        def received(r: int) -> int:
            return n if r < 0 else n_hist[r]

        r = 0
        while True:
            senders = alive & ~halted
            p = int(senders.sum())
            if p == 0:
                break
            if r >= self.max_rounds:
                if self.strict_termination:
                    raise TerminationViolation(
                        f"{p} processes undecided after "
                        f"{self.max_rounds} rounds (fast engine)"
                    )
                break

            ones = int(b[senders].sum())
            zeros = p - ones
            view = FastView(
                round_index=r,
                n=n,
                stage=stage,
                senders=p,
                ones=ones,
                zeros=zeros,
                tentative=int(tentative[senders].sum()),
                budget_remaining=self.adversary.t - budget_used,
                received_history=tuple(n_hist),
            )
            if lag:
                view_hist.append(view)
                s = view_hist[max(0, r - lag)]
                adv_view = FastView(
                    round_index=s.round_index,
                    n=n,
                    stage=s.stage,
                    senders=s.senders,
                    ones=s.ones,
                    zeros=s.zeros,
                    tentative=s.tentative,
                    budget_remaining=self.adversary.t - budget_used,
                    received_history=s.received_history,
                )
            else:
                adv_view = view
            k1, k0 = self.adversary.choose(adv_view)
            if lag:
                # Kill counts chosen against stale class sizes may
                # overshoot today's population; the lagged adversary
                # gets the clamped effect, never an error.
                k1 = min(k1, ones)
                k0 = min(k0, zeros)
            if k1 < 0 or k0 < 0 or k1 > ones or k0 > zeros:
                raise ConfigurationError(
                    f"fast adversary returned invalid kill counts "
                    f"({k1}, {k0}) with ones={ones}, zeros={zeros}"
                )
            if omission:
                # Budget = high-water mark of per-round suppression: a
                # lower bound on distinct omission-faulty processes
                # (pids are anonymous at counts level).
                budget_used = max(budget_used, k1 + k0)
                if budget_used > self.adversary.t:
                    raise BudgetExceededError(
                        f"fast adversary suppressed {k1 + k0} senders "
                        f"in one round; distinct-faulty budget is "
                        f"{self.adversary.t}"
                    )
            else:
                budget_used += k1 + k0
                if budget_used > self.adversary.t:
                    raise BudgetExceededError(
                        f"fast adversary used {budget_used} crashes, budget "
                        f"is {self.adversary.t}"
                    )
            crashes_per_round.append(k1 + k0)
            senders_per_round.append(p)

            if omission:
                # Suppress without killing: the population is intact,
                # everyone (including suppressed senders) receives the
                # common surviving tallies.
                receivers = senders
            else:
                # Crash the victims (silently): first k1 1-senders, k0
                # 0-senders, in pid order (which victims is irrelevant
                # under uniform views).
                if k1:
                    victims_1 = np.flatnonzero(senders & (b == 1))[:k1]
                    alive[victims_1] = False
                if k0:
                    victims_0 = np.flatnonzero(senders & (b == 0))[:k0]
                    alive[victims_0] = False
                receivers = senders & alive
            d_ones = ones - k1
            d_zeros = zeros - k0
            delivered = d_ones + d_zeros

            if stage == Stage.PROBABILISTIC:
                n_hist.append(delivered)
                if proto.det_handoff and delivered < threshold:
                    stage = Stage.SYNC
                else:
                    self._probabilistic_update(
                        proto,
                        coin_gen,
                        b,
                        tentative,
                        halted,
                        decision,
                        receivers,
                        r,
                        d_ones,
                        d_zeros,
                        received,
                    )
            elif stage == Stage.SYNC:
                # One-round delay: inbox ignored, b frozen.  The flood
                # set stays empty until the first DET round delivers
                # (a process crashed silently in that round must not
                # contribute its value, matching the reference engine).
                det_known = set()
                stage = Stage.DETERMINISTIC
                det_rounds_done = 0
            else:  # deterministic flooding
                # Count-based: a value floods iff any sender of that
                # class was delivered this round (for crash kinds the
                # survivors of class v number d_ones/d_zeros, so this
                # is exactly np.unique over the surviving bits).
                if d_ones > 0:
                    det_known.add(1)
                if d_zeros > 0:
                    det_known.add(0)
                det_rounds_done += 1
                if det_rounds_done >= det_total:
                    value = min(det_known) if det_known else 0
                    decision[receivers] = value
                    halted[receivers] = True

            if self.sanitizer is not None:
                self.sanitizer.observe_fast_round(
                    r,
                    p,
                    0 if omission else k1 + k0,
                    decisions=decision.tolist(),
                    omissions=k1 + k0 if omission else 0,
                    view_round=model.view_round(r),
                )

            if decision_round is None:
                undecided_alive = alive & (decision < 0)
                if not undecided_alive.any():
                    decision_round = r
            r += 1

        decided_values = set(int(v) for v in np.unique(decision[decision >= 0]))
        common = decided_values.pop() if len(decided_values) == 1 else None
        survivors = int(alive.sum())
        terminated = decision_round is not None
        return FastResult(
            rounds=r,
            decision_round=decision_round,
            decision=common,
            crashes_used=budget_used,
            survivors=survivors,
            terminated=terminated,
            crashes_per_round=crashes_per_round,
            senders_per_round=senders_per_round,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _probabilistic_update(
        proto: SynRanProtocol,
        coin_gen: np.random.Generator,
        b: np.ndarray,
        tentative: np.ndarray,
        halted: np.ndarray,
        decision: np.ndarray,
        receivers: np.ndarray,
        r: int,
        d_ones: int,
        d_zeros: int,
        received,
    ) -> None:
        """One probabilistic-stage transition for the whole population.

        Mirrors ``SynRanProtocol._receive_probabilistic`` under uniform
        views: the STOP rule for tentative deciders, then the threshold
        cascade (identical branch for everyone except the coin flips).
        """
        delivered = d_ones + d_zeros
        # STOP rule (uses history relative to the current round).
        tentative_receivers = receivers & tentative
        if tentative_receivers.any():
            diff = received(r - 3) - delivered
            if diff <= received(r - 2) * proto.stop_fraction:
                decision[tentative_receivers] = b[tentative_receivers]
                halted[tentative_receivers] = True
                receivers = receivers & ~tentative_receivers
                if not receivers.any():
                    return
            tentative[tentative_receivers] = False

        prev = received(r - 1)
        if d_ones > proto.decide_hi * prev:
            b[receivers] = 1
            tentative[receivers] = True
        elif d_ones > proto.propose_hi * prev:
            b[receivers] = 1
        elif proto.one_side_bias and d_zeros == 0:
            b[receivers] = 1
        elif d_ones < proto.decide_lo * prev:
            b[receivers] = 0
            tentative[receivers] = True
        elif d_ones < proto.propose_lo * prev:
            b[receivers] = 0
        else:
            count = int(receivers.sum())
            b[receivers] = coin_gen.integers(0, 2, size=count, dtype=np.int8)
