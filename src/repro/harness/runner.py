"""Seeded Monte-Carlo drivers over (protocol, adversary, inputs) grids.

Two entry points, matching the two engine families:

* :func:`run_reference_trials` — message-level engine, any protocol and
  adversary, full verdicts.
* :func:`run_fast_trials` — vectorized engines for SynRan-family
  protocols with :class:`~repro.sim.batch.BatchFastAdversary` (or
  two-axis :class:`~repro.sim.batch2d.Batch2DAdversary`) attackers,
  usable at ``n`` in the thousands.

Both are thin wrappers over the execution functions in
:mod:`repro.harness.exec.trial`, kept for callers that hold live
factories rather than declarative specs.  Spec-based work (anything
that should run in parallel or hit the result cache) goes through
:mod:`repro.harness.exec` instead.

Seed derivation note: per-trial seeds are
``derive_trial_seed(base_seed, scope, i)`` — a pure hash of the trial
index, not a draw from a sequential stream — so trial ``i`` is
reproducible in isolation.  This replaced the original sequential
``random.Random(base_seed).getrandbits(48)`` stream when the executor
core landed; see :mod:`repro.harness.exec.spec` for the compatibility
note.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.errors import ConfigurationError
from repro.harness.exec.spec import (
    ENGINE_KINDS,
    ENGINE_REFERENCE,
    FACTORY_SCOPE,
    derive_trial_seed,
)
from repro.harness.exec.trial import (
    _INPUT_STREAM_MASK,
    BATCH_ENGINES,
    TrialOutcome,
    batch_outcomes,
    execute_reference_trial,
    vectorized_kind,
)
from repro.sim.model import Verdict

__all__ = ["TrialStats", "run_reference_trials", "run_fast_trials"]


@dataclass
class TrialStats:
    """Aggregated outcomes of a batch of executions.

    Attributes:
        decision_rounds: Per-trial decision round; trials where the
            horizon was hit without universal decision contribute the
            horizon value (and are counted in ``timeouts``).
        crashes: Per-trial total crash counts.
        decisions: Per-trial common decision (``None`` when absent).
        verdicts: Per-trial consensus verdicts (reference engine only;
            empty for vectorized runs, whose checks are structural).
        timeouts: Number of trials that hit the round horizon.
        engine_kind: Which engine produced the batch (``"reference"``,
            ``"batch"``, or ``"batch2d"``).  Vectorized batches carry
            no verdicts, so the verdict-based checks below refuse to
            answer for them rather than report a vacuous pass.
        missing_trials: Trials the executor expected but never
            produced — quarantined chunks under the fail-stop-tolerant
            executor.  Nonzero fails :meth:`structural_ok`, so a batch
            with holes can never read as a clean pass.
        n: The batch's process count, when known.  A trial that
            charged all ``n`` processes as faulty leaves no correct
            process, so :meth:`structural_ok` asks it for no decision.
    """

    decision_rounds: List[int] = field(default_factory=list)
    crashes: List[int] = field(default_factory=list)
    decisions: List[Optional[int]] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)
    timeouts: int = 0
    engine_kind: str = ENGINE_REFERENCE
    missing_trials: int = 0
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine_kind not in ENGINE_KINDS:
            raise ConfigurationError(
                f"engine_kind must be one of {ENGINE_KINDS}, "
                f"got {self.engine_kind!r}"
            )

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[TrialOutcome],
        *,
        engine_kind: str,
        expected_trials: Optional[int] = None,
        n: Optional[int] = None,
    ) -> "TrialStats":
        """Aggregate per-trial outcomes (in trial-index order).

        ``expected_trials`` (when known — executors pass the batch's
        trial count) records any shortfall in ``missing_trials``;
        ``n`` is the batch's process count.
        """
        stats = cls(engine_kind=engine_kind, n=n)
        count = 0
        for outcome in sorted(outcomes, key=lambda o: o.trial_index):
            stats.append(outcome)
            count += 1
        if expected_trials is not None and count < expected_trials:
            stats.missing_trials = expected_trials - count
        return stats

    def append(self, outcome: TrialOutcome) -> None:
        """Fold one trial outcome into the aggregate."""
        if outcome.timeout:
            self.timeouts += 1
        self.decision_rounds.append(outcome.effective_round)
        self.crashes.append(outcome.crashes)
        self.decisions.append(outcome.decision)
        verdict = outcome.verdict_obj()
        if verdict is not None:
            self.verdicts.append(verdict)

    @property
    def checked(self) -> bool:
        """Whether trials carry full consensus verdicts."""
        return self.engine_kind == ENGINE_REFERENCE

    def rounds_summary(self) -> Summary:
        return summarize([float(r) for r in self.decision_rounds])

    def all_ok(self) -> bool:
        """Every consensus verdict passed (reference engine only).

        Raises :class:`ConfigurationError` for vectorized batches: they
        carry no verdicts, and an unchecked run must not read as a
        passing one.  Use :meth:`structural_ok` for the checks the
        vectorized engines do support.
        """
        self._require_checked("all_ok")
        return all(v.ok for v in self.verdicts)

    def violation_count(self) -> int:
        """Number of failed verdicts (reference engine only)."""
        self._require_checked("violation_count")
        return sum(1 for v in self.verdicts if not v.ok)

    def structural_ok(self) -> bool:
        """Engine-agnostic sanity: complete, no timeouts, all decided.

        A trial without a common decision passes only when it charged
        all ``n`` processes as faulty: Agreement and Termination bind
        non-faulty processes (§3.1), and none is left.  Survivors that
        disagree still fail.
        """
        return (
            self.missing_trials == 0
            and self.timeouts == 0
            and all(
                d is not None or (self.n is not None and c >= self.n)
                for d, c in zip(self.decisions, self.crashes)
            )
        )

    def _require_checked(self, method: str) -> None:
        if not self.checked:
            raise ConfigurationError(
                f"TrialStats.{method}() needs consensus verdicts, but "
                f"this is a {self.engine_kind!r}-engine batch whose "
                "checking is structural only; use structural_ok()"
            )


def run_reference_trials(
    protocol_factory: Callable[[], object],
    adversary_factory: Callable[[], object],
    n: int,
    inputs_factory: Callable[[random.Random], Sequence[int]],
    *,
    trials: int,
    base_seed: int = 0,
    max_rounds: Optional[int] = None,
    strict_termination: bool = False,
) -> TrialStats:
    """Run ``trials`` seeded executions on the reference engine.

    Factories (rather than instances) are taken for the protocol and
    adversary so each trial gets a fresh object and no state can leak
    between trials (adversaries are also reset by the engine, so an
    instance-per-batch would work, but fresh-per-trial is the
    configuration misuse-proof choice).
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    outcomes = []
    for index in range(trials):
        seed = derive_trial_seed(base_seed, FACTORY_SCOPE, index)
        inputs = inputs_factory(random.Random(seed ^ _INPUT_STREAM_MASK))
        outcomes.append(
            execute_reference_trial(
                protocol_factory(),
                adversary_factory(),
                n,
                trial_index=index,
                seed=seed,
                inputs=inputs,
                max_rounds=max_rounds,
                strict_termination=strict_termination,
            )
        )
    return TrialStats.from_outcomes(
        outcomes, engine_kind=ENGINE_REFERENCE, n=n
    )


def run_fast_trials(
    protocol_factory: Callable[[], object],
    adversary_factory: Callable[[], object],
    n: int,
    inputs_factory: Callable[[random.Random], Sequence[int]],
    *,
    trials: int,
    base_seed: int = 0,
    max_rounds: Optional[int] = None,
) -> TrialStats:
    """Run ``trials`` seeded executions on a vectorized engine at once.

    The engine follows from the adversary's type: a
    :class:`~repro.sim.batch.BatchFastAdversary` runs the trials in
    lockstep through one :class:`~repro.sim.batch.BatchFastEngine`
    call, a :class:`~repro.sim.batch2d.Batch2DAdversary` through the
    two-axis :class:`~repro.sim.batch2d.Batch2DEngine`.  Per-trial
    seeds are the same ``FACTORY_SCOPE`` hashes
    :func:`run_reference_trials` uses.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    adversary = adversary_factory()
    engine_kind = vectorized_kind(adversary)
    seeds = [
        derive_trial_seed(base_seed, FACTORY_SCOPE, index)
        for index in range(trials)
    ]
    inputs = [
        inputs_factory(random.Random(seed ^ _INPUT_STREAM_MASK))
        for seed in seeds
    ]
    engine = BATCH_ENGINES[engine_kind](
        protocol_factory(),
        adversary,
        n,
        max_rounds=max_rounds,
        strict_termination=False,
    )
    outcomes = batch_outcomes(
        engine.run(inputs, seeds), range(trials), seeds
    )
    return TrialStats.from_outcomes(outcomes, engine_kind=engine_kind, n=n)
