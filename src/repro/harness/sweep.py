"""Parameter sweeps over (protocol, adversary, n, t) grids.

A :class:`Sweep` describes a grid; :func:`sweep_plan` lowers it to a
declarative :class:`~repro.harness.exec.spec.ExecutionPlan` (one
:class:`~repro.harness.exec.spec.TrialBatch` per cell), and
:func:`run_sweep` executes that plan on any
:class:`~repro.harness.exec.executor.Executor` — serial by default,
parallel and/or cached when one is passed in — returning
:class:`SweepResult` rows that the export module can serialise and the
plotting/analysis layer of a downstream user can consume directly.

The experiments in :mod:`repro.harness.experiments` are hand-shaped
for the paper's specific claims; sweeps are the general-purpose
counterpart for users exploring their own configurations, e.g.::

    sweep = Sweep(
        protocols=("synran", "floodset"),
        adversaries=("benign", "tally-attack"),
        ns=(64, 128),
        t_of=lambda n: n // 2,
        trials=10,
    )
    rows = run_sweep(sweep)                              # serial
    rows = run_sweep(sweep, executor=make_executor(4))   # 4 workers
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.bounds import expected_rounds_theta
from repro.errors import ConfigurationError
from repro.harness.exec import (
    ExecutionPlan,
    Executor,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
    available_input_kinds,
)
from repro.harness.runner import TrialStats

__all__ = ["Sweep", "SweepResult", "run_sweep", "sweep_plan"]


@dataclass(frozen=True)
class Sweep:
    """A grid specification.

    Attributes:
        protocols: Protocol registry names.
        adversaries: Adversary registry names.
        ns: System sizes.
        t_of: Budget as a function of ``n``.
        trials: Monte-Carlo trials per cell.
        base_seed: Seed root; every cell derives its own stream from
            its spec's content hash.
        inputs: Input-workload kind (``"worst"``, ``"half"``,
            ``"unanimous0"``, ``"unanimous1"``, ``"random"``).
        max_rounds_of: Horizon as a function of ``n`` (default: the
            engine default).
        fault_model: Registered fault-model name shared by every cell
            (default ``"crash"``, the paper's fail-stop semantics —
            cell specs and their cache keys are then identical to
            pre-fault-layer sweeps).
        fault_model_params: Fault-model parameters as canonical
            ``(key, value)`` tuples (``spec_params(lag=2)``).
    """

    protocols: Sequence[str]
    adversaries: Sequence[str]
    ns: Sequence[int]
    t_of: Callable[[int], int]
    trials: int = 5
    base_seed: int = 0
    inputs: str = "worst"
    max_rounds_of: Optional[Callable[[int], int]] = None
    fault_model: str = "crash"
    fault_model_params: Tuple[Tuple[str, object], ...] = ()

    def cells(self) -> List[Tuple[str, str, int]]:
        """All (protocol, adversary, n) combinations, in order."""
        return [
            (p, a, n)
            for p in self.protocols
            for a in self.adversaries
            for n in self.ns
        ]

    def input_kind(self) -> str:
        """The spec-layer input kind this sweep names (checked)."""
        if self.inputs not in available_input_kinds():
            raise ConfigurationError(
                f"unknown input kind {self.inputs!r}; available: "
                f"{available_input_kinds()}"
            )
        return self.inputs


@dataclass
class SweepResult:
    """One cell's outcome.

    Attributes:
        protocol / adversary / n / t: The cell coordinates.
        mean_rounds: Mean decision round over the trials.
        std_rounds: Sample standard deviation.
        mean_crashes: Mean total crashes used.
        timeouts: Trials that hit the horizon undecided.
        violations: Trials failing any consensus condition.
        theta_shape: ``expected_rounds_theta(n, t)`` for normalising.
    """

    protocol: str
    adversary: str
    n: int
    t: int
    mean_rounds: float
    std_rounds: float
    mean_crashes: float
    timeouts: int
    violations: int
    theta_shape: float

    def normalised_rounds(self) -> float:
        """Mean rounds divided by the Theorem-3 shape (>= 1 clamp)."""
        return self.mean_rounds / max(self.theta_shape, 1.0)


def sweep_plan(sweep: Sweep) -> ExecutionPlan:
    """Lower ``sweep`` to one reference-engine batch per cell.

    Each cell's spec is complete and self-contained: workers build a
    fresh protocol, adversary, and (for adversaries that inspect their
    target) probe *per trial*, so no instance is shared across the
    trials of a cell.
    """
    if sweep.trials < 1:
        raise ConfigurationError(
            f"trials must be >= 1, got {sweep.trials}"
        )
    inputs = sweep.input_kind()
    batches = []
    for proto_name, adv_name, n in sweep.cells():
        t = sweep.t_of(n)
        if not 0 <= t <= n:
            raise ConfigurationError(
                f"t_of({n}) = {t} outside [0, {n}]"
            )
        spec = TrialSpec(
            protocol=proto_name,
            adversary=adv_name,
            n=n,
            t=t,
            inputs=inputs,
            max_rounds=(
                sweep.max_rounds_of(n) if sweep.max_rounds_of else None
            ),
            fault_model=sweep.fault_model,
            fault_model_params=sweep.fault_model_params,
        )
        batches.append(
            TrialBatch(
                spec=spec,
                trials=sweep.trials,
                base_seed=sweep.base_seed,
                label=f"{proto_name}/{adv_name}/n={n}",
            )
        )
    return ExecutionPlan(batches=tuple(batches))


def run_sweep(
    sweep: Sweep, *, executor: Optional[Executor] = None
) -> List[SweepResult]:
    """Execute every cell of ``sweep`` on the reference engine."""
    plan = sweep_plan(sweep)
    if executor is None:
        executor = SerialExecutor()
    results: List[SweepResult] = []
    for batch, stats in zip(plan, executor.run_plan(plan)):
        results.append(_cell_result(batch, stats))
    return results


def _cell_result(batch: TrialBatch, stats: TrialStats) -> SweepResult:
    spec = batch.spec
    if stats.decision_rounds:
        summary = stats.rounds_summary()
        mean_rounds, std_rounds = summary.mean, summary.std
        mean_crashes = sum(stats.crashes) / len(stats.crashes)
    else:
        # Every trial of the cell was quarantined by the executor; the
        # cell survives as a NaN row instead of crashing the sweep.
        mean_rounds = std_rounds = mean_crashes = float("nan")
    return SweepResult(
        protocol=spec.protocol,
        adversary=spec.adversary,
        n=spec.n,
        t=spec.t,
        mean_rounds=mean_rounds,
        std_rounds=std_rounds,
        mean_crashes=mean_crashes,
        timeouts=stats.timeouts,
        violations=stats.violation_count(),
        theta_shape=expected_rounds_theta(spec.n, spec.t),
    )
