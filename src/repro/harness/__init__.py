"""Experiment harness: seeded Monte-Carlo drivers and the per-claim
experiment suite (E1..E14, see DESIGN.md §5).

The paper is theory-only, so its "tables and figures" are the
quantitative statements of its lemmas and theorems; each function in
:mod:`repro.harness.experiments` regenerates one of them as a printable
table.  Run them all from the command line::

    python -m repro.harness.experiments            # quick scale
    python -m repro.harness.experiments --workers 4  # parallel + cached

Trial execution is layered on :mod:`repro.harness.exec`: declarative
:class:`TrialSpec`/:class:`TrialBatch` descriptions, pluggable serial
and process-pool executors, and a content-addressed result cache (see
``docs/harness.md``).  Execution is fail-stop tolerant — chunk retry
with deterministic backoff, chunk-level checkpointing, poison-chunk
quarantine, and a chaos-injection test harness live in
:mod:`repro.harness.resilience` (see ``docs/robustness.md``).
"""

from repro.harness.exec import (
    ExecutionPlan,
    Executor,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
    make_executor,
    spec_params,
)
from repro.harness.resilience import (
    BatchReport,
    ChaosError,
    ChunkFailure,
    Fault,
    FaultPlan,
    RetryPolicy,
)
from repro.harness.report import Table, render_table
from repro.harness.runner import TrialStats, run_reference_trials, run_fast_trials
from repro.harness.sweep import Sweep, SweepResult, run_sweep, sweep_plan
from repro.harness.workloads import (
    half_split,
    random_inputs,
    unanimous,
    worst_case_split,
)

__all__ = [
    "BatchReport",
    "ChaosError",
    "ChunkFailure",
    "ExecutionPlan",
    "Executor",
    "Fault",
    "FaultPlan",
    "ParallelExecutor",
    "ResultCache",
    "RetryPolicy",
    "SerialExecutor",
    "Sweep",
    "SweepResult",
    "Table",
    "TrialBatch",
    "TrialOutcome",
    "TrialSpec",
    "TrialStats",
    "half_split",
    "make_executor",
    "random_inputs",
    "render_table",
    "run_fast_trials",
    "run_reference_trials",
    "run_sweep",
    "spec_params",
    "sweep_plan",
    "unanimous",
    "worst_case_split",
]
