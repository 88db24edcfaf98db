"""Declarative trial execution: specs, executors, and the result cache.

This subpackage is the execution core the rest of the harness sits on.
It separates *what* to run from *how* to run it:

* :mod:`repro.harness.exec.spec` — :class:`TrialSpec` (one frozen,
  hashable, picklable trial configuration), :class:`TrialBatch` (a spec
  plus a trial count and base seed), :class:`ExecutionPlan` (an ordered
  collection of batches), and the hash-based per-trial seed derivation.
* :mod:`repro.harness.exec.builders` — name-based construction of
  protocols, adversaries, and input vectors from a spec; everything a
  worker process needs is importable, so specs cross process
  boundaries without pickling closures.
* :mod:`repro.harness.exec.trial` — the single-trial execution
  functions shared by every driver, and :class:`TrialOutcome`, the
  JSON-serialisable per-trial record.
* :mod:`repro.harness.exec.executor` — the :class:`Executor` interface
  with :class:`SerialExecutor` and the process-pool
  :class:`ParallelExecutor`; outcomes are byte-identical regardless of
  worker count or chunking, and execution is fail-stop tolerant (chunk
  retry, pool rebuild, quarantine — see
  :mod:`repro.harness.resilience`).
* :mod:`repro.harness.exec.cache` — :class:`ResultCache`, the
  content-addressed on-disk store (schema v2: final batch documents
  plus a per-chunk partial ledger) that makes interrupted sweeps and
  experiment grids resumable at chunk granularity.

See ``docs/harness.md`` for the architecture and the seed-derivation
compatibility note.
"""

from repro.harness.exec.builders import (
    available_input_kinds,
    build_adversary,
    build_batch_adversary,
    build_inputs,
    build_protocol,
)
from repro.harness.exec.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_salt,
)
from repro.harness.exec.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_chunk,
)
from repro.harness.exec.spec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    ENGINE_KINDS,
    ENGINE_REFERENCE,
    ExecutionPlan,
    TrialBatch,
    TrialSpec,
    derive_trial_seed,
    spec_params,
)
from repro.harness.exec.trial import (
    TrialOutcome,
    execute_reference_trial,
    run_spec_batch,
    run_spec_trial,
)
from repro.harness.exec.wire import (
    WIRE_VERSION,
    batch_from_wire,
    batch_to_wire,
    plan_from_wire,
    plan_key,
    plan_to_wire,
    spec_from_wire,
    spec_to_wire,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ENGINE_BATCH",
    "ENGINE_BATCH2D",
    "ENGINE_KINDS",
    "ENGINE_REFERENCE",
    "ExecutionPlan",
    "Executor",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "TrialBatch",
    "TrialOutcome",
    "TrialSpec",
    "WIRE_VERSION",
    "batch_from_wire",
    "batch_to_wire",
    "available_input_kinds",
    "build_adversary",
    "build_batch_adversary",
    "build_inputs",
    "build_protocol",
    "cache_salt",
    "derive_trial_seed",
    "execute_reference_trial",
    "make_executor",
    "plan_from_wire",
    "plan_key",
    "plan_to_wire",
    "run_chunk",
    "run_spec_batch",
    "run_spec_trial",
    "spec_from_wire",
    "spec_params",
    "spec_to_wire",
]
