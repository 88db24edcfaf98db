"""Fail-stop tolerance for the executor layer.

The paper's whole subject is making progress while an adversary crashes
processes; this subpackage gives the execution harness the same
property.  A chunk of trials that dies — a worker OOM-killed, a
``BrokenProcessPool``, an exception inside a builder — is an *expected
event to absorb*, not an exception that discards every completed chunk
of a long run.

* :mod:`repro.harness.resilience.policy` — :class:`RetryPolicy`
  (capped exponential backoff with hash-derived deterministic jitter),
  :class:`ChunkFailure` (the structured record of a quarantined
  chunk), and :class:`BatchReport` (per-batch ``resumed_chunks`` /
  ``retries`` / ``quarantined`` accounting).
* :mod:`repro.harness.resilience.chaos` — the fault-injection harness:
  a declarative :class:`FaultPlan` (kill a worker, raise in a chunk,
  delay past a timeout, corrupt a cache document, falsify a chunk's
  outcomes on the way out of a worker), activated through the
  ``REPRO_CHAOS`` environment variable so process-pool workers
  inherit it, used by the integration tests to prove that runs with
  and without injected faults produce byte-identical outcomes.
* :mod:`repro.harness.resilience.audit` — Byzantine defence for the
  service tier: :class:`AuditPolicy` deterministically samples
  completed remote chunks for local re-execution, turning bit-exact
  determinism into nearly-free verification of untrusted workers.

See ``docs/robustness.md`` for the harness's own failure model.
"""

from repro.harness.resilience.audit import AuditPolicy, audit_fraction_value
from repro.harness.resilience.chaos import (
    CHAOS_ENV,
    ChaosError,
    Fault,
    FaultPlan,
    apply_corruption,
    corrupt_outcomes,
    inject_chunk_faults,
)
from repro.harness.resilience.policy import (
    BatchReport,
    ChunkFailure,
    CircuitBreaker,
    RetryPolicy,
    backoff_fraction,
)

__all__ = [
    "CHAOS_ENV",
    "AuditPolicy",
    "BatchReport",
    "ChaosError",
    "ChunkFailure",
    "CircuitBreaker",
    "Fault",
    "FaultPlan",
    "RetryPolicy",
    "apply_corruption",
    "audit_fraction_value",
    "backoff_fraction",
    "corrupt_outcomes",
    "inject_chunk_faults",
]
