"""Audit re-execution: spot-checking untrusted chunk results.

Outcome attestation (the ``chunk_digest`` a worker returns and the
cache stores) makes results *tamper-evident*, but a Byzantine worker
can lie consistently — compute a wrong outcome and digest the lie.
The only way to catch that is to recompute, and this codebase makes
recomputation uniquely cheap to adjudicate: every outcome is a pure
function of ``(base_seed, spec_hash, trial_index)``, so an audit
re-execution either reproduces the claimed digest bit-for-bit or
proves the claimant wrong.  There is no "flaky disagreement" middle
ground to arbitrate — one honest re-execution beats any number of
liars, which is a far better exchange rate than the paper's own
adversary gets.

:class:`AuditPolicy` decides *which* completed chunks get audited.
Selection is hash-derived from ``(seed, batch key, first trial
index)`` — the same derivation discipline as trial seeds and backoff
jitter — so the audited subset is a pure function of the plan being
run: reproducible across runs, impossible for a worker to predict or
influence by timing, and clean under ``repro.lint`` REP001/REP007.
The seed is typically the plan key (the sweep server wires it so),
giving every job its own reproducible audit schedule.

The scheduler computes the ground truth with
:func:`~repro.harness.exec.trial.compute_chunk` itself, not the
executor's ``run_chunk``, deliberately bypassing every chaos hook: the
auditor's answer must be the honest one even inside a fault-injection
test, otherwise the audit would convict honest workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["AuditPolicy", "audit_fraction_value"]


def audit_fraction_value(seed: str, batch_key: str, first_index: int) -> float:
    """Deterministic selection fraction in ``[0, 1)`` for one chunk.

    SHA-256 over ``(seed, batch key, first trial index)``; a chunk is
    audited when this value falls below the policy's audit fraction,
    so raising the fraction only ever *adds* audited chunks (the
    selected set is monotone in the fraction).
    """
    material = f"audit:{seed}:{batch_key}:{first_index}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class AuditPolicy:
    """Which fraction of completed chunks to re-execute, and how keyed.

    Attributes:
        fraction: Probability-mass of chunks audited.  ``0.0`` (the
            default) disables auditing entirely; ``1.0`` audits every
            chunk — the setting the differential gates use, because it
            turns "audits catch the lie eventually" into "this run is
            byte-identical to a fault-free one".
        seed: Salt for the selection hash — typically the plan key, so
            each job's audit schedule is reproducible but jobs don't
            all audit the same chunk geometry.
    """

    fraction: float = 0.0
    seed: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"audit fraction must be in [0, 1], got {self.fraction}"
            )

    def selects(self, batch_key: str, indices: Sequence[int]) -> bool:
        """Whether the chunk covering ``indices`` is audited."""
        if self.fraction <= 0.0 or not indices:
            return False
        if self.fraction >= 1.0:
            return True
        value = audit_fraction_value(self.seed, batch_key, min(indices))
        return value < self.fraction
