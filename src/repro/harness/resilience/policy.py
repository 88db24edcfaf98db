"""Retry policy and per-batch resilience accounting.

:class:`RetryPolicy` decides how many times a failed chunk is re-run,
how long to wait between attempts, and when a dying process pool is
abandoned for in-process execution.  Backoff jitter is *hash-derived*
(like the per-trial seeds), never drawn from the global RNG or a
wall clock, so a retry schedule is a pure function of the batch key
and the attempt number — replayable, and clean under ``repro.lint``
REP001.

:class:`ChunkFailure` is the structured record a chunk leaves behind
when every attempt is exhausted: the run keeps going (the paper's
fail-stop model, applied to the harness itself) and the hole is
reported instead of raised.  :class:`BatchReport` aggregates one
batch's resilience counters — ``resumed_chunks``, ``retries``,
``quarantined``, ``pool_rebuilds``, audit counters — which executors
expose per batch via ``Executor.reports``.

:class:`CircuitBreaker` is the endpoint-health state machine the
remote executor runs per worker: *closed* (healthy) opens after a run
of consecutive failures, an *open* breaker cools down on the same
deterministic backoff schedule as chunk retries, then *half-opens* to
admit one probe — success re-closes it, failure re-opens with a longer
cooldown.  Only a breaker that has opened ``pool_failure_limit`` times
(or an endpoint proven Byzantine by audit) is permanently out, so a
transiently-bad worker rejoins the fleet instead of shrinking it to
degrade-to-serial.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "BatchReport",
    "ChunkFailure",
    "CircuitBreaker",
    "RetryPolicy",
    "backoff_fraction",
]


def backoff_fraction(scope: str, attempt: int) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` for ``(scope, attempt)``.

    SHA-256 over the pair, exactly like trial-seed derivation: two runs
    of the same batch back off identically, and concurrent chunks of
    one batch (different scopes) spread out instead of thundering in
    lockstep.
    """
    material = f"{scope}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How chunk failures are retried, backed off, and given up on.

    Attributes:
        max_attempts: Total executions allowed per chunk (1 initial +
            ``max_attempts - 1`` retries).  A chunk that fails this
            many times is quarantined as a :class:`ChunkFailure`.
        backoff_base: Delay before the first retry, in seconds; the
            delay doubles per attempt.  ``0.0`` disables sleeping
            (useful in tests).
        backoff_cap: Upper bound on any single delay, in seconds.
        pool_failure_limit: Consecutive pool-level failures (a broken
            ``ProcessPoolExecutor``) tolerated before the executor
            degrades to in-process serial execution for the remaining
            chunks.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    pool_failure_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                "backoff_base and backoff_cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.pool_failure_limit < 1:
            raise ConfigurationError(
                "pool_failure_limit must be >= 1, got "
                f"{self.pool_failure_limit}"
            )

    def delay(self, scope: str, attempt: int) -> float:
        """Seconds to sleep before re-running ``scope``'s retry ``attempt``.

        Capped exponential (``base * 2**attempt``, at most ``cap``)
        scaled into ``[0.5x, 1x)`` by the deterministic jitter, so
        retries of distinct chunks desynchronise without any global
        randomness.
        """
        raw = self.backoff_base * (2.0**attempt)
        capped = min(self.backoff_cap, raw)
        if capped <= 0.0:
            return 0.0
        return capped * (0.5 + 0.5 * backoff_fraction(scope, attempt))


class CircuitBreaker:
    """Closed/open/half-open health gate for one failure-prone peer.

    The remote executor keeps one per worker endpoint, read and
    written only by the chunk scheduler's loop (so no internal locking;
    the endpoint's request thread never touches it).  The schedule is
    fully deterministic: the ``n``-th opening's cooldown is
    ``policy.delay("breaker:" + scope, n)``, the same hash-jittered
    exponential as chunk retries, so a fleet of breakers desynchronises
    without any global randomness.

    Lifecycle::

        closed --consecutive failures reach limit--> open
        open --caller waits out cooldown, begin_probe()--> half-open
        half-open --success--> closed   (failure run forgiven)
        half-open --failure--> open     (longer cooldown)
        open for the limit-th time --> exhausted      (terminal)
        mark_byzantine() from any state --> byzantine (terminal)

    ``policy.pool_failure_limit`` plays both roles: the consecutive
    failures that open a closed breaker, and the number of openings
    after which the endpoint is given up on for good.  An endpoint that
    *lies* (audit digest mismatch) skips the ladder entirely —
    Byzantine is immediately terminal, there is no probation for
    equivocation.

    Args:
        scope: Stable identity of the peer (the endpoint URL), used
            only to key the deterministic cooldown schedule.
        policy: The :class:`RetryPolicy` supplying the cooldown curve
            and the failure/opening limits.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
    EXHAUSTED = "exhausted"
    BYZANTINE = "byzantine"

    def __init__(self, scope: str, policy: RetryPolicy) -> None:
        self.scope = scope
        self.policy = policy
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opens = 0

    @property
    def permanent(self) -> bool:
        """Whether the peer is out for good (exhausted or Byzantine)."""
        return self.state in (self.EXHAUSTED, self.BYZANTINE)

    @property
    def available(self) -> bool:
        """Whether the peer may be handed work right now."""
        return self.state in (self.CLOSED, self.HALF_OPEN)

    @property
    def cooldown(self) -> float:
        """Seconds an open breaker waits before admitting its probe."""
        if self.state != self.OPEN:
            return 0.0
        return self.policy.delay(f"breaker:{self.scope}", self.opens - 1)

    def note_success(self) -> None:
        """A successful interaction: half-open probes re-close."""
        if self.permanent:
            return
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def note_failure(self) -> None:
        """A failed interaction; may open (or permanently exhaust)."""
        if self.permanent:
            return
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # The probe itself failed: back to open, longer cooldown.
            self._open()
        elif self.consecutive_failures >= self.policy.pool_failure_limit:
            self._open()

    def begin_probe(self) -> bool:
        """Move open → half-open; the caller has slept the cooldown.

        Returns whether a probe is actually admitted (``False`` for
        any state but open — callers can call this unconditionally).
        """
        if self.state != self.OPEN:
            return False
        self.state = self.HALF_OPEN
        return True

    def mark_byzantine(self) -> None:
        """Terminal: the peer returned provably wrong results."""
        self.state = self.BYZANTINE

    def _open(self) -> None:
        self.opens += 1
        self.consecutive_failures = 0
        if self.opens >= self.policy.pool_failure_limit:
            self.state = self.EXHAUSTED
        else:
            self.state = self.OPEN

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-dict snapshot for status documents and summaries."""
        return {
            "scope": self.scope,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }


@dataclass(frozen=True)
class ChunkFailure:
    """One quarantined chunk: exhausted its attempts, recorded, not raised.

    Attributes:
        trial_indices: The trial indices the chunk covered (these
            trials are missing from the batch's outcomes).
        attempts: How many executions were attempted.
        kind: Failure class — ``"exception"`` (the chunk raised),
            ``"timeout"`` (no completion within the chunk timeout),
            ``"pool"`` (the process pool died while it was in flight),
            or ``"worker"`` (a remote worker endpoint failed it; see
            :class:`repro.service.remote.RemoteExecutor`).
        error: Rendered form of the last error observed.
    """

    trial_indices: Tuple[int, ...]
    attempts: int
    kind: str
    error: str

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-dict form suitable for logs and JSON reports."""
        return {
            "trial_indices": list(self.trial_indices),
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


@dataclass
class BatchReport:
    """Resilience accounting for one executed batch.

    Attributes:
        label / batch_key / trials: Identity of the batch.
        resumed_chunks: Valid chunk documents loaded from the partial
            ledger (work salvaged from an interrupted earlier run).
        retries: Chunk re-executions performed (any failure kind).
        quarantined: Chunks abandoned after exhausting their attempts.
        pool_rebuilds: Times the process pool was torn down and
            rebuilt (broken pool or stall timeout).
        degraded_to_serial: Whether the executor gave up on the pool
            and finished the batch in-process.
        audited_chunks: Remote chunks re-executed by the audit layer
            to cross-check their attestation digests.
        audit_mismatches: Audits whose re-execution digest disagreed
            with the worker's claim (each marks an endpoint Byzantine).
        byzantine_endpoints: Endpoint URLs proven to lie during this
            batch (their checkpoints were purged and recomputed).
        failures: The structured :class:`ChunkFailure` records behind
            ``quarantined``.
    """

    label: str
    batch_key: str
    trials: int
    resumed_chunks: int = 0
    retries: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False
    audited_chunks: int = 0
    audit_mismatches: int = 0
    byzantine_endpoints: List[str] = field(default_factory=list)
    failures: List[ChunkFailure] = field(default_factory=list)

    def record_quarantine(self, failure: ChunkFailure) -> None:
        """Register a chunk that exhausted its attempts."""
        self.quarantined += 1
        self.failures.append(failure)

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-dict form suitable for logs and JSON reports."""
        return {
            "label": self.label,
            "batch_key": self.batch_key,
            "trials": self.trials,
            "resumed_chunks": self.resumed_chunks,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_to_serial": self.degraded_to_serial,
            "audited_chunks": self.audited_chunks,
            "audit_mismatches": self.audit_mismatches,
            "byzantine_endpoints": list(self.byzantine_endpoints),
            "failures": [f.to_jsonable() for f in self.failures],
        }
