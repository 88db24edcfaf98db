"""RemoteExecutor: shard a plan's chunks across HTTP worker endpoints.

Implements the existing :class:`~repro.harness.exec.Executor`
interface, so everything that runs on the serial or process-pool
executors — sweeps, experiments, the sweep server's jobs — runs
unchanged across a fleet of :mod:`repro.service.worker` processes.

The determinism contract carries over untouched: a worker executes
exactly :func:`repro.harness.exec.run_chunk` on the wire-decoded spec,
per-trial seeds are pure ``(base_seed, spec_hash, trial_index)``
hashes, and collected outcomes are re-sorted by trial index — so
remote execution is byte-identical to local at any worker count,
endpoint assignment, or chunk geometry (the differential gates in
``tests/test_service.py`` pin this down, faults included).

Each endpoint is one lane of the executors' shared
:class:`~repro.harness.exec.executor.ChunkScheduler`, which owns
retries, checkpoints, audit and degrade-to-local for every transport.
A lane's request runs on a daemon thread of its own, so a fleet of N
workers runs N chunks at once and an interrupted run exits without
waiting out a wedged worker.  What is the HTTP lane's own:

* **Circuit breakers** — any failed request (connection refused, HTTP
  5xx, malformed body, bad attestation) fails its chunk as
  ``kind="worker"`` and counts against the endpoint's
  :class:`~repro.harness.resilience.CircuitBreaker`: enough
  consecutive failures *open* the breaker, the endpoint cools down
  holding no work on the same hash-jittered schedule as chunk retries,
  then *half-opens* for one probe chunk — success re-closes it and the
  worker rejoins the fleet, failure re-opens it with a longer
  cooldown, and only an endpoint whose breaker has opened
  ``pool_failure_limit`` times is permanently out.
* **Outcome attestation** — every ``/chunks`` response carries the
  worker's ``chunk_digest`` (:func:`~repro.harness.exec.trial.
  outcomes_digest`); the lane encodes the received outcomes once
  (:func:`~repro.harness.exec.trial.encode_outcomes`) and checks the
  digest against that encoding, so transport corruption or an
  *inconsistent* lie is rejected on receipt and charged as an ordinary
  worker failure.  The encoding travels on with the outcomes: the audit
  compares it with the local truth's, and the chunk's ledger document
  stores it as it is.
* **Audit re-execution** — the scheduler recomputes a deterministic,
  plan-keyed sample of completed chunks (:class:`~repro.harness.
  resilience.audit.AuditPolicy`) locally; a digest mismatch proves the
  endpoint lied *consistently*, marks it Byzantine (terminal — no
  probation for equivocation) and purges every chunk it completed
  this batch.  With ``audit_fraction=1.0`` this is a proof: the
  batch's results are byte-identical to a fault-free run no matter
  what any worker returned.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.exec import ResultCache, TrialBatch, TrialOutcome
from repro.harness.exec.executor import ChunkResult, Executor, Lane, settle_future
from repro.harness.exec.trial import encode_outcomes, encoding_digest
from repro.harness.exec.wire import WIRE_VERSION, spec_to_wire
from repro.harness.resilience import (
    BatchReport,
    CircuitBreaker,
    RetryPolicy,
)
from repro.harness.resilience.audit import AuditPolicy
from repro.service.netio import ServiceUnreachable, request_json

__all__ = ["RemoteExecutor", "WorkerEndpoint"]


class WorkerEndpoint(Lane):
    """One worker URL as a lane: each request on a daemon thread of its
    own, a circuit breaker deciding when it takes work, and throughput
    accounting."""

    trusted = False

    def __init__(self, url: str, retry: RetryPolicy, request_timeout: float) -> None:
        self.url = self.name = url.rstrip("/")
        self.breaker = CircuitBreaker(self.url, retry)
        self.request_timeout = request_timeout
        self.chunks_completed = 0
        self.chunks_audited = 0

    @property
    def out(self) -> bool:
        """Permanently out: breaker exhausted or proven Byzantine."""
        return self.breaker.permanent

    def submit(
        self, batch: TrialBatch, indices: Sequence[int], attempt: int
    ) -> "concurrent.futures.Future[ChunkResult]":
        # An open breaker's cooldown is over once the scheduler calls:
        # this chunk is its half-open probe.
        self.breaker.begin_probe()
        future: "concurrent.futures.Future[ChunkResult]" = concurrent.futures.Future()
        # Mark it running, as an executor would, so a cancel leaves it
        # alone rather than make the thread's set_result raise.
        future.set_running_or_notify_cancel()
        threading.Thread(
            target=settle_future,
            args=(future, self._post_chunk, batch, indices, attempt),
            name="repro-endpoint",
            daemon=True,
        ).start()
        return future

    def failure_kind(self, exc: BaseException) -> Optional[str]:
        return "worker"  # any error condemns the endpoint

    def note_success(self) -> None:
        self.breaker.note_success()
        self.chunks_completed += 1

    def note_failure(self) -> None:
        self.breaker.note_failure()
        if self.breaker.state == CircuitBreaker.OPEN:
            self.idle_until = time.monotonic() + self.breaker.cooldown

    def audited(self, honest: bool) -> None:
        self.chunks_audited += 1
        if not honest:
            # Byzantine is terminal: no probation for equivocation.
            self.breaker.mark_byzantine()

    def _post_chunk(
        self, batch: TrialBatch, indices: Sequence[int], attempt: int
    ) -> ChunkResult:
        """Execute one chunk on this worker; raises on any defect.

        Returns the outcomes with the canonical encoding the receipt
        check made of them.
        """
        payload = {
            "wire": WIRE_VERSION,
            "spec": spec_to_wire(batch.spec),
            "base_seed": batch.base_seed,
            "indices": list(indices),
            "attempt": attempt,
        }
        status, doc = request_json(
            self.url,
            "POST",
            "/chunks",
            payload,
            timeout=self.request_timeout,
        )
        if status != 200:
            detail = doc.get("error") if isinstance(doc, dict) else doc
            raise ServiceUnreachable(
                f"worker {self.url} returned {status}: {detail}"
            )
        if not isinstance(doc, dict) or not isinstance(
            doc.get("outcomes"), list
        ):
            raise ServiceUnreachable(
                f"worker {self.url} returned a malformed chunk document"
            )
        outcomes = [
            TrialOutcome.from_jsonable(rec) for rec in doc["outcomes"]
        ]
        if sorted(o.trial_index for o in outcomes) != sorted(indices):
            raise ServiceUnreachable(
                f"worker {self.url} returned outcomes for the wrong "
                "trial indices"
            )
        # Receipt-side attestation: the claimed digest must match the
        # outcomes actually received.  This catches transport
        # corruption and *inconsistent* lies for free; a worker lying
        # consistently (digesting its own lie) passes here and is the
        # audit layer's problem.
        encoding = encode_outcomes(outcomes)
        if doc.get("chunk_digest") != encoding_digest(encoding):
            raise ServiceUnreachable(
                f"worker {self.url} attestation failed: chunk_digest "
                "does not match the returned outcomes"
            )
        return outcomes, encoding


class RemoteExecutor(Executor):
    """Executor that POSTs chunks to ``/chunks`` worker endpoints.

    Args:
        endpoints: Worker base URLs (``http://host:port``); at least
            one.  Each endpoint runs one request at a time, on a
            thread of its own, so a fleet of N workers executes N
            chunks concurrently.
        cache: Optional shared :class:`ResultCache`; completed chunks
            are checkpointed locally exactly as the other executors do.
        chunk_size: Trials per worker request (default: split each
            batch into roughly ``4 * len(endpoints)`` chunks, or
            ``len(endpoints)`` chunks for a batch that runs on the
            counts engine, as
            :func:`~repro.harness.exec.trial.runs_on_counts_engine`
            decides).
        retry: The shared :class:`RetryPolicy`; ``max_attempts`` and
            the backoff schedule govern chunk re-dispatch, and
            ``pool_failure_limit`` sets both the consecutive-failure
            threshold that opens an endpoint's circuit breaker and the
            number of openings after which the endpoint is permanently
            abandoned.
        request_timeout: Per-request HTTP timeout in seconds; a timed
            out request counts as a worker failure.
        audit_fraction: Fraction of completed chunks re-executed
            locally to cross-check worker attestations (``0.0``
            disables auditing; ``1.0`` audits everything and makes the
            run provably byte-identical to a fault-free one).
        audit_seed: Salt for the deterministic audit selection —
            typically the plan key (the sweep server wires it so), so
            audits are reproducible per job.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 300.0,
        audit_fraction: float = 0.0,
        audit_seed: Optional[str] = None,
    ) -> None:
        super().__init__(cache=cache, retry=retry)
        urls = [url for url in endpoints if url]
        if not urls:
            raise ConfigurationError(
                "RemoteExecutor needs at least one worker endpoint"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.endpoints = [
            WorkerEndpoint(url, self.retry, request_timeout) for url in urls
        ]
        self.chunk_size = chunk_size
        # Validates the fraction eagerly (AuditPolicy raises on a bad
        # one) and fixes the selection key for the executor's lifetime.
        self.audit = AuditPolicy(
            fraction=audit_fraction, seed=audit_seed or ""
        )

    def _width(self) -> int:
        return len(self.endpoints)

    def _lanes(self, report: BatchReport, chunks: int) -> List[Lane]:
        return list(self.endpoints)

    def worker_summary(self) -> List[Dict[str, object]]:
        """Health and throughput per endpoint, for status reporting."""
        return [
            {
                "url": e.url,
                "state": e.breaker.state,
                "quarantined": e.out,
                "byzantine": e.breaker.state == CircuitBreaker.BYZANTINE,
                "chunks_completed": e.chunks_completed,
                "chunks_audited": e.chunks_audited,
            }
            for e in self.endpoints
        ]
