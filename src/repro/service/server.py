"""The sweep server: HTTP front end over the execution core.

Clients POST a wire-serialised :class:`~repro.harness.exec.
ExecutionPlan` to ``/jobs`` and get a job id back; they then poll
``GET /jobs/<id>`` or subscribe to ``GET /jobs/<id>/events`` (SSE) as
the chunk ledger records progress, and fetch full per-trial results
from ``GET /jobs/<id>/outcomes`` once the job is done.  Identical
plans coalesce by content hash (see :mod:`repro.service.jobs`): the
spec hash is the cache key, so a popular sweep cell is computed once
and served to every submitter.

Endpoints:

* ``POST /jobs`` — body ``{"plan": <wire plan>, "label": str?}``;
  responds ``202 {"job_id": ..., "coalesced": bool, "state": ...}``,
  or 400 when a batch names a protocol or adversary its tables (or its
  engine) do not have, or a parameter its factory does not read.
* ``GET /jobs`` — every known job's status document.
* ``GET /jobs/<id>`` — one job's status (progress, and results +
  cache/resilience accounting once settled).
* ``GET /jobs/<id>/outcomes`` — full per-trial outcomes (done jobs).
* ``GET /jobs/<id>/events`` — SSE: one ``data:`` event per progress
  change, final event carries the settled state.
* ``GET /healthz`` — liveness probe with version/config info.

Execution is whatever the :class:`ServerConfig` says: in-process
serial, a local process pool, or a :class:`~repro.service.remote.
RemoteExecutor` fleet when worker endpoints are configured — jobs
themselves never know the difference.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import AsyncIterator, Optional, Tuple

import repro
from repro.adversary.registry import adversary_factory
from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import (
    Executor,
    ResultCache,
    make_executor,
    plan_from_wire,
)
from repro.harness.exec.wire import WIRE_VERSION
from repro.harness.resilience import RetryPolicy
from repro.protocols.registry import protocol_factory
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    Job,
    JobManager,
    ServiceSaturated,
)
from repro.service.journal import JobJournal
from repro.service.netio import App, HttpError, Request, Response
from repro.service.remote import RemoteExecutor

__all__ = ["ServerConfig", "SweepServerApp"]

#: SSE poll cadence: how often the event stream checks a job's
#: progress generation for changes.
_EVENT_POLL_SECONDS = 0.1


@dataclass
class ServerConfig:
    """Everything the serve command can tune."""

    cache_dir: Optional[str] = None  # None = default .repro-cache
    workers: int = 1  # local executor parallelism
    worker_endpoints: Tuple[str, ...] = field(default_factory=tuple)
    job_workers: int = 2  # concurrent jobs
    retries: int = 2
    chunk_timeout: Optional[float] = None
    request_timeout: float = 300.0  # per worker HTTP request
    audit_fraction: float = 0.0  # remote chunks re-executed locally
    journal: bool = False  # durable job journal under the cache root
    max_jobs: Optional[int] = None  # job-table bound (None = unbounded)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ConfigurationError(
                f"audit_fraction must be in [0, 1], got {self.audit_fraction}"
            )
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ConfigurationError(
                f"max_jobs must be >= 1, got {self.max_jobs}"
            )
        if not isinstance(self.worker_endpoints, tuple):
            self.worker_endpoints = tuple(self.worker_endpoints)

    def cache_root(self) -> str:
        from repro.harness.exec.cache import DEFAULT_CACHE_DIR

        return self.cache_dir if self.cache_dir else str(DEFAULT_CACHE_DIR)

    def journal_path(self) -> str:
        """Where the job journal lives: beside the cache documents."""
        return str(Path(self.cache_root()) / "journal.jsonl")

    def executor_factory(
        self, cache: Optional[ResultCache], audit_seed: str = ""
    ) -> Executor:
        """The executor one job runs on, per this config.

        ``audit_seed`` is the submitting job's plan key (passed by the
        :class:`~repro.service.jobs.JobManager`), keying the
        deterministic audit-selection schedule per job.
        """
        retry = RetryPolicy(max_attempts=self.retries + 1)
        if self.worker_endpoints:
            return RemoteExecutor(
                self.worker_endpoints,
                cache=cache,
                retry=retry,
                request_timeout=self.request_timeout,
                audit_fraction=self.audit_fraction,
                audit_seed=audit_seed,
            )
        return make_executor(
            self.workers,
            cache=cache,
            retry=retry,
            chunk_timeout=self.chunk_timeout,
        )


class SweepServerApp:
    """Routes plus the :class:`JobManager` of one sweep server."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.journal = (
            JobJournal(self.config.journal_path())
            if self.config.journal
            else None
        )
        self.jobs = JobManager(
            self.config.executor_factory,
            cache_root=self.config.cache_root(),
            job_workers=self.config.job_workers,
            journal=self.journal,
            max_jobs=self.config.max_jobs,
        )
        if self.journal is not None:
            # Re-admit journaled jobs before serving: queued/running
            # plans resume via the chunk ledger, finished ones settle
            # from cache, and their original ids answer again.
            self.jobs.recover()
        self.app = App()
        self.app.add("GET", "/healthz", self._healthz)
        self.app.add("POST", "/jobs", self._submit)
        self.app.add("GET", "/jobs", self._list_jobs)
        self.app.add("GET", "/jobs/{job_id}", self._job_status)
        self.app.add("GET", "/jobs/{job_id}/outcomes", self._job_outcomes)
        self.app.add("GET", "/jobs/{job_id}/events", self._job_events)

    def close(self) -> None:
        self.jobs.shutdown()

    # -- handlers ------------------------------------------------------

    async def _healthz(self, request: Request) -> Response:
        return Response(
            payload={
                "ok": True,
                "role": "server",
                "version": repro.__version__,
                "wire": WIRE_VERSION,
                "workers": self.config.workers,
                "worker_endpoints": list(self.config.worker_endpoints),
                "jobs": len(self.jobs.jobs()),
                "journal": (
                    self.config.journal_path() if self.journal else None
                ),
                "max_jobs": self.config.max_jobs,
                "audit_fraction": self.config.audit_fraction,
            }
        )

    async def _submit(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "submission must be a JSON object")
        try:
            plan = plan_from_wire(doc.get("plan"))
            # Table lookups only: a batch its engine cannot build is
            # refused here instead of failing every chunk later.
            for spec in (batch.spec for batch in plan):
                protocol_factory(spec.protocol, dict(spec.protocol_params))
                adversary_factory(
                    spec.adversary, spec.engine, dict(spec.adversary_params)
                )
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        label = str(doc.get("label", ""))
        try:
            job, coalesced = self.jobs.submit(plan, label=label)
        except ServiceSaturated as exc:
            raise HttpError(429, str(exc)) from exc
        return Response(
            status=202,
            payload={
                "job_id": job.job_id,
                "plan_key": job.key,
                "coalesced": coalesced,
                "state": job.state,
                "total_trials": job.total_trials,
                "total_batches": job.total_batches,
            },
        )

    def _lookup(self, request: Request) -> Job:
        job_id = request.params["job_id"]
        job = self.jobs.get(job_id)
        if job is None:
            evicted_key = self.jobs.evicted_key(job_id)
            if evicted_key is not None:
                pointer = (
                    f"; its history is in the journal at "
                    f"{self.config.journal_path()}"
                    if self.journal is not None
                    else ""
                )
                raise HttpError(
                    410,
                    f"job {job_id} (plan {evicted_key}) was evicted from "
                    f"the job table{pointer}; resubmit the plan to "
                    "recompute from cache",
                )
            raise HttpError(404, f"no such job: {job_id}")
        return job

    async def _list_jobs(self, request: Request) -> Response:
        return Response(
            payload={"jobs": [job.status_doc() for job in self.jobs.jobs()]}
        )

    async def _job_status(self, request: Request) -> Response:
        return Response(payload=self._lookup(request).status_doc())

    async def _job_outcomes(self, request: Request) -> Response:
        job = self._lookup(request)
        try:
            return Response(payload=job.outcomes_doc())
        except ConfigurationError as exc:
            raise HttpError(409, str(exc)) from exc

    async def _job_events(self, request: Request) -> Response:
        job = self._lookup(request)
        return Response(stream=self._event_stream(job))

    @staticmethod
    async def _event_stream(job: Job) -> AsyncIterator[str]:
        """SSE body: one event per observed progress change.

        Generation-counter polling rather than cross-thread wakeups:
        the job thread only increments an integer under its lock, and
        this coroutine samples it — no event-loop handle ever crosses
        into executor threads.  The final event repeats the settled
        status so a consumer needs no follow-up GET.
        """
        last = -1
        while True:
            generation = job.generation
            if generation != last:
                last = generation
                doc = job.status_doc()
                yield f"data: {json.dumps(doc, sort_keys=True)}\n\n"
                if doc["state"] in (JOB_DONE, JOB_FAILED):
                    return
            await asyncio.sleep(_EVENT_POLL_SECONDS)
