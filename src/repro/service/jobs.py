"""Job lifecycle and spec-hash dedup for the sweep server.

A *job* is one submitted :class:`~repro.harness.exec.ExecutionPlan`
being executed server-side.  The :class:`JobManager` keys every job by
the plan's content hash (:func:`repro.harness.exec.plan_key`, built
from the batches' spec hashes and base seeds), which is what makes the
service multi-tenant for free:

* two clients submitting the same plan while it runs **coalesce** onto
  the same job — one computation, both poll the same job id;
* a resubmission after completion is served from the finished job (and
  would be all cache hits even across a server restart, because the
  job executes against the shared
  :class:`~repro.harness.exec.ResultCache` and the spec hash *is* the
  cache key);
* two *different* plans can never collide, because any difference in
  any spec field changes the hash.

Jobs run on a bounded thread pool; each executes its plan through an
executor built by the server's factory (serial, process-pool, or
:class:`~repro.service.remote.RemoteExecutor`).  Progress is observed
at chunk granularity by wrapping the job's cache handle: every chunk
the executor checkpoints into the ledger bumps the job's progress
generation, which the SSE endpoint turns into a live event stream.

Two durability/bounding layers are optional:

* a :class:`~repro.service.journal.JobJournal` records every
  admission, state transition, and batch completion, and
  :meth:`JobManager.recover` re-admits journaled plans after a server
  restart (resubmission is idempotent: finished plans settle from the
  cache, interrupted ones recompute only missing chunks);
* ``max_jobs`` bounds the in-memory job table — when it fills, the
  oldest *finished* jobs are evicted (their ids then answer 410,
  pointing at the journal) and, with nothing evictable, admission
  fails as :class:`ServiceSaturated` (HTTP 429).
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import (
    ExecutionPlan,
    Executor,
    ResultCache,
    TrialBatch,
    TrialOutcome,
    plan_key,
)
from repro.harness.exec.wire import plan_from_wire, plan_to_wire
from repro.harness.runner import TrialStats
from repro.service.journal import JobJournal

__all__ = [
    "JOB_STATES",
    "Job",
    "JobManager",
    "ServiceSaturated",
]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)

#: Characters of the plan key used as the public job id.  The full key
#: remains the internal identity; 16 hex chars keep URLs readable while
#: leaving collisions out of practical reach for one server's lifetime.
_JOB_ID_CHARS = 16


class ServiceSaturated(ReproError):
    """The job table is full and nothing is evictable (HTTP 429)."""


class Job:
    """One submitted plan and everything observable about it."""

    def __init__(self, plan: ExecutionPlan, key: str, label: str) -> None:
        self.plan = plan
        self.key = key
        self.job_id = key[:_JOB_ID_CHARS]
        self.label = label
        self.state = JOB_QUEUED
        self.error: Optional[str] = None
        self.submissions = 1
        self.total_trials = plan.total_trials()
        self.total_batches = len(plan)
        self.cache_hits = 0
        self.cache_misses = 0
        self.resilience: Dict[str, Any] = {}
        self.quarantined: List[Dict[str, Any]] = []
        self._results: List[Dict[str, Any]] = []
        self._outcomes: List[Dict[str, Any]] = []
        self._trials_done = 0  # trials of completed batches
        self._chunk_trials = 0  # checkpointed trials of the running batch
        self._generation = 0
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- progress notes (called from the job thread / cache wrapper) --

    def _bump(self) -> None:
        self._generation += 1

    def note_chunk(self, trials: int) -> None:
        """A chunk of the in-flight batch was checkpointed."""
        with self._lock:
            self._chunk_trials += trials
            self._bump()

    def note_batch(
        self,
        batch: TrialBatch,
        stats: TrialStats,
        outcomes: Sequence[TrialOutcome],
    ) -> None:
        """One batch of the plan completed (possibly with every trial
        quarantined, which leaves its round summary empty)."""
        summary = stats.rounds_summary() if stats.decision_rounds else None
        with self._lock:
            self._trials_done += batch.trials
            self._chunk_trials = 0
            self._results.append(
                {
                    "label": batch.label,
                    "batch_key": batch.batch_key(),
                    "spec_hash": batch.spec.spec_hash(),
                    "trials": batch.trials,
                    "mean_rounds": summary.mean if summary else None,
                    "min_rounds": summary.minimum if summary else None,
                    "max_rounds": summary.maximum if summary else None,
                    "timeouts": stats.timeouts,
                    "missing_trials": stats.missing_trials,
                    "engine": stats.engine_kind,
                }
            )
            self._outcomes.append(
                {
                    "label": batch.label,
                    "batch_key": batch.batch_key(),
                    "outcomes": [o.to_jsonable() for o in outcomes],
                }
            )
            self._bump()

    def finish(self, executor: Executor, error: Optional[str]) -> None:
        with self._lock:
            self.cache_hits = executor.cache_hits
            self.cache_misses = executor.cache_misses
            self.resilience = executor.resilience_summary()
            self.quarantined = [
                {"label": report.label, **failure.to_jsonable()}
                for report in executor.reports
                for failure in report.failures
            ]
            self.error = error
            self.state = JOB_FAILED if error else JOB_DONE
            self._bump()
        self._done.set()

    def mark_running(self) -> None:
        with self._lock:
            self.state = JOB_RUNNING
            self._bump()

    def note_submission(self) -> None:
        """Another identical submission coalesced onto this job.

        Takes the job's own lock — ``status_doc`` reads
        ``submissions`` under it, so incrementing under the *manager's*
        lock (as an earlier revision did) was a data race.
        """
        with self._lock:
            self.submissions += 1
            self._bump()

    # -- observation ---------------------------------------------------

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job settles; True if it did within timeout."""
        return self._done.wait(timeout)

    def status_doc(self) -> Dict[str, Any]:
        """The JSON document ``GET /jobs/<id>`` serves."""
        with self._lock:
            completed = min(
                self.total_trials, self._trials_done + self._chunk_trials
            )
            doc: Dict[str, Any] = {
                "job_id": self.job_id,
                "plan_key": self.key,
                "label": self.label,
                "state": self.state,
                "submissions": self.submissions,
                "generation": self._generation,
                "progress": {
                    "total_trials": self.total_trials,
                    "completed_trials": completed,
                    "total_batches": self.total_batches,
                    "completed_batches": len(self._results),
                },
                "error": self.error,
            }
            if self.state in (JOB_DONE, JOB_FAILED):
                doc["cache"] = {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                }
                doc["resilience"] = self.resilience
                doc["quarantined"] = list(self.quarantined)
            if self.state == JOB_DONE:
                doc["results"] = list(self._results)
            return doc

    def outcomes_doc(self) -> Dict[str, Any]:
        """The full per-trial results of a finished job."""
        with self._lock:
            if self.state != JOB_DONE:
                raise ConfigurationError(
                    f"job {self.job_id} is {self.state}, not done"
                )
            return {
                "job_id": self.job_id,
                "plan_key": self.key,
                "batches": list(self._outcomes),
            }


class _ObservedCache(ResultCache):
    """A job's cache handle: every chunk checkpoint reports progress.

    Same root (and therefore same documents and advisory locks) as
    every other handle on the shared cache — only the notification is
    job-local, so progress observation costs nothing on the storage
    side and the executor stays completely unaware of the service.
    """

    def __init__(self, root: Any, job: Job) -> None:
        super().__init__(root)
        self._job = job

    def store_chunk(self, batch, indices, outcomes, encoding=None):  # type: ignore[override]
        path = super().store_chunk(batch, indices, outcomes, encoding)
        self._job.note_chunk(len(indices))
        return path


ExecutorFactory = Callable[[Optional[ResultCache], str], Executor]


class JobManager:
    """Owns every job: dedup, scheduling, admission, and lookup.

    Args:
        executor_factory: Builds the executor a job runs on, given the
            job's (progress-observing) cache handle and the job's plan
            key (used as the audit-selection seed, so each job's audit
            schedule is reproducible).  The server wires this to a
            serial/parallel/remote executor per its flags.
        cache_root: Root of the shared result cache, or ``None`` to
            run jobs uncached (dedup of *in-flight* work still
            applies; completed plans then recompute on resubmission
            after the job log is dropped).
        job_workers: Concurrent jobs executed at once; further jobs
            queue fairly behind them.
        journal: Optional :class:`JobJournal` recording admissions and
            lifecycle transitions for crash recovery.
        max_jobs: Optional bound on the in-memory job table; admission
            past it evicts the oldest finished jobs, and fails with
            :class:`ServiceSaturated` when nothing is evictable.
    """

    def __init__(
        self,
        executor_factory: ExecutorFactory,
        cache_root: Optional[str] = None,
        job_workers: int = 2,
        journal: Optional[JobJournal] = None,
        max_jobs: Optional[int] = None,
    ) -> None:
        if job_workers < 1:
            raise ConfigurationError(
                f"job_workers must be >= 1, got {job_workers}"
            )
        if max_jobs is not None and max_jobs < 1:
            raise ConfigurationError(
                f"max_jobs must be >= 1, got {max_jobs}"
            )
        self._factory = executor_factory
        self._cache_root = cache_root
        self._journal = journal
        self._max_jobs = max_jobs
        self._jobs: Dict[str, Job] = {}
        self._by_id: Dict[str, Job] = {}
        self._evicted: Dict[str, str] = {}  # public job id -> plan key
        self._lock = threading.Lock()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )

    def submit(
        self,
        plan: ExecutionPlan,
        label: str = "",
        *,
        record: bool = True,
    ) -> Tuple[Job, bool]:
        """Register ``plan``; returns ``(job, coalesced)``.

        ``coalesced`` is True when an identical plan (same plan key,
        i.e. identical spec hashes, base seeds, and trial counts in
        the same order) was already known — in flight or finished —
        and the caller was attached to it instead of starting a new
        computation.

        ``record=False`` suppresses the journal's ``submit`` record;
        :meth:`recover` uses it so a restart does not re-append every
        historical plan to its own journal.

        Raises :class:`ServiceSaturated` when the job table is at
        ``max_jobs`` and no finished job can be evicted to make room.
        """
        key = plan_key(plan)
        with self._lock:
            existing = self._jobs.get(key)
            if existing is None:
                self._admit_locked()
                job = Job(plan, key, label)
                self._jobs[key] = job
                self._by_id[job.job_id] = job
                self._evicted.pop(job.job_id, None)
        if existing is not None:
            existing.note_submission()
            return existing, True
        if record and self._journal is not None:
            self._journal.record_submit(
                key, job.job_id, label, plan_to_wire(plan)
            )
        self._pool.submit(self._run, job)
        return job, False

    def _admit_locked(self) -> None:
        """Make room for one more job, or raise.  Caller holds the lock.

        Eviction is oldest-finished-first (dict order is insertion
        order): a settled job's results live on in the cache and the
        journal, so dropping its in-memory record only costs a 410 on
        its old id — while queued and running jobs are never evicted.
        """
        if self._max_jobs is None or len(self._jobs) < self._max_jobs:
            return
        for key, job in list(self._jobs.items()):
            if len(self._jobs) < self._max_jobs:
                break
            if job.state in (JOB_DONE, JOB_FAILED):
                del self._jobs[key]
                self._by_id.pop(job.job_id, None)
                self._evicted[job.job_id] = key
                if self._journal is not None:
                    self._journal.record_evict(key, job.job_id)
        if len(self._jobs) >= self._max_jobs:
            raise ServiceSaturated(
                f"job table is full ({self._max_jobs} jobs queued or "
                "running); retry after one settles"
            )

    def recover(self) -> List[Job]:
        """Re-admit every journaled plan after a restart.

        Returns the re-admitted jobs (journal order).  Resubmission is
        idempotent by construction — a finished plan's batches are all
        cache hits, an interrupted plan recomputes only the chunks its
        ledger is missing — so the original job ids (plan-key prefixes)
        answer ``GET /jobs/<id>`` again, with ``queued``/``running``
        states resuming for real.  Journaled evictions are restored as
        evictions (410), not resurrected; unreadable plan documents
        are skipped.
        """
        if self._journal is None:
            return []
        recovered: List[Job] = []
        for entry in self._journal.replay():
            if entry.get("evicted"):
                job_id = entry.get("job_id")
                if isinstance(job_id, str):
                    with self._lock:
                        self._evicted[job_id] = entry["plan_key"]
                continue
            wire_doc = entry.get("plan")
            if not isinstance(wire_doc, dict):
                continue
            try:
                plan = plan_from_wire(wire_doc)
            except ReproError:
                continue
            try:
                job, coalesced = self.submit(
                    plan, label=str(entry.get("label") or ""), record=False
                )
            except ServiceSaturated:
                break
            if not coalesced:
                recovered.append(job)
        return recovered

    def get(self, job_id: str) -> Optional[Job]:
        """Look a job up by public id (or full plan key)."""
        with self._lock:
            job = self._by_id.get(job_id)
            if job is None:
                job = self._jobs.get(job_id)
            return job

    def evicted_key(self, job_id: str) -> Optional[str]:
        """The plan key behind an evicted job id, if it was evicted."""
        with self._lock:
            return self._evicted.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in insertion order."""
        with self._lock:
            return list(self._jobs.values())

    def shutdown(self) -> None:
        """Stop accepting work and wait for running jobs to settle."""
        self._pool.shutdown(wait=True)

    # -- execution -----------------------------------------------------

    def _run(self, job: Job) -> None:
        job.mark_running()
        cache = (
            _ObservedCache(self._cache_root, job)
            if self._cache_root is not None
            else None
        )
        executor = self._factory(cache, job.key)
        error: Optional[str] = None
        try:
            if self._journal is not None:
                self._journal.record_state(job.key, JOB_RUNNING)
            with executor:
                for index, batch in enumerate(job.plan):
                    outcomes = executor.run_outcomes(batch)
                    stats = TrialStats.from_outcomes(
                        outcomes,
                        engine_kind=batch.spec.engine,
                        expected_trials=batch.trials,
                        n=batch.spec.n,
                    )
                    job.note_batch(batch, stats, outcomes)
                    if self._journal is not None:
                        self._journal.record_batch(
                            job.key, index, batch.batch_key()
                        )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        job.finish(executor, error)
        if self._journal is not None:
            try:
                self._journal.record_state(job.key, job.state, error)
            except OSError:
                # The journal's durability guarantee is append-or-raise;
                # here the job has already settled in memory, so a full
                # disk must not kill the worker thread that would
                # serve its results.
                pass
