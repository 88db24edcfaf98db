"""Executors: how an :class:`ExecutionPlan` actually runs.

The :class:`Executor` base class owns everything shared — cache
lookup/stores, hit counters, per-batch :class:`BatchReport`
accounting, aggregation into ``TrialStats``, chunk geometry — and runs
each batch's missing chunks through the one :class:`ChunkScheduler`.
Subclasses only choose the *lanes* the chunks run in.  A lane submits
one chunk and hands back a future, and keeps its own health rule:

* :class:`SerialExecutor` runs chunks in-process (:class:`LocalLane`).
* :class:`ParallelExecutor` fans them out to a
  ``concurrent.futures.ProcessPoolExecutor``, which is its lane.
* :class:`~repro.service.remote.RemoteExecutor` posts them to HTTP
  workers, one lane per endpoint.

Because every trial's seed is a pure function of ``(base_seed,
spec_hash, trial_index)`` and outcomes are re-sorted by trial index
after collection, the executors (at any worker count or chunk size)
produce byte-identical outcome lists — the invariance the test suite
pins down.

Execution is *fail-stop tolerant*, mirroring the failure model of the
paper itself, and the scheduler owns that tolerance once for every
transport: a chunk whose worker crashes, whose pool breaks, or which
stalls past the chunk timeout is retried under a
:class:`~repro.harness.resilience.RetryPolicy` (capped exponential
backoff with deterministic jitter, waited out in the queue while the
other lanes keep working), completed chunks are checkpointed into the
cache's partial ledger so an interrupted batch resumes at chunk
granularity, and a chunk that exhausts its attempts is quarantined as a
structured :class:`ChunkFailure` instead of killing the run.  Chunks of
untrusted (remote) lanes are audited, and once every lane is out the
rest of the batch degrades to in-process execution rather than give up.

Only picklable values cross the process boundary: the frozen spec, the
base seed, index lists, and the chunk's retry ordinal.  Workers
rebuild live protocol/adversary objects by name via
:mod:`repro.harness.exec.builders`.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.exec.cache import ResultCache
from repro.harness.exec.spec import ENGINE_BATCH, ExecutionPlan, TrialBatch, TrialSpec
from repro.harness.exec.trial import TrialOutcome, compute_chunk, outcomes_digest
from repro.harness.resilience import (
    AuditPolicy,
    BatchReport,
    ChunkFailure,
    FaultPlan,
    RetryPolicy,
    apply_corruption,
    inject_chunk_faults,
    reexecute_chunk,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.runner import TrialStats

__all__ = [
    "ChunkScheduler",
    "Executor",
    "Lane",
    "LocalLane",
    "ParallelExecutor",
    "SerialExecutor",
    "make_executor",
    "run_chunk",
    "settle_future",
]

Future = concurrent.futures.Future


def run_chunk(
    spec: TrialSpec,
    base_seed: int,
    indices: Sequence[int],
    attempt: int = 0,
) -> List[TrialOutcome]:
    """Worker entry point: run a slice of a batch's trial indices.

    Module-level (not a closure or bound method) so the process pool
    can resolve it by import in every worker; the service tier's
    ``/chunks`` handler (:mod:`repro.service.worker`) executes exactly
    this function too, which is what makes remote execution
    byte-identical to local.  It is the chaos hook plus
    :func:`~repro.harness.exec.trial.compute_chunk`, the computation
    audit re-execution shares.

    ``attempt`` is the chunk's retry ordinal.  It feeds only the chaos
    hook (so injected faults can be transient) — trial outcomes are
    seeded purely by ``(base_seed, spec_hash, trial_index)`` and never
    depend on it.
    """
    inject_chunk_faults(indices, attempt)
    return compute_chunk(spec, base_seed, indices)


def settle_future(future: Future, fn: Callable[..., object], *args: object) -> None:
    """Settle ``future`` with ``fn(*args)``, or with the error it raised."""
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)


class Lane:
    """A place a chunk runs; the defaults describe one that never fails."""

    #: Identity in reports (an HTTP lane's endpoint URL).
    name = "local"
    #: Chunks in flight at once.
    capacity: float = 1
    #: Whether :meth:`submit` runs the chunk before it returns.
    inline = False
    #: Whether results skip the audit (only remote workers can lie).
    trusted = True
    #: ``time.monotonic()`` before which the lane takes no chunk.
    idle_until = 0.0

    @property
    def out(self) -> bool:
        """Whether the lane is out for good."""
        return False

    def submit(
        self, batch: TrialBatch, indices: Sequence[int], attempt: int
    ) -> "Future[List[TrialOutcome]]":
        """Start one chunk; the future yields its outcomes."""
        raise NotImplementedError

    def failure_kind(self, exc: BaseException) -> Optional[str]:
        """The ``ChunkFailure.kind`` if ``exc`` condemns the whole lane."""
        return None

    def note_success(self) -> None:
        """A chunk came back whole."""

    def note_failure(self) -> None:
        """The lane failed (:meth:`failure_kind` named the error)."""

    def abandon(self) -> None:
        """The stall detector gave up on the lane's in-flight chunks."""

    def audited(self, honest: bool) -> None:
        """One of the lane's chunks was re-executed locally."""


class LocalLane(Lane):
    """The in-process lane: runs a chunk on the calling thread, so its
    future is settled when :meth:`submit` returns.  Nothing condemns it:
    a chunk that raises is retried like any other."""

    inline = True

    def submit(
        self, batch: TrialBatch, indices: Sequence[int], attempt: int
    ) -> "Future[List[TrialOutcome]]":
        future: "Future[List[TrialOutcome]]" = Future()
        settle_future(future, run_chunk, batch.spec, batch.base_seed, indices, attempt)
        return future


#: Stateless, so one instance serves every executor.
LOCAL_LANE = LocalLane()


class ChunkScheduler:
    """Drives one batch's chunks through lanes until each settles.

    A chunk settles *collected* (outcomes kept and checkpointed) or
    *quarantined* (a ``ChunkFailure`` on the report).  The executor
    supplies the cache, retry policy, audit policy and stall timeout.
    """

    def __init__(
        self,
        executor: "Executor",
        batch: TrialBatch,
        report: BatchReport,
        chunks: List[List[int]],
    ) -> None:
        self.executor = executor
        self.batch = batch
        self.report = report
        self.chunks = chunks
        self.key = batch.batch_key()
        self.attempts = [0] * len(chunks)
        #: Queued chunk id -> monotonic time it may run, in queue order.
        self.waiting: Dict[int, float] = dict.fromkeys(range(len(chunks)), 0.0)
        self.in_flight: Dict[Future, Tuple[int, Lane]] = {}
        self.results: Dict[int, List[TrialOutcome]] = {}
        self.produced_by: Dict[int, Lane] = {}
        self.unsaved: List[int] = []

    def run(self, lanes: List[Lane]) -> List[TrialOutcome]:
        """Settle every chunk; in-process takes over once all lanes are out."""
        timeout = self.executor.chunk_timeout
        quiet_since = time.monotonic()
        try:
            while self.waiting or self.in_flight:
                if all(lane.out for lane in lanes):
                    self.report.degraded_to_serial = True
                    lanes = [LOCAL_LANE]
                # One instant judges both what is ready and what to wake
                # for, so a backoff or cooldown that runs out during the
                # checkpoint below is still woken for.
                now = time.monotonic()
                if self._dispatch(lanes, now):
                    quiet_since = time.monotonic()
                # The lanes have their next chunks: now save the last.
                self._checkpoint()
                wakes = [at for at in self.waiting.values() if at > now]
                wakes += [lane.idle_until for lane in lanes if lane.idle_until > now]
                if timeout is not None and self.in_flight:
                    wakes.append(quiet_since + timeout)
                wait_s = max(0.0, min(wakes) - time.monotonic()) if wakes else None
                if not self.in_flight:
                    time.sleep(wait_s)  # only backoffs and cooldowns left
                    continue
                done, _ = concurrent.futures.wait(
                    self.in_flight,
                    timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if done:
                    quiet_since = time.monotonic()
                    self._settle(done)
                elif timeout is not None and time.monotonic() - quiet_since >= timeout:
                    self._stall(timeout)
        except BaseException:
            for future in self.in_flight:
                future.cancel()
            raise
        self._checkpoint()
        return [o for outcomes in self.results.values() for o in outcomes]

    def _dispatch(self, lanes: List[Lane], now: float) -> bool:
        """Hand chunks ready at ``now`` to lanes with room; True if any went out."""
        ready = [cid for cid, at in self.waiting.items() if at <= now]
        sent = False
        for lane in lanes:
            if lane.out or lane.idle_until > now:
                continue
            room = lane.capacity - sum(1 for _, busy in self.in_flight.values() if busy is lane)
            while room > 0 and ready:
                cid = ready.pop(0)
                del self.waiting[cid]
                if lane.inline:
                    self._checkpoint()  # it runs right here: save first
                try:
                    future = lane.submit(self.batch, self.chunks[cid], self.attempts[cid])
                except Exception as exc:
                    # A submit that raises is judged like a future that
                    # raised (for a pool: the pool broke).
                    future = Future()
                    future.set_exception(exc)
                    room = 0
                self.in_flight[future] = (cid, lane)
                room -= 1
                sent = True
        return sent

    def _settle(self, done: Iterable[Future]) -> None:
        """Collect or charge each finished chunk, then judge the lanes.

        A lane that failed is judged once per wave: the chunks it still
        holds are charged the same failure, and its successes in that
        wave do not count toward its health.
        """
        failed: Dict[Lane, Tuple[str, str]] = {}
        charges: List[Tuple[int, str, str]] = []
        collected = []
        for future in [f for f in self.in_flight if f in done]:
            cid, lane = self.in_flight.pop(future)
            try:
                collected.append((cid, lane, future.result()))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                kind = lane.failure_kind(exc)
                if kind is not None:
                    failed.setdefault(lane, (kind, error))
                charges.append((cid, kind or "exception", error))
        for lane, (kind, error) in failed.items():
            for future, (cid, busy) in list(self.in_flight.items()):
                if busy is lane:
                    del self.in_flight[future]
                    charges.append((cid, kind, error))
            lane.note_failure()
        self._charge(charges)
        for cid, lane, outcomes in collected:
            self._accept(cid, lane, outcomes, lane not in failed)

    def _accept(
        self, cid: int, lane: Lane, outcomes: List[TrialOutcome], counts: bool
    ) -> None:
        """Keep a returned chunk, auditing it first if its lane is untrusted."""
        indices = self.chunks[cid]
        if not lane.trusted and self.executor.audit.selects(self.key, indices):
            truth = reexecute_chunk(self.batch.spec, self.batch.base_seed, indices)
            honest = outcomes_digest(truth) == outcomes_digest(outcomes)
            self.report.audited_chunks += 1
            lane.audited(honest)
            if not honest:
                # A consistent lie, caught.  Everything the lane
                # produced is suspect: drop it, expunge its ledger
                # documents and re-queue it uncharged for honest lanes.
                # The audited chunk settles with the local truth.
                self.report.audit_mismatches += 1
                if lane.name not in self.report.byzantine_endpoints:
                    self.report.byzantine_endpoints.append(lane.name)
                for other in [c for c, by in self.produced_by.items() if by is lane]:
                    del self.produced_by[other], self.results[other]
                    if self.executor.cache is not None:
                        self.executor.cache.remove_chunk(self.batch, self.chunks[other])
                    self.waiting[other] = 0.0
                self.results[cid] = truth
                self.unsaved.append(cid)
                return
        if counts:
            lane.note_success()
        self.produced_by[cid] = lane
        self.results[cid] = outcomes
        self.unsaved.append(cid)

    def _charge(self, charges: List[Tuple[int, str, str]]) -> None:
        """Charge ``(chunk, kind, error)`` failures: quarantine a chunk out
        of attempts, re-queue the rest together after their longest
        backoff (chunks that failed together, as in a broken pool, retry
        together)."""
        retry = self.executor.retry
        delays = {}
        for cid, kind, error in charges:
            self.attempts[cid] += 1
            attempt = self.attempts[cid]
            if attempt >= retry.max_attempts:
                self.report.record_quarantine(
                    ChunkFailure(tuple(self.chunks[cid]), attempt, kind, error)
                )
                continue
            self.report.retries += 1
            scope = f"{self.key}:{self.chunks[cid][0]}"
            delays[cid] = retry.delay(scope, attempt - 1)
        ready_at = time.monotonic() + max(delays.values(), default=0.0)
        for cid in delays:
            self.waiting[cid] = ready_at

    def _stall(self, timeout: float) -> None:
        """Nothing finished inside the window, so the lanes may be wedged:
        charge every in-flight chunk a ``timeout`` and abandon its lane."""
        stalled, self.in_flight = self.in_flight, {}
        for lane in dict.fromkeys(lane for _, lane in stalled.values()):
            lane.abandon()
        message = f"no chunk completed within {timeout}s"
        self._charge(
            [(cid, "timeout", message) for cid in sorted(c for c, _ in stalled.values())]
        )

    def _checkpoint(self) -> None:
        """Write the ledger documents of chunks collected since last time."""
        cache = self.executor.cache
        for cid in self.unsaved:
            if cache is not None and cid in self.results:
                cache.store_chunk(self.batch, self.chunks[cid], self.results[cid])
        self.unsaved = []


class Executor:
    """Runs batches, consulting an optional :class:`ResultCache`.

    Attributes:
        cache: The result cache, or ``None`` to always recompute.
        cache_hits / cache_misses: Batch-level counters, for resume
            reporting ("12/16 cells served from cache").
        retry: The :class:`RetryPolicy` governing failed chunks.
        fault_plan: Optional explicit :class:`FaultPlan` for chaos
            testing (the ``REPRO_CHAOS`` environment variable reaches
            pool workers; this reaches in-process execution too).
        reports: One :class:`BatchReport` per executed batch, in
            order, carrying ``resumed_chunks``/``retries``/
            ``quarantined`` counters.
        chunk_size / chunk_timeout / audit: What the scheduler applies
            (see the subclasses that set them).
    """

    chunk_size: Optional[int] = None
    chunk_timeout: Optional[float] = None
    audit = AuditPolicy()

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.reports: List[BatchReport] = []

    @property
    def last_report(self) -> Optional[BatchReport]:
        """The :class:`BatchReport` of the most recent batch, if any."""
        return self.reports[-1] if self.reports else None

    def resilience_summary(self) -> Dict[str, object]:
        """Aggregate resilience counters across every batch run so far."""
        return {
            "batches": len(self.reports),
            "resumed_chunks": sum(r.resumed_chunks for r in self.reports),
            "retries": sum(r.retries for r in self.reports),
            "quarantined": sum(r.quarantined for r in self.reports),
            "pool_rebuilds": sum(r.pool_rebuilds for r in self.reports),
            "degraded_to_serial": any(
                r.degraded_to_serial for r in self.reports
            ),
            "audited_chunks": sum(r.audited_chunks for r in self.reports),
            "audit_mismatches": sum(
                r.audit_mismatches for r in self.reports
            ),
            "byzantine_endpoints": sorted(
                {
                    url
                    for r in self.reports
                    for url in r.byzantine_endpoints
                }
            ),
        }

    def run_outcomes(self, batch: TrialBatch) -> List[TrialOutcome]:
        """All outcomes of ``batch``, from cache when possible.

        A quarantined chunk leaves its trials out of the returned list
        (see the batch's :class:`BatchReport`); only complete batches
        are written to the final cache document.
        """
        report = BatchReport(
            label=batch.label, batch_key=batch.batch_key(), trials=batch.trials
        )
        self.reports.append(report)
        # Chaos hook: corrupt targeted cache documents *before* they
        # are consulted, so the run must absorb the damage.  No-op
        # without an active fault plan.
        apply_corruption(self.cache, batch, self.fault_plan)
        if self.cache is not None:
            cached = self.cache.load(batch)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        outcomes = self._execute(batch, report)
        outcomes.sort(key=lambda o: o.trial_index)
        if self.cache is not None and len(outcomes) == batch.trials:
            self.cache.store(batch, outcomes)
        return outcomes

    def run_batch(self, batch: TrialBatch) -> "TrialStats":
        """Run ``batch`` and aggregate into ``TrialStats``."""
        # Imported here, not at module level: runner imports the spec
        # and trial modules, so a top-level import would be circular.
        from repro.harness.runner import TrialStats

        return TrialStats.from_outcomes(
            self.run_outcomes(batch),
            engine_kind=batch.spec.engine,
            expected_trials=batch.trials,
            n=batch.spec.n,
        )

    def run_plan(self, plan: ExecutionPlan) -> List["TrialStats"]:
        """Run every batch of ``plan`` in order."""
        return [self.run_batch(batch) for batch in plan]

    def _execute(
        self, batch: TrialBatch, report: BatchReport
    ) -> List[TrialOutcome]:
        """Salvage checkpointed chunks, then schedule the rest."""
        salvaged: Dict[int, TrialOutcome] = {}
        if self.cache is not None:
            salvaged, valid_docs = self.cache.load_partial(batch)
            report.resumed_chunks += valid_docs
        outcomes = list(salvaged.values())
        missing = [i for i in range(batch.trials) if i not in salvaged]
        if missing:
            chunks = self._chunk_indices(missing, batch)
            lanes = self._lanes(report, len(chunks))
            scheduler = ChunkScheduler(self, batch, report, chunks)
            outcomes += scheduler.run(lanes)
        return outcomes

    def _width(self) -> int:
        """Workers a batch spreads over; ``0`` runs it as one chunk."""
        return 0

    def _chunk_indices(
        self, indices: Sequence[int], batch: TrialBatch
    ) -> List[List[int]]:
        """Split ``indices`` into chunks, sized off the *full* batch.

        Sizing off ``batch.trials`` (not ``len(indices)``) keeps chunk
        geometry identical between a fresh run and a resumed one that
        only recomputes a remainder.  By default a batch splits into
        about four chunks per worker or endpoint, so stragglers
        rebalance.  An ``engine="batch"`` batch splits into one chunk
        per worker or endpoint instead: its engine pays a fixed cost
        per round whatever the chunk's trial count, so every extra
        chunk repeats that cost.
        """
        total = batch.trials
        size = self.chunk_size
        if size is None:
            width = self._width()
            per_lane = 1 if batch.spec.engine == ENGINE_BATCH else 4
            size = -(-total // (width * per_lane)) if width else total
        ordered = sorted(indices)
        return [ordered[i : i + size] for i in range(0, len(ordered), size)]

    def _lanes(self, report: BatchReport, chunks: int) -> List[Lane]:
        """The lanes this batch's ``chunks`` chunks run in."""
        return [LOCAL_LANE]

    def close(self) -> None:
        """Release any worker resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution — the zero-dependency baseline."""


class ParallelExecutor(Executor, Lane):
    """Process-pool execution over chunks of trial indices.

    The pool is its lane.  Only a ``BrokenExecutor`` — raised by a
    future or by ``submit`` itself — condemns it: each break rebuilds
    the pool, and ``pool_failure_limit`` consecutive breaks put it out
    for the rest of the batch.

    Args:
        workers: Pool size (default: CPU count).
        cache: Optional result cache, shared with the serial path.
        chunk_size: Trials per worker task.  Default splits each batch
            into roughly ``4 * workers`` chunks so stragglers rebalance,
            or ``workers`` chunks for an ``engine="batch"`` batch.  Any
            value yields identical results; it only affects scheduling.
        retry: Per-chunk :class:`RetryPolicy` (default policy if
            omitted).
        chunk_timeout: Stall detector, in seconds: if *no* in-flight
            chunk completes within this window the pool is presumed
            wedged — it is rebuilt and the in-flight chunks are charged
            a ``timeout`` failure and retried.  ``None`` (default)
            waits forever.
        fault_plan: Optional explicit :class:`FaultPlan` for chaos
            testing.
    """

    capacity = math.inf

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(cache=cache, retry=retry, fault_plan=fault_plan)
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be > 0, got {chunk_timeout}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._breaks = 0
        self._report: Optional[BatchReport] = None

    def _width(self) -> int:
        return self.workers

    def _lanes(self, report: BatchReport, chunks: int) -> List[Lane]:
        if chunks <= 1:
            return [LOCAL_LANE]  # not worth a round trip through the pool
        self._breaks, self._report = 0, report
        return [self]

    # -- the pool as the scheduler's lane ------------------------------

    def submit(
        self, batch: TrialBatch, indices: Sequence[int], attempt: int
    ) -> "Future[List[TrialOutcome]]":
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool.submit(run_chunk, batch.spec, batch.base_seed, indices, attempt)

    @property
    def out(self) -> bool:
        return self._breaks >= self.retry.pool_failure_limit

    def failure_kind(self, exc: BaseException) -> Optional[str]:
        return "pool" if isinstance(exc, concurrent.futures.BrokenExecutor) else None

    def note_success(self) -> None:
        self._breaks = 0

    def note_failure(self) -> None:
        self._breaks += 1
        self.abandon()

    def abandon(self) -> None:
        """Tear down a broken or wedged pool; the next submit starts afresh."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._report is not None:
            self._report.pool_rebuilds += 1

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def make_executor(
    workers: int = 1,
    *,
    cache: Optional[ResultCache] = None,
    retry: Optional[RetryPolicy] = None,
    chunk_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Executor:
    """A :class:`SerialExecutor` for ``workers <= 1``, else parallel."""
    if workers <= 1:
        return SerialExecutor(cache=cache, retry=retry, fault_plan=fault_plan)
    return ParallelExecutor(
        workers,
        cache=cache,
        retry=retry,
        chunk_timeout=chunk_timeout,
        fault_plan=fault_plan,
    )
