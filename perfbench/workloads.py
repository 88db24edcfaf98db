"""The three benchmark workloads: set-up, measured work and output checks.

Each workload function takes a :class:`Context` and returns a
:class:`Measured`.  The measured region is the workload's fixed work,
from the first submission to the last result; set-up, output checks and
teardown stay outside it.

* ``experiments`` — every ``ALL_EXPERIMENTS`` function on one
  ``ParallelExecutor(2)`` with a fresh cache: the trial experiments at
  full scale, the coin-game and analysis ones (E1-E4, E10) at quick
  scale.  A *job* is one batch.
* ``sweep-2d`` — synran x {tally-attack, partition} x n in {256, 1024,
  4096}, t = n, worst-case inputs, ``engine="batch2d"``, as one
  ``ExecutionPlan`` per pass through ``ParallelExecutor(2)`` with wide
  chunks.  A *job* is one cell.
* ``service`` — one ``repro serve`` over two ``repro worker``
  subprocesses; two client threads in a closed loop submit plans drawn
  from a fixed cell pool and poll each job until it settles.  A *job*
  is one ``POST /jobs``.
"""

from __future__ import annotations

import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"

#: Pool workers, ``repro worker`` subprocesses and client threads: the
#: load is sized for a two-core host.
PARALLELISM = 2

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


@dataclass
class Context:
    seed: int
    units: int
    tmp: Path
    tracer: Optional[Tracer] = None
    setup_samples: int = 0


@dataclass
class Measured:
    wall_s: float
    jobs: List[float]
    peak_rss_mb: float
    attempted: int
    failures: List[str] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _vmhwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _enable(tracer: Optional[Tracer], on: bool) -> None:
    if tracer is not None:
        tracer.enabled = on


# ----------------------------------------------------------------------
# Pool workloads (experiments, sweep-2d)
# ----------------------------------------------------------------------


def _probe_setup(ctx: Context, modules: Tuple[str, ...]) -> List[float]:
    """Set-up samples: fresh interpreter, imports, pool up, one chunk each."""
    samples = []
    for k in range(ctx.setup_samples):
        cmd = [sys.executable, str(LAUNCH), "probe", "--cache-dir", str(ctx.tmp / f"probe-{k}")]
        for module in modules:
            cmd += ["--import", module]
        start = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_subprocess_env())
        try:
            line = _read_line(proc, 60.0)
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe said {line!r}")
            samples.append(clock() - start)
        finally:
            _stop(proc, None)
    return samples


class _BatchClock:
    """Per-batch latency and completeness around ``Executor.run_outcomes``.

    A batch's latency runs from its submission to its result.  Batches
    are submitted when ``run_outcomes`` is called, unless ``submitted``
    is set: then a whole plan went in at that instant.
    """

    def __init__(self, executor: Any) -> None:
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.batches = 0
        self.submitted: Optional[float] = None
        original = executor.run_outcomes

        def run_outcomes(batch: Any) -> Any:
            start = clock() if self.submitted is None else self.submitted
            outcomes = original(batch)
            self.latencies.append(clock() - start)
            self.batches += 1
            if len(outcomes) != batch.trials:
                self.failures.append(
                    f"batch {batch.label or batch.batch_key()[:12]}: "
                    f"{batch.trials - len(outcomes)} of {batch.trials} trials missing"
                )
            return outcomes

        executor.run_outcomes = run_outcomes


def _resilience(executor: Any, tracer: Optional[Tracer], failures: List[str]) -> Dict[str, Any]:
    summary = executor.resilience_summary()
    for report in executor.reports:
        for failure in getattr(report, "failures", ()):
            failures.append(f"quarantined chunk of {report.label}: {failure}")
    if tracer is not None:
        for name in ("retries", "quarantined", "pool_rebuilds"):
            tracer.count(f"harness.exec.executor.{name}", int(summary.get(name, 0)))
    return {k: summary[k] for k in ("retries", "quarantined", "pool_rebuilds") if k in summary}


#: E1-E4 and E10 are coin-game / analysis experiments (no trial
#: engine); at full scale E1-E3 alone spend minutes there.
QUICK_EXPERIMENTS = ("E1", "E2", "E3", "E4", "E10")


def run_experiments(ctx: Context) -> Measured:
    modules = ("repro.harness.experiments",)
    setup = _probe_setup(ctx, modules)
    from repro.harness.exec import ParallelExecutor, ResultCache
    from repro.harness.experiments import ALL_EXPERIMENTS

    order = sorted(ALL_EXPERIMENTS, key=lambda e: int(e[1:]))
    random.Random(f"experiments:{ctx.seed}").shuffle(order)
    tables: Dict[str, Any] = {}
    per_experiment: Dict[str, float] = {}
    tracer = ctx.tracer
    executor = ParallelExecutor(PARALLELISM)
    batches = _BatchClock(executor)
    _enable(tracer, True)
    try:
        start = clock()
        for unit in range(ctx.units):
            # The experiments' seeds are fixed: a unit on a warm cache
            # would measure cache hits only.
            executor.cache = ResultCache(ctx.tmp / f"cache-{unit}")
            for exp_id in order:
                scale = "quick" if exp_id in QUICK_EXPERIMENTS else "full"
                span = tracer.enter("harness.experiments", exp_id) if tracer else None
                began = clock()
                tables[exp_id] = ALL_EXPERIMENTS[exp_id](scale, executor=executor)
                per_experiment[exp_id] = per_experiment.get(exp_id, 0.0) + clock() - began
                if span is not None:
                    tracer.exit(span)
        wall = clock() - start
        own_rss = _rss_mb(resource.RUSAGE_SELF)
    finally:
        _enable(tracer, False)
        executor.close()
    failures = list(batches.failures)
    notes = {
        "order": order,
        "batches": batches.batches,
        "experiment_wall_s": {k: round(v, 3) for k, v in sorted(per_experiment.items(), key=lambda kv: int(kv[0][1:]))},
        "resilience": _resilience(executor, tracer, failures),
    }
    measured = Measured(
        wall_s=wall,
        jobs=batches.latencies,
        peak_rss_mb=max(own_rss, _rss_mb(resource.RUSAGE_CHILDREN)),
        attempted=batches.batches,
        failures=failures,
        setup=setup,
        notes=notes,
    )
    from claims import check_tables

    measured.problems = check_tables(ROOT, tables)
    return measured


#: The representative grid on the two-axis engine: trials per cell and
#: the executor's chunk size.  Chunks of 128 trials put the (M, n)
#: engine state, not the interpreter, on top of peak RSS at n = 4096.
SWEEP_2D_TRIALS = {
    ("tally-attack", 256): 512,
    ("tally-attack", 1024): 256,
    ("tally-attack", 4096): 256,
    ("partition", 256): 1024,
    ("partition", 1024): 512,
    ("partition", 4096): 256,
}
SWEEP_2D_CHUNK = 128


def sweep_2d_plan(seed: int, unit: int) -> Any:
    from repro.harness.exec import ExecutionPlan, TrialBatch, TrialSpec

    rng = random.Random(f"sweep-2d:{seed}:{unit}")
    return ExecutionPlan(
        batches=tuple(
            TrialBatch(
                spec=TrialSpec(
                    protocol="synran", adversary=adversary, n=n, t=n,
                    inputs="worst", engine="batch2d",
                ),
                trials=trials,
                base_seed=rng.randrange(2**31),
                label=f"sweep-2d/{adversary}/n={n}",
            )
            for (adversary, n), trials in SWEEP_2D_TRIALS.items()
        )
    )


def run_sweep_2d(ctx: Context) -> Measured:
    modules = ("repro.harness.exec", "repro.sim.batch2d")
    setup = _probe_setup(ctx, modules)
    from repro.harness.exec import ParallelExecutor, ResultCache

    plans = [sweep_2d_plan(ctx.seed, unit) for unit in range(ctx.units)]
    tracer = ctx.tracer
    executor = ParallelExecutor(PARALLELISM, cache=ResultCache(ctx.tmp / "cache"), chunk_size=SWEEP_2D_CHUNK)
    batches = _BatchClock(executor)
    results = []
    _enable(tracer, True)
    try:
        start = clock()
        for plan in plans:
            batches.submitted = clock()
            results.append([executor.run_outcomes(batch) for batch in plan])
        wall = clock() - start
        own_rss = _rss_mb(resource.RUSAGE_SELF)
    finally:
        _enable(tracer, False)
        executor.close()
    failures = list(batches.failures)
    measured = Measured(
        wall_s=wall,
        jobs=batches.latencies,
        peak_rss_mb=max(own_rss, _rss_mb(resource.RUSAGE_CHILDREN)),
        attempted=batches.batches,
        failures=failures,
        setup=setup,
        notes={"passes": len(plans), "resilience": _resilience(executor, tracer, failures)},
    )
    measured.problems = [
        problem
        for plan, outcomes in zip(plans, results)
        for batch, cell in zip(plan, outcomes)
        for problem in check_2d_cell(batch, cell)
    ]
    return measured


def check_2d_cell(batch: Any, outcomes: List[Any]) -> List[str]:
    """Tally cells: the 1-D engine on the same seeds must agree exactly.

    Partition cells: every trial decides, within the crash budget.
    """
    label = batch.label
    spec = batch.spec
    if len(outcomes) != batch.trials:
        return [f"{label}: {len(outcomes)} of {batch.trials} outcomes"]
    if spec.adversary == "partition":
        bad = [o.trial_index for o in outcomes
               if o.timeout or o.decision not in (0, 1) or o.crashes > spec.t]
        return [f"{label}: trials {bad[:5]} undecided or over budget"] if bad else []
    from repro.harness.exec.builders import (
        build_batch_adversary,
        build_fault_model,
        build_inputs,
        build_protocol,
    )
    from repro.sim.batch import BatchFastEngine

    one_d = replace(spec, engine="batch")
    seeds = [spec.trial_seed(batch.base_seed, o.trial_index) for o in outcomes]
    engine = BatchFastEngine(
        build_protocol(one_d),
        build_batch_adversary(one_d),
        spec.n,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(one_d),
    )
    result = engine.run(build_inputs(one_d, random.Random(0)), seeds)
    problems = []
    for slot, outcome in enumerate(outcomes):
        trial = result.trial(slot)
        mine = (outcome.rounds, outcome.decision_round, outcome.decision,
                outcome.crashes, outcome.crashes_per_round, outcome.senders_per_round)
        theirs = (trial.rounds, trial.decision_round, trial.decision,
                  trial.crashes_used, trial.crashes_per_round, trial.senders_per_round)
        if mine != theirs:
            problems.append(f"{label}: trial {outcome.trial_index} differs from the 1-D engine")
    return problems[:5]


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``, or raise after ``timeout`` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"{proc.args[2:4]} printed nothing within {timeout:.0f}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"{proc.args[2:4]} exited with {proc.wait()} before it was ready")
    return line


def _stop(proc: subprocess.Popen, sig: Optional[int]) -> None:
    """Signal ``proc`` (unless ``sig`` is None) and wait; SIGKILL after 15 s."""
    if proc.poll() is None:
        if sig is not None:
            proc.send_signal(sig)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Deployment:
    """One ``repro serve`` over ``PARALLELISM`` ``repro worker`` processes."""

    def __init__(self, tmp: Path, trace_dir: Optional[Path]) -> None:
        self.procs: List[subprocess.Popen] = []
        self.tmp = tmp
        self.trace_dir = trace_dir
        self.log = open(tmp / "service.log", "a", encoding="utf-8")
        self.url = ""
        self.worker_urls: List[str] = []

    def _spawn(self, role: str, args: List[str]) -> subprocess.Popen:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(LAUNCH), "traced", "--trace-dir", str(self.trace_dir),
                   "--role", role, "--", *args]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log, text=True,
                                env=_subprocess_env())
        self.procs.append(proc)
        return proc

    @staticmethod
    def _url(proc: subprocess.Popen) -> str:
        line = _read_line(proc, 60.0)
        marker = "serving on "
        if marker not in line:
            raise RuntimeError(f"unexpected first line {line!r}")
        return line.split(marker, 1)[1].strip()

    def start(self) -> None:
        from repro.service.smoke import wait_healthz

        local = ["--host", "127.0.0.1", "--port", "0"]
        workers = [self._spawn("worker", ["worker", *local]) for _ in range(PARALLELISM)]
        self.worker_urls = [self._url(proc) for proc in workers]
        args = ["serve", *local, "--cache-dir", str(self.tmp / "cache")]
        for url in self.worker_urls:
            args += ["--worker-endpoint", url]
        self.url = self._url(self._spawn("server", args))
        for url in [*self.worker_urls, self.url]:
            wait_healthz(url, wait=60.0)

    def peak_rss_mb(self) -> float:
        return max(_vmhwm_mb(proc.pid) for proc in self.procs)

    def stop(self) -> None:
        for proc in reversed(self.procs):  # server first, then its workers
            _stop(proc, signal.SIGINT)
        self.log.close()


#: The service job mix.  Cells are synran x {tally-attack, benign} x n.
#: Benign cells (~5 rounds) are many short trials, so per-trial
#: overhead dominates; tally cells carry long per-round histories, so
#: their outcome documents are large.  Per unit, each (adversary, n)
#: kind fills ``SERVICE_SLOTS_PER_KIND`` cell slots of three-cell
#: plans: half hold a fresh cell, half re-use a cell of that kind
#: submitted at least two jobs earlier (a cache hit unless that job is
#: still computing it).  Every ``SERVICE_REPEAT_EVERY``-th job resubmits
#: an earlier plan exactly (dedup).  Which kinds and slot types share a
#: plan, and the plans' order, are a fixed layout; the seed picks base
#: seeds, re-used cells and repeated jobs, so every seed runs the same
#: sequence of job shapes (work, memory and the latency tail stay
#: comparable across seeds).
SERVICE_TRIALS = {"tally-attack": 96, "benign": 768}
SERVICE_NS = (256, 1024, 4096)
SERVICE_CELLS_PER_PLAN = 3
SERVICE_SLOTS_PER_KIND = 24
SERVICE_REPEAT_EVERY = 9


def service_plans(seed: int, units: int) -> Tuple[List[Any], Dict[int, int]]:
    """The job sequence and ``{repeat job index: original job index}``.

    A repeat copies a job at least two positions earlier, so with two
    closed-loop clients its original has always been submitted first.
    """
    from repro.harness.exec import ExecutionPlan, TrialBatch, TrialSpec

    kinds = [(adversary, n) for adversary in SERVICE_TRIALS for n in SERVICE_NS]
    slots = [(kind, k % 2 == 1) for kind in kinds for k in range(SERVICE_SLOTS_PER_KIND * units)]
    random.Random("service-layout").shuffle(slots)
    size = SERVICE_CELLS_PER_PLAN
    layout = [slots[i : i + size] for i in range(0, len(slots), size)]
    rng = random.Random(f"service:{seed}")
    made: Dict[Tuple[str, int], List[Tuple[int, Any]]] = {kind: [] for kind in kinds}
    plans: List[Any] = []
    repeats: Dict[int, int] = {}
    for shape in layout:
        job = len(plans)
        cells: List[Any] = []
        for (adversary, n), reuse in shape:
            earlier = [c for at, c in made[(adversary, n)] if at <= job - 2 and c not in cells]
            if reuse and earlier:
                cells.append(rng.choice(earlier))
                continue
            cell = TrialBatch(
                spec=TrialSpec(protocol="synran", adversary=adversary, n=n, t=n,
                               inputs="worst", engine="batch"),
                trials=SERVICE_TRIALS[adversary],
                base_seed=rng.randrange(2**31),
                label=f"service/{adversary}/n={n}",
            )
            made[(adversary, n)].append((job, cell))
            cells.append(cell)
        plans.append(ExecutionPlan(batches=tuple(cells)))
        if len(plans) % SERVICE_REPEAT_EVERY == SERVICE_REPEAT_EVERY - 1:
            original = rng.choice([j for j in range(len(plans) - 1) if j not in repeats])
            repeats[len(plans)] = original
            plans.append(plans[original])
    return plans, repeats


@dataclass
class _JobRecord:
    latency: float = 0.0
    job_id: str = ""
    coalesced: bool = False
    final: Optional[Dict[str, Any]] = None
    error: str = ""


def _closed_loop(url: str, plans: List[Any], repeats: Dict[int, int], deadline: float) -> List[_JobRecord]:
    """``PARALLELISM`` client threads, each submitting after its last job settled."""
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    records = [_JobRecord() for _ in plans]
    posted = [threading.Event() for _ in plans]
    cursor = iter(range(len(plans)))
    lock = threading.Lock()

    def client() -> None:
        service = ServiceClient(url)
        while True:
            with lock:
                j = next(cursor, None)
            if j is None:
                return
            record = records[j]
            if j in repeats:
                posted[repeats[j]].wait(timeout=max(0.0, deadline - clock()))
            start = clock()
            try:
                receipt = service.submit(plans[j], label=f"job-{j}")
                record.job_id, record.coalesced = receipt.job_id, receipt.coalesced
                posted[j].set()
                while True:
                    doc = service.status(receipt.job_id)
                    if doc["state"] in ("done", "failed"):
                        break
                    elapsed = clock() - start
                    if clock() > deadline:
                        raise ReproError(f"job still {doc['state']} after {elapsed:.0f}s")
                    # Poll at 5% of the job's age, between 2 and 20 ms:
                    # far finer than a median job, without flooding.
                    time.sleep(min(0.02, max(0.002, 0.05 * elapsed)))
                record.latency = clock() - start
                record.final = doc
            except (ReproError, OSError, KeyError) as exc:
                record.latency = clock() - start
                record.error = f"{type(exc).__name__}: {exc}"
                posted[j].set()

    threads = [threading.Thread(target=client) for _ in range(PARALLELISM)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _job_failures(j: int, record: _JobRecord, batches: int) -> List[str]:
    if record.error:
        return [f"job {j}: {record.error}"]
    doc = record.final or {}
    problems = []
    if doc.get("state") != "done":
        problems.append(f"job {j} ({record.job_id}) {doc.get('state')}: {doc.get('error')}")
    missing = sum(int(r.get("missing_trials", 0)) for r in doc.get("results", []))
    if missing:
        problems.append(f"job {j} ({record.job_id}): {missing} trials missing")
    quarantined = int((doc.get("resilience") or {}).get("quarantined", 0))
    if quarantined:
        problems.append(f"job {j} ({record.job_id}): {quarantined} chunks quarantined")
    if len(doc.get("results", [])) != batches and not problems:
        problems.append(f"job {j} ({record.job_id}): {len(doc.get('results', []))} of {batches} batches")
    return problems


def run_service(ctx: Context) -> Measured:
    plans, repeats = service_plans(ctx.seed, ctx.units)
    trace_dir = ctx.tracer.out_dir if ctx.tracer is not None else None
    setup: List[float] = []
    deployment: Optional[Deployment] = None
    for k in range(max(1, ctx.setup_samples)):
        if deployment is not None:
            deployment.stop()
        deployment = Deployment(_fresh_dir(ctx.tmp / f"service-{k}"), trace_dir)
        start = clock()
        try:
            deployment.start()
        except BaseException:
            deployment.stop()
            raise
        setup.append(clock() - start)
    assert deployment is not None
    tracer = ctx.tracer
    try:
        _enable(tracer, True)
        start = clock()
        records = _closed_loop(deployment.url, plans, repeats, deadline=start + 150.0)
        wall = clock() - start
        _enable(tracer, False)
        peak = max(_rss_mb(resource.RUSAGE_SELF), deployment.peak_rss_mb())
        outcomes = _fetch_outcomes(deployment.url, records)
    finally:
        _enable(tracer, False)
        deployment.stop()

    failures = [p for j, r in enumerate(records) for p in _job_failures(j, r, len(plans[j]))]
    distinct = {r.job_id: r for r in records if r.final is not None}
    hits = sum(int(r.final.get("cache", {}).get("hits", 0)) for r in distinct.values())
    misses = sum(int(r.final.get("cache", {}).get("misses", 0)) for r in distinct.values())
    measured = Measured(
        wall_s=wall,
        jobs=[r.latency for r in records],
        peak_rss_mb=peak,
        attempted=len(records),
        failures=failures,
        setup=setup,
        notes={
            "jobs": len(records),
            "distinct_jobs": len(distinct),
            "coalesced": sum(r.coalesced for r in records),
            "cells_hit": hits,
            "cells_computed": misses,
            "hit_share": round(hits / (hits + misses), 3) if hits + misses else 0.0,
        },
    )
    measured.problems = check_service(plans, repeats, records, outcomes)
    return measured


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def _fetch_outcomes(url: str, records: List[_JobRecord]) -> Dict[str, Any]:
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    service = ServiceClient(url, timeout=60.0)
    docs: Dict[str, Any] = {}
    for record in records:
        if record.final is None or record.final.get("state") != "done" or record.job_id in docs:
            continue
        try:
            docs[record.job_id] = service.outcomes(record.job_id)
        except ReproError as exc:
            docs[record.job_id] = {"error": str(exc)}
    return docs


def check_service(plans: List[Any], repeats: Dict[int, int], records: List[_JobRecord],
                  outcomes: Dict[str, Any]) -> List[str]:
    """Every job's outcomes equal a local serial run; repeats coalesced."""
    from repro.harness.exec import SerialExecutor

    local: Dict[str, List[Dict[str, Any]]] = {}
    serial = SerialExecutor()
    problems = []
    for j, (plan, record) in enumerate(zip(plans, records)):
        if j in repeats and not (record.coalesced and record.job_id == records[repeats[j]].job_id):
            problems.append(f"job {j} repeats job {repeats[j]} but was not coalesced onto it")
        doc = outcomes.get(record.job_id)
        if doc is None:
            continue  # a failed job; counted in fail_frac
        got = {b.get("batch_key"): b.get("outcomes") for b in doc.get("batches", [])}
        for batch in plan:
            key = batch.batch_key()
            if key not in local:
                local[key] = [o.to_jsonable() for o in serial.run_outcomes(batch)]
            if got.get(key) != local[key]:
                problems.append(f"job {j} ({record.job_id}): {batch.label} differs from a local serial run")
    return problems[:10]


WORKLOADS: Dict[str, Tuple[Callable[[Context], Measured], float]] = {
    # name: (function, nominal seconds of one unit of fixed work on a
    # two-core host); --seconds picks max(1, round(seconds / nominal))
    # units, so the work is fixed for a given --seconds.
    "experiments": (run_experiments, 30.0),
    "sweep-2d": (run_sweep_2d, 8.0),
    "service": (run_service, 9.0),
}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
