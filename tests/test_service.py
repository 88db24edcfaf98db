"""The service tier, end to end and in process.

The load-bearing gates from the issue:

* **Differential**: one :class:`ExecutionPlan` executed through
  ``SerialExecutor``, ``ParallelExecutor``, and ``RemoteExecutor``
  (two live workers, one of them injecting a transient fault) yields
  byte-identical outcomes and identical :class:`TrialStats`.
* **Dedup**: two concurrent submissions of the same plan produce
  exactly one computation, and both clients receive full results.

Everything runs against real sockets (ephemeral ports, in-process
server threads) but no subprocesses — the subprocess path is covered
by ``repro.service.smoke`` and ``tests/test_service_resume.py``.
"""

import threading

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import (
    ENGINE_REFERENCE,
    ExecutionPlan,
    ResultCache,
    SerialExecutor,
    ParallelExecutor,
    TrialBatch,
    TrialSpec,
    make_executor,
    plan_to_wire,
    spec_params,
)
from repro.harness.resilience import CHAOS_ENV, Fault, FaultPlan, RetryPolicy
from repro.harness.runner import TrialStats
from repro.service import (
    JobManager,
    RemoteExecutor,
    ServerConfig,
    ServerThread,
    ServiceClient,
    SweepServerApp,
    WorkerApp,
)
from repro.service.netio import ServiceUnreachable, request_json
from repro.service.remote import WorkerEndpoint


def tally_spec(**overrides):
    fields = dict(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=16,
        inputs="worst",
        engine=ENGINE_REFERENCE,
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def two_batch_plan(trials=10, base_seed=7):
    return ExecutionPlan(
        batches=(
            TrialBatch(
                spec=tally_spec(), trials=trials, base_seed=base_seed,
                label="cell-16",
            ),
            TrialBatch(
                spec=tally_spec(n=32, t=32), trials=trials,
                base_seed=base_seed, label="cell-32",
            ),
        )
    )


@pytest.fixture
def worker_fleet():
    """Two live in-process workers, one of them faulty: every chunk it
    serves raises on its first attempt (times=1 makes each fault
    transient, so the retry — on either worker — succeeds)."""
    clean = WorkerApp()
    faulty = WorkerApp(
        fault_plan=FaultPlan(
            tuple(Fault("raise", i, times=1) for i in range(64))
        )
    )
    threads = [ServerThread(clean.app), ServerThread(faulty.app)]
    for t in threads:
        t.start()
    yield [t.url for t in threads]
    for t in threads:
        t.stop()


def run_plan(executor, plan):
    outcomes, stats = [], []
    with executor:
        for batch in plan:
            batch_outcomes = executor.run_outcomes(batch)
            outcomes.append(batch_outcomes)
            stats.append(
                TrialStats.from_outcomes(
                    batch_outcomes,
                    engine_kind=batch.spec.engine,
                    expected_trials=batch.trials,
                )
            )
    return outcomes, stats


class TestRemoteDifferential:
    def test_three_executors_byte_identical_with_fault(
        self, worker_fleet, tmp_path
    ):
        plan = two_batch_plan()
        serial_out, serial_stats = run_plan(SerialExecutor(), plan)
        parallel_out, parallel_stats = run_plan(
            ParallelExecutor(2, chunk_size=3), plan
        )
        remote = RemoteExecutor(
            worker_fleet,
            cache=ResultCache(tmp_path / "cache"),
            chunk_size=3,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        remote_out, remote_stats = run_plan(remote, plan)

        assert serial_out == parallel_out == remote_out
        assert serial_stats == parallel_stats == remote_stats
        # The injected fault actually fired and was absorbed.
        assert sum(r.retries for r in remote.reports) >= 1
        assert all(r.quarantined == 0 for r in remote.reports)
        assert all(s.missing_trials == 0 for s in remote_stats)

    def test_dead_endpoint_is_quarantined_not_fatal(
        self, worker_fleet, tmp_path
    ):
        # One live worker, one endpoint nobody listens on: the dead
        # one is quarantined after consecutive failures and the live
        # one absorbs its chunks; results stay byte-identical.
        batch = TrialBatch(spec=tally_spec(), trials=8, base_seed=3)
        remote = RemoteExecutor(
            [worker_fleet[0], "http://127.0.0.1:9"],
            chunk_size=2,
            retry=RetryPolicy(
                max_attempts=6, backoff_base=0.0, pool_failure_limit=2
            ),
        )
        with remote:
            outcomes = remote.run_outcomes(batch)
        assert outcomes == SerialExecutor().run_outcomes(batch)
        summary = remote.worker_summary()
        assert [e["quarantined"] for e in summary] == [False, True]
        assert summary[0]["chunks_completed"] == 4

    def test_whole_fleet_dead_degrades_to_local(self, tmp_path):
        batch = TrialBatch(spec=tally_spec(), trials=6, base_seed=3)
        remote = RemoteExecutor(
            ["http://127.0.0.1:9"],
            cache=ResultCache(tmp_path / "cache"),
            chunk_size=2,
            retry=RetryPolicy(
                max_attempts=4, backoff_base=0.0, pool_failure_limit=1
            ),
        )
        with remote:
            outcomes = remote.run_outcomes(batch)
        assert outcomes == SerialExecutor().run_outcomes(batch)
        assert remote.reports[-1].degraded_to_serial
        assert remote.reports[-1].quarantined == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            RemoteExecutor([])
        with pytest.raises(ConfigurationError):
            RemoteExecutor(["http://x"], chunk_size=0)
        with pytest.raises(ConfigurationError):
            RemoteExecutor(["http://x"], request_timeout=0)


class TestJobDedup:
    def test_concurrent_identical_submissions_compute_once(self, tmp_path):
        computations = []
        gate = threading.Event()

        class CountingExecutor(SerialExecutor):
            def _execute(self, batch, report):
                computations.append(batch.batch_key())
                gate.wait(10)  # hold the first job mid-flight
                return super()._execute(batch, report)

        manager = JobManager(
            lambda cache: CountingExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        plan = two_batch_plan(trials=4)
        first, coalesced_first = manager.submit(plan, label="a")
        assert not coalesced_first
        # Submit the identical plan from several "clients" while the
        # first computation is still in flight.
        seconds = [manager.submit(plan, label="b") for _ in range(4)]
        gate.set()
        assert first.wait(30)
        assert all(job is first for job, _ in seconds)
        assert all(coalesced for _, coalesced in seconds)
        # Exactly one computation per batch, not one per submission.
        assert sorted(computations) == sorted(
            b.batch_key() for b in plan
        )
        doc = first.status_doc()
        assert doc["state"] == "done"
        assert doc["submissions"] == 5
        assert doc["progress"]["completed_trials"] == plan.total_trials()
        assert len(first.outcomes_doc()["batches"]) == 2
        manager.shutdown()

    def test_resubmission_after_completion_coalesces(self, tmp_path):
        manager = JobManager(
            lambda cache: SerialExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        plan = two_batch_plan(trials=3)
        job, _ = manager.submit(plan)
        assert job.wait(30)
        again, coalesced = manager.submit(plan)
        assert coalesced and again is job
        # A different base seed is a different computation.
        other, coalesced = manager.submit(two_batch_plan(trials=3, base_seed=8))
        assert not coalesced and other is not job
        assert other.wait(30)
        manager.shutdown()

    def test_outcomes_refused_until_done(self, tmp_path):
        gate = threading.Event()

        class GatedExecutor(SerialExecutor):
            def _execute(self, batch, report):
                gate.wait(10)
                return super()._execute(batch, report)

        manager = JobManager(
            lambda cache: GatedExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        job, _ = manager.submit(two_batch_plan(trials=2))
        with pytest.raises(ConfigurationError, match="not done"):
            job.outcomes_doc()
        gate.set()
        assert job.wait(30)
        job.outcomes_doc()  # now answers
        assert manager.get(job.job_id) is job
        assert manager.get(job.key) is job
        assert manager.get("0" * 16) is None
        manager.shutdown()


class TestHttpService:
    @pytest.fixture
    def service(self, tmp_path):
        app = SweepServerApp(
            ServerConfig(cache_dir=str(tmp_path / "cache"), workers=1)
        )
        thread = ServerThread(app.app)
        thread.start()
        yield ServiceClient(thread.url)
        app.close()
        thread.stop()

    def test_submit_poll_outcomes_and_events(self, service):
        plan = two_batch_plan(trials=4)
        receipt = service.submit(plan, label="http")
        assert not receipt.coalesced
        final = service.wait(receipt.job_id, timeout=60)
        assert final["state"] == "done"
        assert final["progress"]["completed_trials"] == plan.total_trials()
        assert [r["missing_trials"] for r in final["results"]] == [0, 0]
        assert final["cache"] == {"hits": 0, "misses": 2}

        outcomes = service.outcomes(receipt.job_id)
        assert sum(len(b["outcomes"]) for b in outcomes["batches"]) == 8

        # SSE: a settled job's stream is one terminal event.
        events = list(service.events(receipt.job_id))
        assert events and events[-1]["state"] == "done"

        # Identical plan over HTTP coalesces onto the settled job.
        again = service.submit(plan)
        assert again.coalesced and again.job_id == receipt.job_id

    def test_http_error_surfaces(self, service):
        with pytest.raises(ReproError, match="404"):
            service.status("no-such-job")
        with pytest.raises(ReproError, match="409"):
            # Submit, then immediately demand outcomes of a job that
            # cannot have settled yet (job pool has not even started).
            receipt = service.submit(two_batch_plan(trials=2), label="racy")
            try:
                service.outcomes(receipt.job_id)
            finally:
                service.wait(receipt.job_id, timeout=60)

    def test_malformed_submission_is_400(self, service):
        status, doc = request_json(
            service.base_url, "POST", "/jobs", {"plan": {"wire": 99}}
        )
        assert status == 400
        assert "wire" in doc["error"]

    def test_parameter_no_factory_reads_is_400(self, service):
        # Refused at submission, not quarantined chunk by chunk.
        spec = TrialSpec(
            protocol="floodset",
            adversary="benign",
            n=8,
            t=3,
            protocol_params=spec_params(rounds=99),
        )
        plan = ExecutionPlan(batches=(TrialBatch(spec=spec, trials=2),))
        status, doc = request_json(
            service.base_url, "POST", "/jobs", {"plan": plan_to_wire(plan)}
        )
        assert status == 400
        assert "rounds" in doc["error"]

    def test_unknown_route_is_404(self, service):
        status, _ = request_json(service.base_url, "GET", "/nope")
        assert status == 404


class TestWorkerEndpointContract:
    @pytest.fixture
    def worker_url(self):
        worker = WorkerApp()
        thread = ServerThread(worker.app)
        thread.start()
        yield thread.url
        worker.close()
        thread.stop()

    def test_healthz(self, worker_url):
        status, doc = request_json(worker_url, "GET", "/healthz")
        assert status == 200
        assert doc["role"] == "worker" and doc["ok"]

    @pytest.mark.parametrize(
        "payload",
        [
            "not-an-object",
            {"wire": 99, "spec": {}, "base_seed": 0, "indices": [0]},
            {"wire": 1, "spec": {"wire": 1, "kind": "spec"},
             "base_seed": 0, "indices": [0]},
            {"wire": 1, "base_seed": 0, "indices": [0]},
        ],
    )
    def test_malformed_chunk_requests_are_400(self, worker_url, payload):
        status, doc = request_json(worker_url, "POST", "/chunks", payload)
        assert status == 400
        assert "error" in doc

    def test_requests_run_on_daemon_threads(self, monkeypatch):
        # A run interrupted mid-request exits at once instead of
        # waiting out a wedged worker's request timeout.
        def post_chunk(endpoint, batch, indices, attempt):
            return threading.current_thread().daemon

        monkeypatch.setattr(WorkerEndpoint, "_post_chunk", post_chunk)
        endpoint = RemoteExecutor(["http://127.0.0.1:9"]).endpoints[0]
        batch = TrialBatch(spec=tally_spec(), trials=1, base_seed=0, label="d")
        assert endpoint.submit(batch, [0], 0).result(timeout=10) is True

    def test_empty_indices_rejected(self, worker_url):
        from repro.harness.exec import spec_to_wire

        status, _ = request_json(
            worker_url,
            "POST",
            "/chunks",
            {
                "wire": 1,
                "spec": spec_to_wire(tally_spec()),
                "base_seed": 0,
                "indices": [],
            },
        )
        assert status == 400


class TestCacheLocking:
    def test_concurrent_writers_share_a_cache_dir(self, tmp_path):
        # Many threads hammering the same batch through independent
        # cache handles (as concurrent jobs and remote checkpoints
        # do): the advisory lock keeps the final document and the
        # ledger teardown atomic, so every handle ends up reading the
        # same complete result.
        batch = TrialBatch(spec=tally_spec(), trials=6, base_seed=2)
        outcomes = SerialExecutor().run_outcomes(batch)
        root = tmp_path / "shared-cache"
        errors = []

        def writer():
            try:
                cache = ResultCache(root)
                for _ in range(20):
                    cache.store_chunk(batch, [0, 1, 2], outcomes[:3])
                    cache.store(batch, outcomes)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cache = ResultCache(root)
        assert cache.load(batch) == outcomes
        # A finished document wins over any straggler ledger write.
        assert cache.store_chunk(batch, [0, 1], outcomes[:2]) is None

    def test_lock_files_live_beside_documents(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        batch = TrialBatch(spec=tally_spec(), trials=2, base_seed=1)
        lock = cache.lock_path(batch)
        assert lock.parent == cache.path_for(batch).parent
        assert lock.suffix == ".lock"


class TestServeConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(workers=0)
        with pytest.raises(ConfigurationError):
            JobManager(lambda cache: make_executor(1), job_workers=0)

    def test_remote_factory_when_endpoints_given(self, tmp_path):
        config = ServerConfig(worker_endpoints=("http://127.0.0.1:9",))
        executor = config.executor_factory(None)
        assert isinstance(executor, RemoteExecutor)
        executor.close()

    def test_client_wait_times_out(self, tmp_path):
        app = SweepServerApp(
            ServerConfig(cache_dir=str(tmp_path / "cache"))
        )
        thread = ServerThread(app.app)
        thread.start()
        client = ServiceClient(thread.url)
        receipt = client.submit(two_batch_plan(trials=2))
        with pytest.raises(ServiceUnreachable):
            client.wait(receipt.job_id, timeout=0.0, poll=0.01)
        client.wait(receipt.job_id, timeout=60)
        app.close()
        thread.stop()


class TestSubmitReportsQuarantine:
    """``repro submit`` names every quarantined chunk and exits 1, and
    the server refuses names its tables cannot build (exit 2)."""

    @pytest.fixture
    def server_url(self, tmp_path):
        app = SweepServerApp(
            ServerConfig(cache_dir=str(tmp_path / "cache"), retries=0)
        )
        thread = ServerThread(app.app)
        thread.start()
        yield thread.url
        app.close()
        thread.stop()

    def _submit(self, url, *flags):
        from repro.cli import main

        return main(["submit", "--server", url, "--timeout", "60", *flags])

    def test_every_trial_quarantined(self, server_url, capsys):
        code = self._submit(
            server_url, "--ns", "32", "--adversaries", "tally-attack",
            "--fault-model", "receive-omission", "--trials", "2",
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert "job failed" not in err
        assert err.startswith("error: synran/tally-attack/n32: trial(s) ")
        assert "(exception): BudgetExceededError" in err
        assert "synran/tally-attack/n32" in out

    def test_one_chunk_quarantined(
        self, server_url, capsys, tmp_path, monkeypatch
    ):
        plan_path = tmp_path / "plan.json"
        FaultPlan((Fault("raise", 0, times=5),)).dump(str(plan_path))
        monkeypatch.setenv(CHAOS_ENV, str(plan_path))
        code = self._submit(
            server_url, "--ns", "16", "--adversaries", "benign",
            "--trials", "8",
        )
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: synran/benign/n16: trial(s) 0")
        assert "quarantined after 1 attempt(s) (exception): ChaosError" in (
            lines[0]
        )

    def test_engine_without_factory_is_refused(self, server_url, capsys):
        code = self._submit(
            server_url, "--engine", "batch",
            "--adversaries", "random-partial",
        )
        _, err = capsys.readouterr()
        assert code == 2
        assert "submission rejected (400)" in err
        assert "it runs on: reference" in err
