"""Untrusted-fleet hardening: attestation, audit, breakers, journal.

The load-bearing gates from the issue:

* **Attestation**: a worker returning well-formed outcomes whose
  digest does not match is rejected on receipt, and a tampered cache
  document is a miss, not a hit.
* **Differential (Byzantine)**: a fleet containing one worker that
  *consistently* lies — wrong ``rounds``/verdict values, correctly
  digested — still produces results byte-identical to a fault-free
  serial run when auditing is on, and the liar is flagged.
* **Breakers**: a transiently-bad endpoint re-admits through the
  half-open probe instead of being quarantined forever.
* **Journal**: the job table survives SIGKILL — a restarted server
  re-admits journaled jobs, and their original ids answer again.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_REFERENCE,
    ExecutionPlan,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
)
from repro.harness.exec import trial as trial_module
from repro.harness.exec.trial import outcomes_digest
from repro.harness.resilience import (
    AuditPolicy,
    CircuitBreaker,
    Fault,
    FaultPlan,
    RetryPolicy,
    audit_fraction_value,
    corrupt_outcomes,
)
from repro.service import (
    JobJournal,
    JobManager,
    RemoteExecutor,
    ServerThread,
    ServiceClient,
    ServiceSaturated,
    WorkerApp,
)
from repro.service.smoke import wait_healthz

_REPO_ROOT = Path(__file__).resolve().parents[1]


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


def small_batch(trials=8, base_seed=5, label="byz"):
    return TrialBatch(
        spec=tally_spec(), trials=trials, base_seed=base_seed, label=label
    )


def serial_outcomes(batch):
    return SerialExecutor().run_outcomes(batch)


def start_worker(app):
    thread = ServerThread(app.app)
    thread.start()
    return thread


def liar_plan(trials):
    """A chaos plan that falsifies every trial on every attempt."""
    return FaultPlan(
        tuple(
            Fault("corrupt-outcomes", i, times=99) for i in range(trials)
        )
    )


# ----------------------------------------------------------------------
# attestation
# ----------------------------------------------------------------------


class TestAttestation:
    def test_digest_is_canonical_and_tamper_sensitive(self):
        outcomes = serial_outcomes(small_batch())
        digest = outcomes_digest(outcomes)
        # Order-insensitive: the digest sorts by trial index first.
        assert outcomes_digest(list(reversed(outcomes))) == digest
        # Any well-formed falsification changes it.
        lie = [dataclasses.replace(outcomes[0], rounds=outcomes[0].rounds + 1)]
        assert outcomes_digest(lie + outcomes[1:]) != digest
        assert outcomes_digest([]) != digest

    def test_tampered_cache_document_is_a_miss(self, tmp_path):
        batch = small_batch()
        cache = ResultCache(tmp_path / "cache")
        cache.store(batch, serial_outcomes(batch))
        assert cache.load(batch) is not None
        path = cache.path_for(batch)
        doc = json.loads(path.read_text())
        doc["outcomes"][0]["rounds"] += 1  # well-formed lie, stale digest
        path.write_text(json.dumps(doc))
        assert cache.load(batch) is None

    def test_v2_document_is_a_miss(self, tmp_path):
        # A schema-2 document carries no digest, so nothing attests its
        # outcomes: it must be recomputed, never served or upgraded.
        batch = small_batch()
        cache = ResultCache(tmp_path / "cache")
        cache.store(batch, serial_outcomes(batch))
        path = cache.path_for(batch)
        doc = json.loads(path.read_text())
        doc["schema"] = 2
        doc["salt"] = f"{repro.__version__}/schema2"
        del doc["digest"]
        path.write_text(json.dumps(doc))
        assert cache.load(batch) is None
        assert json.loads(path.read_text()) == doc

    def test_v3_document_is_a_miss(self, tmp_path):
        # A schema-3 document, as its writer laid it out (one sorted
        # json.dumps of the whole document), carries the same digest but
        # not the schema-4 layout: it is recomputed, never served or
        # upgraded in place.
        batch = small_batch()
        cache = ResultCache(tmp_path / "cache")
        cache.store(batch, serial_outcomes(batch))
        path = cache.path_for(batch)
        doc = json.loads(path.read_text())
        doc["schema"] = 3
        doc["salt"] = f"{repro.__version__}/schema3"
        text = json.dumps(doc, sort_keys=True)
        path.write_text(text)
        assert cache.load(batch) is None
        assert path.read_text() == text

    def test_wrong_receipt_digest_is_rejected(self, monkeypatch, tmp_path):
        # A worker whose attestation does not match its outcomes is
        # treated as a failed endpoint: never trusted, results
        # recomputed locally, byte-identical to serial.
        batch = small_batch()
        monkeypatch.setattr(
            "repro.service.worker.outcomes_digest", lambda outcomes: "0" * 64
        )
        worker = WorkerApp()
        thread = start_worker(worker)
        try:
            remote = RemoteExecutor(
                [thread.url],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, pool_failure_limit=1
                ),
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
        finally:
            thread.stop()
        assert outcomes == serial_outcomes(batch)
        summary = remote.worker_summary()
        assert summary[0]["quarantined"] is True
        assert summary[0]["chunks_completed"] == 0
        assert remote.reports[-1].degraded_to_serial

    def test_each_chunk_is_encoded_once_and_a_hit_never(self, monkeypatch, tmp_path):
        # Two workers, one 2-chunk batch: each worker encodes its
        # response's digest, the receipt encodes what it received and
        # hands that to the ledger, and the batch document is encoded
        # once.  Loading the stored batch encodes nothing.
        encoded = []
        original = trial_module.encode_outcomes

        def counting(outcomes):
            encoded.append(len(outcomes))
            return original(outcomes)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "encode_outcomes", None) is original:
                monkeypatch.setattr(module, "encode_outcomes", counting)
        batch = small_batch(trials=4)
        threads = [start_worker(WorkerApp()) for _ in range(2)]

        def run():
            with RemoteExecutor(
                [t.url for t in threads],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
            ) as remote:
                return remote.run_outcomes(batch), remote.cache_hits

        try:
            computed, hits = run()
            assert hits == 0
            assert sorted(encoded) == [2, 2, 2, 2, 4]
            cached, hits = run()
            assert hits == 1
            assert len(encoded) == 5
        finally:
            for t in threads:
                t.stop()
        assert computed == cached == serial_outcomes(batch)


# ----------------------------------------------------------------------
# audit re-execution
# ----------------------------------------------------------------------


class TestAuditSelection:
    def test_fraction_value_is_deterministic_and_monotone(self):
        value = audit_fraction_value("seed", "batchkey", 0)
        assert value == audit_fraction_value("seed", "batchkey", 0)
        assert 0.0 <= value < 1.0
        assert value != audit_fraction_value("seed", "batchkey", 8)
        policy = AuditPolicy(fraction=1.0, seed="s")
        assert policy.selects("k", [0, 1])
        assert not AuditPolicy().selects("k", [0, 1])
        assert not AuditPolicy(fraction=1.0).selects("k", [])
        # Raising the fraction only adds audited chunks.
        chosen = {
            first
            for first in range(0, 64, 8)
            if AuditPolicy(fraction=0.3, seed="s").selects("k", [first])
        }
        wider = {
            first
            for first in range(0, 64, 8)
            if AuditPolicy(fraction=0.8, seed="s").selects("k", [first])
        }
        assert chosen <= wider

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            AuditPolicy(fraction=1.5)
        with pytest.raises(ConfigurationError):
            RemoteExecutor(["http://x"], audit_fraction=-0.1)


class TestByzantineDifferential:
    def test_lying_worker_is_flagged_and_results_stay_exact(self, tmp_path):
        # A worker that falsifies every outcome *consistently* (the
        # digest attests the lie) passes receipt checks; the audit
        # catches it on its first completed chunk, purges everything
        # it ever produced, and the run ends byte-identical to serial.
        batch = small_batch(trials=8)
        expected = serial_outcomes(batch)
        liar = WorkerApp(fault_plan=liar_plan(batch.trials))
        thread = start_worker(liar)
        try:
            remote = RemoteExecutor(
                [thread.url],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
                audit_fraction=1.0,
                audit_seed="gate",
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
        finally:
            thread.stop()
        assert outcomes == expected
        report = remote.reports[-1]
        assert report.audit_mismatches >= 1
        assert report.byzantine_endpoints == [thread.url.rstrip("/")]
        summary = remote.worker_summary()
        assert summary[0]["byzantine"] is True
        assert summary[0]["state"] == CircuitBreaker.BYZANTINE
        # Nothing the liar produced survived into the cache.
        cache = ResultCache(tmp_path / "cache")
        assert [o.to_jsonable() for o in cache.load(batch)] == [
            o.to_jsonable() for o in expected
        ]

    def test_mixed_fleet_differential_gate(self, tmp_path):
        # The issue's gate: one honest worker plus one Byzantine
        # worker, full audit — the batch result is byte-identical to a
        # fault-free serial run, and the honest endpoint is never
        # flagged.
        batch = small_batch(trials=12, base_seed=11, label="gate")
        expected = serial_outcomes(batch)
        honest = WorkerApp()
        liar = WorkerApp(fault_plan=liar_plan(batch.trials))
        threads = [start_worker(honest), start_worker(liar)]
        try:
            remote = RemoteExecutor(
                [t.url for t in threads],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(max_attempts=6, backoff_base=0.0),
                audit_fraction=1.0,
                audit_seed="gate",
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
        finally:
            for t in threads:
                t.stop()
        assert [o.to_jsonable() for o in outcomes] == [
            o.to_jsonable() for o in expected
        ]
        summary = {e["url"]: e for e in remote.worker_summary()}
        honest_url = threads[0].url.rstrip("/")
        liar_url = threads[1].url.rstrip("/")
        assert summary[honest_url]["byzantine"] is False
        # Every chunk the liar completed was audited and caught; it is
        # flagged unless the honest worker raced it to every chunk.
        if summary[liar_url]["chunks_completed"] or summary[liar_url][
            "byzantine"
        ]:
            assert summary[liar_url]["byzantine"] is True
            assert liar_url in remote.resilience_summary()[
                "byzantine_endpoints"
            ]

    def test_audit_disabled_lets_the_lie_through(self, tmp_path):
        # The control for the gate above: without auditing, a
        # consistent lie is accepted — which is exactly why the audit
        # layer exists.
        batch = small_batch(trials=4)
        liar = WorkerApp(fault_plan=liar_plan(batch.trials))
        thread = start_worker(liar)
        try:
            remote = RemoteExecutor(
                [thread.url],
                chunk_size=2,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
        finally:
            thread.stop()
        truth = serial_outcomes(batch)
        assert [o.rounds for o in outcomes] == [o.rounds + 1 for o in truth]
        assert remote.reports[-1].audit_mismatches == 0

    def test_lie_never_reaches_the_ledger(self, monkeypatch, tmp_path):
        # The liar's first chunk is caught and settles with the local
        # truth and the truth's encoding; the rest run in-process and
        # are encoded from their own outcomes.  Each ledger document
        # and the batch document hold the bytes a serial run writes.
        batch = small_batch(trials=6)
        expected = serial_outcomes(batch)
        serial_cache = ResultCache(tmp_path / "serial")
        SerialExecutor(cache=serial_cache).run_outcomes(batch)
        chunk_cache = ResultCache(tmp_path / "chunks")
        ledger = []
        store_chunk = ResultCache.store_chunk

        def recording_store_chunk(cache, *args):
            path = store_chunk(cache, *args)
            if cache is not chunk_cache:
                ledger.append((list(args[1]), path.read_bytes()))
            return path

        monkeypatch.setattr(ResultCache, "store_chunk", recording_store_chunk)
        liar = WorkerApp(fault_plan=liar_plan(batch.trials))
        thread = start_worker(liar)
        try:
            remote = RemoteExecutor(
                [thread.url],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
                audit_fraction=1.0,
                audit_seed="ledger",
            )
            with remote:
                remote.run_outcomes(batch)
        finally:
            thread.stop()
        assert remote.reports[-1].audit_mismatches == 1
        assert sorted(indices for indices, _ in ledger) == [[0, 1], [2, 3], [4, 5]]
        for indices, stored in ledger:
            truth = [expected[i] for i in indices]
            assert stored == chunk_cache.store_chunk(batch, indices, truth).read_bytes()
        assert (
            remote.cache.path_for(batch).read_bytes()
            == serial_cache.path_for(batch).read_bytes()
        )

    def test_corrupt_outcomes_hook_negates_verdicts(self):
        batch = small_batch(trials=3)
        truth = serial_outcomes(batch)
        plan = FaultPlan((Fault("corrupt-outcomes", 1, times=2),))
        lied = corrupt_outcomes(truth, [0, 1, 2], 0, plan)
        assert lied[0] == truth[0] and lied[2] == truth[2]
        assert lied[1].rounds == truth[1].rounds + 1
        if truth[1].verdict is not None:
            assert (
                lied[1].verdict["agreement"]
                is not truth[1].verdict["agreement"]
            )
        # Past its times budget the fault stops firing.
        assert corrupt_outcomes(truth, [0, 1, 2], 2, plan) == truth


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def policy(self, limit=2):
        return RetryPolicy(
            max_attempts=8, backoff_base=0.0, pool_failure_limit=limit
        )

    def test_ladder_recovers_through_half_open(self):
        breaker = CircuitBreaker("http://w", self.policy())
        assert breaker.available and breaker.state == CircuitBreaker.CLOSED
        breaker.note_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.note_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.available
        assert breaker.cooldown >= 0.0
        assert breaker.begin_probe()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.available
        breaker.note_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert not breaker.permanent

    def test_ladder_exhausts_after_repeated_openings(self):
        breaker = CircuitBreaker("http://w", self.policy(limit=2))
        breaker.note_failure()
        breaker.note_failure()  # open #1
        assert breaker.begin_probe()
        breaker.note_failure()  # probe failed: open #2 == limit
        assert breaker.state == CircuitBreaker.EXHAUSTED
        assert breaker.permanent
        # Terminal states ignore further signals.
        breaker.note_success()
        assert breaker.state == CircuitBreaker.EXHAUSTED
        assert not breaker.begin_probe()

    def test_byzantine_is_terminal_from_any_state(self):
        breaker = CircuitBreaker("http://w", self.policy())
        breaker.mark_byzantine()
        assert breaker.state == CircuitBreaker.BYZANTINE
        assert breaker.permanent and not breaker.available
        breaker.note_success()
        assert breaker.state == CircuitBreaker.BYZANTINE

    def test_transient_endpoint_readmits_through_probe(self, tmp_path):
        # Integration: a single-chunk batch against a worker whose
        # first two attempts raise.  The breaker opens after the
        # second consecutive failure, the (zero-cooldown) probe
        # succeeds, and the endpoint ends the run re-closed — not
        # quarantined, as the pre-breaker executor would have left it.
        batch = small_batch(trials=2)
        flaky = WorkerApp(
            fault_plan=FaultPlan(
                (Fault("raise", 0, times=2), Fault("raise", 1, times=2))
            )
        )
        thread = start_worker(flaky)
        try:
            remote = RemoteExecutor(
                [thread.url],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(
                    max_attempts=6, backoff_base=0.0, pool_failure_limit=2
                ),
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
        finally:
            thread.stop()
        assert outcomes == serial_outcomes(batch)
        summary = remote.worker_summary()
        assert summary[0]["state"] == CircuitBreaker.CLOSED
        assert summary[0]["quarantined"] is False
        assert summary[0]["chunks_completed"] == 1
        report = remote.reports[-1]
        assert report.retries == 2
        assert not report.degraded_to_serial


# ----------------------------------------------------------------------
# job journal
# ----------------------------------------------------------------------


def two_cell_plan(trials=4, base_seed=7):
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


class TestJobJournal:
    def test_replay_folds_lifecycle_and_skips_torn_lines(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        assert journal.replay() == []
        journal.record_submit("k1", "id1", "first", {"wire": 1})
        journal.record_state("k1", "running")
        journal.record_batch("k1", 0, "b0")
        journal.record_batch("k1", 1, "b1")
        journal.record_state("k1", "done")
        journal.record_submit("k2", "id2", "second", {"wire": 1})
        journal.record_state("orphan-key", "done")  # submit line lost
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "state", "plan_')  # torn final append
        entries = journal.replay()
        assert [e["plan_key"] for e in entries] == ["k1", "k2"]
        assert entries[0]["state"] == "done"
        assert entries[0]["completed_batches"] == 2
        assert entries[0]["job_id"] == "id1"
        assert entries[1]["state"] == "queued"
        assert not entries[0]["evicted"]

    def test_eviction_round_trips_until_resubmitted(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.record_submit("k1", "id1", "", {"wire": 1})
        journal.record_state("k1", "done")
        journal.record_evict("k1", "id1")
        assert journal.replay()[0]["evicted"]
        # A later resubmission of the same plan clears the flag.
        journal.record_submit("k1", "id1", "", {"wire": 1})
        assert not journal.replay()[0]["evicted"]


class TestJournalRecovery:
    def make_manager(self, tmp_path, **kwargs):
        return JobManager(
            lambda cache, key: SerialExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
            journal=JobJournal(tmp_path / "journal.jsonl"),
            **kwargs,
        )

    def test_restart_readmits_finished_job_from_cache(self, tmp_path):
        plan = two_cell_plan()
        first = self.make_manager(tmp_path)
        job, _ = first.submit(plan, label="orig")
        assert job.wait(30)
        first.shutdown()

        second = self.make_manager(tmp_path)
        recovered = second.recover()
        assert [j.job_id for j in recovered] == [job.job_id]
        revived = second.get(job.job_id)
        assert revived is not None and revived.label == "orig"
        assert revived.wait(30)
        assert revived.state == "done"
        # Entirely settled from the shared cache — no recomputation.
        assert revived.cache_hits == 2 and revived.cache_misses == 0
        second.shutdown()

    def test_max_jobs_evicts_finished_then_saturates(self, tmp_path):
        import threading

        manager = self.make_manager(tmp_path, max_jobs=1)
        plan_a = two_cell_plan(base_seed=1)
        job_a, _ = manager.submit(plan_a)
        assert job_a.wait(30)

        # A finished job is evictable: admitting plan B drops A.
        job_b, _ = manager.submit(two_cell_plan(base_seed=2))
        assert job_b.wait(30)
        assert manager.get(job_a.job_id) is None
        assert manager.evicted_key(job_a.job_id) == job_a.key
        # The journal remembers the eviction across restarts.
        manager.shutdown()
        reborn = JobManager(
            lambda cache, key: SerialExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
            journal=JobJournal(tmp_path / "journal.jsonl"),
            max_jobs=1,
        )
        rerecovered = reborn.recover()
        assert reborn.evicted_key(job_a.job_id) == job_a.key
        assert len(rerecovered) == 1 and rerecovered[0].wait(30)
        # Resubmitting the evicted plan un-evicts it (evicting B).
        job_a2, coalesced = reborn.submit(plan_a)
        assert not coalesced
        assert reborn.evicted_key(job_a.job_id) is None
        assert job_a2.wait(30)
        assert job_a2.cache_hits == 2  # recomputed nothing
        reborn.shutdown()

        # With only live jobs in the table, admission fails (HTTP 429).
        gate = threading.Event()

        class GatedExecutor(SerialExecutor):
            def _execute(self, batch, report):
                gate.wait(10)
                return super()._execute(batch, report)

        saturated = JobManager(
            lambda cache, key: GatedExecutor(cache=cache),
            cache_root=str(tmp_path / "cache2"),
            max_jobs=1,
        )
        saturated.submit(two_cell_plan(base_seed=3))
        with pytest.raises(ServiceSaturated):
            saturated.submit(two_cell_plan(base_seed=4))
        gate.set()
        saturated.shutdown()


# ----------------------------------------------------------------------
# journal replay across a real SIGKILL
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs POSIX process groups"
)
class TestJournalSigkill:
    def spawn_server(self, cache_root, extra_env=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        if extra_env:
            env.update(extra_env)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", "2",
                "--cache-dir", str(cache_root),
                "--journal",
            ],
            cwd=str(_REPO_ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        deadline = time.monotonic() + 30.0
        url = None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if "serving on " in line:
                url = line.rsplit("serving on ", 1)[1].strip()
                break
        if url is None:
            self.kill(proc)
            pytest.fail("server never announced its URL")
        return proc, url

    @staticmethod
    def kill(proc):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def test_killed_server_serves_original_job_id_after_restart(
        self, tmp_path
    ):
        from repro.harness.resilience import CHAOS_ENV

        batch = TrialBatch(
            spec=tally_spec(), trials=12, base_seed=7, label="journal"
        )
        plan = ExecutionPlan(batches=(batch,))
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        expected = [o.to_jsonable() for o in serial_outcomes(batch)]

        # Server 1: journal on, chaos stalls the chunk holding the
        # last trial for 300s — the job checkpoints its other chunks
        # into the ledger and hangs, then dies by SIGKILL.
        chaos = FaultPlan((Fault("delay", 11, seconds=300, times=99),))
        chaos_path = chaos.dump(tmp_path / "plan.json")
        proc, url = self.spawn_server(
            cache_root, extra_env={CHAOS_ENV: str(chaos_path)}
        )
        try:
            wait_healthz(url)
            receipt = ServiceClient(url).submit(plan, label="first")
            deadline = time.monotonic() + 60.0
            while len(cache.partial_paths(batch)) < 2:
                if proc.poll() is not None:
                    pytest.fail("server died before checkpointing")
                if time.monotonic() > deadline:
                    pytest.fail("no chunk checkpoints appeared within 60s")
                time.sleep(0.05)
        finally:
            self.kill(proc)

        assert (cache_root / "journal.jsonl").exists()
        assert cache.load(batch) is None  # died mid-batch

        # Server 2: same cache root, --journal, *no resubmission* —
        # recovery re-admits the journaled job, its original id
        # answers, and only the missing chunks recompute.
        proc2, url2 = self.spawn_server(cache_root)
        try:
            wait_healthz(url2)
            client = ServiceClient(url2)
            final = client.wait(receipt.job_id, timeout=120.0)
            assert final["state"] == "done"
            assert final["label"] == "first"
            assert final["resilience"]["resumed_chunks"] >= 2
            assert [r["missing_trials"] for r in final["results"]] == [0]
            outcomes = client.outcomes(receipt.job_id)["batches"][0]
            assert outcomes["outcomes"] == expected
        finally:
            self.kill(proc2)

        assert [o.to_jsonable() for o in cache.load(batch)] == expected
