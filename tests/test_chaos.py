"""Chaos-injection integration gates for the fail-stop-tolerant
executor (:mod:`repro.harness.resilience.chaos`).

The headline invariance these tests pin down: a run with injected
faults — killed workers, raised chunk errors, delays past the stall
timeout, corrupted cache documents — completes and produces outcomes
byte-identical to a fault-free serial run, at more than one worker
count.  Faults are declared in a :class:`FaultPlan` JSON file and
activated via the ``REPRO_CHAOS`` environment variable, which pool
workers inherit."""

import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_REFERENCE,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
    run_spec_trial,
)
from repro.harness.exec.executor import ChunkScheduler, LocalLane
from repro.harness.resilience import (
    CHAOS_ENV,
    BatchReport,
    ChaosError,
    Fault,
    FaultPlan,
    RetryPolicy,
    apply_corruption,
    inject_chunk_faults,
)

@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    """Every test starts with no active fault plan."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)


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


def tally_batch(trials=12, base_seed=7):
    return TrialBatch(
        spec=tally_spec(), trials=trials, base_seed=base_seed, label="chaos"
    )


def baseline_outcomes(batch):
    """Ground truth, computed without any executor (or chaos hook)."""
    return [
        run_spec_trial(batch.spec, i, batch.base_seed)
        for i in range(batch.trials)
    ]


def jsonable(outcomes):
    return [o.to_jsonable() for o in outcomes]


def activate_plan(monkeypatch, tmp_path, plan):
    path = plan.dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(CHAOS_ENV, str(path))
    return path


# ----------------------------------------------------------------------
# FaultPlan declaration and serialisation
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ConfigurationError):
            Fault("explode", 0)
        with pytest.raises(ConfigurationError):
            Fault("kill", -1)
        with pytest.raises(ConfigurationError):
            Fault("kill", 0, times=0)
        with pytest.raises(ConfigurationError):
            Fault("delay", 0, seconds=-1.0)
        with pytest.raises(ConfigurationError):
            Fault("corrupt", 0, entry="nowhere")

    def test_fires_respects_indices_and_times(self):
        fault = Fault("raise", 4, times=2)
        assert fault.fires([3, 4, 5], 0)
        assert fault.fires([3, 4, 5], 1)
        assert not fault.fires([3, 4, 5], 2)
        assert not fault.fires([0, 1, 2], 0)

    def test_plan_partitions_fault_kinds(self):
        plan = FaultPlan(
            (
                Fault("kill", 4),
                Fault("corrupt", 0, entry="batch"),
            )
        )
        assert [f.kind for f in plan.chunk_faults([3, 4, 5], 0)] == ["kill"]
        assert [f.kind for f in plan.corruption_faults()] == ["corrupt"]
        assert plan.chunk_faults([0, 1, 2], 0) == ()

    def test_roundtrip_dump_load(self, tmp_path):
        plan = FaultPlan(
            (
                Fault("kill", 4),
                Fault("delay", 9, seconds=1.5, times=2),
                Fault("corrupt", 0, entry="partial"),
            )
        )
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan
        # The file is plain JSON, editable by hand.
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert len(doc["faults"]) == 3

    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env() is None

    def test_malformed_plan_fails_loudly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(bad)
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(empty)
        with pytest.raises(ConfigurationError):
            FaultPlan.load(tmp_path / "missing.json")


class TestInjectionHooks:
    def test_noop_without_plan(self):
        inject_chunk_faults([0, 1, 2], 0)  # must not raise

    def test_raise_fault(self):
        plan = FaultPlan((Fault("raise", 2),))
        with pytest.raises(ChaosError):
            inject_chunk_faults([1, 2, 3], 0, plan)
        inject_chunk_faults([1, 2, 3], 1, plan)  # spent
        inject_chunk_faults([4, 5, 6], 0, plan)  # other chunk

    def test_delay_fault_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "repro.harness.resilience.chaos.time.sleep", slept.append
        )
        plan = FaultPlan((Fault("delay", 2, seconds=0.25),))
        inject_chunk_faults([1, 2, 3], 0, plan)
        assert slept == [0.25]

    def test_apply_corruption_batch_entry(self, tmp_path):
        batch = tally_batch()
        cache = ResultCache(tmp_path / "cache")
        cache.store(batch, baseline_outcomes(batch))
        assert cache.load(batch) is not None
        plan = FaultPlan((Fault("corrupt", 0, entry="batch"),))
        assert apply_corruption(cache, batch, plan) == 1
        assert cache.load(batch) is None  # corrupt doc is a miss

    def test_apply_corruption_partial_entry(self, tmp_path):
        batch = tally_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], outcomes[0:3])
        cache.store_chunk(batch, [3, 4, 5], outcomes[3:6])
        plan = FaultPlan((Fault("corrupt", 4, entry="partial"),))
        assert apply_corruption(cache, batch, plan) == 1
        salvaged, valid = cache.load_partial(batch)
        assert valid == 1
        assert sorted(salvaged) == [0, 1, 2]

    def test_apply_corruption_without_cache_or_plan(self, tmp_path):
        batch = tally_batch()
        assert apply_corruption(None, batch, FaultPlan()) == 0
        cache = ResultCache(tmp_path / "cache")
        assert apply_corruption(cache, batch, None) == 0  # env unset


# ----------------------------------------------------------------------
# Individual fault paths through the parallel executor
# ----------------------------------------------------------------------


class TestFaultPaths:
    def test_killed_worker_breaks_and_rebuilds_pool(
        self, monkeypatch, tmp_path
    ):
        batch = tally_batch()
        expected = jsonable(baseline_outcomes(batch))
        activate_plan(monkeypatch, tmp_path, FaultPlan((Fault("kill", 4),)))
        with ParallelExecutor(
            2,
            chunk_size=3,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report
        assert jsonable(outcomes) == expected
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.quarantined == 0
        assert not report.degraded_to_serial

    def test_stalled_chunk_times_out_and_retries(self, monkeypatch, tmp_path):
        batch = tally_batch()
        expected = jsonable(baseline_outcomes(batch))
        activate_plan(
            monkeypatch,
            tmp_path,
            FaultPlan((Fault("delay", 9, seconds=1.5),)),
        )
        with ParallelExecutor(
            2,
            chunk_size=3,
            chunk_timeout=0.5,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report
        assert jsonable(outcomes) == expected
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.quarantined == 0

    def test_pool_broken_at_resubmission_is_absorbed(
        self, monkeypatch, tmp_path
    ):
        # A chunk's failure can be collected after another worker's
        # death has already broken the pool, so re-submitting it raises
        # BrokenProcessPool from submit itself.  That is a pool failure
        # like any other: rebuild the pool and carry on.
        batch = tally_batch()
        expected = jsonable(baseline_outcomes(batch))
        activate_plan(
            monkeypatch, tmp_path, FaultPlan((Fault("raise", 4, times=1),))
        )
        submit = concurrent.futures.ProcessPoolExecutor.submit
        broken_at = []

        def submit_breaking_on_first_retry(pool, fn, *args, **kwargs):
            spec, base_seed, indices, attempt = args
            if attempt > 0 and not broken_at:
                broken_at.append(list(indices))
                raise BrokenProcessPool("pool broke before the resubmit")
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor,
            "submit",
            submit_breaking_on_first_retry,
        )
        with ParallelExecutor(
            2,
            chunk_size=3,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report
        assert broken_at == [[3, 4, 5]]
        assert jsonable(outcomes) == expected
        assert report.pool_rebuilds >= 1
        assert report.quarantined == 0

    def test_backoff_running_out_during_a_checkpoint_still_retries(
        self, monkeypatch, tmp_path
    ):
        # The last outstanding chunk fails in the same wave another one
        # completes.  The completed chunk's checkpoint outlasts the
        # failed one's backoff, so the retry falls due while the
        # scheduler is writing and nothing is in flight: it must still
        # be woken for and run.
        batch = tally_batch()
        expected = jsonable(baseline_outcomes(batch))
        activate_plan(
            monkeypatch, tmp_path, FaultPlan((Fault("raise", 10, times=1),))
        )
        store_chunk = ResultCache.store_chunk

        def slow_store_chunk(cache, *args):
            time.sleep(0.2)
            return store_chunk(cache, *args)

        monkeypatch.setattr(ResultCache, "store_chunk", slow_store_chunk)

        class WaveLane(LocalLane):
            """Two chunks at once, both settled by the time the
            scheduler waits, so they come back in one wave."""

            capacity = 2
            inline = False

        ex = SerialExecutor(
            cache=ResultCache(tmp_path / "cache"),
            retry=RetryPolicy(backoff_base=0.1),  # 50-100 ms
        )
        report = BatchReport(
            label=batch.label, batch_key=batch.batch_key(), trials=batch.trials
        )
        chunks = [list(range(0, 6)), list(range(6, 12))]
        outcomes = ChunkScheduler(ex, batch, report, chunks).run([WaveLane()])
        outcomes.sort(key=lambda o: o.trial_index)
        assert jsonable(outcomes) == expected
        assert report.retries == 1
        assert report.quarantined == 0

    def test_repeated_pool_breaks_degrade_to_serial(
        self, monkeypatch, tmp_path
    ):
        batch = tally_batch()
        expected = jsonable(baseline_outcomes(batch))
        # Every chunk kills its worker for two attempts, so no chunk
        # can complete (and reset the consecutive-failure counter)
        # before pool_failure_limit is hit and the executor abandons
        # the pool.  By then each chunk's retry ordinal has passed
        # ``times``, so the in-process re-runs execute clean.
        activate_plan(
            monkeypatch,
            tmp_path,
            FaultPlan(
                tuple(Fault("kill", trial, times=2) for trial in (1, 4, 7, 10))
            ),
        )
        with ParallelExecutor(
            2,
            chunk_size=3,
            retry=RetryPolicy(
                max_attempts=8, backoff_base=0.01, pool_failure_limit=2
            ),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report
        assert jsonable(outcomes) == expected
        assert report.degraded_to_serial
        assert report.pool_rebuilds >= 2
        assert report.quarantined == 0


# ----------------------------------------------------------------------
# The headline equivalence gate
# ----------------------------------------------------------------------


class TestChaosEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_faulted_run_byte_identical_to_clean_serial(
        self, monkeypatch, tmp_path, workers
    ):
        """Kill + raise + timeout + corrupted cache doc, zero lost trials."""
        batch = tally_batch()
        cache = ResultCache(tmp_path / "cache")
        # Fault-free serial baseline; also warms the cache so the
        # corrupt fault has a real document to destroy.
        with SerialExecutor(cache=cache) as serial:
            expected = jsonable(serial.run_outcomes(batch))
        assert cache.load(batch) is not None

        # delay needs times=2: the kill-induced pool break charges an
        # attempt to every in-flight chunk, including the delayed one.
        plan = FaultPlan(
            (
                Fault("kill", 4),
                Fault("raise", 7),
                Fault("delay", 9, seconds=1.5, times=2),
                Fault("corrupt", 0, entry="batch"),
            )
        )
        activate_plan(monkeypatch, tmp_path, plan)
        with ParallelExecutor(
            workers,
            cache=cache,
            chunk_size=3,
            chunk_timeout=0.5,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report

        # The corrupted document read as a miss, not a hit.
        assert ex.cache_hits == 0 and ex.cache_misses == 1
        # Every trial accounted for, byte-identical to the clean run.
        assert len(outcomes) == batch.trials
        assert jsonable(outcomes) == expected
        assert json.dumps(jsonable(outcomes), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        # The faults actually bit: retries happened, nothing was lost.
        assert report.retries > 0
        assert report.pool_rebuilds >= 1
        assert report.quarantined == 0
        summary = ex.resilience_summary()
        assert summary["retries"] == report.retries
        # The recomputed batch was re-stored; a fresh run now hits.
        assert jsonable(cache.load(batch)) == expected


# ----------------------------------------------------------------------
# Interrupt / resume at chunk granularity
# ----------------------------------------------------------------------

_RESUME_DRIVER = """
import sys
from repro.harness.exec import (
    ENGINE_REFERENCE, ParallelExecutor, ResultCache, TrialBatch, TrialSpec,
)

spec = TrialSpec(
    protocol="synran", adversary="tally-attack", n=16, t=16,
    inputs="worst", engine=ENGINE_REFERENCE,
)
batch = TrialBatch(spec=spec, trials=12, base_seed=7, label="chaos")
with ParallelExecutor(2, cache=ResultCache(sys.argv[1]), chunk_size=3) as ex:
    ex.run_outcomes(batch)
"""


class TestInterruptResume:
    def test_killed_run_resumes_from_chunk_ledger(self, tmp_path):
        batch = tally_batch()
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        expected = jsonable(baseline_outcomes(batch))

        # A delay fault stalls the last chunk indefinitely while the
        # first chunks complete and checkpoint; then the whole process
        # tree is SIGKILLed mid-batch — a fail-stop harness crash.
        plan = FaultPlan((Fault("delay", 11, seconds=300, times=99),))
        env = dict(os.environ)
        env[CHAOS_ENV] = str(plan.dump(tmp_path / "plan.json"))
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _RESUME_DRIVER, str(cache_root)],
            cwd=str(Path(__file__).resolve().parents[1]),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(cache.partial_paths(batch)) < 2:
                if proc.poll() is not None:
                    out, err = proc.communicate()
                    pytest.fail(
                        "driver exited before checkpointing: "
                        f"{err.decode(errors='replace')}"
                    )
                if time.monotonic() > deadline:
                    pytest.fail("no chunk checkpoints appeared within 60s")
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

        # Mid-batch state: a ledger, but no final batch document.
        assert cache.load(batch) is None
        salvaged, valid = cache.load_partial(batch)
        assert valid >= 2
        assert len(salvaged) < batch.trials

        # A clean re-run recomputes only the missing chunks.
        with ParallelExecutor(2, cache=cache, chunk_size=3) as ex:
            outcomes = ex.run_outcomes(batch)
        report = ex.last_report
        assert report.resumed_chunks >= 2
        assert report.quarantined == 0
        assert jsonable(outcomes) == expected
        # Completion compacted the ledger into the final document.
        assert not cache.partial_dir(batch).exists()
        assert jsonable(cache.load(batch)) == expected
