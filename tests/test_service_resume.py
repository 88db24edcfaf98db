"""Cross-process ledger resume through the service path.

The service stores chunk checkpoints in the same on-disk ledger as
local runs, so a sweep server killed mid-batch (fail-stop, SIGKILL —
no cleanup handlers) must lose at most the in-flight chunks: a fresh
server pointed at the same cache directory, given the identical plan,
salvages the checkpointed chunks and recomputes only the missing
ones, ending with results byte-identical to an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.exec import (
    ENGINE_REFERENCE,
    ExecutionPlan,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
)
from repro.harness.resilience import CHAOS_ENV, Fault, FaultPlan
from repro.service.client import ServiceClient
from repro.service.smoke import wait_healthz

pytestmark = pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs POSIX process groups"
)

_REPO_ROOT = Path(__file__).resolve().parents[1]


def resume_batch():
    return TrialBatch(
        spec=TrialSpec(
            protocol="synran",
            adversary="tally-attack",
            n=16,
            t=16,
            inputs="worst",
            engine=ENGINE_REFERENCE,
        ),
        trials=12,
        base_seed=7,
        label="resume",
    )


def spawn_server(cache_root, extra_env=None):
    """Start ``repro serve`` on an ephemeral port; returns (proc, url)."""
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
        kill_server(proc)
        pytest.fail("server never announced its URL")
    return proc, url


def kill_server(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class TestServiceResume:
    def test_killed_job_resumes_from_the_ledger(self, tmp_path):
        batch = resume_batch()
        plan = ExecutionPlan(batches=(batch,))
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        expected = [
            o.to_jsonable() for o in SerialExecutor().run_outcomes(batch)
        ]

        # Server 1 runs under a chaos plan that stalls the chunk
        # containing the last trial for 300s, so the batch checkpoints
        # its other chunks and then hangs mid-flight.
        chaos = FaultPlan((Fault("delay", 11, seconds=300, times=99),))
        chaos_path = chaos.dump(tmp_path / "plan.json")
        proc, url = spawn_server(
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
            kill_server(proc)

        # Mid-batch state on disk: a ledger, no final document.
        assert cache.load(batch) is None
        salvaged, valid = cache.load_partial(batch)
        assert valid >= 2
        assert len(salvaged) < batch.trials

        # Server 2 (no chaos), same cache dir, identical plan: the job
        # is new to this server (dedup state died with the process)
        # but the ledger is not — only the missing chunks recompute.
        proc2, url2 = spawn_server(cache_root)
        try:
            wait_healthz(url2)
            client = ServiceClient(url2)
            second = client.submit(plan, label="second")
            assert second.job_id == receipt.job_id  # same plan key
            assert not second.coalesced  # fresh server, fresh job log
            final = client.wait(second.job_id, timeout=120.0)
            assert final["state"] == "done"
            assert final["resilience"]["resumed_chunks"] >= 2
            assert final["resilience"]["quarantined"] == 0
            assert [r["missing_trials"] for r in final["results"]] == [0]
            outcomes = client.outcomes(second.job_id)["batches"][0]
            assert outcomes["outcomes"] == expected
        finally:
            kill_server(proc2)

        # Completion compacted the ledger into the final document.
        assert not cache.partial_dir(batch).exists()
        assert [o.to_jsonable() for o in cache.load(batch)] == expected
