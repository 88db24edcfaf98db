"""End-to-end service smoke: server + worker + two submissions.

``python -m repro.service.smoke`` (or ``make serve-smoke``) boots a
real worker process and a real server process on ephemeral ports,
submits a small sweep twice, and checks the whole contract:

1. the first submission runs to completion through the
   :class:`~repro.service.remote.RemoteExecutor` path and reports
   per-batch results;
2. the second, identical submission **coalesces** — the server answers
   with the same job id, already settled, without recomputing;
3. the SSE event stream for the job terminates with the settled state;
4. both processes shut down cleanly.

It runs in the CI ``scheduler-smoke`` job and exercises subprocess
boundaries the in-process tests can't: stdout port discovery, real
sockets, and signal-based teardown.

``--byzantine`` (also in the CI ``scheduler-smoke`` job; ``make
byzantine-smoke``) runs the untrusted-fleet variant instead: one
honest worker plus one worker whose chaos plan falsifies every
outcome it computes (well-formed, correctly-digested lies), behind a
server with ``--audit-fraction 1.0``.  The gate is differential — the
job must settle with results byte-identical to a fault-free in-process
serial run, which proves the audit layer caught and recomputed every
lie the Byzantine worker told (see docs/robustness.md).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.harness.exec import (
    ENGINE_BATCH,
    ExecutionPlan,
    TrialBatch,
    TrialSpec,
)
from repro.service.client import ServiceClient
from repro.service.netio import ServiceUnreachable, request_json

__all__ = ["main", "smoke_plan", "spawn_service", "wait_healthz"]

_URL_LINE = re.compile(r"serving on (http://\S+)")


def smoke_plan(trials: int = 24) -> ExecutionPlan:
    """A small two-batch sweep that finishes in seconds."""
    return ExecutionPlan(
        batches=(
            TrialBatch(
                spec=TrialSpec(
                    protocol="synran",
                    adversary="tally-attack",
                    n=16,
                    t=16,
                    inputs="worst",
                    engine=ENGINE_BATCH,
                ),
                trials=trials,
                base_seed=11,
                label="smoke-n16",
            ),
            TrialBatch(
                spec=TrialSpec(
                    protocol="synran",
                    adversary="tally-attack",
                    n=32,
                    t=32,
                    inputs="worst",
                    engine=ENGINE_BATCH,
                ),
                trials=trials,
                base_seed=11,
                label="smoke-n32",
            ),
        )
    )


def spawn_service(
    args: Sequence[str], wait: float = 30.0
) -> "tuple[subprocess.Popen, str]":
    """Start ``python -m repro <args>`` and read its serving URL."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + wait
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _URL_LINE.search(line)
        if match:
            return proc, match.group(1)
    proc.terminate()
    raise ServiceUnreachable(
        f"repro {args[0]} never announced its URL within {wait:.0f}s"
    )


def wait_healthz(url: str, wait: float = 30.0) -> None:
    """Poll ``/healthz`` until the process answers (or give up)."""
    deadline = time.monotonic() + wait
    while time.monotonic() < deadline:
        try:
            status, doc = request_json(url, "GET", "/healthz", timeout=5.0)
        except ServiceUnreachable:
            time.sleep(0.1)
            continue
        if status == 200 and isinstance(doc, dict) and doc.get("ok"):
            return
        time.sleep(0.1)
    raise ServiceUnreachable(f"{url}/healthz never turned healthy")


def _teardown(procs: List[subprocess.Popen]) -> bool:
    """Terminate every process; True if all exited without SIGKILL."""
    clean = True
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            clean = False
    return clean


def _run_byzantine(trials: int, tmp: str) -> int:
    """The untrusted-fleet smoke: one liar, full audit, exact results."""
    from repro.harness.exec import SerialExecutor
    from repro.harness.resilience import Fault, FaultPlan

    chaos = FaultPlan(
        tuple(Fault("corrupt-outcomes", i, times=99) for i in range(trials))
    )
    chaos_path = chaos.dump(f"{tmp}/byzantine-plan.json")

    procs: List[subprocess.Popen] = []
    try:
        honest, honest_url = spawn_service(
            ["worker", "--host", "127.0.0.1", "--port", "0"]
        )
        procs.append(honest)
        liar, liar_url = spawn_service(
            [
                "worker", "--host", "127.0.0.1", "--port", "0",
                "--chaos", str(chaos_path),
            ]
        )
        procs.append(liar)
        for url in (honest_url, liar_url):
            wait_healthz(url)
        print(f"honest worker at {honest_url}, byzantine at {liar_url}")

        server, server_url = spawn_service(
            [
                "serve", "--host", "127.0.0.1", "--port", "0",
                "--worker-endpoint", honest_url,
                "--worker-endpoint", liar_url,
                "--cache-dir", f"{tmp}/cache",
                "--audit-fraction", "1.0",
            ]
        )
        procs.append(server)
        wait_healthz(server_url)
        print(f"server up at {server_url} (audit fraction 1.0)")

        client = ServiceClient(server_url)
        plan = smoke_plan(trials)
        receipt = client.submit(plan, label="byzantine-smoke")
        status = client.wait(receipt.job_id, timeout=120.0)
        if status["state"] != "done":
            raise ReproError(f"smoke job failed: {status.get('error')!r}")
        if any(r["missing_trials"] != 0 for r in status["results"]):
            raise ReproError(f"lost trials: {status['results']!r}")

        # The differential gate: byte-identical to fault-free serial.
        served = client.outcomes(receipt.job_id)["batches"]
        with SerialExecutor() as serial:
            expected = [
                [o.to_jsonable() for o in serial.run_outcomes(batch)]
                for batch in plan
            ]
        if [b["outcomes"] for b in served] != expected:
            raise ReproError(
                "served outcomes differ from a fault-free serial run — "
                "a Byzantine lie got through"
            )
        resilience = status.get("resilience", {})
        if resilience.get("audited_chunks", 0) < 1:
            raise ReproError(f"no chunks were audited: {resilience!r}")
        flagged = resilience.get("byzantine_endpoints", [])
        if any(url != liar_url for url in flagged):
            raise ReproError(
                f"honest endpoint flagged byzantine: {flagged!r}"
            )
        mismatches = resilience.get("audit_mismatches", 0)
        print(
            f"results byte-identical to serial; {mismatches} lie(s) "
            f"caught, flagged: {flagged or 'none (liar never won a chunk)'}"
        )
    except Exception as exc:
        _teardown(procs)
        print(f"SMOKE FAIL: {exc}", file=sys.stderr)
        return 1
    if not _teardown(procs):
        print("SMOKE FAIL: a process needed SIGKILL", file=sys.stderr)
        return 1
    print("SMOKE PASS: byzantine worker contained, results exact")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke", description=__doc__
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=24,
        help="trials per batch of the smoke sweep (default: 24)",
    )
    parser.add_argument(
        "--byzantine",
        action="store_true",
        help=(
            "run the untrusted-fleet smoke instead: one lying worker, "
            "full audit, results must match fault-free serial exactly"
        ),
    )
    opts = parser.parse_args(argv)
    if opts.byzantine:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
            return _run_byzantine(opts.trials, tmp)

    procs: List[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        try:
            worker, worker_url = spawn_service(
                ["worker", "--host", "127.0.0.1", "--port", "0"]
            )
            procs.append(worker)
            wait_healthz(worker_url)
            print(f"worker up at {worker_url}")

            server, server_url = spawn_service(
                [
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--worker-endpoint",
                    worker_url,
                    "--cache-dir",
                    f"{tmp}/cache",
                ]
            )
            procs.append(server)
            wait_healthz(server_url)
            print(f"server up at {server_url}")

            client = ServiceClient(server_url)
            plan = smoke_plan(opts.trials)

            first = client.submit(plan, label="smoke")
            if first.coalesced:
                raise ReproError("first submission reported coalesced=True")
            status = client.wait(first.job_id, timeout=120.0)
            if status["state"] != "done":
                raise ReproError(
                    f"smoke job failed: {status.get('error')!r}"
                )
            results = status["results"]
            if len(results) != 2 or any(
                r["missing_trials"] != 0 for r in results
            ):
                raise ReproError(f"incomplete results: {results!r}")
            print(
                f"first submission done: job {first.job_id}, "
                f"{status['progress']['completed_trials']} trials"
            )

            second = client.submit(plan, label="smoke-again")
            if not second.coalesced:
                raise ReproError(
                    "identical resubmission did not coalesce "
                    f"(got job {second.job_id}, expected {first.job_id})"
                )
            if second.job_id != first.job_id:
                raise ReproError(
                    f"coalesced onto a different job: {second.job_id} "
                    f"!= {first.job_id}"
                )
            if second.state != "done":
                raise ReproError(
                    f"coalesced job not already settled: {second.state}"
                )
            events = list(client.events(first.job_id))
            if not events or events[-1]["state"] != "done":
                raise ReproError(f"event stream never settled: {events!r}")
            print("second submission coalesced onto the finished job")
        except Exception as exc:
            _teardown(procs)
            print(f"SMOKE FAIL: {exc}", file=sys.stderr)
            return 1
        if not _teardown(procs):
            print("SMOKE FAIL: a process needed SIGKILL", file=sys.stderr)
            return 1
    print("SMOKE PASS: dedup, results, events, and teardown all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
