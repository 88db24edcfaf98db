"""Service-tier benchmark: submit latency, dedup hits, remote throughput.

Measures the :mod:`repro.service` stack end to end, in process (real
sockets on ephemeral ports, no subprocess noise):

* ``submit-complete`` — POST a plan to the sweep server and wait for
  the job to settle (the full service round trip, cold cache).
* ``dedup-hit`` — resubmit the identical plan; served from the
  finished job without recomputation, so this is pure service
  overhead.
* ``remote-2-workers`` vs ``parallel-2`` — the same plan through a
  two-worker :class:`RemoteExecutor` fleet and through the local
  two-process :class:`ParallelExecutor`; the gap is the HTTP + JSON
  shipping cost of remoting a chunk.
* ``remote-2-workers-audited`` — the same fleet with
  ``audit_fraction=1.0`` (every chunk re-executed locally and checked
  against the worker's attestation digest): the worst-case overhead
  of trusting nobody.

Two entry points:

* ``pytest benchmarks/bench_service.py --benchmark-only`` — contract
  checks under the pytest-benchmark timer.
* ``python benchmarks/bench_service.py [--smoke]`` — writes the
  machine-readable ``BENCH_service.json`` artifact (``make bench``).
"""

import argparse
import tempfile
import time

from _emit import emit, ensure_import_path

ensure_import_path()

from repro.harness.exec import (  # noqa: E402
    ENGINE_BATCH,
    ExecutionPlan,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
)
from repro.service import (  # noqa: E402
    RemoteExecutor,
    ServerConfig,
    ServerThread,
    ServiceClient,
    SweepServerApp,
    WorkerApp,
)


def _plan(sizes=(128, 256), trials: int = 8):
    return ExecutionPlan(
        batches=tuple(
            TrialBatch(
                spec=TrialSpec(
                    protocol="synran",
                    adversary="tally-attack",
                    n=n,
                    t=n,
                    inputs="worst",
                    engine=ENGINE_BATCH,
                ),
                trials=trials,
                base_seed=303,
                label=f"bench-service/n={n}",
            )
            for n in sizes
        )
    )


def _worker_fleet(count=2):
    """Spin up ``count`` in-process workers; returns (urls, stopper)."""
    apps = [WorkerApp() for _ in range(count)]
    threads = [ServerThread(app.app) for app in apps]
    for thread in threads:
        thread.start()

    def stop():
        for thread in threads:
            thread.stop()

    return [thread.url for thread in threads], stop


# ----------------------------------------------------------------------
# pytest-benchmark contract checks
# ----------------------------------------------------------------------


def test_submit_and_dedup(benchmark, tmp_path):
    app = SweepServerApp(ServerConfig(cache_dir=str(tmp_path / "cache")))
    thread = ServerThread(app.app)
    thread.start()
    client = ServiceClient(thread.url)
    plan = _plan(sizes=(64,), trials=4)

    def round_trip():
        receipt = client.submit(plan)
        return receipt, client.wait(receipt.job_id, timeout=120)

    (first, final) = benchmark.pedantic(round_trip, rounds=1, iterations=1)
    assert final["state"] == "done"
    again = client.submit(plan)
    assert again.coalesced and again.job_id == first.job_id
    app.close()
    thread.stop()


def test_remote_matches_parallel(benchmark):
    urls, stop = _worker_fleet(2)
    plan = _plan(sizes=(64,), trials=4)

    def run_remote():
        with RemoteExecutor(urls) as executor:
            return [executor.run_outcomes(b) for b in plan]

    remote = benchmark.pedantic(run_remote, rounds=1, iterations=1)
    stop()
    assert remote == [SerialExecutor().run_outcomes(b) for b in plan]


# ----------------------------------------------------------------------
# BENCH_service.json emission (``python benchmarks/bench_service.py``)
# ----------------------------------------------------------------------


def _timed(label, thunk):
    start = time.perf_counter()
    value = thunk()
    seconds = time.perf_counter() - start
    return {"case": label, "seconds": round(seconds, 6)}, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure the service tier; write BENCH_service.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: same document shape, seconds of runtime",
    )
    args = parser.parse_args(argv)

    sizes = (64, 128) if args.smoke else (128, 256)
    trials = 4 if args.smoke else 8
    plan = _plan(sizes, trials)
    results = []

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        app = SweepServerApp(ServerConfig(cache_dir=f"{tmp}/server-cache"))
        thread = ServerThread(app.app)
        thread.start()
        client = ServiceClient(thread.url)

        def submit_complete():
            receipt = client.submit(plan, label="bench")
            return receipt, client.wait(receipt.job_id, timeout=600)

        row, (first, final) = _timed("submit-complete", submit_complete)
        results.append(row)

        row, again = _timed("dedup-hit", lambda: client.submit(plan))
        results.append(row)

        app.close()
        thread.stop()

        urls, stop = _worker_fleet(2)

        def run_remote():
            with RemoteExecutor(urls) as executor:
                return [executor.run_outcomes(b) for b in plan]

        row, remote = _timed("remote-2-workers", run_remote)
        results.append(row)

        def run_audited():
            # Same fleet, every chunk re-executed locally and checked
            # against the worker's attestation digest: the gap to
            # remote-2-workers is the worst-case price of trusting
            # nobody (audit_fraction=1.0; production fleets sample).
            with RemoteExecutor(
                urls, audit_fraction=1.0, audit_seed="bench"
            ) as executor:
                return [executor.run_outcomes(b) for b in plan]

        row, audited = _timed("remote-2-workers-audited", run_audited)
        results.append(row)
        stop()

        def run_parallel():
            with ParallelExecutor(2) as executor:
                return [executor.run_outcomes(b) for b in plan]

        row, parallel = _timed("parallel-2", run_parallel)
        results.append(row)

        def warm_restart():
            # A fresh server over the first server's cache dir: the
            # recomputation is absorbed by the shared result cache
            # even though the job log died with the process.
            app2 = SweepServerApp(
                ServerConfig(cache_dir=f"{tmp}/server-cache")
            )
            thread2 = ServerThread(app2.app)
            thread2.start()
            client2 = ServiceClient(thread2.url)
            receipt = client2.submit(plan)
            final2 = client2.wait(receipt.job_id, timeout=600)
            app2.close()
            thread2.stop()
            return final2

        row, restarted = _timed("restart-cache-hit", warm_restart)
        results.append(row)

    # Contract checks, so a bad measurement can't produce a plausible
    # artifact: dedup coalesced, remote == parallel byte-for-byte, and
    # the restarted server answered entirely from the cache.
    assert final["state"] == "done"
    assert again.coalesced and again.job_id == first.job_id
    assert remote == parallel
    assert audited == remote  # full audit changes nothing but time
    assert restarted["state"] == "done"
    assert restarted["cache"] == {"hits": len(plan), "misses": 0}

    path = emit(
        "service",
        config={
            "grid": "synran/tally-attack, worst-case split inputs",
            "sizes": list(sizes),
            "trials_per_cell": trials,
            "cells": len(plan),
            "workers": 2,
        },
        results=results,
        smoke=args.smoke,
    )
    for row in results:
        print(f"{row['case']:>18}: {row['seconds']:.3f}s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
