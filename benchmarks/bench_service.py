"""Service-tier benchmark: submit latency, dedup hits, remote throughput.

Measures the :mod:`repro.service` stack end to end, in process (real
sockets on ephemeral ports, no subprocess noise):

* ``submit-complete`` — POST a plan to the sweep server and wait for
  the job to settle (the full service round trip, cold cache: each
  sample's plan has a base seed of its own).
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
* ``result-store`` / ``result-load`` — the result cache (layer 4) on
  one synran x benign batch at n = 1024 with 768 trials, the service
  workload's benign cell: written to a fresh :class:`ResultCache` as
  two chunk documents plus the batch document, and loaded back as a
  hit.

Every cell is the median of round-robin samples
(:func:`_emit.median_seconds`): single runs of these sub-second cells
vary by more than ``compare.py``'s 30% tolerance from one run to the
next.

Two entry points:

* ``pytest benchmarks/bench_service.py --benchmark-only`` — contract
  checks under the pytest-benchmark timer.
* ``python benchmarks/bench_service.py [--smoke]`` — writes the
  machine-readable ``BENCH_service.json`` artifact (``make bench``).
"""

import argparse
import itertools
import tempfile
from pathlib import Path

from _emit import SAMPLE_SECONDS, SAMPLES, emit, ensure_import_path, median_seconds

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


def _plan(sizes=(128, 256), trials: int = 8, base_seed: int = 303):
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
                base_seed=base_seed,
                label=f"bench-service/n={n}",
            )
            for n in sizes
        )
    )


def _result_batch(n: int = 1024, trials: int = 768):
    return TrialBatch(
        spec=TrialSpec(
            protocol="synran",
            adversary="benign",
            n=n,
            t=n,
            inputs="worst",
            engine=ENGINE_BATCH,
        ),
        trials=trials,
        base_seed=303,
        label=f"bench-service/result/n={n}",
    )


def _result_cases(root: Path, batch, outcomes):
    """The ``result-store`` and ``result-load`` cases over ``root``."""
    half = batch.trials // 2
    chunks = [list(range(half)), list(range(half, batch.trials))]
    fresh = itertools.count()

    def store():
        cache = ResultCache(root / f"store-{next(fresh)}")
        for indices in chunks:
            cache.store_chunk(batch, indices, outcomes[indices[0] : indices[-1] + 1])
        return cache.store(batch, outcomes)

    loaded = ResultCache(root / "load")
    loaded.store(batch, outcomes)
    return [("result-store", store), ("result-load", lambda: loaded.load(batch))]


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
    result_batch = _result_batch(64, 16) if args.smoke else _result_batch()
    samples = 1 if args.smoke else SAMPLES

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        cache_dir = f"{tmp}/server-cache"
        app = SweepServerApp(ServerConfig(cache_dir=cache_dir))
        thread = ServerThread(app.app)
        thread.start()
        client = ServiceClient(thread.url)
        first = client.submit(plan, label="bench")
        final = client.wait(first.job_id, timeout=600)
        urls, stop = _worker_fleet(2)
        fresh_seeds = itertools.count(plan.batches[0].base_seed + 1)

        def submit_complete():
            # A new base seed each call: a plan nothing has cached or
            # is computing, so every sample is a cold round trip.
            receipt = client.submit(_plan(sizes, trials, next(fresh_seeds)), label="bench")
            return client.wait(receipt.job_id, timeout=600)

        def run_remote():
            with RemoteExecutor(urls) as executor:
                return [executor.run_outcomes(b) for b in plan]

        def run_audited():
            # Same fleet, every chunk re-executed locally and checked
            # against the worker's attestation digest: the gap to
            # remote-2-workers is the worst-case price of trusting
            # nobody (audit_fraction=1.0; production fleets sample).
            with RemoteExecutor(
                urls, audit_fraction=1.0, audit_seed="bench"
            ) as executor:
                return [executor.run_outcomes(b) for b in plan]

        def run_parallel():
            with ParallelExecutor(2) as executor:
                return [executor.run_outcomes(b) for b in plan]

        def warm_restart():
            # A fresh server over the first server's cache dir: the
            # recomputation is absorbed by the shared result cache
            # even though the job log died with the process.
            app2 = SweepServerApp(ServerConfig(cache_dir=cache_dir))
            thread2 = ServerThread(app2.app)
            thread2.start()
            client2 = ServiceClient(thread2.url)
            receipt = client2.submit(plan)
            final2 = client2.wait(receipt.job_id, timeout=600)
            app2.close()
            thread2.stop()
            return final2

        result_outcomes = SerialExecutor().run_outcomes(result_batch)
        try:
            results, values = median_seconds(
                [
                    ("submit-complete", submit_complete),
                    ("dedup-hit", lambda: client.submit(plan)),
                    ("remote-2-workers", run_remote),
                    ("remote-2-workers-audited", run_audited),
                    ("parallel-2", run_parallel),
                    ("restart-cache-hit", warm_restart),
                    *_result_cases(Path(tmp), result_batch, result_outcomes),
                ],
                samples=samples,
            )
        finally:
            stop()
            app.close()
            thread.stop()

    # Contract checks, so a bad measurement can't produce a plausible
    # artifact: dedup coalesced, remote == parallel byte-for-byte, and
    # the restarted server answered entirely from the cache.
    again, restarted = values["dedup-hit"], values["restart-cache-hit"]
    assert final["state"] == "done"
    assert values["submit-complete"]["state"] == "done"
    assert again.coalesced and again.job_id == first.job_id
    assert values["remote-2-workers"] == values["parallel-2"]
    # A full audit changes nothing but time.
    assert values["remote-2-workers-audited"] == values["remote-2-workers"]
    assert restarted["state"] == "done"
    assert restarted["cache"] == {"hits": len(plan), "misses": 0}
    assert values["result-store"] is not None
    assert values["result-load"] == result_outcomes

    path = emit(
        "service",
        config={
            "grid": "synran/tally-attack, worst-case split inputs",
            "sizes": list(sizes),
            "trials_per_cell": trials,
            "cells": len(plan),
            "workers": 2,
            "result_cell": (
                f"synran/benign, n={result_batch.spec.n}, "
                f"{result_batch.trials} trials, two chunk documents"
            ),
            "seconds": (
                f"median of {samples} round-robin samples of "
                f">= {SAMPLE_SECONDS} s each"
            ),
        },
        results=results,
        smoke=args.smoke,
    )
    for row in results:
        print(f"{row['case']:>24}: {row['seconds']:.4f}s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
