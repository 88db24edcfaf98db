"""Executor-core benchmark: serial vs process-pool vs warm cache.

Not an experiment table — this measures the execution substrate
itself on a fixed batch-engine grid (the E5-style synran/tally-attack
cells) and asserts the core contracts end to end: parallel execution
returns byte-identical outcomes, and a warm cache answers without
re-running a single trial.

Two entry points:

* ``pytest benchmarks/bench_exec.py --benchmark-only`` — contract
  checks under the pytest-benchmark timer.
* ``python benchmarks/bench_exec.py [--smoke]`` — measures the same
  substrate and writes the machine-readable ``BENCH_exec.json``
  artifact (``make bench``).
"""

import argparse
import tempfile

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


def _plan(sizes=(128, 256, 512), trials: int = 8):
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
                base_seed=101,
                label=f"bench-exec/n={n}",
            )
            for n in sizes
        )
    )


def test_serial_executor(benchmark):
    results = benchmark.pedantic(
        lambda: SerialExecutor().run_plan(_plan()), rounds=1, iterations=1
    )
    assert len(results) == 3


def test_parallel_executor_matches_serial(benchmark):
    plan = _plan()

    def run():
        with ParallelExecutor(2) as executor:
            return [executor.run_outcomes(b) for b in plan]

    parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = [SerialExecutor().run_outcomes(b) for b in plan]
    assert parallel == serial


def test_warm_cache_skips_execution(benchmark, tmp_path):
    plan = _plan()
    SerialExecutor(cache=ResultCache(tmp_path)).run_plan(plan)

    def resume():
        executor = SerialExecutor(cache=ResultCache(tmp_path))
        executor.run_plan(plan)
        return executor

    warm = benchmark.pedantic(resume, rounds=1, iterations=1)
    assert warm.cache_hits == len(plan)
    assert warm.cache_misses == 0


# ----------------------------------------------------------------------
# BENCH_exec.json emission (``python benchmarks/bench_exec.py``)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure the execution substrate; write BENCH_exec.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: same document shape, seconds of runtime",
    )
    args = parser.parse_args(argv)

    sizes = (64, 128) if args.smoke else (128, 256, 512)
    trials = 4 if args.smoke else 8
    plan = _plan(sizes, trials)
    samples = 1 if args.smoke else SAMPLES

    def run_parallel():
        with ParallelExecutor(2) as executor:
            return [executor.run_outcomes(b) for b in plan]

    with tempfile.TemporaryDirectory() as tmp:
        SerialExecutor(cache=ResultCache(tmp)).run_plan(plan)

        def resume():
            executor = SerialExecutor(cache=ResultCache(tmp))
            executor.run_plan(plan)
            return executor

        results, values = median_seconds(
            [
                ("serial-batch", lambda: SerialExecutor().run_plan(plan)),
                ("parallel-2-batch", run_parallel),
                ("warm-cache-batch", resume),
            ],
            samples=samples,
        )
    serial = values["serial-batch"]
    parallel = values["parallel-2-batch"]
    warm = values["warm-cache-batch"]

    # The contracts the pytest entry point asserts, re-checked here so
    # a bad measurement can't silently produce a plausible artifact.
    assert parallel == [SerialExecutor().run_outcomes(b) for b in plan]
    assert warm.cache_hits == len(plan) and warm.cache_misses == 0
    assert len(serial) == len(plan)

    path = emit(
        "exec",
        config={
            "grid": "synran/tally-attack, worst-case split inputs",
            "sizes": list(sizes),
            "trials_per_cell": trials,
            "cells": len(plan),
            "seconds": (
                f"median of {samples} round-robin samples of "
                f">= {SAMPLE_SECONDS} s each"
            ),
        },
        results=results,
        smoke=args.smoke,
    )
    for row in results:
        print(f"{row['case']:>16}: {row['seconds']:.3f}s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
