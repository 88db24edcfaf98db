"""Trial-throughput benchmark for the vectorized engines.

The vectorized engines' reason to exist is raw trial throughput, so
this is the repo's headline perf artifact: for each (adversary, n)
cell it times one engine ``run`` call over a fixed trial count and
records trials/sec in ``BENCH_batch_engine.json``.  Every cell is the
median of round-robin samples (:func:`_emit.median_seconds`), so a
stretch of host load lands on a few samples of each cell rather than
on one cell.

Run with::

    python benchmarks/bench_batch_engine.py           # full measurement
    python benchmarks/bench_batch_engine.py --smoke   # CI: seconds, tiny n

The counts cells run on ``BatchFastEngine`` on alternating inputs.
The adaptive ones (tally-attack, valency-keeper — the adversaries
whose per-round decisions read live tallies) run both population axes
(n in {100, 1000}) and carry the acceptance bar: at n=1000 each stays
within 5x of the benign cell's throughput (the adversary path must not
dominate the round step).  The ``partition`` cells run the mask path
on ``Batch2DEngine``: one 128-trial chunk of synran x partition at
t = n on the worst-case split, the chunk ``sweep-2d`` runs, at
n in {256, 1024, 4096}.  Smoke mode keeps the same document shape at
toy sizes (one partition cell included) so CI can assert the artifact
stays well-formed without paying for the measurement.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Tuple

from _emit import SAMPLE_SECONDS, SAMPLES, emit, ensure_import_path, median_seconds

ensure_import_path()

from repro.harness.workloads import worst_case_split  # noqa: E402
from repro.protocols import SynRanProtocol  # noqa: E402
from repro.sim.batch import (  # noqa: E402
    BatchBenign,
    BatchFastEngine,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)
from repro.sim.batch2d import Batch2DEngine, Batch2DPartition  # noqa: E402


def _alternating(n: int) -> List[int]:
    return [i % 2 for i in range(n)]


#: adversary name -> (engine, factory taking t, inputs taking n).
#: ``tally-attack`` and ``valency-keeper`` are the *adaptive* cells:
#: their decisions depend on live tallies, so they stress the
#: vectorized adversary path (the benign/random cells only stress the
#: round step itself).  ``partition`` is the mask path.
_ADVERSARIES = {
    "benign": (BatchFastEngine, lambda t: BatchBenign(), _alternating),
    "random": (
        BatchFastEngine,
        lambda t: BatchRandomCrash(t, rate=0.1),
        _alternating,
    ),
    "tally-attack": (BatchFastEngine, BatchTallyAttack, _alternating),
    "valency-keeper": (BatchFastEngine, BatchValencyKeeper, _alternating),
    "partition": (Batch2DEngine, Batch2DPartition, worst_case_split),
}


def _cell(name: str, n: int, trials: int):
    """A thunk running one ``(name, n)`` batch of ``trials`` trials."""
    engine_class, adversary, inputs = _ADVERSARIES[name]
    engine = engine_class(
        SynRanProtocol(), adversary(n), n, strict_termination=False
    )
    bits = inputs(n)
    seeds = list(range(trials))
    return lambda: engine.run(bits, seeds)


def _grid(smoke: bool) -> List[Tuple[str, int, int]]:
    """(adversary, n, trials) cells to measure."""
    if smoke:
        return [
            ("benign", 64, 200),
            ("tally-attack", 64, 100),
            ("valency-keeper", 64, 100),
            ("partition", 64, 128),
        ]
    return [
        ("benign", 100, 10_000),
        ("benign", 1000, 10_000),  # the headline cell
        ("random", 1000, 10_000),
        ("tally-attack", 100, 10_000),
        ("tally-attack", 1000, 10_000),
        ("valency-keeper", 100, 10_000),
        ("valency-keeper", 1000, 10_000),
        ("partition", 256, 128),
        ("partition", 1024, 128),
        ("partition", 4096, 128),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: same document shape, seconds of runtime",
    )
    args = parser.parse_args(argv)

    grid = _grid(args.smoke)
    samples = 1 if args.smoke else SAMPLES
    timed, _ = median_seconds(
        [(f"{name}/n={n}", _cell(name, n, trials)) for name, n, trials in grid],
        samples=samples,
    )
    results: List[Dict[str, object]] = [
        {
            "adversary": name,
            "n": n,
            "engine": _ADVERSARIES[name][0].__name__,
            "batch_trials": trials,
            "batch_seconds": row["seconds"],
            "batch_trials_per_sec": round(trials / row["seconds"], 1),
        }
        for (name, n, trials), row in zip(grid, timed)
    ]
    path = emit(
        "batch_engine",
        config={
            "inputs": (
                "alternating bits (i % 2); partition cells: the "
                "worst-case split (repro.harness.workloads.worst_case_split)"
            ),
            "protocol": "synran",
            "t": "n (full resilience budget)",
            "engines": {
                "partition": "repro.sim.batch2d.Batch2DEngine",
                "other cells": "repro.sim.batch.BatchFastEngine",
            },
            "headline_cell": {"adversary": "benign", "n": 1000},
            "seconds": (
                f"median of {samples} round-robin samples of "
                f">= {SAMPLE_SECONDS} s each"
            ),
        },
        results=results,
        smoke=args.smoke,
    )

    for row in results:
        print(
            f"{row['adversary']:>14} n={row['n']:<5} "
            f"{row['engine']:>15} {row['batch_trials_per_sec']:>10.1f}/s"
        )
    print(f"wrote {path}")

    if not args.smoke:
        headline = next(
            r for r in results if r["adversary"] == "benign" and r["n"] == 1000
        )
        failed = False
        for row in results:
            if (
                row["adversary"] in ("tally-attack", "valency-keeper")
                and row["n"] == 1000
                and row["batch_trials_per_sec"]
                < headline["batch_trials_per_sec"] / 5
            ):
                print(
                    f"WARNING: {row['adversary']} n=1000 batch throughput "
                    f"{row['batch_trials_per_sec']}/s is more than 5x below "
                    f"the benign cell ({headline['batch_trials_per_sec']}/s)"
                )
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
