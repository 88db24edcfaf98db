"""Trial-throughput benchmark for the counts-level BatchFastEngine.

The batch engine's reason to exist is raw trial throughput, so this is
the repo's headline perf artifact: for each (adversary, n) cell it
times one ``BatchFastEngine.run`` call over a fixed trial count and
records trials/sec in ``BENCH_batch_engine.json``.

Run with::

    python benchmarks/bench_batch_engine.py           # full measurement
    python benchmarks/bench_batch_engine.py --smoke   # CI: seconds, tiny n

The adaptive cells (tally-attack, valency-keeper — the adversaries
whose per-round decisions read live tallies) run both population axes
(n in {100, 1000}) and carry the acceptance bar: at n=1000 each stays
within 5x of the benign cell's throughput (the adversary path must not
dominate the round step).  Smoke mode keeps the same document shape at
toy sizes so CI can assert the artifact stays well-formed without
paying for the measurement.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

from _emit import emit, ensure_import_path

ensure_import_path()

from repro.protocols import SynRanProtocol  # noqa: E402
from repro.sim.batch import (  # noqa: E402
    BatchBenign,
    BatchFastEngine,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)

#: adversary name -> factory taking t.  ``tally-attack`` and
#: ``valency-keeper`` are the *adaptive* cells: their decisions depend
#: on live tallies, so they stress the vectorized adversary path (the
#: benign/random cells only stress the round step itself).
_ADVERSARIES = {
    "benign": lambda t: BatchBenign(),
    "random": lambda t: BatchRandomCrash(t, rate=0.1),
    "tally-attack": lambda t: BatchTallyAttack(t),
    "valency-keeper": lambda t: BatchValencyKeeper(t),
}


def _measure_cell(name: str, n: int, trials: int) -> Dict[str, object]:
    engine = BatchFastEngine(
        SynRanProtocol(), _ADVERSARIES[name](n), n, strict_termination=False
    )
    inputs = [i % 2 for i in range(n)]
    seeds = list(range(trials))
    start = time.perf_counter()
    engine.run(inputs, seeds)
    seconds = time.perf_counter() - start
    return {
        "adversary": name,
        "n": n,
        "batch_trials": trials,
        "batch_seconds": round(seconds, 6),
        "batch_trials_per_sec": round(trials / seconds, 1),
    }


def _grid(smoke: bool) -> List[Tuple[str, int, int]]:
    """(adversary, n, trials) cells to measure."""
    if smoke:
        return [
            ("benign", 64, 200),
            ("tally-attack", 64, 100),
            ("valency-keeper", 64, 100),
        ]
    return [
        ("benign", 100, 10_000),
        ("benign", 1000, 10_000),  # the headline cell
        ("random", 1000, 10_000),
        ("tally-attack", 100, 10_000),
        ("tally-attack", 1000, 10_000),
        ("valency-keeper", 100, 10_000),
        ("valency-keeper", 1000, 10_000),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: same document shape, seconds of runtime",
    )
    args = parser.parse_args(argv)

    results = [
        _measure_cell(name, n, trials) for name, n, trials in _grid(args.smoke)
    ]
    path = emit(
        "batch_engine",
        config={
            "inputs": "alternating bits (i % 2)",
            "protocol": "synran",
            "t": "n (full resilience budget)",
            "batch_engine": "repro.sim.batch.BatchFastEngine",
            "headline_cell": {"adversary": "benign", "n": 1000},
        },
        results=results,
        smoke=args.smoke,
    )

    for row in results:
        print(
            f"{row['adversary']:>14} n={row['n']:<5} "
            f"batch {row['batch_trials_per_sec']:>10.1f}/s"
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
