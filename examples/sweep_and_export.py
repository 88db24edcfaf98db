#!/usr/bin/env python
"""Run a protocol/adversary grid sweep and export CSV + JSON.

Demonstrates the general-purpose sweep API (as opposed to the
hand-shaped paper experiments): a grid over protocols, adversaries,
and system sizes, serialised for whatever plotting stack you use.

Usage::

    python examples/sweep_and_export.py [outdir]
"""

import sys
from pathlib import Path

from repro.harness.export import sweep_to_csv, sweep_to_json, write_text
from repro.harness.sweep import Sweep, run_sweep


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "sweep_results"
    )
    sweep = Sweep(
        protocols=("synran", "floodset"),
        adversaries=("benign", "random-partial", "tally-attack"),
        ns=(16, 32, 64),
        t_of=lambda n: n // 2,
        trials=4,
        base_seed=42,
    )
    results = run_sweep(sweep)

    csv_path = write_text(outdir / "sweep.csv", sweep_to_csv(results))
    json_path = write_text(outdir / "sweep.json", sweep_to_json(results))

    print(f"{len(results)} cells swept")
    print(f"wrote {csv_path} and {json_path}")
    print()
    header = (
        f"{'protocol':>9} {'adversary':>13} {'n':>4} {'t':>4} "
        f"{'rounds':>8} {'crashes':>8} {'viol':>5}"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        print(
            f"{r.protocol:>9} {r.adversary:>13} {r.n:>4} {r.t:>4} "
            f"{r.mean_rounds:>8.1f} {r.mean_crashes:>8.1f} "
            f"{r.violations:>5}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
