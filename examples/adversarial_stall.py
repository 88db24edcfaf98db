#!/usr/bin/env python
"""Scaling study: how long can the adversary stall SynRan?

Reproduces the headline Θ(t/√(n log(2+t/√n))) shape at laptop scale
using the counts-level batch engine: for each n, run SynRan at full budget
(t = n) under the tally attack and compare the measured expected
decision round against the paper's Theorem-1 and Theorem-2 shapes.

Usage::

    python examples/adversarial_stall.py [--trials K] [--full]
"""

import argparse

from repro._math import lower_bound_rounds
from repro.analysis.bounds import upper_bound_rounds_thm2
from repro.analysis.stats import summarize
from repro.harness.runner import run_fast_trials
from repro.harness.workloads import worst_case_split
from repro.protocols import SynRanProtocol
from repro.sim.batch import BatchTallyAttack


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument(
        "--full", action="store_true", help="include n = 16384"
    )
    args = parser.parse_args()

    ns = [256, 1024, 4096]
    if args.full:
        ns.append(16384)

    print(
        f"{'n':>6}  {'t':>6}  {'mean rounds':>12}  {'ci95':>7}  "
        f"{'thm1 shape':>10}  {'thm2 shape':>10}"
    )
    for n in ns:
        t = n
        stats = run_fast_trials(
            SynRanProtocol,
            lambda t=t: BatchTallyAttack(t),
            n,
            lambda rng, n=n: worst_case_split(n),
            trials=args.trials,
            base_seed=7,
        )
        summary = summarize([float(r) for r in stats.decision_rounds])
        print(
            f"{n:>6}  {t:>6}  {summary.mean:>12.1f}  "
            f"{summary.ci95_half_width:>7.2f}  "
            f"{lower_bound_rounds(n, t):>10.2f}  "
            f"{upper_bound_rounds_thm2(n, t):>10.2f}"
        )
    print()
    print(
        "The measured stall sits between the two theoretical shapes\n"
        "(constants are implementation-specific; see EXPERIMENTS.md\n"
        "for the discussion of the stability-bleed regime at small n)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
