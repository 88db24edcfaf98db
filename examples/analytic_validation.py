#!/usr/bin/env python
"""Analytic vs simulated: the benign-case Markov chain.

Without failures, SynRan's population moves as one and its expected
decision round has a closed form (repro.analysis.markov).  This script
tabulates the exact values against Monte-Carlo means from BOTH engines
across input splits — the library's strongest self-consistency check,
and the formal face of "O(1) expected rounds without an adversary".

Usage::

    python examples/analytic_validation.py [n]
"""

import sys

from repro.adversary import BenignAdversary
from repro.analysis.markov import band_of, expected_decision_round
from repro.harness.runner import run_fast_trials, run_reference_trials
from repro.protocols import SynRanProtocol
from repro.sim.batch import BatchBenign


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    proto = SynRanProtocol()
    trials = 400

    print(
        f"n = {n}, benign adversary, {trials} trials per split"
    )
    print(
        f"{'ones':>5}  {'band':>8}  {'analytic':>9}  "
        f"{'reference':>10}  {'batch':>7}"
    )
    for ones in sorted({0, n // 4, int(0.45 * n), int(0.55 * n),
                        int(0.65 * n), int(0.8 * n), n}):
        inputs = [1] * ones + [0] * (n - ones)
        analytic = expected_decision_round(proto, inputs)
        ref = run_reference_trials(
            SynRanProtocol,
            BenignAdversary,
            n,
            lambda rng, inputs=inputs: inputs,
            trials=trials,
            base_seed=1,
        ).rounds_summary().mean
        batch = run_fast_trials(
            SynRanProtocol,
            BatchBenign,
            n,
            lambda rng, inputs=inputs: inputs,
            trials=trials,
            base_seed=1,
        ).rounds_summary().mean
        print(
            f"{ones:>5}  {band_of(proto, n, ones):>8}  "
            f"{analytic:>9.3f}  {ref:>10.3f}  {batch:>7.3f}"
        )
    print()
    print(
        "decide-band splits take exactly 1 round (0-indexed: decide\n"
        "at 0, STOP at 1); propose-band 2; coin-band splits solve the\n"
        "E = 1 + qE + (1-q)m recursion. Both engines track the exact\n"
        "values to Monte-Carlo accuracy."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
