#!/usr/bin/env python
"""Who wins at which t: SynRan vs FloodSet vs Ben-Or (§1.1, §4).

Sweeps the crash budget t at fixed n and reports the expected decision
round of each protocol under its worst implemented adversary:

* ``floodset`` — the deterministic protocol: always exactly t+1
  rounds, unbeatable for tiny t and hopeless for t = Θ(n);
* ``benor`` — classic two-phase Ben-Or: fast only while t = O(√n)
  against a full-information adversary (beyond that the quorum attack
  stalls it past any horizon, so it simply cannot play);
* ``synran`` — the paper's protocol: Θ(t/√(n log(2+t/√n))) for every
  t up to n.

Usage::

    python examples/protocol_comparison.py [n]
"""

import math
import sys

from repro.adversary import (
    BenOrQuorumAdversary,
    RandomCrashAdversary,
    TallyAttackAdversary,
)
from repro.analysis.bounds import expected_rounds_theta
from repro.harness.runner import run_reference_trials
from repro.harness.workloads import worst_case_split
from repro.protocols import BenOrProtocol, FloodSetProtocol, SynRanProtocol


def mean_rounds(proto_factory, adv_factory, n, trials=4):
    stats = run_reference_trials(
        proto_factory,
        adv_factory,
        n,
        lambda rng: worst_case_split(n),
        trials=trials,
        base_seed=13,
        max_rounds=8 * n + 64,
    )
    return stats.rounds_summary().mean, stats.timeouts


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    sqrt_n = math.isqrt(n)
    ts = sorted({2, sqrt_n, n // 4, n // 2 - 1, n - 1})

    print(f"n = {n}; cells are mean decision rounds (worst adversary)")
    header = (
        f"{'t':>5}  {'floodset':>9}  {'benor':>9}  {'synran':>9}  "
        f"{'thm3 shape':>10}"
    )
    print(header)
    print("-" * len(header))
    for t in ts:
        flood, _ = mean_rounds(
            lambda t=t: FloodSetProtocol.for_resilience(t),
            lambda t=t: RandomCrashAdversary(t, rate=0.1),
            n,
        )
        if t <= sqrt_n:
            benor, timeouts = mean_rounds(
                lambda t=t: BenOrProtocol(t=t),
                lambda t=t: BenOrQuorumAdversary(t, decide_threshold=t + 1),
                n,
            )
            benor_cell = f"{benor:>9.1f}"
        else:
            benor_cell = f"{'stalls':>9}"  # cannot play past O(sqrt n)
        synran, _ = mean_rounds(
            lambda: SynRanProtocol(),
            lambda t=t: TallyAttackAdversary(t),
            n,
        )
        print(
            f"{t:>5}  {flood:>9.1f}  {benor_cell}  {synran:>9.1f}  "
            f"{expected_rounds_theta(n, t):>10.2f}"
        )
    print()
    print(
        "Ben-Or exits the race at t ~ sqrt(n). FloodSet costs exactly\n"
        "t+1 rounds, so at this small n it still edges out attacked\n"
        "SynRan at t = n-1; the paper's asymptotic win (sqrt(n/log n)\n"
        "vs n rounds) needs larger n — compare the batch-engine numbers\n"
        "of examples/adversarial_stall.py: at n = 4096 SynRan under\n"
        "full-budget attack decides in ~170 rounds where FloodSet\n"
        "would need 4096."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
