"""Ablation experiments for the design choices DESIGN.md flags (✦).

Each function isolates one design decision of the paper's protocol (or
of our attack adversary) and measures what changes when it is removed
or varied:

* **A1 — the one-side-biased coin** (``Z == 0 => b = 1``): speed *and*
  safety consequences of deleting the clause.
* **A2 — the deterministic-stage trigger**: SynRan's survivor-count
  trigger vs. no hand-off at all vs. the [GP90]-style round-number
  trigger.
* **A3 — the STOP stability fraction** (paper: 1/10): how the bleed
  attack's stall scales with the fraction, and where the Lemma-4.2
  safety margin (``decide_hi - propose_hi``) sits.
* **A4 — attack-mode decomposition**: split mode alone, bleed mode
  alone, and both, quantifying which mode buys the stall.

Like the experiment suite, every ablation describes its trials as
:class:`~repro.harness.exec.spec.TrialSpec` batches and accepts an
optional ``executor`` for parallel/cached execution.  Run from the
benchmark suite (``bench_a*.py``) or directly::

    python -c "from repro.harness.ablations import *; ..."
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    Executor,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
    spec_params,
)
from repro.harness.report import Table
from repro.harness.runner import TrialStats

__all__ = [
    "ablation_a1_one_side_bias",
    "ablation_a2_det_handoff",
    "ablation_a3_stop_rule",
    "ablation_a4_attack_modes",
    "ALL_ABLATIONS",
]


def _check_scale(scale: str) -> None:
    if scale not in ("quick", "full"):
        raise ConfigurationError(
            f"scale must be 'quick' or 'full', got {scale!r}"
        )


def _run(
    spec: TrialSpec,
    *,
    trials: int,
    base_seed: int,
    executor: Optional[Executor] = None,
    label: str = "",
) -> TrialStats:
    batch = TrialBatch(
        spec=spec, trials=trials, base_seed=base_seed, label=label
    )
    return (executor or SerialExecutor()).run_batch(batch)


# ----------------------------------------------------------------------
# A1 — one-side bias
# ----------------------------------------------------------------------


def ablation_a1_one_side_bias(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Delete ``Z == 0 => b = 1`` and measure speed and safety."""
    _check_scale(scale)
    n = 48 if scale == "quick" else 96
    trials = 6 if scale == "quick" else 20
    kill = math.floor(0.65 * n)
    table = Table(
        title=(
            f"A1: one-side-biased coin ablation at n={n} "
            "(synran vs symmetric-ran)"
        ),
        columns=[
            "variant", "scenario", "mean rounds", "violations",
            "decided value",
        ],
    )
    scenarios = [
        (
            "tally-attack, t=n, split inputs",
            "tally-attack",
            n,
            "worst",
            (),
        ),
        (
            "mass-crash, unanimous-1",
            "static-mass-crash",
            kill,
            "unanimous1",
            (),
        ),
    ]
    for variant in ("synran", "symmetric-ran"):
        for label, adv_name, t, inputs, adv_params in scenarios:
            stats = _run(
                TrialSpec(
                    protocol=variant,
                    adversary=adv_name,
                    n=n,
                    t=t,
                    inputs=inputs,
                    adversary_params=adv_params,
                    max_rounds=8 * n + 64,
                ),
                trials=trials,
                base_seed=601,
                executor=executor,
                label=f"A1/{variant}/{adv_name}",
            )
            decisions = {d for d in stats.decisions if d is not None}
            table.add_row(
                variant,
                label,
                stats.rounds_summary().mean,
                stats.violation_count(),
                "/".join(map(str, sorted(decisions))) or "-",
            )
    table.add_note(
        "expected: identical stall under the tally attack, but the "
        "symmetric variant decides 0 from unanimous-1 inputs under the "
        "mass crash (Validity violations), while synran decides 1."
    )
    return table


# ----------------------------------------------------------------------
# A2 — deterministic-stage trigger
# ----------------------------------------------------------------------


def ablation_a2_det_handoff(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Survivor-count trigger vs none vs [GP90] round-number trigger."""
    _check_scale(scale)
    n = 48 if scale == "quick" else 96
    t = n - 1
    trials = 6 if scale == "quick" else 20
    table = Table(
        title=(
            f"A2: deterministic-stage trigger at n={n}, t={t} "
            "(survivor-count vs none vs GP round-number)"
        ),
        columns=["variant", "adversary", "mean rounds", "timeouts",
                 "violations"],
    )
    variants = [
        ("synran (survivor-count)", "synran", ()),
        ("synran-nodet (no hand-off)", "synran-nodet", ()),
        (
            "gp-hybrid (round-number)",
            "gp-hybrid",
            spec_params(random_rounds=4),
        ),
    ]
    adversaries = [
        ("benign", "benign", ()),
        (
            "burst",
            "random-partial",
            spec_params(rate=0.0, burst_probability=1.0),
        ),
    ]
    for vname, proto_name, proto_params in variants:
        for aname, adv_name, adv_params in adversaries:
            stats = _run(
                TrialSpec(
                    protocol=proto_name,
                    adversary=adv_name,
                    n=n,
                    t=t,
                    inputs="worst",
                    protocol_params=proto_params,
                    adversary_params=adv_params,
                    max_rounds=8 * n + 64,
                ),
                trials=trials,
                base_seed=607,
                executor=executor,
                label=f"A2/{proto_name}/{aname}",
            )
            table.add_row(
                vname,
                aname,
                stats.rounds_summary().mean,
                stats.timeouts,
                stats.violation_count(),
            )
    table.add_note(
        "expected: benign runs cost ~3 rounds for the survivor-count "
        "trigger and no-hand-off variants but R + t + 1 for the GP "
        "trigger (its tail is provisioned for the worst case whether "
        "or not failures happen) — the paper's reason for keying the "
        "hand-off on the survivor count."
    )
    return table


# ----------------------------------------------------------------------
# A3 — STOP stability fraction
# ----------------------------------------------------------------------


def ablation_a3_stop_rule(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Sweep the STOP fraction; stall length and the safety margin."""
    _check_scale(scale)
    n = 512 if scale == "quick" else 2048
    trials = 5 if scale == "quick" else 15
    fractions = [0.02, 0.05, 0.1, 0.2]
    table = Table(
        title=(
            f"A3: STOP stability fraction sweep at n={n}, t=n "
            "(bleed attack matched to each fraction)"
        ),
        columns=[
            "stop_fraction", "within Lemma-4.2 margin", "mean rounds",
            "crashes used",
        ],
    )
    for fraction in fractions:
        stats = _run(
            TrialSpec(
                protocol="synran",
                adversary="tally-attack",
                n=n,
                t=n,
                inputs="worst",
                protocol_params=spec_params(stop_fraction=fraction),
                adversary_params=spec_params(stop_fraction=fraction),
                engine=ENGINE_BATCH,
            ),
            trials=trials,
            base_seed=613,
            executor=executor,
            label=f"A3/f={fraction}",
        )
        table.add_row(
            fraction,
            fraction <= 0.1 + 1e-9,
            stats.rounds_summary().mean,
            sum(stats.crashes) / len(stats.crashes),
        )
    table.add_note(
        "smaller fractions make STOP stricter, so the bleed adversary "
        "needs fewer crashes per window and stalls longer; the paper's "
        "1/10 is the largest value keeping Lemma 4.2's arithmetic "
        "(stop_fraction <= decide_hi - propose_hi) intact."
    )
    return table


# ----------------------------------------------------------------------
# A4 — attack-mode decomposition
# ----------------------------------------------------------------------


def ablation_a4_attack_modes(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Split-only vs bleed-only vs combined tally attack."""
    _check_scale(scale)
    n = 1024 if scale == "quick" else 4096
    trials = 5 if scale == "quick" else 15
    table = Table(
        title=f"A4: tally-attack mode decomposition at n={n}, t=n",
        columns=["mode", "mean rounds", "ci95", "crashes used"],
    )
    modes = [
        ("split-only", "tally-split-only"),
        ("bleed-only", "tally-bleed-only"),
        ("combined", "tally-attack"),
        ("none (benign)", "benign"),
    ]
    for label, adv_name in modes:
        stats = _run(
            TrialSpec(
                protocol="synran",
                adversary=adv_name,
                n=n,
                t=n,
                inputs="worst",
                engine=ENGINE_BATCH,
            ),
            trials=trials,
            base_seed=617,
            executor=executor,
            label=f"A4/{label}",
        )
        summary = stats.rounds_summary()
        table.add_row(
            label,
            summary.mean,
            summary.ci95_half_width,
            sum(stats.crashes) / len(stats.crashes),
        )
    table.add_note(
        "split mode alone is nearly free but ends at the first "
        "below-window coin landing (the one-side bias at work); bleed "
        "mode carries the stall, and combined is level with bleed-only "
        "within the two rows' ci95 half-widths."
    )
    return table


ALL_ABLATIONS: Dict[str, Callable[..., Table]] = {
    "A1": ablation_a1_one_side_bias,
    "A2": ablation_a2_det_handoff,
    "A3": ablation_a3_stop_rule,
    "A4": ablation_a4_attack_modes,
}
