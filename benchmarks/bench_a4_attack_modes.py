"""A4 (DESIGN.md ✦): decomposing the tally attack.

Claim: split mode is nearly free but short-lived (the one-side bias
kills it at the first below-window coin landing); bleed mode carries the
stall, and the combined attack is level with bleed alone (within the
two rows' ci95 half-widths) and at least as strong as split alone.
"""

from conftest import run_experiment

from repro.harness.ablations import ablation_a4_attack_modes


def test_a4_attack_modes(benchmark):
    table = run_experiment(benchmark, ablation_a4_attack_modes)
    rows = {row[0]: row for row in table.rows}
    benign = rows["none (benign)"][1]
    split = rows["split-only"][1]
    bleed, bleed_ci = rows["bleed-only"][1:3]
    combined, combined_ci = rows["combined"][1:3]
    assert split < 4 * benign, "split alone should die quickly"
    assert bleed > 10 * benign, "bleed should carry the stall"
    assert abs(combined - bleed) <= combined_ci + bleed_ci, (
        "combined should be level with bleed-only"
    )
    assert combined >= split - 1e-9
