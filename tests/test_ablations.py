"""Structure and claim tests for the ablation suite (A1..A4)."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.ablations import (
    ALL_ABLATIONS,
    ablation_a1_one_side_bias,
    ablation_a2_det_handoff,
    ablation_a4_attack_modes,
)


class TestRegistry:
    def test_all_registered(self):
        assert sorted(ALL_ABLATIONS) == ["A1", "A2", "A3", "A4"]

    def test_scale_validated(self):
        for fn in ALL_ABLATIONS.values():
            with pytest.raises(ConfigurationError):
                fn("medium")


class TestA1:
    def test_validity_break_is_one_sided(self):
        table = ablation_a1_one_side_bias("quick")
        rows = {(r[0], r[1]): r for r in table.rows}
        mass = "mass-crash, unanimous-1"
        attack = "tally-attack, t=n, split inputs"
        # Only the ablated variant under the mass crash violates.
        assert rows[("synran", mass)][3] == 0
        assert rows[("symmetric-ran", mass)][3] > 0
        assert rows[("synran", attack)][3] == 0
        assert rows[("symmetric-ran", attack)][3] == 0

    def test_decided_values(self):
        table = ablation_a1_one_side_bias("quick")
        rows = {(r[0], r[1]): r for r in table.rows}
        mass = "mass-crash, unanimous-1"
        assert rows[("synran", mass)][4] == "1"
        assert rows[("symmetric-ran", mass)][4] == "0"


class TestA2:
    def test_gp_pays_its_tail_in_benign_runs(self):
        table = ablation_a2_det_handoff("quick")
        rows = {(r[0], r[1]): r for r in table.rows}
        synran = rows[("synran (survivor-count)", "benign")][2]
        gp = rows[("gp-hybrid (round-number)", "benign")][2]
        assert gp > 4 * synran

    def test_everyone_is_correct(self):
        table = ablation_a2_det_handoff("quick")
        assert all(r[4] == 0 for r in table.rows)
        assert all(r[3] == 0 for r in table.rows)  # no timeouts


class TestA4:
    def test_mode_ordering(self):
        table = ablation_a4_attack_modes("quick")
        rows = {r[0]: r for r in table.rows}
        combined, bleed = rows["combined"], rows["bleed-only"]
        # Bleed carries the stall: combined is level with bleed-only
        # within the two rows' ci95 half-widths (columns: mode, mean
        # rounds, ci95, crashes used).
        assert abs(combined[1] - bleed[1]) <= combined[2] + bleed[2]
        assert combined[1] >= rows["split-only"][1] - 1e-9
        assert bleed[1] > rows["none (benign)"][1]
