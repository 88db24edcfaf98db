"""Exact-seed differential gates for the pluggable fault layer.

The fault-model refactor's contract is that the default
``fault_model="crash"`` reproduces the pre-refactor engines
*byte-for-byte*: same spec hashes, same derived seeds, same per-trial
outcomes on the reference and batch engines.  The goldens below were captured from
the commit immediately before the fault layer existed and verified
identical against the refactored engines; any drift in these tests
means the refactor changed observable behavior, which is a bug by
definition.

Each golden row is ``[seed, rounds, decision_round, crashes,
decision]`` for trials 0..2 at ``base_seed=42`` (the batch-slice block
uses trials 0..4 at ``base_seed=7``).
"""

import pytest

from repro.harness.exec.spec import TrialSpec, derive_trial_seed
from repro.harness.exec.trial import run_spec_batch, run_spec_trial

# --------------------------------------------------------------------
# Goldens captured on the pre-fault-layer engines (see module docstring)
# --------------------------------------------------------------------

GOLDENS = {
    ("reference", "tally-attack", 48, 24): {
        "hash": "11178e2bfbaff1ceb4d49fb8004f45db78b43a796c083e26494bc813860d2c57",
        "rows": [
            [2283041821923141448, 21, 20, 22, 0],
            [5743120566546608736, 20, 19, 22, 0],
            [7139854407813082682, 19, 18, 22, 0],
        ],
    },
    ("reference", "benign", 32, 0): {
        "hash": "cd4dd3e66d7ae04449ee29b4a723b0827da7006fc4a3454bb248f7cb05f4310f",
        "rows": [
            [648100805313158459, 4, 3, 0, 0],
            [3107734316621773904, 5, 4, 0, 0],
            [3035224942569833423, 4, 3, 0, 0],
        ],
    },
    ("batch", "tally-attack", 48, 48): {
        "hash": "56ea934ca1d2356bcbfdfcaaa41fb19534294794f42925453a67467f6058ddb1",
        "rows": [
            [3431406643566243835, 62, 61, 45, 0],
            [5182714592891103627, 62, 61, 45, 0],
            [2403114184538363508, 61, 60, 45, 0],
        ],
    },
    ("batch", "benign", 32, 0): {
        "hash": "faa267017d0cd53f32b79d70205673e840c2f9c8684bfa8c1c0d5e4d331a4de2",
        "rows": [
            [2027578803828241451, 5, 4, 0, 0],
            [4072061976368379129, 4, 3, 0, 0],
            [1711391077641801778, 4, 3, 0, 0],
        ],
    },
}

BATCH_SLICE_ROWS = [
    [1919684329918684660, 63, 62, 45, 0],
    [5409258292412530644, 61, 60, 45, 0],
    [3421071357419679416, 66, 65, 45, 0],
    [4458137445145972800, 63, 62, 45, 0],
    [7702927378800180808, 61, 60, 45, 0],
]

STABILITY_HASH = (
    "3197d7507a7e01b7756beb44723d50cf44ef230f885a2a00a18ac20be7fd052d"
)
STABILITY_SEED_0_0 = 7836495363006646329
STABILITY_SEED_123_7 = 4905988341246546043


def _outcome_row(outcome):
    return [
        outcome.seed,
        outcome.rounds,
        outcome.decision_round,
        outcome.crashes,
        outcome.decision,
    ]


class TestCrashDefaultIsByteIdentical:
    @pytest.mark.parametrize(
        "engine,adversary,n,t", sorted(GOLDENS), ids=lambda v: str(v)
    )
    def test_default_spec_reproduces_pre_refactor_goldens(
        self, engine, adversary, n, t
    ):
        golden = GOLDENS[(engine, adversary, n, t)]
        spec = TrialSpec(
            protocol="synran", adversary=adversary, n=n, t=t, engine=engine
        )
        assert spec.spec_hash() == golden["hash"]
        for i, row in enumerate(golden["rows"]):
            assert _outcome_row(run_spec_trial(spec, i, 42)) == row

    @pytest.mark.parametrize(
        "engine,adversary,n,t", sorted(GOLDENS), ids=lambda v: str(v)
    )
    def test_explicit_crash_model_equals_default(
        self, engine, adversary, n, t
    ):
        golden = GOLDENS[(engine, adversary, n, t)]
        spec = TrialSpec(
            protocol="synran",
            adversary=adversary,
            n=n,
            t=t,
            engine=engine,
            fault_model="crash",
        )
        assert spec.spec_hash() == golden["hash"]
        assert _outcome_row(run_spec_trial(spec, 0, 42)) == golden["rows"][0]

    def test_batch_slice_reproduces_goldens(self):
        spec = TrialSpec(
            protocol="synran",
            adversary="tally-attack",
            n=48,
            t=48,
            engine="batch",
        )
        outcomes = run_spec_batch(spec, range(5), 7)
        assert [_outcome_row(o) for o in outcomes] == BATCH_SLICE_ROWS


class TestCacheKeyStability:
    def test_spec_hash_matches_pre_refactor_value(self):
        spec = TrialSpec(protocol="synran", adversary="benign", n=16, t=0)
        assert spec.spec_hash() == STABILITY_HASH

    def test_trial_seeds_match_pre_refactor_values(self):
        spec = TrialSpec(protocol="synran", adversary="benign", n=16, t=0)
        assert spec.trial_seed(0, 0) == STABILITY_SEED_0_0
        assert spec.trial_seed(123, 7) == STABILITY_SEED_123_7
        assert spec.trial_seed(0, 0) == derive_trial_seed(
            0, spec.spec_hash(), 0
        )

    def test_explicit_crash_defaults_do_not_change_hash(self):
        default = TrialSpec(
            protocol="synran", adversary="benign", n=16, t=0
        )
        explicit = TrialSpec(
            protocol="synran",
            adversary="benign",
            n=16,
            t=0,
            fault_model="crash",
            fault_model_params=(),
        )
        assert explicit.spec_hash() == default.spec_hash()
        assert explicit.trial_seed(0, 0) == default.trial_seed(0, 0)

    def test_non_default_fault_model_changes_hash_and_seeds(self):
        base = TrialSpec(protocol="synran", adversary="benign", n=16, t=0)
        for spec in (
            TrialSpec(
                protocol="synran",
                adversary="benign",
                n=16,
                t=0,
                fault_model="send-omission",
            ),
            TrialSpec(
                protocol="synran",
                adversary="benign",
                n=16,
                t=0,
                fault_model="late",
            ),
        ):
            assert spec.spec_hash() != base.spec_hash()
            assert spec.trial_seed(0, 0) != base.trial_seed(0, 0)

    def test_late_lag_param_changes_hash(self):
        lag1 = TrialSpec(
            protocol="synran",
            adversary="benign",
            n=16,
            t=0,
            fault_model="late",
            fault_model_params=(("lag", 1),),
        )
        lag2 = TrialSpec(
            protocol="synran",
            adversary="benign",
            n=16,
            t=0,
            fault_model="late",
            fault_model_params=(("lag", 2),),
        )
        assert lag1.spec_hash() != lag2.spec_hash()
