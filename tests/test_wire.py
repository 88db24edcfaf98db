"""Wire round-trip exactness: hashes survive serialization.

The whole service tier leans on one invariant — a spec rebuilt from
its wire document hashes identically to the original, so remote
workers derive the same per-trial seeds and the shared cache keys
line up.  These tests pin that invariant down, including the subtle
case: ``*_params`` tuples become JSON lists on the wire and must be
re-canonicalised on the way back in.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    WIRE_VERSION,
    ExecutionPlan,
    TrialBatch,
    TrialSpec,
    batch_from_wire,
    batch_to_wire,
    plan_from_wire,
    plan_key,
    plan_to_wire,
    spec_from_wire,
    spec_params,
    spec_to_wire,
)


def full_spec(**overrides):
    """A spec exercising every optional field, params included."""
    fields = dict(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=8,
        inputs="random",
        adversary_params=spec_params(bias=0.25),
        inputs_params=spec_params(p=0.5),
        max_rounds=77,
        engine=ENGINE_BATCH,
        strict_termination=False,
        fault_model="late",
        fault_model_params=spec_params(lag=2),
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def json_round_trip(doc):
    """What actually happens on the wire: through JSON text."""
    return json.loads(json.dumps(doc))


class TestSpecRoundTrip:
    def test_exact_spec_hash(self):
        spec = full_spec()
        rebuilt = spec_from_wire(json_round_trip(spec_to_wire(spec)))
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_default_spec_hash(self):
        spec = TrialSpec(
            protocol="synran", adversary="random", n=6, t=3, inputs="worst"
        )
        rebuilt = spec_from_wire(json_round_trip(spec_to_wire(spec)))
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_params_tuples_renormalized(self):
        # JSON turns the canonical tuple-of-tuples into list-of-lists;
        # the rebuilt spec must hold tuples again (hashable, REP008).
        spec = full_spec()
        doc = json_round_trip(spec_to_wire(spec))
        assert doc["fault_model_params"] == [["lag", 2]]
        rebuilt = spec_from_wire(doc)
        assert rebuilt.fault_model_params == (("lag", 2),)
        assert isinstance(rebuilt.fault_model_params, tuple)
        hash(rebuilt)  # would raise if any field stayed a list

    def test_param_key_order_is_canonical(self):
        doc = spec_to_wire(full_spec())
        doc["adversary_params"] = list(reversed(doc["adversary_params"]))
        doc["adversary_params"].append(["alpha", 1])
        shuffled = spec_from_wire(json_round_trip(doc))
        direct = full_spec(
            adversary_params=spec_params(bias=0.25, alpha=1)
        )
        assert shuffled.spec_hash() == direct.spec_hash()

    def test_absent_optional_fields_mean_defaults(self):
        doc = spec_to_wire(full_spec())
        for name in (
            "inputs",
            "max_rounds",
            "engine",
            "strict_termination",
            "fault_model",
            "fault_model_params",
            "protocol_params",
            "adversary_params",
            "inputs_params",
        ):
            del doc[name]
        rebuilt = spec_from_wire(doc)
        defaults = TrialSpec(
            protocol="synran", adversary="tally-attack", n=16, t=8
        )
        assert rebuilt.spec_hash() == defaults.spec_hash()

    def test_extra_keys_tolerated(self):
        doc = spec_to_wire(full_spec())
        doc["future_field"] = {"anything": [1, 2]}
        assert spec_from_wire(doc).spec_hash() == full_spec().spec_hash()


class TestSpecRejection:
    def test_wrong_version(self):
        doc = spec_to_wire(full_spec())
        doc["wire"] = WIRE_VERSION + 1
        with pytest.raises(ConfigurationError, match="wire version"):
            spec_from_wire(doc)

    def test_wrong_kind(self):
        doc = spec_to_wire(full_spec())
        doc["kind"] = "batch"
        with pytest.raises(ConfigurationError, match="kind"):
            spec_from_wire(doc)

    def test_non_mapping(self):
        with pytest.raises(ConfigurationError):
            spec_from_wire(["not", "a", "spec"])

    def test_missing_required_field(self):
        doc = spec_to_wire(full_spec())
        del doc["protocol"]
        with pytest.raises(ConfigurationError, match="malformed"):
            spec_from_wire(doc)

    @pytest.mark.parametrize(
        "bad_params",
        [
            "not-a-list",
            [["lag"]],  # not a pair
            [[3, 1]],  # non-string key
            [["lag", 1], ["lag", 2]],  # duplicate key
            [["lag", [1, 2]]],  # non-primitive value
        ],
    )
    def test_malformed_params(self, bad_params):
        doc = spec_to_wire(full_spec())
        doc["fault_model_params"] = bad_params
        with pytest.raises(ConfigurationError):
            spec_from_wire(doc)

    def test_spec_validation_still_applies(self):
        doc = spec_to_wire(full_spec())
        doc["n"] = -1
        with pytest.raises(ConfigurationError):
            spec_from_wire(doc)

    def test_unknown_engine_rejected(self):
        # "fast" names the retired per-trial counts engine.
        doc = spec_to_wire(full_spec())
        doc["engine"] = "fast"
        with pytest.raises(ConfigurationError, match="engine"):
            spec_from_wire(doc)


class TestBatchAndPlan:
    def test_batch_key_survives(self):
        batch = TrialBatch(
            spec=full_spec(), trials=9, base_seed=42, label="cell-a"
        )
        rebuilt = batch_from_wire(json_round_trip(batch_to_wire(batch)))
        assert rebuilt.batch_key() == batch.batch_key()
        assert rebuilt.label == "cell-a"

    def test_batch_defaults(self):
        doc = batch_to_wire(TrialBatch(spec=full_spec(), trials=3))
        del doc["base_seed"]
        del doc["label"]
        rebuilt = batch_from_wire(doc)
        assert rebuilt.base_seed == 0
        assert rebuilt.label == ""

    def test_plan_round_trip_preserves_order_and_key(self):
        plan = ExecutionPlan(
            batches=(
                TrialBatch(spec=full_spec(), trials=3, base_seed=1),
                TrialBatch(spec=full_spec(n=32, t=16), trials=2, base_seed=1),
            )
        )
        rebuilt = plan_from_wire(json_round_trip(plan_to_wire(plan)))
        assert [b.batch_key() for b in rebuilt] == [
            b.batch_key() for b in plan
        ]
        assert plan_key(rebuilt) == plan_key(plan)

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="no batches"):
            plan_from_wire(
                {"wire": WIRE_VERSION, "kind": "plan", "batches": []}
            )

    def test_plan_key_is_order_sensitive(self):
        a = TrialBatch(spec=full_spec(), trials=3, base_seed=1)
        b = TrialBatch(spec=full_spec(n=32, t=16), trials=3, base_seed=1)
        assert plan_key(ExecutionPlan(batches=(a, b))) != plan_key(
            ExecutionPlan(batches=(b, a))
        )

    def test_plan_key_tracks_every_cell_dimension(self):
        base = TrialBatch(spec=full_spec(), trials=3, base_seed=1)
        key = plan_key(ExecutionPlan(batches=(base,)))
        for variant in (
            TrialBatch(spec=full_spec(), trials=4, base_seed=1),
            TrialBatch(spec=full_spec(), trials=3, base_seed=2),
            TrialBatch(spec=full_spec(n=32, t=16), trials=3, base_seed=1),
        ):
            assert plan_key(ExecutionPlan(batches=(variant,))) != key
        # label is presentation, not identity
        relabelled = TrialBatch(
            spec=full_spec(), trials=3, base_seed=1, label="other"
        )
        assert plan_key(ExecutionPlan(batches=(relabelled,))) == key
