"""Tests for the protocol registry, and the parameters every name
table accepts."""

import pytest

from repro.adversary.registry import make_adversary
from repro.errors import ConfigurationError
from repro.harness.exec.spec import TrialSpec, spec_params
from repro.harness.exec.trial import run_spec_trial
from repro.protocols import (
    BenOrProtocol,
    FloodSetProtocol,
    SymmetricRanProtocol,
    SynRanProtocol,
    available_protocols,
    make_protocol,
)
from repro.protocols.registry import register_protocol


class TestMakeProtocol:
    def test_synran(self):
        assert isinstance(make_protocol("synran", 16, 16), SynRanProtocol)

    def test_synran_nodet(self):
        proto = make_protocol("synran-nodet", 16, 16)
        assert isinstance(proto, SynRanProtocol)
        assert not proto.det_handoff

    def test_symmetric(self):
        assert isinstance(
            make_protocol("symmetric-ran", 16, 16), SymmetricRanProtocol
        )

    def test_benor_gets_t(self):
        proto = make_protocol("benor", 16, 5)
        assert isinstance(proto, BenOrProtocol)
        assert proto.t == 5

    def test_floodset_gets_rounds(self):
        proto = make_protocol("floodset", 16, 5)
        assert isinstance(proto, FloodSetProtocol)
        assert proto.rounds == 6

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_protocol("paxos", 16, 5)

    def test_majority_requirement_enforced(self):
        with pytest.raises(ConfigurationError):
            make_protocol("benor", 16, 8)

    def test_available_protocols_sorted(self):
        names = available_protocols()
        assert names == sorted(names)
        assert "synran" in names


class TestRegisterProtocol:
    def test_register_and_build(self):
        register_protocol(
            "floodset-double",
            lambda n, t: FloodSetProtocol(rounds=2 * (t + 1)),
        )
        try:
            proto = make_protocol("floodset-double", 8, 3)
            assert proto.rounds == 8
        finally:
            from repro.protocols import registry

            registry._FACTORIES.pop("floodset-double", None)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_protocol("synran", lambda n, t: SynRanProtocol())


class TestIgnoredParamsRejected:
    """A parameter a name's factory never reads would change the spec
    hash, and so the seeds, but not the run; it is rejected by name."""

    def test_floodset_rejects_every_param(self):
        with pytest.raises(
            ConfigurationError, match=r"'floodset'.*\['rounds'\]"
        ):
            make_protocol("floodset", 8, 3, {"rounds": 99})

    @pytest.mark.parametrize(
        "name",
        [
            "benign",
            "anti-beacon",
            "static",
            "oblivious-calibrated",
            "oblivious-uniform",
            "oblivious-burst",
        ],
    )
    def test_parameterless_adversaries_reject_every_param(self, name):
        with pytest.raises(ConfigurationError, match=r"\['bogus'\]"):
            make_adversary(name, 8, 3, params={"bogus": 1})

    @pytest.mark.parametrize(
        "name,key",
        [
            ("benor-quorum", "decide_threshold"),
            ("static-mass-crash", "round"),
            ("oblivious-drip", "per_round"),
        ],
    )
    def test_one_key_adversaries_reject_the_rest(self, name, key):
        proto = make_protocol("benor", 8, 3)
        make_adversary(name, 8, 3, proto, params={key: 1})
        with pytest.raises(ConfigurationError, match=r"\['bogus'\]"):
            make_adversary(name, 8, 3, proto, params={key: 1, "bogus": 1})

    def test_counts_factories_reject_on_every_engine(self):
        for engine in ("batch", "batch2d"):
            with pytest.raises(ConfigurationError, match="'benign'"):
                make_adversary("benign", 8, 3, engine=engine, params={"x": 1})

    def test_spec_with_ignored_param_fails_to_build(self):
        spec = TrialSpec(
            protocol="synran",
            adversary="anti-beacon",
            n=8,
            t=3,
            adversary_params=spec_params(bogus=1),
        )
        with pytest.raises(ConfigurationError, match="anti-beacon"):
            run_spec_trial(spec, 0, 0)
