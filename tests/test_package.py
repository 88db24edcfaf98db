"""Package-level consistency tests: imports, __all__ contracts, and
error hierarchy."""

import importlib
import pkgutil

import pytest

import repro
from repro.errors import (
    AgreementViolation,
    BudgetExceededError,
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    TerminationViolation,
    ValidityViolation,
)

ALL_MODULES = [
    "repro",
    "repro._math",
    "repro.cli",
    "repro.errors",
    "repro.sim",
    "repro.sim.batch",
    "repro.sim.batch2d",
    "repro.sim.checks",
    "repro.sim.comm",
    "repro.sim.engine",
    "repro.sim.inbox",
    "repro.sim.model",
    "repro.sim.replay",
    "repro.sim.streams",
    "repro.sim.trace",
    "repro.protocols",
    "repro.protocols.base",
    "repro.protocols.beacon",
    "repro.protocols.benor",
    "repro.protocols.floodset",
    "repro.protocols.gp_hybrid",
    "repro.protocols.registry",
    "repro.protocols.symmetric",
    "repro.protocols.synran",
    "repro.adversary",
    "repro.adversary.antibeacon",
    "repro.adversary.antisynran",
    "repro.adversary.base",
    "repro.adversary.benign",
    "repro.adversary.benorattack",
    "repro.adversary.lowerbound",
    "repro.adversary.oblivious",
    "repro.adversary.random_crash",
    "repro.adversary.registry",
    "repro.adversary.static",
    "repro.faultmodels",
    "repro.faultmodels.crash",
    "repro.faultmodels.late",
    "repro.faultmodels.omission",
    "repro.faultmodels.registry",
    "repro.coinflip",
    "repro.coinflip.control",
    "repro.coinflip.game",
    "repro.coinflip.games",
    "repro.coinflip.library_games",
    "repro.coinflip.multiround",
    "repro.coinflip.uncontrollable",
    "repro.analysis",
    "repro.analysis.bounds",
    "repro.analysis.concentration",
    "repro.analysis.deviation",
    "repro.analysis.lemma21",
    "repro.analysis.markov",
    "repro.analysis.stats",
    "repro.analysis.valency",
    "repro.harness",
    "repro.harness.ablations",
    "repro.harness.exec",
    "repro.harness.exec.builders",
    "repro.harness.exec.cache",
    "repro.harness.exec.executor",
    "repro.harness.exec.spec",
    "repro.harness.exec.trial",
    "repro.harness.exec.wire",
    "repro.harness.experiments",
    "repro.harness.export",
    "repro.harness.report",
    "repro.harness.resilience",
    "repro.harness.resilience.audit",
    "repro.harness.resilience.chaos",
    "repro.harness.resilience.policy",
    "repro.harness.runner",
    "repro.harness.sweep",
    "repro.harness.workloads",
    "repro.lint",
    "repro.lint.callgraph",
    "repro.lint.findings",
    "repro.lint.interproc",
    "repro.lint.project",
    "repro.lint.rules",
    "repro.lint.runner",
    "repro.lint.sanitizer",
    "repro.lint.sarif",
    "repro.service",
    "repro.service.client",
    "repro.service.jobs",
    "repro.service.journal",
    "repro.service.netio",
    "repro.service.remote",
    "repro.service.server",
    "repro.service.smoke",
    "repro.service.worker",
]


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_names_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_no_module_is_missing_from_the_list(self):
        found = {"repro"}
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            if "__main__" in info.name:
                continue
            found.add(info.name)
        assert found <= set(ALL_MODULES) | {"repro"}, (
            sorted(found - set(ALL_MODULES))
        )


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            AgreementViolation,
            BudgetExceededError,
            ConfigurationError,
            ProtocolViolationError,
            TerminationViolation,
            ValidityViolation,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_base(self):
        try:
            raise BudgetExceededError("x")
        except ReproError as caught:
            assert str(caught) == "x"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestPublicApiSmoke:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_registries_are_consistent(self):
        from repro.adversary.registry import available_adversaries
        from repro.protocols import available_protocols, make_protocol

        for name in available_protocols():
            n, t = 16, 4
            proto = make_protocol(name, n, t)
            assert proto.name  # every protocol is self-describing
        assert "tally-attack" in available_adversaries()
