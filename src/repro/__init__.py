"""repro — reproduction of Bar-Joseph & Ben-Or,
"A Tight Lower Bound for Randomized Synchronous Consensus" (PODC 1998).

The package implements, from scratch:

* the paper's synchronous fail-stop system model with an adaptive
  full-information adversary (:mod:`repro.sim`),
* the SynRan consensus protocol and its baselines/ablations
  (:mod:`repro.protocols`),
* the adversary strategies of the lower-bound proof, both heuristic at
  scale and exact-by-exhaustion on tiny systems
  (:mod:`repro.adversary`, :mod:`repro.analysis.valency`),
* one-round collective coin-flipping games and their controllability
  theory (:mod:`repro.coinflip`),
* the paper's explicit probability bounds (:mod:`repro.analysis`), and
* a Monte-Carlo experiment harness regenerating every quantitative
  claim (:mod:`repro.harness`; see DESIGN.md for the experiment index).

Quick start::

    from repro import Engine, SynRanProtocol, BenignAdversary

    engine = Engine(SynRanProtocol(), BenignAdversary(), n=32, seed=7)
    result = engine.run([i % 2 for i in range(32)])
    print(result.decision_round, result.common_decision())
"""

from repro._math import (
    adversary_round_budget,
    coin_control_budget,
    deterministic_stage_threshold,
    expected_rounds_bound,
    lower_bound_rounds,
)
from repro.errors import (
    AgreementViolation,
    BudgetExceededError,
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    TerminationViolation,
    ValidityViolation,
)
from repro.sim import (
    Engine,
    ExecutionResult,
    FailureDecision,
    RoundView,
    Verdict,
    verify_execution,
)
from repro.protocols import (
    BenOrProtocol,
    ConsensusProtocol,
    FloodSetProtocol,
    SymmetricRanProtocol,
    SynRanProtocol,
    available_protocols,
    make_protocol,
)
from repro.adversary import (
    Adversary,
    BenignAdversary,
    ExactValencyAdversary,
    RandomCrashAdversary,
    StaticAdversary,
    TallyAttackAdversary,
)

__version__ = "1.1.0"

__all__ = [
    "Adversary",
    "AgreementViolation",
    "BenOrProtocol",
    "BenignAdversary",
    "BudgetExceededError",
    "ConfigurationError",
    "ConsensusProtocol",
    "Engine",
    "ExactValencyAdversary",
    "ExecutionResult",
    "FailureDecision",
    "FloodSetProtocol",
    "ProtocolViolationError",
    "RandomCrashAdversary",
    "ReproError",
    "RoundView",
    "StaticAdversary",
    "SymmetricRanProtocol",
    "SynRanProtocol",
    "TallyAttackAdversary",
    "TerminationViolation",
    "ValidityViolation",
    "Verdict",
    "adversary_round_budget",
    "available_protocols",
    "coin_control_budget",
    "deterministic_stage_threshold",
    "expected_rounds_bound",
    "lower_bound_rounds",
    "make_protocol",
    "verify_execution",
    "__version__",
]
