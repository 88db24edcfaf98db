"""Tests for the pluggable fault layer (``repro.faultmodels``).

Covers the decision family and :class:`RoundView` hardening in
``repro.sim.model``, the four bundled models, the registry, the
per-model sanitizer contracts, and the engines' model threading
(including the counts engines' rejection of reference-only models).
The byte-identity of the default ``crash`` model against the
pre-refactor engines is pinned separately in
``test_fault_differential.py``.
"""

import random

import numpy as np
import pytest

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    SanitizerViolationError,
)
from repro.faultmodels import (
    CrashFaultModel,
    LateFaultModel,
    ReceiveOmissionFaultModel,
    SendOmissionFaultModel,
    available_fault_models,
    make_fault_model,
    register_fault_model,
    resolve_fault_model,
)
from repro.faultmodels.omission import BatchBudgetLedger
from repro.harness.exec.spec import TrialSpec
from repro.harness.exec.trial import run_spec_trial
from repro.lint import SimSanitizer
from repro.protocols import make_protocol
from repro.sim.batch import BatchFastEngine, BatchTallyAttack
from repro.sim.engine import Engine
from repro.sim.model import (
    FailureDecision,
    ProcessCore,
    ReceiveOmissionDecision,
    RoundView,
    SendOmissionDecision,
)
from repro.adversary.registry import make_adversary
from repro.harness.workloads import worst_case_split


def _view(n=4, round_index=0, budget=2):
    states = {
        pid: ProcessCore(
            pid=pid, n=n, input_bit=pid % 2, rng=random.Random(pid)
        )
        for pid in range(n)
    }
    return RoundView(
        round_index=round_index,
        n=n,
        alive=frozenset(range(n)),
        states=states,
        payloads={pid: pid for pid in range(n)},
        budget_remaining=budget,
        inputs=tuple(pid % 2 for pid in range(n)),
    )


# --------------------------------------------------------------------
# RoundView hardening
# --------------------------------------------------------------------


class TestRoundViewReadOnly:
    def test_states_and_payloads_reject_mutation(self):
        view = _view()
        with pytest.raises(TypeError):
            view.states[99] = None
        with pytest.raises(TypeError):
            del view.payloads[0]
        with pytest.raises(TypeError):
            view.payloads[0] = "changed"

    def test_reads_still_work(self):
        view = _view()
        assert view.states[1].pid == 1
        assert dict(view.payloads) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_rebuilding_a_view_from_a_view_does_not_double_wrap(self):
        view = _view()
        rebuilt = RoundView(
            round_index=view.round_index,
            n=view.n,
            alive=view.alive,
            states=view.states,
            payloads=view.payloads,
            budget_remaining=view.budget_remaining,
            inputs=view.inputs,
        )
        assert rebuilt.states[0] is view.states[0]
        with pytest.raises(TypeError):
            rebuilt.states[99] = None


# --------------------------------------------------------------------
# decision classes
# --------------------------------------------------------------------


class TestOmissionDecisions:
    def test_send_omission_constructors_and_queries(self):
        d = SendOmissionDecision.of({1: [0, 2], 2: []})
        assert d.faulty == frozenset({1})  # empty sets are dropped
        assert d.drops(1, 0) and d.drops(1, 2)
        assert not d.drops(1, 3) and not d.drops(2, 0)
        full = SendOmissionDecision.silence([1], range(4))
        assert full.suppressed[1] == frozenset(range(4))
        assert SendOmissionDecision.none().faulty == frozenset()

    def test_receive_omission_constructors_and_queries(self):
        d = ReceiveOmissionDecision.of({3: [0, 1], 2: ()})
        assert d.faulty == frozenset({3})
        assert d.drops(0, 3) and d.drops(1, 3)
        assert not d.drops(2, 3) and not d.drops(0, 2)


# --------------------------------------------------------------------
# registry
# --------------------------------------------------------------------


class TestRegistry:
    def test_available_models(self):
        assert available_fault_models() == [
            "crash", "late", "receive-omission", "send-omission",
        ]

    def test_make_by_name(self):
        assert isinstance(make_fault_model("crash"), CrashFaultModel)
        late = make_fault_model("late", {"lag": 3})
        assert isinstance(late, LateFaultModel)
        assert late.lag == 3
        assert make_fault_model("late").lag == 1

    def test_unknown_name_and_unknown_param(self):
        with pytest.raises(ConfigurationError, match="unknown fault model"):
            make_fault_model("byzantine")
        with pytest.raises(ConfigurationError, match="does not accept"):
            make_fault_model("crash", {"lag": 1})
        with pytest.raises(ConfigurationError, match="does not accept"):
            make_fault_model("late", {"epsilon": 1})

    def test_resolve(self):
        assert isinstance(resolve_fault_model(None), CrashFaultModel)
        instance = SendOmissionFaultModel()
        assert resolve_fault_model(instance) is instance
        assert isinstance(
            resolve_fault_model("receive-omission"),
            ReceiveOmissionFaultModel,
        )
        with pytest.raises(ConfigurationError):
            resolve_fault_model(42)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_fault_model("crash", lambda p: CrashFaultModel())


# --------------------------------------------------------------------
# crash model
# --------------------------------------------------------------------


class TestCrashModel:
    def test_normalize_and_type_check(self):
        model = CrashFaultModel()
        view = _view()
        assert model.normalize(None, view).victims == frozenset()
        with pytest.raises(ConfigurationError, match="FailureDecision"):
            model.normalize(SendOmissionDecision.none(), view)

    def test_charge_victims_delivers(self):
        model = CrashFaultModel()
        d = FailureDecision.partial({1: [0], 2: []})
        assert model.charge(d) == (2, frozenset())
        assert model.crash_victims(d) == frozenset({1, 2})
        withheld = model.withheld(d, [0, 1, 2, 3], [0, 1, 2, 3])
        assert 0 not in withheld[1] and 3 in withheld[1]
        assert 0 in withheld[2]
        assert 3 not in withheld  # non-victims always deliver

    def test_withheld_has_entry_per_victim(self):
        model = CrashFaultModel()
        d = FailureDecision.partial({1: [0, 2, 3], 2: []})
        withheld = model.withheld(d, [0, 1, 2, 3], [0, 3])
        # Victim 1 delivered to every surviving receiver: empty entry
        # is kept (the historical trace shape).
        assert withheld == {1: frozenset(), 2: frozenset({0, 3})}


# --------------------------------------------------------------------
# omission models
# --------------------------------------------------------------------


class TestSendOmissionModel:
    def test_coerces_crash_decisions(self):
        model = SendOmissionFaultModel()
        model.begin_run(4, 2)
        view = _view()
        coerced = model.normalize(
            FailureDecision.partial({1: [0]}), view
        )
        assert isinstance(coerced, SendOmissionDecision)
        # Withheld-from set = everyone minus allowed minus self.
        assert coerced.suppressed[1] == frozenset({2, 3})

    def test_charge_counts_distinct_faulty_once(self):
        model = SendOmissionFaultModel()
        model.begin_run(4, 2)
        d = SendOmissionDecision.of({1: [0, 2]})
        assert model.charge(d) == (1, frozenset({1}))
        # Re-serving pid 1 in a later round is free.
        assert model.charge(d) == (0, frozenset())
        d2 = SendOmissionDecision.of({1: [3], 2: [0]})
        assert model.charge(d2) == (1, frozenset({2}))
        assert model.begin_run(4, 2) is None
        assert model.charge(d) == (1, frozenset({1}))

    def test_no_crash_victims_and_withheld_respects_receivers(self):
        model = SendOmissionFaultModel()
        d = SendOmissionDecision.of({1: [0, 2, 1]})
        assert model.crash_victims(d) == frozenset()
        withheld = model.withheld(d, [0, 1, 2, 3], [0, 1, 3])
        # 2 is not a receiver this round and self-drops are ignored.
        assert withheld == {1: frozenset({0})}

    def test_validate_rejects_dead_sender(self):
        model = SendOmissionFaultModel()
        view = _view()
        bad = SendOmissionDecision.of({7: [0]})
        with pytest.raises(ConfigurationError, match="not a participant"):
            model.validate(bad, view)


class TestReceiveOmissionModel:
    def test_reference_only(self):
        assert ReceiveOmissionFaultModel.counts_kind is None

    def test_coercion_inverts_the_crash_shape(self):
        model = ReceiveOmissionFaultModel()
        model.begin_run(4, 4)
        view = _view()
        coerced = model.normalize(
            FailureDecision.partial({1: [0]}), view
        )
        assert isinstance(coerced, ReceiveOmissionDecision)
        assert coerced.blocked == {
            2: frozenset({1}),
            3: frozenset({1}),
        }

    def test_withheld_is_keyed_by_sender(self):
        model = ReceiveOmissionFaultModel()
        d = ReceiveOmissionDecision.of({3: [0, 1], 2: [0]})
        assert model.withheld(d, [0, 1, 2, 3], [0, 1, 2, 3]) == {
            0: frozenset({2, 3}),
            1: frozenset({3}),
        }


# --------------------------------------------------------------------
# late model
# --------------------------------------------------------------------


class TestLateModel:
    def test_lag_zero_is_identity(self):
        model = LateFaultModel(lag=0)
        view = _view()
        assert model.adversary_view(view) is view
        assert model.view_round(5) == 5

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            LateFaultModel(lag=-1)

    def test_view_round_clamps_at_zero(self):
        model = LateFaultModel(lag=2)
        assert model.view_round(0) == 0
        assert model.view_round(1) == 0
        assert model.view_round(5) == 3

    def test_serves_stale_states_with_current_liveness(self):
        model = LateFaultModel(lag=1)
        model.begin_run(4, 2)
        v0 = _view(round_index=0, budget=2)
        served0 = model.adversary_view(v0)
        assert served0.round_index == 0

        # Round 1: pid 3 has crashed, budget spent, states advanced.
        states = {
            pid: ProcessCore(
                pid=pid, n=4, input_bit=1, rng=random.Random(pid)
            )
            for pid in range(4)
        }
        states[0].decided = True
        v1 = RoundView(
            round_index=1,
            n=4,
            alive=frozenset({0, 1, 2}),
            states=states,
            payloads={0: "a", 1: "b", 2: "c"},
            budget_remaining=1,
            inputs=(0, 1, 0, 1),
        )
        served1 = model.adversary_view(v1)
        # Coin-dependent data (and the index naming it) is round 0's...
        assert served1.round_index == 0
        assert not served1.states[0].decided
        assert served1.payloads == {0: 0, 1: 1, 2: 2}
        # ...while liveness and budget are current.
        assert served1.alive == frozenset({0, 1, 2})
        assert served1.budget_remaining == 1

    def test_snapshots_are_frozen_copies(self):
        model = LateFaultModel(lag=1)
        model.begin_run(4, 2)
        v0 = _view(round_index=0)
        model.adversary_view(v0)
        v0.states[0].decided = True  # engine mutates live state
        v1 = _view(round_index=1)
        served = model.adversary_view(v1)
        assert not served.states[0].decided


# --------------------------------------------------------------------
# sanitizer contract variants
# --------------------------------------------------------------------


class TestSanitizerFaultContracts:
    def test_view_lag_violation(self):
        san = SimSanitizer(8, 2, fault_model="late", lag=2)
        san.observe_round(0, range(8), (), {}, view_round=0)
        san.observe_round(1, range(8), (), {}, view_round=0)
        with pytest.raises(SanitizerViolationError, match="view-lag"):
            san.observe_round(2, range(8), (), {}, view_round=1)

    def test_unexpected_crash_under_omission(self):
        san = SimSanitizer(8, 2, fault_model="send-omission")
        with pytest.raises(SanitizerViolationError, match="unexpected-crash"):
            san.observe_round(0, range(8), (3,), {})

    def test_non_faulty_drop_send_side(self):
        san = SimSanitizer(8, 2, fault_model="send-omission")
        san.observe_round(
            0, range(8), (), {}, faulty=(3,), dropped={3: [0, 1]}
        )
        with pytest.raises(SanitizerViolationError, match="non-faulty-drop"):
            san.observe_round(1, range(8), (), {}, dropped={4: [0]})

    def test_non_faulty_drop_receive_side(self):
        san = SimSanitizer(8, 2, fault_model="receive-omission")
        san.observe_round(
            0, range(8), (), {}, faulty=(5,), dropped={0: [5]}
        )
        with pytest.raises(SanitizerViolationError, match="non-faulty-drop"):
            san.observe_round(1, range(8), (), {}, dropped={0: [6]})

    def test_distinct_faulty_budget(self):
        san = SimSanitizer(8, 2, fault_model="send-omission")
        san.observe_round(0, range(8), (), {}, faulty=(1, 2))
        # Already-faulty pids are free; a third distinct pid is not.
        san.observe_round(1, range(8), (), {}, faulty=(1,))
        with pytest.raises(SanitizerViolationError, match="total-budget"):
            san.observe_round(2, range(8), (), {}, faulty=(3,))

    def test_fast_round_omission_high_water_mark(self):
        # Counts engines cannot name pids: a round suppressing k senders
        # proves k distinct faulty processes, so the budget is charged
        # as the per-round high-water mark.
        ledger = BatchBudgetLedger(
            3, trials=2, counts_kind=SendOmissionFaultModel.counts_kind
        )
        ledger.charge(np.array([3, 1]))
        ledger.charge(np.array([2, 2]))
        assert ledger.used.tolist() == [3, 2]
        with pytest.raises(BudgetExceededError, match="trial 1"):
            ledger.charge(np.array([0, 4]))

    def test_report_carries_model_and_lag(self):
        san = SimSanitizer(8, 2, fault_model="late", lag=2)
        report = san.report()
        assert report["fault_model"] == "late"
        assert report["lag"] == 2


# --------------------------------------------------------------------
# engine threading
# --------------------------------------------------------------------

_N, _T = 16, 8


class _BlockOneReceiver:
    """Native receive-omission adversary: one faulty receiver, round 0.

    The crash->receive-omission coercion is deliberately
    budget-expensive (every withheld-from receiver becomes faulty), so
    the reference-engine contract test drives this model with a
    decision in its own shape instead of a coerced crash attack.
    """

    def __init__(self, t):
        self.t = t

    def reset(self, n, rng):
        pass

    def on_round(self, view):
        if view.round_index == 0 and self.t > 0:
            first, second = sorted(view.alive)[:2]
            return ReceiveOmissionDecision.of({second: [first]})
        return None


def _reference_engine(fault_model, seed=11):
    protocol = make_protocol("synran", _N, _T)
    if fault_model == "receive-omission":
        adversary = _BlockOneReceiver(_T)
    else:
        adversary = make_adversary("tally-attack", _N, _T, protocol)
    return Engine(
        protocol,
        adversary,
        _N,
        seed=seed,
        strict_termination=False,
        sanitizer=True,
        fault_model=fault_model,
    )


class TestEngineThreading:
    @pytest.mark.parametrize(
        "name", ["crash", "send-omission", "receive-omission", "late"]
    )
    def test_reference_engine_runs_every_model_under_sanitizer(self, name):
        result = _reference_engine(name).run(worst_case_split(_N))
        assert result.rounds >= 1

    def test_omission_reference_run_crashes_nobody(self):
        result = _reference_engine("send-omission").run(
            worst_case_split(_N)
        )
        assert result.crashed == frozenset()

    @pytest.mark.parametrize("name", ["send-omission", "late"])
    def test_fast_engine_supports_counts_models(self, name):
        engine = BatchFastEngine(
            make_protocol("synran", _N, _T),
            BatchTallyAttack(_T),
            _N,
            fault_model=name,
        )
        result = engine.run(worst_case_split(_N), [11]).trial(0)
        assert result.rounds >= 1
        if name == "send-omission":
            # Population is preserved: the per-round fault series
            # records suppressions, but nobody ever leaves.
            assert result.survivors == _N
            assert all(s == _N for s in result.senders_per_round)
            assert result.crashes_used <= _T

    def test_counts_engines_reject_reference_only_models(self):
        protocol = make_protocol("synran", _N, _T)
        with pytest.raises(ConfigurationError, match="counts"):
            BatchFastEngine(
                protocol,
                BatchTallyAttack(_T),
                _N,
                fault_model="receive-omission",
            )

    @pytest.mark.parametrize("engine", ["batch"])
    def test_harness_rejects_reference_only_models_per_spec(self, engine):
        spec = TrialSpec(
            protocol="synran",
            adversary="tally-attack",
            n=_N,
            t=_T,
            engine=engine,
            fault_model="receive-omission",
        )
        with pytest.raises(ConfigurationError, match="counts"):
            run_spec_trial(spec, 0, 0)

    @pytest.mark.parametrize("engine", ["reference", "batch", "batch2d"])
    def test_harness_runs_late_model_on_every_engine(self, engine):
        spec = TrialSpec(
            protocol="synran",
            adversary="tally-attack",
            n=_N,
            t=_T,
            engine=engine,
            fault_model="late",
            fault_model_params=(("lag", 2),),
        )
        outcome = run_spec_trial(spec, 0, 0)
        assert outcome.rounds >= 1
