"""Tests for the runtime simulation sanitizer (``repro.lint.sanitizer``).

The whole adversary registry runs clean under the sanitizer; broken
adversaries (over-budget crash bursts, post-crash sends, revoked
decisions) are caught with a structured report.  The counts-level
engine keeps no per-process state to sanitize; its contract is checked
on its own per-round record.
"""

import numpy as np
import pytest

from repro._math import adversary_round_budget
from repro.adversary.registry import available_adversaries, make_adversary
from repro.adversary.static import StaticAdversary
from repro.errors import SanitizerViolationError
from repro.lint import SimSanitizer
from repro.protocols import make_protocol
from repro.adversary.oblivious import calibrated_drip_schedule
from repro.protocols.synran import SynRanProtocol
from repro.sim.batch import (
    BatchBenign,
    BatchFastEngine,
    BatchOblivious,
    BatchRandomCrash,
    BatchTallyAttack,
)
from repro.sim.engine import Engine

# Adversaries that attack a specific protocol get paired with it; the
# exact-play adversary simulates the protocol tree, so it only scales
# to toy n.
_PROTOCOL_FOR = {
    "anti-beacon": "beacon-ran",
    "benor-quorum": "benor",
}
_SMALL_N = {"exact-stall": (3, 1)}


class TestAdversaryMatrixClean:
    @pytest.mark.parametrize("name", available_adversaries())
    def test_registry_adversary_passes_sanitizer(self, name):
        n, t = _SMALL_N.get(name, (16, 5))
        proto = make_protocol(_PROTOCOL_FOR.get(name, "synran"), n, t)
        adv = make_adversary(name, n, t, proto)
        san = SimSanitizer(n, t, mode="collect")
        engine = Engine(
            proto, adv, n, seed=7, strict_termination=False, sanitizer=san
        )
        engine.run([i % 2 for i in range(n)])
        assert san.ok, san.report()
        report = san.report()
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["crashes_total"] <= t

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sanitizer_true_flag_builds_default(self, seed):
        n, t = 16, 5
        proto = SynRanProtocol()
        adv = make_adversary("tally-attack", n, t, proto)
        engine = Engine(proto, adv, n, seed=seed, sanitizer=True)
        engine.run([i % 2 for i in range(n)])
        assert engine.sanitizer is not None and engine.sanitizer.ok

    def test_lower_bound_budget_accepts_real_adversaries(self):
        n, t = 64, 20
        proto = SynRanProtocol()
        adv = make_adversary("burst", n, t, proto)
        san = SimSanitizer.lower_bound(n, t, mode="collect")
        Engine(
            proto, adv, n, seed=3, strict_termination=False, sanitizer=san
        ).run([i % 2 for i in range(n)])
        assert san.ok, san.report()


class TestFastMatrixClean:
    """The fail-stop contract on the counts-level BatchFastEngine.

    The engine raises on invalid kill counts and budget overdrafts
    itself, so a finished run has passed those checks; the rest is
    checked on its per-round record: crashes never exceed the senders,
    the population never grows, the budget holds, and every trial ends
    with one decision event.
    """

    @pytest.mark.parametrize(
        "adv_factory",
        [
            lambda t: BatchBenign(),
            lambda t: BatchRandomCrash(t, rate=0.05),
            lambda t: BatchTallyAttack(t),
            lambda t: BatchOblivious.from_schedule(t, calibrated_drip_schedule),
        ],
        ids=["benign", "random", "tally", "oblivious"],
    )
    def test_fast_adversary_passes_sanitizer(self, adv_factory):
        n, t = 256, 64
        engine = BatchFastEngine(
            SynRanProtocol(), adv_factory(t), n, strict_termination=False
        )
        result = engine.run([i % 2 for i in range(n)], list(range(11, 19)))
        assert np.all(result.terminated)
        for i in range(len(result)):
            trial = result.trial(i)
            senders, crashes = trial.senders_per_round, trial.crashes_per_round
            assert trial.rounds >= 1
            assert all(0 <= c <= p for c, p in zip(crashes, senders))
            assert all(
                later <= p - c
                for p, c, later in zip(senders, crashes, senders[1:])
            )
            assert sum(crashes) == trial.crashes_used <= t
            assert trial.decision_round == trial.rounds - 1
            assert trial.decision in (0, 1)


class TestBrokenAdversaryCaught:
    def test_per_round_budget_violation_raises_with_report(self):
        n = 256
        cap = adversary_round_budget(n) + 1
        burst = cap + 5
        # Crash `burst` processes in round 1 — legal for a general
        # adversary (burst <= t), illegal under the Lemma 3.1 cap.
        schedule = {1: list(range(burst))}
        adv = StaticAdversary(n, schedule=schedule)
        san = SimSanitizer.lower_bound(n, n)
        engine = Engine(
            SynRanProtocol(),
            adv,
            n,
            seed=5,
            strict_termination=False,
            sanitizer=san,
        )
        with pytest.raises(SanitizerViolationError) as excinfo:
            engine.run([i % 2 for i in range(n)])
        err = excinfo.value
        assert err.violation is not None
        assert err.violation.check == "per-round-budget"
        assert err.violation.round_index == 1
        assert err.report is not None and err.report["ok"] is False
        assert err.report["violations"][0]["check"] == "per-round-budget"

    def test_send_after_crash_caught(self):
        san = SimSanitizer(4, 2, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[2], decided={})
        san.observe_round(2, senders=[0, 1, 2, 3], victims=[], decided={})
        assert not san.ok
        assert san.violations[0].check == "fail-stop"
        assert san.violations[0].pids == (2,)

    def test_halted_process_sending_caught(self):
        san = SimSanitizer(4, 2, mode="collect")
        san.observe_round(
            1, senders=[0, 1, 2, 3], victims=[], decided={}, halted=[3]
        )
        san.observe_round(2, senders=[1, 3], victims=[], decided={})
        assert [v.check for v in san.violations] == ["halted-sends"]

    def test_double_crash_and_ghost_victims_caught(self):
        san = SimSanitizer(4, 4, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[0], decided={})
        san.observe_round(2, senders=[1, 2, 3], victims=[0, 9], decided={})
        checks = sorted(v.check for v in san.violations)
        assert checks == ["invalid-victim", "invalid-victim"]

    def test_total_budget_violation_caught(self):
        san = SimSanitizer(4, 1, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[0, 1], decided={})
        assert [v.check for v in san.violations] == ["total-budget"]

    def test_decision_revocation_caught(self):
        san = SimSanitizer(4, 2, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[], decided={0: 1})
        san.observe_round(2, senders=[0, 1, 2, 3], victims=[], decided={0: 0})
        assert [v.check for v in san.violations] == ["decision-irrevocability"]
        assert "re-decided" in san.violations[0].message

    def test_round_monotonicity_caught(self):
        san = SimSanitizer(4, 2, mode="collect")
        san.observe_round(2, senders=[0, 1], victims=[], decided={})
        san.observe_round(2, senders=[0, 1], victims=[], decided={})
        assert [v.check for v in san.violations] == ["round-monotonicity"]

    def test_raise_mode_fails_fast(self):
        san = SimSanitizer(4, 2)
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[3], decided={})
        with pytest.raises(SanitizerViolationError):
            san.observe_round(2, senders=[3], victims=[], decided={})


class TestReportShape:
    def test_begin_run_resets_state(self):
        san = SimSanitizer(4, 1, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[0, 1], decided={})
        assert not san.ok
        san.begin_run()
        assert san.ok and san.report()["rounds_observed"] == 0
        assert san.report()["crashes_total"] == 0

    def test_report_is_jsonable_and_complete(self):
        import json

        san = SimSanitizer(4, 2, per_round_budget=1, mode="collect")
        san.observe_round(1, senders=[0, 1, 2, 3], victims=[0, 1], decided={})
        payload = json.loads(json.dumps(san.report()))
        assert payload["ok"] is False
        assert payload["n"] == 4 and payload["t"] == 2
        assert payload["per_round_budget"] == 1
        violation = payload["violations"][0]
        assert set(violation) == {"check", "round", "message", "pids"}
        assert violation["check"] == "per-round-budget"
        assert violation["round"] == 1
