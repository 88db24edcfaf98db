"""Runtime simulation sanitizer: model-contract assertions for engines.

The paper's lower bound (Lemmas 3.1–3.5, Theorem 1) holds only in a
strict model — fail-stop crashes, a per-round failure budget of
``4·sqrt(n·log n) + 1`` for the Section-3 adversary, irrevocable
decisions — so a silent contract violation in the simulator would
invalidate every experimental claim.  :class:`SimSanitizer` is an
independent observer hooked into the message-level
:class:`repro.sim.engine.Engine` behind a flag; it re-derives the
invariants from the raw per-round observations rather than trusting
the engine's own bookkeeping.  (The counts-level engines keep no
per-process state to audit; they enforce their own contract: invalid
kill counts and budget overdrafts raise, and by construction the
population never grows and each trial's decision is written once.)

Checks (each yields a structured :class:`SanitizerViolation`):

* ``fail-stop`` — a crashed process never sends, decides, or is
  observed alive again.
* ``halted-sends`` — a voluntarily halted process never sends again.
* ``invalid-victim`` — the adversary crashed a pid that was not an
  alive sender this round (includes ``double-crash``).
* ``per-round-budget`` — at most ``per_round_budget`` crashes per
  round (the paper's ``4·sqrt(n·log n)+1`` via :meth:`lower_bound`).
* ``total-budget`` — at most ``t`` crashes over the execution.
* ``round-monotonicity`` — observed round indices strictly increase.
* ``decision-irrevocability`` — a decided process never re-decides or
  changes value.

The contract varies with the active fault model (``fault_model``
constructor argument, mirroring :mod:`repro.faultmodels`):

* ``crash`` / ``late`` — the full fail-stop contract above.  Under
  ``late`` the extra ``view-lag`` check polices that the adversary's
  served view is never fresher than ``round - lag`` allows.
* ``send-omission`` / ``receive-omission`` — faulty processes may keep
  speaking but are never obligated to; nobody dies.  ``unexpected-
  crash`` fires if the engine reports any crash victim, ``total-budget``
  counts *distinct* omission-faulty processes against ``t``, and
  ``non-faulty-drop`` fires when a dropped message's faulty endpoint
  (the sender for send-omission, the recipient for receive-omission)
  was never charged as faulty.

``mode="raise"`` (default) raises :class:`SanitizerViolationError` on
the first violation; ``mode="collect"`` accumulates them for the
structured :meth:`report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro._math import adversary_round_budget
from repro.errors import ConfigurationError, SanitizerViolationError

__all__ = ["SanitizerViolation", "SimSanitizer"]


@dataclass(frozen=True)
class SanitizerViolation:
    """One model-contract violation, pinned to a round (and pids)."""

    check: str
    round_index: int
    message: str
    pids: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "round": self.round_index,
            "message": self.message,
            "pids": list(self.pids),
        }


class SimSanitizer:
    """Independent fail-stop/budget/irrevocability monitor for one run.

    Args:
        n: Number of processes.
        t: Total crash budget the adversary claims.
        per_round_budget: Optional per-round crash cap.  ``None`` skips
            the per-round check (general adversaries may legally burst);
            :meth:`lower_bound` sets the paper's Section-3 cap.
        mode: ``"raise"`` (fail fast) or ``"collect"`` (accumulate and
            let the caller inspect :attr:`violations` / :meth:`report`).
        fault_model: Name of the active fault model; selects the
            contract variant (see the module docstring).  Unknown names
            get the fail-stop contract — custom registered models are
            assumed crash-like unless they say otherwise.
        lag: Declared adversary view lag (``late`` model); arms the
            ``view-lag`` check.
    """

    _OMISSION_MODELS = frozenset({"send-omission", "receive-omission"})

    def __init__(
        self,
        n: int,
        t: int,
        *,
        per_round_budget: Optional[int] = None,
        mode: str = "raise",
        fault_model: str = "crash",
        lag: int = 0,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if mode not in ("raise", "collect"):
            raise ConfigurationError(
                f"mode must be 'raise' or 'collect', got {mode!r}"
            )
        if per_round_budget is not None and per_round_budget < 0:
            raise ConfigurationError(
                f"per_round_budget must be >= 0, got {per_round_budget}"
            )
        if lag < 0:
            raise ConfigurationError(f"lag must be >= 0, got {lag}")
        self.n = n
        self.t = t
        self.per_round_budget = per_round_budget
        self.mode = mode
        self.fault_model = fault_model
        self.lag = lag
        self._omission = fault_model in self._OMISSION_MODELS
        self.violations: List[SanitizerViolation] = []
        self.begin_run()

    @classmethod
    def lower_bound(cls, n: int, t: int, *, mode: str = "raise") -> "SimSanitizer":
        """Sanitizer armed with the paper's per-round failure budget.

        Lemma 3.1 allows the lower-bound adversary ``4·sqrt(n·log n)``
        failures per round and the composite strategy one more
        (the ``+1``), so the cap is ``adversary_round_budget(n) + 1``.
        """
        return cls(
            n, t, per_round_budget=adversary_round_budget(n) + 1, mode=mode
        )

    # ------------------------------------------------------------------

    def begin_run(self) -> None:
        """Reset observation state for a fresh execution."""
        self.violations = []
        self._crashed: set = set()
        self._halted: set = set()
        self._decisions: Dict[int, Any] = {}
        self._crashes_total = 0
        self._last_round: Optional[int] = None
        self._rounds_observed = 0
        # Omission accounting: distinct faulty pids.
        self._faulty: set = set()

    # ------------------------------------------------------------------

    def _emit(self, check: str, round_index: int, message: str,
              pids: Iterable[int] = ()) -> None:
        violation = SanitizerViolation(
            check=check,
            round_index=round_index,
            message=message,
            pids=tuple(sorted(pids)),
        )
        self.violations.append(violation)
        if self.mode == "raise":
            raise SanitizerViolationError(
                f"[{violation.check}] round {violation.round_index}: "
                f"{violation.message}",
                violation=violation,
                report=self.report(),
            )

    def _check_round_index(self, round_index: int) -> None:
        if self._last_round is not None and round_index <= self._last_round:
            self._emit(
                "round-monotonicity",
                round_index,
                f"round index {round_index} does not increase past "
                f"{self._last_round}",
            )
        self._last_round = round_index
        self._rounds_observed += 1

    def _check_crash_budgets(self, round_index: int, crashes: int) -> None:
        if (
            self.per_round_budget is not None
            and crashes > self.per_round_budget
        ):
            self._emit(
                "per-round-budget",
                round_index,
                f"{crashes} crashes in one round exceeds the per-round "
                f"budget {self.per_round_budget} "
                "(paper: 4*sqrt(n*log n)+1)",
            )
        self._crashes_total += crashes
        if self._crashes_total > self.t:
            self._emit(
                "total-budget",
                round_index,
                f"{self._crashes_total} total crashes exceeds the "
                f"adversary budget t={self.t}",
            )

    def _check_view_round(
        self, round_index: int, view_round: Optional[int]
    ) -> None:
        if view_round is None:
            return
        freshest_allowed = max(0, round_index - self.lag)
        if view_round > freshest_allowed:
            self._emit(
                "view-lag",
                round_index,
                f"adversary conditioned on a round-{view_round} view, "
                f"but with lag={self.lag} nothing fresher than round "
                f"{freshest_allowed} is allowed",
            )

    def _check_omission_faults(
        self, round_index: int, new_faulty: set
    ) -> None:
        """Budget accounting for distinct omission-faulty processes."""
        if (
            self.per_round_budget is not None
            and len(new_faulty) > self.per_round_budget
        ):
            self._emit(
                "per-round-budget",
                round_index,
                f"{len(new_faulty)} newly faulty processes in one round "
                f"exceeds the per-round budget {self.per_round_budget}",
                new_faulty,
            )
        self._faulty |= new_faulty
        if len(self._faulty) > self.t:
            self._emit(
                "total-budget",
                round_index,
                f"{len(self._faulty)} distinct omission-faulty "
                f"processes exceeds the adversary budget t={self.t}",
            )

    # ------------------------------------------------------------------
    # engine hook
    # ------------------------------------------------------------------

    def observe_round(
        self,
        round_index: int,
        senders: Sequence[int],
        victims: Iterable[int],
        decided: Mapping[int, Any],
        halted: Iterable[int] = (),
        *,
        faulty: Iterable[int] = (),
        dropped: Optional[Mapping[int, Iterable[int]]] = None,
        view_round: Optional[int] = None,
    ) -> None:
        """Record one reference-engine round.

        Args:
            round_index: The round just executed.
            senders: Pids that produced a payload in Phase A.
            victims: Pids the adversary crashed in Phase B.
            decided: Newly decided pids -> decided value.
            halted: Pids that voluntarily halted this round.
            faulty: Pids newly charged as omission-faulty this round
                (omission models; empty under crash/late).
            dropped: Sender -> recipients that missed its round
                message, as recorded in the trace.  Consulted by the
                omission contracts' ``non-faulty-drop`` check.
            view_round: The round whose data the adversary's served
                view carried; arms the ``view-lag`` check.
        """
        self._check_round_index(round_index)
        self._check_view_round(round_index, view_round)
        sender_set = set(senders)

        dead_senders = sender_set & self._crashed
        if dead_senders:
            self._emit(
                "fail-stop",
                round_index,
                "crashed process(es) sent a message — fail-stop "
                "semantics forbid any action after a crash",
                dead_senders,
            )
        halted_senders = sender_set & self._halted
        if halted_senders:
            self._emit(
                "halted-sends",
                round_index,
                "halted process(es) sent a message after stopping",
                halted_senders,
            )

        victim_set = set(victims)
        if self._omission:
            if victim_set:
                self._emit(
                    "unexpected-crash",
                    round_index,
                    f"the {self.fault_model!r} model never crashes "
                    "processes, yet the engine reported crash victims",
                    victim_set,
                )
            self._check_omission_faults(
                round_index, set(faulty) - self._faulty
            )
            if dropped:
                if self.fault_model == "send-omission":
                    bad = {s for s in dropped if s not in self._faulty}
                else:
                    bad = {
                        r
                        for rs in dropped.values()
                        for r in rs
                        if r not in self._faulty
                    }
                if bad:
                    self._emit(
                        "non-faulty-drop",
                        round_index,
                        "message(s) dropped at endpoint(s) never "
                        "charged as omission-faulty",
                        bad,
                    )
        else:
            double = victim_set & self._crashed
            if double:
                self._emit(
                    "invalid-victim",
                    round_index,
                    "adversary crashed already-crashed process(es)",
                    double,
                )
            ghosts = victim_set - sender_set - double
            if ghosts:
                self._emit(
                    "invalid-victim",
                    round_index,
                    "adversary crashed process(es) that were not alive "
                    "senders this round",
                    ghosts,
                )
            self._check_crash_budgets(round_index, len(victim_set))

        for pid, value in decided.items():
            if pid in self._crashed:
                self._emit(
                    "fail-stop",
                    round_index,
                    f"crashed process {pid} decided {value!r}",
                    (pid,),
                )
            if pid in self._decisions:
                previous = self._decisions[pid]
                detail = (
                    f"process {pid} re-decided ({previous!r} -> {value!r})"
                    if previous != value
                    else f"process {pid} decided twice (value {value!r})"
                )
                self._emit(
                    "decision-irrevocability", round_index, detail, (pid,)
                )
            self._decisions[pid] = value

        self._crashed |= victim_set
        self._halted |= set(halted)

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """No violation observed so far."""
        return not self.violations

    def report(self) -> Dict[str, object]:
        """Structured JSON-able report of this run's observations."""
        return {
            "ok": self.ok,
            "n": self.n,
            "t": self.t,
            "per_round_budget": self.per_round_budget,
            "fault_model": self.fault_model,
            "lag": self.lag,
            "rounds_observed": self._rounds_observed,
            "crashes_total": self._crashes_total,
            "faulty_total": len(self._faulty),
            "violations": [v.to_dict() for v in self.violations],
        }
