"""The late adversary: crash faults chosen from an ε-stale view.

Robinson–Scheideler–Setzer (arXiv:1805.00774) weaken the
full-information adversary by delaying it: failures in round ``r`` may
condition only on the system's state as of round ``r - ε``, so the
freshest ε rounds of coin flips are hidden.  Crash semantics, budgets,
and delivery rules are untouched — only :meth:`adversary_view`
changes, which is exactly the seam the :class:`FaultModel` layer
exposes.

Staleness applies to the *coin-dependent* data (local states and
pending payloads).  The adversary still knows the current participant
set, its own remaining budget, and the inputs (inputs precede every
coin), so before round ε it sees the coin-free round-0 information and
nothing fresher.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Generic, List, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.faultmodels.crash import CrashFaultModel
from repro.sim.model import ProcessCore, RoundView

__all__ = ["LagRing", "LateFaultModel"]

_Snap = TypeVar("_Snap")


class LagRing(Generic[_Snap]):
    """Snapshot store realising the late model's ε-stale views.

    The vectorized engines' shared run scaffold
    (``repro.sim.batch._Run.adversary_view``) pushes one copied view
    per round, whichever engine built it; this ring serves round ``r``
    the snapshot of round ``max(0, r - lag)`` — the same clamping
    :meth:`LateFaultModel.view_round` applies at message level, so the
    message-level and vectorized realisations of the model agree on
    *which* round the adversary sees.  With ``lag=0`` it stores
    nothing.
    """

    def __init__(self, lag: int) -> None:
        if lag < 0:
            raise ConfigurationError(f"lag must be >= 0, got {lag}")
        self.lag = lag
        self._snapshots: List[_Snap] = []

    def push(self, snapshot: _Snap) -> None:
        if self.lag:
            self._snapshots.append(snapshot)

    def stale(self, round_index: int) -> _Snap:
        """The snapshot the adversary may see in ``round_index``."""
        return self._snapshots[max(0, round_index - self.lag)]


class LateFaultModel(CrashFaultModel):
    """Crash model whose adversary view lags by ``lag`` rounds.

    ``lag=0`` degenerates to the plain crash model (and skips all
    snapshotting).  With ``lag=ε > 0`` the view served in round ``r``
    carries the states, payloads, *and round index* of round
    ``j = max(0, r - ε)`` — the index must match the states so that
    adversaries indexing per-round state history (tallies ``N^r``)
    read self-consistent data — restricted to processes still
    participating now, while ``alive``, ``budget_remaining``, and
    ``inputs`` stay current: the adversary knows who is alive and what
    it may still spend, just not the fresh coins.
    """

    name = "late"

    def __init__(self, lag: int = 1) -> None:
        if lag < 0:
            raise ConfigurationError(f"lag must be >= 0, got {lag}")
        self.lag = lag
        self._snapshots: List[
            Tuple[Dict[int, ProcessCore], Dict[int, Any]]
        ] = []

    def begin_run(self, n: int, t: int) -> None:
        self._snapshots = []

    def view_round(self, round_index: int) -> int:
        return max(0, round_index - self.lag)

    def adversary_view(self, view: RoundView) -> RoundView:
        if self.lag == 0:
            return view
        # Deep-copy this round's coin-dependent data before serving a
        # stale snapshot: states are live objects that Phase B will
        # mutate, and the snapshot must stay frozen at this round.
        self._snapshots.append(
            (
                copy.deepcopy(dict(view.states)),
                copy.deepcopy(dict(view.payloads)),
            )
        )
        stale_round = self.view_round(view.round_index)
        states, payloads = self._snapshots[stale_round]
        # Participants only shrink over time, so every pid alive now
        # had a payload at the stale round; restricting the stale
        # payload map keeps victim choices structurally valid.
        return RoundView(
            round_index=stale_round,
            n=view.n,
            alive=view.alive,
            states=states,
            payloads={pid: payloads[pid] for pid in view.alive},
            budget_remaining=view.budget_remaining,
            inputs=view.inputs,
        )
