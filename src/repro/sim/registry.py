"""Name-based registries for the counts/batch engine family.

The spec layer (:mod:`repro.harness.exec.builders`) constructs live
objects from names that cross process boundaries; these tables are the
single source of truth for which names the 1-D counts engine and the
two-axis engine accept.  They live here — next to the classes they name —
so the ``sim`` package is registry-complete in the REP002 sense: every
concrete adversary below is reachable from a table,
and every table key is documented in ``docs/registries.md``.

Two invariants the tables maintain:

* :data:`BATCH2D_ADVERSARIES` is a superset of
  :data:`BATCH_ADVERSARIES`: every counts-level name lifts through
  :class:`~repro.sim.batch2d.Batch2DCounts` with bit-identical
  trajectories, and mask-native adversaries (``partition``) extend the
  table with attacks only the two-axis engine can express.
* Factories take ``(t, params)`` and return a *fresh* adversary —
  adversaries are stateful across rounds, so no instance is ever
  shared between engine constructions.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.adversary.oblivious import calibrated_drip_schedule
from repro.sim.batch import (
    BatchBenign,
    BatchFastAdversary,
    BatchFastEngine,
    BatchOblivious,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)
from repro.sim.batch2d import (
    Batch2DAdversary,
    Batch2DCounts,
    Batch2DEngine,
    Batch2DPartition,
)

__all__ = [
    "BATCH2D_ADVERSARIES",
    "BATCH_ADVERSARIES",
    "BATCH_ENGINES",
    "available_batch2d_adversaries",
    "available_batch_adversaries",
]

_Params = Dict[str, object]


BATCH_ADVERSARIES: Dict[
    str, Callable[[int, _Params], BatchFastAdversary]
] = {
    "benign": lambda t, p: BatchBenign(),
    "random": lambda t, p: BatchRandomCrash(t, **{"rate": 0.1, **p}),
    "tally-attack": lambda t, p: BatchTallyAttack(t, **p),
    "tally-split-only": lambda t, p: BatchTallyAttack(
        t, enable_bleed=False, **p
    ),
    "tally-bleed-only": lambda t, p: BatchTallyAttack(
        t, enable_split=False, **p
    ),
    "oblivious-calibrated": lambda t, p: BatchOblivious.from_schedule(
        t, calibrated_drip_schedule
    ),
    "valency-keeper": lambda t, p: BatchValencyKeeper(t, **p),
}


def _lifted(name: str) -> Callable[[int, _Params], Batch2DAdversary]:
    def factory(t: int, p: _Params) -> Batch2DAdversary:
        return Batch2DCounts(BATCH_ADVERSARIES[name](t, p))

    return factory


BATCH2D_ADVERSARIES: Dict[
    str, Callable[[int, _Params], Batch2DAdversary]
] = {
    **{name: _lifted(name) for name in BATCH_ADVERSARIES},
    "partition": lambda t, p: Batch2DPartition(t, **p),
}


#: Engine-kind → vectorized engine class, keyed by ``TrialSpec.engine``
#: values.  Both constructors share the
#: ``(protocol, adversary, n, *, max_rounds, strict_termination,
#: fault_model)`` contract.
BATCH_ENGINES: Dict[str, type] = {
    "batch": BatchFastEngine,
    "batch2d": Batch2DEngine,
}


def available_batch_adversaries() -> List[str]:
    """Sorted adversary names usable with the 1-D batch engine."""
    return sorted(BATCH_ADVERSARIES)


def available_batch2d_adversaries() -> List[str]:
    """Sorted adversary names usable with the two-axis engine."""
    return sorted(BATCH2D_ADVERSARIES)
