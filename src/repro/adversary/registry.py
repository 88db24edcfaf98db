"""The one adversary name table, for every engine.

Each row names one attack and holds one factory per engine that
implements it, keyed by ``TrialSpec.engine`` values.  A name means the
same attack on every engine that has it: a counts-level factory fills
both ``batch`` and ``batch2d`` (the harness runs counts decisions on
the counts engine whichever vectorized kind a spec names); a mask
factory fills ``batch2d`` alone.  An engine with no factory for a name
rejects it, naming the engines that have one.

Every factory takes ``(n, t, protocol, params)``: ``protocol`` is a
fresh instance of the protocol under attack (the exact-play adversary
simulates it; the Ben-Or trimmer reads its decision threshold; the
vectorized engines pass ``None``), ``params`` a spec's primitive
adversary parameters.  Factories return a *fresh* adversary, since
adversaries are stateful across rounds.

The REP002 lint rule requires every concrete ``Adversary``,
``BatchFastAdversary`` and ``Batch2DAdversary`` in ``adversary/`` or
``sim/`` to be referenced here, and every name to be documented in
``docs/registries.md``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional

from repro.adversary.antibeacon import AntiBeaconAdversary
from repro.adversary.antisynran import TallyAttackAdversary
from repro.adversary.base import Adversary
from repro.adversary.benign import BenignAdversary
from repro.adversary.benorattack import BenOrQuorumAdversary
from repro.adversary.lowerbound import ExactValencyAdversary
from repro.adversary.oblivious import (
    ObliviousAdversary,
    burst_schedule,
    calibrated_drip_schedule,
    drip_schedule,
    uniform_schedule,
)
from repro.adversary.random_crash import RandomCrashAdversary
from repro.adversary.static import StaticAdversary
from repro.errors import ConfigurationError, reject_unknown_params
from repro.sim.batch import (
    BatchBenign,
    BatchOblivious,
    BatchRandomCrash,
    BatchTallyAttack,
    BatchValencyKeeper,
)
from repro.sim.batch2d import Batch2DPartition

__all__ = [
    "adversary_factory",
    "available_adversaries",
    "make_adversary",
    "register_adversary",
]

Params = Dict[str, object]
AdversaryFactory = Callable[[int, int, object, Params], object]


def _engines(
    *,
    reference: Optional[AdversaryFactory] = None,
    counts: Optional[AdversaryFactory] = None,
    mask: Optional[AdversaryFactory] = None,
) -> Dict[str, AdversaryFactory]:
    """One row: the factory of every engine that implements a name."""
    row: Dict[str, AdversaryFactory] = {}
    if reference is not None:
        row["reference"] = reference
    if counts is not None:
        row["batch"] = row["batch2d"] = counts
    if mask is not None:
        row["batch2d"] = mask
    return row


_FACTORIES: Dict[str, Dict[str, AdversaryFactory]] = {
    "benign": _engines(
        reference=lambda n, t, proto, p: BenignAdversary(t),
        counts=lambda n, t, proto, p: BatchBenign(),
    ),
    # Victims crash silently, so the counts engines run the same attack.
    "random": _engines(
        reference=lambda n, t, proto, p: RandomCrashAdversary(
            t, silent_probability=1.0, **{"rate": 0.1, **p}
        ),
        counts=lambda n, t, proto, p: BatchRandomCrash(
            t, **{"rate": 0.1, **p}
        ),
    ),
    # Half the victims still reach a random half of the receivers: a
    # delivery rule that splits views, which counts cannot express.
    "random-partial": _engines(
        reference=lambda n, t, proto, p: RandomCrashAdversary(
            t, **{"rate": 0.1, **p}
        ),
    ),
    "burst": _engines(
        reference=lambda n, t, proto, p: RandomCrashAdversary(
            t, **{"rate": 0.05, "burst_probability": 0.2, **p}
        ),
    ),
    "tally-attack": _engines(
        reference=lambda n, t, proto, p: TallyAttackAdversary(t, **p),
        counts=lambda n, t, proto, p: BatchTallyAttack(t, **p),
    ),
    "tally-split-only": _engines(
        reference=lambda n, t, proto, p: TallyAttackAdversary(
            t, enable_bleed=False, **p
        ),
        counts=lambda n, t, proto, p: BatchTallyAttack(
            t, enable_bleed=False, **p
        ),
    ),
    "tally-bleed-only": _engines(
        reference=lambda n, t, proto, p: TallyAttackAdversary(
            t, enable_split=False, **p
        ),
        counts=lambda n, t, proto, p: BatchTallyAttack(
            t, enable_split=False, **p
        ),
    ),
    "anti-beacon": _engines(
        reference=lambda n, t, proto, p: AntiBeaconAdversary(t),
    ),
    "benor-quorum": _engines(
        reference=lambda n, t, proto, p: BenOrQuorumAdversary(
            t,
            decide_threshold=int(
                p.get("decide_threshold", getattr(proto, "t", t) + 1)
            ),
        ),
    ),
    "exact-stall": _engines(
        reference=lambda n, t, proto, p: ExactValencyAdversary(
            t, proto, n, **{"objective": "rounds", **p}
        ),
    ),
    # Empty schedule: "static" exists so scripted schedules (regression
    # replays) are constructible by name; pass a real schedule
    # programmatically via StaticAdversary(t, schedule=...).
    "static": _engines(
        reference=lambda n, t, proto, p: StaticAdversary(t, schedule={}),
    ),
    # The whole budget crashed in one scripted round (default round 0):
    # the Validity stress scenario of E7/A1.
    "static-mass-crash": _engines(
        reference=lambda n, t, proto, p: StaticAdversary(
            t, schedule={int(p.get("round", 0)): list(range(t))}
        ),
    ),
    "oblivious-calibrated": _engines(
        reference=lambda n, t, proto, p: ObliviousAdversary(
            t, calibrated_drip_schedule
        ),
        counts=lambda n, t, proto, p: BatchOblivious.from_schedule(
            t, calibrated_drip_schedule
        ),
    ),
    "oblivious-uniform": _engines(
        reference=lambda n, t, proto, p: ObliviousAdversary(
            t, uniform_schedule
        ),
    ),
    "oblivious-burst": _engines(
        reference=lambda n, t, proto, p: ObliviousAdversary(
            t, burst_schedule
        ),
    ),
    "oblivious-drip": _engines(
        reference=lambda n, t, proto, p: ObliviousAdversary(
            t, partial(drip_schedule, per_round=int(p.get("per_round", 1)))
        ),
    ),
    "valency-keeper": _engines(
        counts=lambda n, t, proto, p: BatchValencyKeeper(t, **p),
    ),
    "partition": _engines(
        mask=lambda n, t, proto, p: Batch2DPartition(t, **p),
    ),
}

#: Parameters of the names whose factories read a fixed set of keys
#: (or none); any other key is rejected.  The other factories pass
#: their parameters to a constructor, which checks its keywords.
_KNOWN_PARAMS: Dict[str, frozenset] = {
    "benign": frozenset(),
    "anti-beacon": frozenset(),
    "static": frozenset(),
    "oblivious-calibrated": frozenset(),
    "oblivious-uniform": frozenset(),
    "oblivious-burst": frozenset(),
    "benor-quorum": frozenset({"decide_threshold"}),
    "static-mass-crash": frozenset({"round"}),
    "oblivious-drip": frozenset({"per_round"}),
}


def available_adversaries(engine: Optional[str] = "reference") -> List[str]:
    """Sorted names with a factory for ``engine`` (every name for
    ``None``)."""
    return sorted(
        name
        for name, row in _FACTORIES.items()
        if engine is None or engine in row
    )


def adversary_factory(
    name: str,
    engine: str = "reference",
    params: Optional[Mapping[str, object]] = None,
) -> AdversaryFactory:
    """The factory ``engine`` builds ``name`` with; builds nothing.

    Raises:
        ConfigurationError: unknown name, no factory for ``engine``
            (the message names the engines that have one), or a key of
            ``params`` the name does not read.
    """
    try:
        row = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary {name!r}; available: "
            f"{', '.join(available_adversaries(None))}"
        ) from None
    try:
        factory = row[engine]
    except KeyError:
        raise ConfigurationError(
            f"adversary {name!r} has no {engine}-engine implementation; "
            f"it runs on: {', '.join(sorted(row))}"
        ) from None
    if params and name in _KNOWN_PARAMS:
        reject_unknown_params("adversary", name, params, _KNOWN_PARAMS[name])
    return factory


def make_adversary(
    name: str,
    n: int,
    t: int,
    protocol: object = None,
    *,
    engine: str = "reference",
    params: Optional[Mapping[str, object]] = None,
) -> object:
    """Build the named adversary for ``engine``: an ``n``-process run
    with budget ``t`` against ``protocol``, configured by ``params``.

    Raises:
        ConfigurationError: see :func:`adversary_factory`.
    """
    p = dict(params or {})
    return adversary_factory(name, engine, p)(n, t, protocol, p)


def register_adversary(
    name: str, factory: Callable[..., Adversary]
) -> None:
    """Register a reference-engine factory ``(n, t, protocol,
    **params)`` (serial execution only: process-pool workers resolve
    names by import and will not see runtime registrations).

    Raises:
        ConfigurationError: if the name is already taken.
    """
    if name in _FACTORIES:
        raise ConfigurationError(f"adversary {name!r} already registered")
    _FACTORIES[name] = _engines(
        reference=lambda n, t, proto, p: factory(n, t, proto, **p)
    )
