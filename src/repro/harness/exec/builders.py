"""Name-based construction of live objects from a :class:`TrialSpec`.

Everything here is resolvable by import inside a worker process: a
spec names its protocol, adversary, and input workload, and the tables
below turn those names (plus primitive parameters) into fresh
instances.  No closure or live object ever crosses a process boundary.

The tables extend the package registries
(:mod:`repro.protocols.registry`, :mod:`repro.adversary.registry`)
rather than replacing them: a name with no extra parameters falls back
to the registry factory, so every registry-constructible configuration
is spec-constructible; the explicit entries add the parameterised
variants the experiment suite needs (e.g. ``stop_fraction`` sweeps,
crash rates, schedule shapes).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence

from repro.adversary.antibeacon import AntiBeaconAdversary
from repro.adversary.antisynran import TallyAttackAdversary
from repro.adversary.benign import BenignAdversary
from repro.adversary.benorattack import BenOrQuorumAdversary
from repro.adversary.oblivious import (
    ObliviousAdversary,
    burst_schedule,
    calibrated_drip_schedule,
    drip_schedule,
    uniform_schedule,
)
from repro.adversary.random_crash import RandomCrashAdversary
from repro.adversary.registry import make_adversary
from repro.adversary.static import StaticAdversary
from repro.errors import ConfigurationError
from repro.faultmodels.registry import make_fault_model
from repro.harness.exec.spec import ENGINE_BATCH, ENGINE_BATCH2D, TrialSpec
from repro.harness.workloads import (
    half_split,
    random_inputs,
    unanimous,
    worst_case_split,
)
from repro.protocols.beacon import BeaconRanProtocol
from repro.protocols.benor import BenOrProtocol
from repro.protocols.floodset import FloodSetProtocol
from repro.protocols.gp_hybrid import GPHybridProtocol
from repro.protocols.registry import make_protocol
from repro.protocols.symmetric import SymmetricRanProtocol
from repro.protocols.synran import SynRanProtocol
from repro.sim.batch import BatchFastAdversary
from repro.sim.batch2d import Batch2DAdversary
from repro.sim.registry import (
    BATCH2D_ADVERSARIES,
    BATCH_ADVERSARIES,
    available_batch2d_adversaries,
    available_batch_adversaries,
)

__all__ = [
    "available_batch2d_adversaries",
    "available_batch_adversaries",
    "available_input_kinds",
    "build_adversary",
    "build_batch_adversary",
    "build_fault_model",
    "build_inputs",
    "build_protocol",
]


_PROTOCOLS: Dict[str, Callable[[int, int, Dict[str, object]], object]] = {
    "synran": lambda n, t, p: SynRanProtocol(**p),
    "synran-nodet": lambda n, t, p: SynRanProtocol(det_handoff=False, **p),
    "symmetric-ran": lambda n, t, p: SymmetricRanProtocol(**p),
    "benor": lambda n, t, p: BenOrProtocol(t=t, **p),
    "floodset": lambda n, t, p: FloodSetProtocol.for_resilience(t),
    "gp-hybrid": lambda n, t, p: GPHybridProtocol.for_resilience(n, t, **p),
    "beacon-ran": lambda n, t, p: BeaconRanProtocol(**p),
}


def _drip_generator(per_round: int):
    def generator(n: int, t: int, rng: random.Random):
        return drip_schedule(n, t, rng, per_round=per_round)

    return generator


_ADVERSARIES: Dict[
    str, Callable[[int, int, object, Dict[str, object]], object]
] = {
    "benign": lambda n, t, probe, p: BenignAdversary(t),
    "random": lambda n, t, probe, p: RandomCrashAdversary(
        t, **{"rate": 0.1, **p}
    ),
    "burst": lambda n, t, probe, p: RandomCrashAdversary(
        t, **{"rate": 0.05, "burst_probability": 0.2, **p}
    ),
    "tally-attack": lambda n, t, probe, p: TallyAttackAdversary(t, **p),
    "tally-split-only": lambda n, t, probe, p: TallyAttackAdversary(
        t, enable_bleed=False, **p
    ),
    "tally-bleed-only": lambda n, t, probe, p: TallyAttackAdversary(
        t, enable_split=False, **p
    ),
    "anti-beacon": lambda n, t, probe, p: AntiBeaconAdversary(t),
    "benor-quorum": lambda n, t, probe, p: BenOrQuorumAdversary(
        t,
        decide_threshold=int(
            p.get("decide_threshold", getattr(probe, "t", t) + 1)
        ),
    ),
    "static": lambda n, t, probe, p: StaticAdversary(t, schedule={}),
    # The whole budget crashed in one scripted round (default round 0):
    # the Validity stress scenario of E7/A1.
    "static-mass-crash": lambda n, t, probe, p: StaticAdversary(
        t, schedule={int(p.get("round", 0)): list(range(t))}
    ),
    "oblivious": lambda n, t, probe, p: ObliviousAdversary(
        t, calibrated_drip_schedule
    ),
    "oblivious-calibrated": lambda n, t, probe, p: ObliviousAdversary(
        t, calibrated_drip_schedule
    ),
    "oblivious-uniform": lambda n, t, probe, p: ObliviousAdversary(
        t, uniform_schedule
    ),
    "oblivious-burst": lambda n, t, probe, p: ObliviousAdversary(
        t, burst_schedule
    ),
    "oblivious-drip": lambda n, t, probe, p: ObliviousAdversary(
        t, _drip_generator(int(p.get("per_round", 1)))
    ),
}


_INPUTS: Dict[
    str, Callable[[int, random.Random, Dict[str, object]], Sequence[int]]
] = {
    "unanimous0": lambda n, rng, p: unanimous(n, 0),
    "unanimous1": lambda n, rng, p: unanimous(n, 1),
    "half": lambda n, rng, p: half_split(n),
    "worst": lambda n, rng, p: worst_case_split(n, **p),
    "random": lambda n, rng, p: random_inputs(n, rng, **p),
}


def _params(pairs) -> Dict[str, object]:
    return dict(pairs)


def available_input_kinds() -> List[str]:
    """Sorted workload names accepted by :func:`build_inputs`."""
    return sorted(_INPUTS)


def build_protocol(spec: TrialSpec) -> object:
    """A fresh protocol instance for ``spec``.

    Falls back to the package registry for unparameterised names, so
    anything :func:`repro.protocols.registry.make_protocol` accepts
    (including runtime registrations, serial execution only) works here
    too.
    """
    params = _params(spec.protocol_params)
    factory = _PROTOCOLS.get(spec.protocol)
    if factory is None:
        if params:
            raise ConfigurationError(
                f"protocol {spec.protocol!r} accepts no spec parameters "
                f"(known parameterised protocols: {sorted(_PROTOCOLS)})"
            )
        return make_protocol(spec.protocol, spec.n, spec.t)
    if not params:
        # Route through the registry for its shared validation
        # (e.g. Ben-Or's t < n/2 requirement).
        return make_protocol(spec.protocol, spec.n, spec.t)
    protocol = factory(spec.n, spec.t, params)
    if (
        getattr(protocol, "requires_majority", False)
        and spec.t * 2 >= spec.n
        and spec.n > 1
    ):
        raise ConfigurationError(
            f"protocol {spec.protocol!r} requires t < n/2; got "
            f"n={spec.n}, t={spec.t}"
        )
    return protocol


def build_adversary(spec: TrialSpec, probe: object) -> object:
    """A fresh reference-engine adversary for ``spec``.

    ``probe`` is a fresh protocol instance for adversaries that need to
    inspect the protocol under attack (e.g. the Ben-Or quorum trimmer
    reads its decision threshold).  Callers must construct a new probe
    per trial so no protocol state leaks between trials.
    """
    params = _params(spec.adversary_params)
    factory = _ADVERSARIES.get(spec.adversary)
    if factory is None:
        if params:
            raise ConfigurationError(
                f"adversary {spec.adversary!r} accepts no spec parameters "
                f"(known parameterised adversaries: {sorted(_ADVERSARIES)})"
            )
        return make_adversary(spec.adversary, spec.n, spec.t, probe)
    return factory(spec.n, spec.t, probe, params)


def build_batch_adversary(
    spec: TrialSpec,
) -> "BatchFastAdversary | Batch2DAdversary":
    """A fresh batch-engine adversary for ``spec``.

    Serves both vectorized engine kinds: an ``engine="batch"`` spec
    resolves through the 1-D counts table, an ``engine="batch2d"`` spec
    through the two-axis table (a name-superset — every counts
    adversary lifts, plus mask-native entries like ``partition``).
    """
    if spec.engine == ENGINE_BATCH:
        table, available = BATCH_ADVERSARIES, available_batch_adversaries
    elif spec.engine == ENGINE_BATCH2D:
        table, available = (
            BATCH2D_ADVERSARIES,
            available_batch2d_adversaries,
        )
    else:
        raise ConfigurationError(
            f"spec engine is {spec.engine!r}; build_batch_adversary "
            "requires an engine='batch' or engine='batch2d' spec"
        )
    try:
        factory = table[spec.adversary]
    except KeyError:
        raise ConfigurationError(
            f"adversary {spec.adversary!r} has no {spec.engine}-engine "
            f"implementation; available: {available()}"
        ) from None
    return factory(spec.t, _params(spec.adversary_params))


def build_fault_model(spec: TrialSpec):
    """A fresh fault model for ``spec``.

    Resolves ``spec.fault_model`` (plus primitive parameters) through
    the :mod:`repro.faultmodels` registry; the default ``"crash"``
    reproduces the pre-fault-layer semantics.  Models are stateful
    across rounds (omission charging, late snapshots), so callers must
    build one per engine instance, never share one across trials.
    """
    return make_fault_model(
        spec.fault_model, _params(spec.fault_model_params)
    )


def build_inputs(spec: TrialSpec, rng: random.Random) -> Sequence[int]:
    """The input vector for one trial of ``spec``.

    ``rng`` is the trial's dedicated input stream (derived from the
    trial seed), consumed only by workloads that sample (``random``).
    """
    try:
        factory = _INPUTS[spec.inputs]
    except KeyError:
        raise ConfigurationError(
            f"unknown input kind {spec.inputs!r}; available: "
            f"{available_input_kinds()}"
        ) from None
    return factory(spec.n, rng, _params(spec.inputs_params))
