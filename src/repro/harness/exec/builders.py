"""Name-based construction of live objects from a :class:`TrialSpec`.

Everything here is resolvable by import inside a worker process: a
spec names its protocol, adversary, fault model and input workload,
and each name (plus primitive parameters) is looked up in the one
table of its concept — :mod:`repro.protocols.registry`,
:mod:`repro.adversary.registry` (one factory per engine),
:mod:`repro.faultmodels.registry`, and the input table below — to
build fresh instances.  No closure or live object ever crosses a
process boundary.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence

from repro.adversary.registry import make_adversary
from repro.errors import ConfigurationError
from repro.faultmodels.registry import make_fault_model
from repro.harness.exec.spec import TrialSpec
from repro.harness.workloads import (
    half_split,
    random_inputs,
    unanimous,
    worst_case_split,
)
from repro.protocols.registry import make_protocol

__all__ = [
    "available_input_kinds",
    "build_adversary",
    "build_batch_adversary",
    "build_fault_model",
    "build_inputs",
    "build_protocol",
]


_INPUTS: Dict[
    str, Callable[[int, random.Random, Dict[str, object]], Sequence[int]]
] = {
    "unanimous0": lambda n, rng, p: unanimous(n, 0),
    "unanimous1": lambda n, rng, p: unanimous(n, 1),
    "half": lambda n, rng, p: half_split(n),
    "worst": lambda n, rng, p: worst_case_split(n, **p),
    "random": lambda n, rng, p: random_inputs(n, rng, **p),
}


def available_input_kinds() -> List[str]:
    """Sorted workload names accepted by :func:`build_inputs`."""
    return sorted(_INPUTS)


def build_protocol(spec: TrialSpec) -> object:
    """A fresh protocol instance for ``spec``."""
    return make_protocol(
        spec.protocol, spec.n, spec.t, dict(spec.protocol_params)
    )


def build_adversary(spec: TrialSpec, probe: object = None) -> object:
    """A fresh adversary for ``spec`` on ``spec.engine``.

    ``probe`` is a fresh protocol instance for reference-engine
    adversaries that inspect the protocol under attack (e.g. the Ben-Or
    quorum trimmer reads its decision threshold).  Callers must
    construct a new probe per trial so no protocol state leaks between
    trials.

    Raises:
        ConfigurationError: the name is unknown, or ``spec.engine`` has
            no factory for it.
    """
    return make_adversary(
        spec.adversary,
        spec.n,
        spec.t,
        probe,
        engine=spec.engine,
        params=dict(spec.adversary_params),
    )


def build_batch_adversary(spec: TrialSpec) -> object:
    """A fresh adversary for a vectorized (``batch``/``batch2d``) spec,
    which needs no probe."""
    return build_adversary(spec)


def build_fault_model(spec: TrialSpec):
    """A fresh fault model for ``spec``.

    Resolves ``spec.fault_model`` (plus primitive parameters) through
    the :mod:`repro.faultmodels` registry; the default ``"crash"``
    reproduces the pre-fault-layer semantics.  Models are stateful
    across rounds (omission charging, late snapshots), so callers must
    build one per engine instance, never share one across trials.
    """
    return make_fault_model(spec.fault_model, dict(spec.fault_model_params))


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
    return factory(spec.n, rng, dict(spec.inputs_params))
