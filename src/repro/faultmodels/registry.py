"""Name-based fault-model construction for the engines and harness.

Mirrors the protocol and adversary registries: factories take a
primitive-parameter dict (a spec's ``fault_model_params``), names are
what :class:`~repro.harness.exec.spec.TrialSpec` and ``--fault-model``
accept, and the REP002 lint rule requires every concrete
:class:`~repro.sim.model.FaultModel` in this package to be referenced
here and documented under ``docs/``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.errors import ConfigurationError, reject_unknown_params
from repro.faultmodels.crash import CrashFaultModel
from repro.faultmodels.late import LateFaultModel
from repro.faultmodels.omission import (
    ReceiveOmissionFaultModel,
    SendOmissionFaultModel,
)
from repro.sim.model import FaultModel

__all__ = [
    "available_fault_models",
    "make_fault_model",
    "register_fault_model",
    "resolve_fault_model",
]

_FACTORIES: Dict[str, Callable[[Dict[str, object]], FaultModel]] = {
    "crash": lambda p: CrashFaultModel(),
    "send-omission": lambda p: SendOmissionFaultModel(),
    "receive-omission": lambda p: ReceiveOmissionFaultModel(),
    "late": lambda p: LateFaultModel(lag=int(p.pop("lag", 1))),
}

#: Parameters each factory consumes; anything else is a spec typo and
#: must fail loudly rather than silently configure the default.
_KNOWN_PARAMS: Dict[str, frozenset] = {
    "crash": frozenset(),
    "send-omission": frozenset(),
    "receive-omission": frozenset(),
    "late": frozenset({"lag"}),
}


def available_fault_models() -> List[str]:
    """Sorted names accepted by :func:`make_fault_model`."""
    return sorted(_FACTORIES)


def make_fault_model(
    name: str, params: Optional[Mapping[str, object]] = None
) -> FaultModel:
    """Build the named fault model from primitive parameters.

    Raises:
        ConfigurationError: unknown name or unknown parameter.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault model {name!r}; available: "
            f"{', '.join(available_fault_models())}"
        ) from None
    p = dict(params or {})
    if name in _KNOWN_PARAMS:
        reject_unknown_params("fault model", name, p, _KNOWN_PARAMS[name])
    return factory(p)


def register_fault_model(
    name: str, factory: Callable[[Dict[str, object]], FaultModel]
) -> None:
    """Register a custom fault-model factory (serial execution only —
    process-pool workers resolve names by import and will not see
    runtime registrations).

    Raises:
        ConfigurationError: if the name is already taken.
    """
    if name in _FACTORIES:
        raise ConfigurationError(
            f"fault model {name!r} already registered"
        )
    _FACTORIES[name] = factory


def resolve_fault_model(
    model: Union[str, FaultModel, None],
) -> FaultModel:
    """Engine-side coercion: name, instance, or ``None`` (= crash)."""
    if model is None:
        return CrashFaultModel()
    if isinstance(model, FaultModel):
        return model
    if isinstance(model, str):
        return make_fault_model(model)
    raise ConfigurationError(
        f"fault_model must be a name, a FaultModel instance, or None; "
        f"got {type(model).__name__}"
    )
