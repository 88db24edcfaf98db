"""The one protocol name table, for the harness, specs and the CLI.

Protocols differ in what they need at construction time (Ben-Or and
FloodSet need the target resilience ``t``; SynRan needs nothing), so
each name maps to a factory taking ``(n, t, params)`` — ``params`` is
a spec's primitive protocol parameters — and returning a ready
instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, reject_unknown_params
from repro.protocols.base import ConsensusProtocol
from repro.protocols.beacon import BeaconRanProtocol
from repro.protocols.benor import BenOrProtocol
from repro.protocols.floodset import FloodSetProtocol
from repro.protocols.gp_hybrid import GPHybridProtocol
from repro.protocols.symmetric import SymmetricRanProtocol
from repro.protocols.synran import SynRanProtocol

__all__ = [
    "available_protocols",
    "make_protocol",
    "protocol_factory",
    "register_protocol",
]

ProtocolFactory = Callable[[int, int, Dict[str, object]], ConsensusProtocol]

_FACTORIES: Dict[str, ProtocolFactory] = {
    "synran": lambda n, t, p: SynRanProtocol(**p),
    "synran-nodet": lambda n, t, p: SynRanProtocol(det_handoff=False, **p),
    "symmetric-ran": lambda n, t, p: SymmetricRanProtocol(**p),
    "benor": lambda n, t, p: BenOrProtocol(t=t, **p),
    "floodset": lambda n, t, p: FloodSetProtocol.for_resilience(t),
    "gp-hybrid": lambda n, t, p: GPHybridProtocol.for_resilience(n, t, **p),
    "beacon-ran": lambda n, t, p: BeaconRanProtocol(**p),
}

#: Parameters of the names whose factories read a fixed set of keys
#: (here: none); any other key is rejected.  The other factories pass
#: their parameters to a constructor, which checks its keywords.
_KNOWN_PARAMS: Dict[str, frozenset] = {
    "floodset": frozenset(),
}


def available_protocols() -> List[str]:
    """Sorted names accepted by :func:`make_protocol`."""
    return sorted(_FACTORIES)


def protocol_factory(
    name: str, params: Optional[Mapping[str, object]] = None
) -> ProtocolFactory:
    """The factory :func:`make_protocol` builds ``name`` with; builds
    nothing.

    Raises:
        ConfigurationError: unknown name, or a key of ``params`` the
            name does not read.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: "
            f"{', '.join(available_protocols())}"
        ) from None
    if params and name in _KNOWN_PARAMS:
        reject_unknown_params("protocol", name, params, _KNOWN_PARAMS[name])
    return factory


def make_protocol(
    name: str,
    n: int,
    t: int,
    params: Optional[Mapping[str, object]] = None,
) -> ConsensusProtocol:
    """Build the named protocol for an ``n``-process, budget-``t`` setup,
    configured by ``params``.

    Raises:
        ConfigurationError: see :func:`protocol_factory`; or a ``t``
            the protocol cannot be configured for.
    """
    p = dict(params or {})
    protocol = protocol_factory(name, p)(n, t, p)
    if protocol.requires_majority and t * 2 >= n and n > 1:
        raise ConfigurationError(
            f"protocol {name!r} requires t < n/2; got n={n}, t={t}"
        )
    return protocol


def register_protocol(
    name: str, factory: Callable[..., ConsensusProtocol]
) -> None:
    """Register a custom protocol factory ``(n, t, **params)`` (serial
    execution only: process-pool workers resolve names by import and
    will not see runtime registrations).

    Raises:
        ConfigurationError: if the name is already taken.
    """
    if name in _FACTORIES:
        raise ConfigurationError(f"protocol {name!r} already registered")
    _FACTORIES[name] = lambda n, t, p: factory(n, t, **p)
