"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

from typing import Collection


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A simulation, protocol, or adversary was configured inconsistently.

    Examples: a negative number of processes, an adversary budget larger
    than the process count when the model forbids it, or an unknown
    protocol name passed to the registry.
    """


def reject_unknown_params(
    kind: str, name: str, params: Collection[str], known: Collection[str]
) -> None:
    """Raise :class:`ConfigurationError` when ``params`` holds a key
    outside ``known``: a parameter the factory of ``name`` never reads
    would change a spec's hash, and so its seeds, but not its run."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigurationError(
            f"{kind} {name!r} does not accept parameter(s) {unknown}; "
            f"known: {sorted(known)}"
        )


class BudgetExceededError(ReproError):
    """An adversary attempted to fail more processes than its budget allows.

    The engine treats this as a hard error rather than silently clamping,
    because a silently weakened adversary would corrupt lower-bound
    measurements.
    """


class ProtocolViolationError(ReproError):
    """A protocol implementation broke an engine invariant.

    Raised when, e.g., a process sends after deciding to halt, changes a
    decision after it was fixed, or emits a message for an unknown
    recipient.
    """


class AgreementViolation(ReproError):
    """Two non-faulty processes decided different values.

    Raised by :func:`repro.sim.checks.verify_execution` when the
    Agreement condition of the consensus problem fails.
    """


class ValidityViolation(ReproError):
    """A decision value was not any process's input value.

    Raised by :func:`repro.sim.checks.verify_execution` when the Validity
    condition fails (all inputs equal ``v`` but some process decided
    ``1 - v``).
    """


class SanitizerViolationError(ReproError):
    """The runtime simulation sanitizer observed a model-contract break.

    Raised by :class:`repro.lint.sanitizer.SimSanitizer` in ``raise``
    mode when an execution violates fail-stop semantics, a failure
    budget, round monotonicity, or decision irrevocability.  Carries the
    offending :class:`~repro.lint.sanitizer.SanitizerViolation` and the
    full structured report.
    """

    def __init__(self, message, *, violation=None, report=None):
        super().__init__(message)
        self.violation = violation
        self.report = report


class TerminationViolation(ReproError):
    """A non-faulty process failed to decide within the allowed horizon.

    Termination holds with probability 1 in the paper; the simulator
    enforces a finite (configurable, generous) round horizon and treats
    running past it as a violation so that runaway executions surface as
    errors instead of hangs.
    """
