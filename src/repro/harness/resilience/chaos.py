"""Chaos injection for the executor layer.

A :class:`FaultPlan` declares failures to inject into a run — the same
fail-stop events the recovery machinery exists to absorb — so the
integration tests can *prove* the invariance that matters: a run with
injected faults produces outcomes byte-identical to a fault-free run.

Fault kinds:

* ``kill`` — the worker process executing the targeted chunk calls
  ``os._exit``, breaking the whole process pool (exercises pool
  rebuild and resubmission).
* ``raise`` — the chunk raises :class:`ChaosError` before building
  anything (stands in for a crashing builder or a poisoned input;
  exercises per-chunk retry and, when persistent, quarantine).
* ``delay`` — the chunk sleeps ``seconds`` before executing
  (exercises the chunk-timeout stall detector).
* ``corrupt`` — a cache document of the batch (the final batch
  document or a partial-ledger chunk document) is truncated into
  garbage before it is read (exercises corrupt-entry-is-a-miss
  recomputation).
* ``corrupt-outcomes`` — the chunk computes normally, then the
  targeted trial's outcome is deterministically falsified (wrong
  ``rounds``, flipped verdict) *before* it leaves the worker: a
  Byzantine worker returning well-formed lies.  Only the service
  worker applies this kind (a lying in-process executor would be
  indistinguishable from a broken engine); it exercises outcome
  attestation and audit re-execution.

Activation is via the ``REPRO_CHAOS`` environment variable naming a
fault-plan JSON file.  An environment variable — rather than live
state — is the one channel that survives the process boundary, so
pool workers inherit the plan with no extra plumbing; the executor's
``run_chunk`` calls :func:`inject_chunk_faults` on entry, which is a
no-op when the variable is unset.

``kill``/``raise``/``delay`` faults target a *trial index* (they fire
in whichever chunk contains it, so they are stable under re-chunking)
and fire only while the chunk's retry ordinal is below ``times`` —
a transient fault lets the retry succeed, a ``times`` large enough to
outlast ``RetryPolicy.max_attempts`` forces a quarantine.

No randomness anywhere: a fault plan is a deterministic schedule, so
chaos runs are as replayable as clean ones.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.exec.cache import ResultCache
    from repro.harness.exec.spec import TrialBatch
    from repro.harness.exec.trial import TrialOutcome

__all__ = [
    "CHAOS_ENV",
    "ChaosError",
    "Fault",
    "FaultPlan",
    "apply_corruption",
    "corrupt_outcomes",
    "inject_chunk_faults",
]

#: Environment variable naming the active fault-plan JSON file.
CHAOS_ENV = "REPRO_CHAOS"

_FAULT_KINDS = ("kill", "raise", "delay", "corrupt", "corrupt-outcomes")
_CORRUPT_ENTRIES = ("batch", "partial")

#: Filler written over a corrupted document — deliberately not JSON,
#: so loads must treat the entry as a miss.
_CORRUPTION = "{chaos: torn write"


class ChaosError(RuntimeError):
    """An injected failure, standing in for a real crashed chunk."""


@dataclass(frozen=True)
class Fault:
    """One declared failure.

    Attributes:
        kind: ``"kill"``, ``"raise"``, ``"delay"``, or ``"corrupt"``.
        trial: Target trial index.  Worker-side faults fire in the
            chunk containing it; a ``corrupt``/``partial`` fault
            targets the ledger document covering it.
        times: Fire while the chunk's retry ordinal is ``< times``
            (worker-side faults only; default 1 = first attempt only).
        seconds: Sleep duration for ``delay`` faults.
        entry: Corruption target for ``corrupt`` faults — ``"batch"``
            (the final batch document) or ``"partial"`` (the ledger
            chunk document covering ``trial``).
    """

    kind: str
    trial: int
    times: int = 1
    seconds: float = 0.0
    entry: str = "batch"

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.trial < 0:
            raise ConfigurationError(
                f"fault trial must be >= 0, got {self.trial}"
            )
        if self.times < 1:
            raise ConfigurationError(
                f"fault times must be >= 1, got {self.times}"
            )
        if self.seconds < 0:
            raise ConfigurationError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )
        if self.entry not in _CORRUPT_ENTRIES:
            raise ConfigurationError(
                f"fault entry must be one of {_CORRUPT_ENTRIES}, "
                f"got {self.entry!r}"
            )

    def fires(self, indices: Sequence[int], attempt: int) -> bool:
        """Whether this worker-side fault fires for this chunk attempt."""
        return self.trial in indices and attempt < self.times

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "trial": self.trial,
            "times": self.times,
            "seconds": self.seconds,
            "entry": self.entry,
        }

    @classmethod
    def from_jsonable(cls, doc: Dict[str, Any]) -> "Fault":
        try:
            return cls(
                kind=str(doc["kind"]),
                trial=int(doc["trial"]),
                times=int(doc.get("times", 1)),
                seconds=float(doc.get("seconds", 0.0)),
                entry=str(doc.get("entry", "batch")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed fault record: {exc}"
            ) from exc


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of failures to inject into a run."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def chunk_faults(
        self, indices: Sequence[int], attempt: int
    ) -> Tuple[Fault, ...]:
        """The worker-side faults firing for this chunk attempt."""
        return tuple(
            f
            for f in self.faults
            if f.kind not in ("corrupt", "corrupt-outcomes")
            and f.fires(indices, attempt)
        )

    def corruption_faults(self) -> Tuple[Fault, ...]:
        """The parent-side cache-corruption faults."""
        return tuple(f for f in self.faults if f.kind == "corrupt")

    def outcome_faults(
        self, indices: Sequence[int], attempt: int
    ) -> Tuple[Fault, ...]:
        """The Byzantine outcome-falsification faults for this attempt."""
        return tuple(
            f
            for f in self.faults
            if f.kind == "corrupt-outcomes" and f.fires(indices, attempt)
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {"faults": [f.to_jsonable() for f in self.faults]}

    @classmethod
    def from_jsonable(cls, doc: Dict[str, Any]) -> "FaultPlan":
        try:
            records = doc["faults"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed fault plan: {exc}"
            ) from exc
        if not isinstance(records, list):
            raise ConfigurationError(
                "malformed fault plan: 'faults' must be a list"
            )
        return cls(faults=tuple(Fault.from_jsonable(r) for r in records))

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the plan as JSON; returns the path (for ``REPRO_CHAOS``)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_jsonable(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from JSON; raises ``ConfigurationError`` if malformed.

        A broken plan file fails loudly — a chaos run that silently
        injected nothing would pass its gates vacuously.
        """
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read fault plan {path}: {exc}"
            ) from exc
        return cls.from_jsonable(doc)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_CHAOS``, or ``None`` when unset."""
        path = os.environ.get(CHAOS_ENV)
        if not path:
            return None
        return cls.load(path)


def inject_chunk_faults(
    indices: Sequence[int],
    attempt: int,
    plan: Optional[FaultPlan] = None,
) -> None:
    """Worker-side hook: fire any fault targeting this chunk attempt.

    Called by the executor's ``run_chunk`` on entry.  With no explicit
    ``plan`` the environment is consulted; unset means a plain
    dictionary lookup and an immediate return, so production runs pay
    nothing.
    """
    if plan is None:
        plan = FaultPlan.from_env()
        if plan is None:
            return
    for fault in plan.chunk_faults(indices, attempt):
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "raise":
            raise ChaosError(
                f"injected chunk failure (trial {fault.trial}, "
                f"attempt {attempt})"
            )
        elif fault.kind == "kill":
            # A fail-stop worker crash: no cleanup, no exception, the
            # process is simply gone — exactly what the pool-rebuild
            # path must survive.
            os._exit(17)


def corrupt_outcomes(
    outcomes: List["TrialOutcome"],
    indices: Sequence[int],
    attempt: int,
    plan: Optional[FaultPlan] = None,
) -> List["TrialOutcome"]:
    """Byzantine hook: falsify targeted outcomes of a computed chunk.

    Returns a new list in which each trial targeted by a firing
    ``corrupt-outcomes`` fault has its ``rounds`` inflated by one and
    its verdict (when present) negated — records that parse, validate,
    and store perfectly well, they are just *wrong*.  This is the lie
    outcome attestation cannot catch on receipt (the digest is computed
    over the lie) and audit re-execution exists to catch.  With no
    firing fault the input list is returned unchanged.
    """
    if plan is None:
        plan = FaultPlan.from_env()
        if plan is None:
            return outcomes
    firing = plan.outcome_faults(indices, attempt)
    if not firing:
        return outcomes
    targets = {f.trial for f in firing}
    falsified = []
    for outcome in outcomes:
        if outcome.trial_index in targets:
            verdict = outcome.verdict
            if verdict is not None:
                verdict = dict(verdict, agreement=not verdict["agreement"])
            outcome = dataclasses.replace(
                outcome, rounds=outcome.rounds + 1, verdict=verdict
            )
        falsified.append(outcome)
    return falsified


def _corrupt(path: Path) -> bool:
    """Overwrite ``path`` with non-JSON garbage; True if it existed."""
    if not path.is_file():
        return False
    path.write_text(_CORRUPTION, encoding="utf-8")
    return True


def apply_corruption(
    cache: Optional["ResultCache"],
    batch: "TrialBatch",
    plan: Optional[FaultPlan] = None,
) -> int:
    """Parent-side hook: corrupt targeted cache documents of ``batch``.

    Called by executors before consulting the cache, simulating torn
    writes and bit rot that a resumed run must shrug off (the loads
    treat any corrupt document as a miss).  Returns the number of
    documents corrupted.
    """
    if cache is None:
        return 0
    if plan is None:
        plan = FaultPlan.from_env()
        if plan is None:
            return 0
    corrupted = 0
    for fault in plan.corruption_faults():
        if fault.entry == "batch":
            if _corrupt(cache.path_for(batch)):
                corrupted += 1
        else:
            for path in cache.partial_paths(batch):
                first, last = cache.chunk_doc_span(path)
                if first is None or last is None:
                    continue
                if first <= fault.trial <= last and _corrupt(path):
                    corrupted += 1
    return corrupted
