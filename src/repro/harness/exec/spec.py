"""Declarative trial specifications and hash-based seed derivation.

A :class:`TrialSpec` pins down everything one Monte-Carlo trial needs —
protocol and adversary by *name* (plus primitive parameters), system
size, budget, input workload, horizon, and engine kind — as a frozen,
hashable, picklable value.  Because a spec carries no callables, it can
cross a process boundary, be hashed into a cache key, and be rebuilt
into live objects by :mod:`repro.harness.exec.builders` inside any
worker.

Seed derivation
---------------

Per-trial seeds are computed as::

    seed_i = SHA-256(f"{base_seed}:{scope}:{trial_index}")[:8]   # 63 bits

where ``scope`` is the spec's content hash (or a fixed label for the
factory-based compatibility wrappers in :mod:`repro.harness.runner`).
Each trial's seed therefore depends only on ``(base_seed, spec,
trial_index)`` — never on which worker ran it, how trials were chunked,
or what ran before it — so a batch's outcomes are byte-identical for
any executor and worker count.

**Compatibility note:** this replaces the seed stream used before the
executor core existed (a sequential ``random.Random(base_seed)``
drawing ``getrandbits(48)`` per trial).  The old stream made outcome
``i`` depend on outcomes ``0..i-1`` having been *scheduled* first,
which is incompatible with parallel and resumable execution.  Absolute
sampled values in runs recorded before this change (EXPERIMENTS.md)
therefore differ from a re-run at the same ``base_seed``; the measured
claims are shape/statistical statements and are unaffected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ENGINE_BATCH",
    "ENGINE_BATCH2D",
    "ENGINE_KINDS",
    "ENGINE_REFERENCE",
    "ExecutionPlan",
    "FACTORY_SCOPE",
    "TrialBatch",
    "TrialSpec",
    "derive_trial_seed",
    "spec_params",
]

ENGINE_REFERENCE = "reference"
ENGINE_BATCH = "batch"
ENGINE_BATCH2D = "batch2d"
ENGINE_KINDS = (ENGINE_REFERENCE, ENGINE_BATCH, ENGINE_BATCH2D)

#: Seed-derivation scope used by the factory-based wrappers
#: (:func:`repro.harness.runner.run_reference_trials` and friends),
#: which have no spec to hash.  Versioned so the wrappers' streams can
#: be rotated independently of spec-based streams.
FACTORY_SCOPE = "factory-v1"

_PARAM_TYPES = (bool, int, float, str, type(None))


def spec_params(**kwargs: object) -> Tuple[Tuple[str, object], ...]:
    """Normalise keyword parameters into a spec's canonical tuple form.

    Values must be JSON-compatible primitives (bool/int/float/str/None)
    so the spec stays hashable, picklable, and stable under the content
    hash.  Keys are sorted for canonical ordering.
    """
    for key, value in kwargs.items():
        if not isinstance(value, _PARAM_TYPES):
            raise ConfigurationError(
                f"spec parameter {key!r} must be a primitive "
                f"(bool/int/float/str/None), got {type(value).__name__}"
            )
    return tuple(sorted(kwargs.items()))


def derive_trial_seed(base_seed: int, scope: str, trial_index: int) -> int:
    """The 63-bit seed of trial ``trial_index`` under ``scope``.

    Depends only on its three arguments (see the module docstring), so
    per-trial seeds are reproducible without replaying any sequential
    seed stream — the property that makes parallel execution and cache
    resume byte-identical to a serial run.
    """
    if trial_index < 0:
        raise ConfigurationError(
            f"trial_index must be >= 0, got {trial_index}"
        )
    material = f"{base_seed}:{scope}:{trial_index}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class TrialSpec:
    """One trial configuration, fully described by names and primitives.

    Attributes:
        protocol: Protocol builder name (see
            :func:`repro.harness.exec.builders.build_protocol`).
        adversary: Adversary builder name.
        n: Number of processes.
        t: Adversary crash budget.
        inputs: Input-workload kind (``unanimous0`` / ``unanimous1`` /
            ``half`` / ``worst`` / ``random``).
        protocol_params / adversary_params / inputs_params: Extra
            constructor parameters as canonical ``(key, value)`` tuples
            — build them with :func:`spec_params`.
        max_rounds: Round horizon (``None`` = engine default).
        engine: ``"reference"`` (the message-level engine),
            ``"batch"`` (the counts-level engine, executed whole-chunk
            per NumPy call), or ``"batch2d"`` (the two-axis engine with
            per-process state).
        strict_termination: Raise on horizon instead of recording a
            timeout.
        fault_model: Registered fault-model name (see
            :func:`repro.faultmodels.make_fault_model`); the default
            ``"crash"`` reproduces the pre-fault-layer fail-stop
            semantics and is excluded from the content hash so
            existing cache keys and seed streams are untouched.
        fault_model_params: Fault-model constructor parameters as
            canonical ``(key, value)`` tuples (e.g.
            ``spec_params(lag=2)`` for ``late``); the empty default is
            likewise excluded from the content hash.
    """

    protocol: str
    adversary: str
    n: int
    t: int
    inputs: str = "worst"
    protocol_params: Tuple[Tuple[str, object], ...] = ()
    adversary_params: Tuple[Tuple[str, object], ...] = ()
    inputs_params: Tuple[Tuple[str, object], ...] = ()
    max_rounds: Optional[int] = None
    engine: str = ENGINE_REFERENCE
    strict_termination: bool = False
    fault_model: str = "crash"
    fault_model_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.t <= self.n:
            raise ConfigurationError(
                f"t must be in [0, n]={self.n}, got {self.t}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        for name in (
            "protocol_params",
            "adversary_params",
            "inputs_params",
            "fault_model_params",
        ):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise ConfigurationError(
                    f"{name} must be a tuple of (key, value) pairs "
                    "(build it with spec_params(**kwargs))"
                )

    def spec_hash(self) -> str:
        """Content hash of the spec (hex), stable across processes.

        Used as the seed-derivation scope and as a cache-key
        component: any change to any field changes the hash, so cached
        results can never be served for a different configuration.

        Fields still at the value they had before they existed are
        dropped from the hashed document (``fault_model`` at
        ``"crash"``, ``fault_model_params`` at ``()``): specs written
        before the fault layer keep their exact hashes, seed streams,
        and on-disk cache entries.
        """
        doc = asdict(self)
        if doc.get("fault_model") == "crash":
            doc.pop("fault_model")
        if doc.get("fault_model_params") == ():
            doc.pop("fault_model_params")
        canonical = json.dumps(doc, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def trial_seed(self, base_seed: int, trial_index: int) -> int:
        """Seed of trial ``trial_index`` of a batch rooted at ``base_seed``."""
        return derive_trial_seed(base_seed, self.spec_hash(), trial_index)


@dataclass(frozen=True)
class TrialBatch:
    """A spec plus how many seeded trials to run on it.

    Attributes:
        spec: The trial configuration.
        trials: Number of Monte-Carlo trials.
        base_seed: Root of the batch's seed stream.
        label: Optional display label (cell coordinates, experiment id).
    """

    spec: TrialSpec
    trials: int
    base_seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )

    def trial_seed(self, trial_index: int) -> int:
        """Seed of the batch's ``trial_index``-th trial."""
        return self.spec.trial_seed(self.base_seed, trial_index)

    def batch_key(self) -> str:
        """Content hash identifying the batch's full result set."""
        material = f"{self.spec.spec_hash()}:{self.base_seed}:{self.trials}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered collection of batches (e.g. one per sweep cell)."""

    batches: Tuple[TrialBatch, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.batches, tuple):
            object.__setattr__(self, "batches", tuple(self.batches))

    def __iter__(self) -> Iterator[TrialBatch]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def total_trials(self) -> int:
        """Total trial count across every batch."""
        return sum(batch.trials for batch in self.batches)
