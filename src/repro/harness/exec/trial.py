"""Single-trial execution shared by every driver.

:class:`TrialOutcome` is the unit the whole execution core trades in:
one trial's JSON-serialisable result record.  It carries everything the
harness aggregates into ``TrialStats`` plus the per-round series the
profiling experiments need, so serial loops, worker processes, and the
result cache all speak the same value.

:func:`run_spec_trial` is the one function a worker process runs: given
a (picklable) spec, a base seed, and a trial index, it derives the
trial seed, builds fresh objects, executes, and returns the outcome.
It is deliberately free of any per-batch state so outcome ``i`` never
depends on which worker computed it or what ran before it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.exec.builders import (
    build_adversary,
    build_batch_adversary,
    build_fault_model,
    build_inputs,
    build_protocol,
)
from repro.harness.exec.spec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    TrialSpec,
    derive_trial_seed,
)
from repro.sim.batch import BatchFastAdversary, BatchFastEngine, BatchResult
from repro.sim.batch2d import Batch2DAdversary, Batch2DEngine
from repro.sim.checks import verify_execution
from repro.sim.engine import Engine
from repro.sim.model import Verdict

__all__ = [
    "BATCH_ENGINES",
    "TrialOutcome",
    "batch_outcomes",
    "compute_chunk",
    "encode_outcomes",
    "encoding_digest",
    "execute_reference_trial",
    "outcomes_digest",
    "run_spec_batch",
    "run_spec_trial",
    "runs_on_counts_engine",
    "vectorized_kind",
]

#: Input kinds whose vectors depend on the trial's input stream.  The
#: batch path builds the input vector once per chunk for every other
#: kind (they are pure functions of ``n``), which keeps input
#: construction off the per-trial critical path.
_SAMPLED_INPUT_KINDS = frozenset({"random"})

#: XOR mask separating the input-sampling stream from the engine
#: stream; the factory-based drivers of :mod:`repro.harness.runner`
#: seed with it too.
_INPUT_STREAM_MASK = 0x5EED

#: Vectorized engine kind -> engine class.  Both constructors share the
#: ``(protocol, adversary, n, *, max_rounds, strict_termination,
#: fault_model)`` contract; :func:`vectorized_kind` picks the kind.
BATCH_ENGINES: Dict[str, type] = {
    ENGINE_BATCH: BatchFastEngine,
    ENGINE_BATCH2D: Batch2DEngine,
}


def vectorized_kind(adversary: object) -> str:
    """The vectorized engine kind that runs ``adversary``.

    The decision form picks the engine, whatever kind a spec names:
    counts decisions (:class:`~repro.sim.batch.BatchFastAdversary`)
    leave every receiver with the same tallies and run on ``batch``;
    mask decisions (:class:`~repro.sim.batch2d.Batch2DAdversary`) need
    per-process state and run on ``batch2d``.

    Raises:
        ConfigurationError: ``adversary`` is neither.
    """
    if isinstance(adversary, BatchFastAdversary):
        return ENGINE_BATCH
    if isinstance(adversary, Batch2DAdversary):
        return ENGINE_BATCH2D
    raise ConfigurationError(
        "a vectorized engine needs a BatchFastAdversary or "
        f"Batch2DAdversary, got {type(adversary).__name__}"
    )


def runs_on_counts_engine(spec: TrialSpec) -> bool:
    """Whether ``spec``'s trials run on the counts engine.

    True for a vectorized spec whose adversary makes counts decisions,
    whatever kind the spec names (:func:`vectorized_kind`).  A spec
    whose adversary cannot be built is left to fail in its chunks,
    where the executor reports it.
    """
    if spec.engine not in BATCH_ENGINES:
        return False
    try:
        return vectorized_kind(build_batch_adversary(spec)) == ENGINE_BATCH
    except Exception:  # the chunk raises it again, with its context
        return False


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result, JSON-serialisable for caching and transport.

    Attributes:
        trial_index: Position of the trial within its batch.
        seed: The engine seed the trial ran under.
        rounds: Total rounds executed.
        decision_round: First round by whose end every surviving
            process had decided; ``None`` when the horizon was hit (or
            everyone crashed first).
        timeout: Whether the trial hit the round horizon undecided.
        crashes: Total processes crashed.
        decision: The common decision value (``None`` if none).
        verdict: Consensus verdict as a plain dict (reference engine
            only; ``None`` for counts-engine trials, whose checking is
            structural).
        crashes_per_round: Per-round crash counts (vectorized engines
            only).
        senders_per_round: Per-round broadcaster counts (vectorized
            engines only).
    """

    trial_index: int
    seed: int
    rounds: int
    decision_round: Optional[int]
    timeout: bool
    crashes: int
    decision: Optional[int]
    verdict: Optional[Dict[str, Any]] = None
    crashes_per_round: Optional[List[int]] = None
    senders_per_round: Optional[List[int]] = None

    @property
    def effective_round(self) -> int:
        """Decision round, or the horizon for timed-out trials.

        This is the value the factory drivers have always appended to
        ``TrialStats.decision_rounds``.
        """
        return self.rounds if self.decision_round is None else self.decision_round

    def verdict_obj(self) -> Optional[Verdict]:
        """The verdict as a :class:`~repro.sim.model.Verdict`, if any."""
        if self.verdict is None:
            return None
        return Verdict(
            agreement=bool(self.verdict["agreement"]),
            validity=bool(self.verdict["validity"]),
            termination=bool(self.verdict["termination"]),
            decision=self.verdict["decision"],
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-dict form suitable for ``json.dump``."""
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "rounds": self.rounds,
            "decision_round": self.decision_round,
            "timeout": self.timeout,
            "crashes": self.crashes,
            "decision": self.decision,
            "verdict": self.verdict,
            "crashes_per_round": self.crashes_per_round,
            "senders_per_round": self.senders_per_round,
        }

    @classmethod
    def from_jsonable(cls, doc: Dict[str, Any]) -> "TrialOutcome":
        """Inverse of :meth:`to_jsonable`; raises on malformed docs."""
        try:
            return cls(
                trial_index=int(doc["trial_index"]),
                seed=int(doc["seed"]),
                rounds=int(doc["rounds"]),
                decision_round=(
                    None
                    if doc["decision_round"] is None
                    else int(doc["decision_round"])
                ),
                timeout=bool(doc["timeout"]),
                crashes=int(doc["crashes"]),
                decision=(
                    None if doc["decision"] is None else int(doc["decision"])
                ),
                verdict=doc.get("verdict"),
                crashes_per_round=doc.get("crashes_per_round"),
                senders_per_round=doc.get("senders_per_round"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed trial-outcome record: {exc}"
            ) from exc


def encode_outcomes(outcomes: Sequence[TrialOutcome]) -> str:
    """The canonical JSON encoding of a set of outcomes.

    One JSON array of the ``to_jsonable`` records in trial-index order,
    with sorted keys and no whitespace.  It is the one encoding of the
    result path: :func:`outcomes_digest` hashes it, and the result
    cache stores it verbatim as a document's outcomes.
    """
    records = [
        o.to_jsonable()
        for o in sorted(outcomes, key=lambda o: o.trial_index)
    ]
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


def outcomes_digest(outcomes: Sequence[TrialOutcome]) -> str:
    """Canonical content hash of a set of outcomes (hex sha256).

    The attestation primitive of the service tier: the sha256 of
    :func:`encode_outcomes`.  Because every outcome is a pure function
    of ``(base_seed, spec_hash, trial_index)``, any honest party — the
    worker that computed a chunk, the executor receiving it, an auditor
    re-executing it later — derives the *same* digest for the same
    work, so a digest mismatch is proof of corruption or a lie, never
    of nondeterminism.  Records are canonicalised through
    ``to_jsonable`` (not raw wire bytes), so cosmetic differences such
    as key order or extra keys cannot change the digest.  A party that
    already holds the encoding hashes it with :func:`encoding_digest`
    instead of encoding again.
    """
    return encoding_digest(encode_outcomes(outcomes))


def encoding_digest(encoding: str) -> str:
    """The hex sha256 of an :func:`encode_outcomes` string."""
    return hashlib.sha256(encoding.encode("utf-8")).hexdigest()


def execute_reference_trial(
    protocol: object,
    adversary: object,
    n: int,
    *,
    trial_index: int,
    seed: int,
    inputs: Sequence[int],
    max_rounds: Optional[int] = None,
    strict_termination: bool = False,
    fault_model: object = None,
) -> TrialOutcome:
    """Run one reference-engine trial on fresh live objects."""
    engine = Engine(
        protocol,
        adversary,
        n,
        seed=seed,
        max_rounds=max_rounds,
        strict_termination=strict_termination,
        record_payloads=False,
        fault_model=fault_model,
    )
    result = engine.run(inputs)
    verdict = verify_execution(result)
    return TrialOutcome(
        trial_index=trial_index,
        seed=seed,
        rounds=result.rounds,
        decision_round=result.decision_round,
        timeout=result.decision_round is None,
        crashes=len(result.crashed),
        decision=result.common_decision(),
        verdict={
            "agreement": verdict.agreement,
            "validity": verdict.validity,
            "termination": verdict.termination,
            "decision": verdict.decision,
        },
    )


def batch_outcomes(
    result: BatchResult, indices: Sequence[int], seeds: Sequence[int]
) -> List[TrialOutcome]:
    """One :class:`TrialOutcome` per slot of a vectorized engine's result."""
    outcomes = []
    for slot, (index, seed) in enumerate(zip(indices, seeds)):
        trial = result.trial(slot)
        outcomes.append(
            TrialOutcome(
                trial_index=index,
                seed=seed,
                rounds=trial.rounds,
                decision_round=trial.decision_round,
                timeout=trial.decision_round is None,
                crashes=trial.crashes_used,
                decision=trial.decision,
                crashes_per_round=trial.crashes_per_round,
                senders_per_round=trial.senders_per_round,
            )
        )
    return outcomes


def run_spec_batch(
    spec: TrialSpec, trial_indices: Sequence[int], base_seed: int
) -> List[TrialOutcome]:
    """Execute a slice of a vectorized spec's trials at once.

    The batch counterpart of :func:`run_spec_trial`: one call advances
    every listed trial in lockstep through the engine that realises the
    adversary's decision form (:func:`vectorized_kind`), so a counts
    attack on an ``engine="batch2d"`` spec runs on
    :class:`~repro.sim.batch.BatchFastEngine`.  Per-trial seeds are the
    same ``(base_seed, spec_hash, trial_index)`` hashes as everywhere
    else (the spec is hashed once per call, not once per trial) and
    each trial's randomness is a pure function of its own seed, so
    outcomes are byte-identical however the indices are chunked across
    calls or workers — the executor contract the serial and
    process-pool paths already rely on.
    """
    if spec.engine not in BATCH_ENGINES:
        raise ConfigurationError(
            f"spec engine is {spec.engine!r}; run_spec_batch requires "
            f"one of the vectorized kinds {sorted(BATCH_ENGINES)}"
        )
    indices = list(trial_indices)
    if not indices:
        return []
    if len(set(indices)) != len(indices):
        # A retrying executor that double-submitted a slice would
        # otherwise silently skew the aggregate counts downstream.
        raise ConfigurationError(
            f"duplicate trial indices in batch slice: {indices}"
        )
    scope = spec.spec_hash()
    seeds = [derive_trial_seed(base_seed, scope, i) for i in indices]
    if spec.inputs in _SAMPLED_INPUT_KINDS:
        inputs = [
            build_inputs(spec, random.Random(seed ^ _INPUT_STREAM_MASK))
            for seed in seeds
        ]
    else:
        inputs = build_inputs(spec, random.Random(0))
    protocol = build_protocol(spec)
    adversary = build_batch_adversary(spec)
    engine = BATCH_ENGINES[vectorized_kind(adversary)](
        protocol,
        adversary,
        spec.n,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(spec),
    )
    return batch_outcomes(engine.run(inputs, seeds), indices, seeds)


def run_spec_trial(
    spec: TrialSpec, trial_index: int, base_seed: int
) -> TrialOutcome:
    """Execute trial ``trial_index`` of ``spec`` rooted at ``base_seed``.

    The module-level entry point every executor dispatches to —
    importable by name, so process-pool workers need only the picklable
    ``(spec, trial_index, base_seed)`` triple.  Every live object is
    built fresh here, inside the worker: the run protocol, the
    adversary, and (for reference-engine adversaries that inspect their
    target) a *separate* fresh probe protocol, so no state leaks
    between trials or between the adversary's view and the execution.
    """
    if spec.engine in BATCH_ENGINES:
        return run_spec_batch(spec, [trial_index], base_seed)[0]
    seed = spec.trial_seed(base_seed, trial_index)
    inputs = build_inputs(spec, random.Random(seed ^ _INPUT_STREAM_MASK))
    probe = build_protocol(spec)
    adversary = build_adversary(spec, probe)
    return execute_reference_trial(
        build_protocol(spec),
        adversary,
        spec.n,
        trial_index=trial_index,
        seed=seed,
        inputs=inputs,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(spec),
    )


def compute_chunk(
    spec: TrialSpec, base_seed: int, indices: Sequence[int]
) -> List[TrialOutcome]:
    """Outcomes of one chunk of a batch's trials, in trial-index order.

    The one chunk computation: the executors' ``run_chunk`` is the
    chaos hook plus this, and audit re-execution is this alone.
    Batch-engine specs advance the whole chunk in one vectorized call;
    per-trial seeds are pure hashes either way, so the two paths chunk
    identically.
    """
    ordered = sorted(int(i) for i in indices)
    if spec.engine in BATCH_ENGINES:
        return run_spec_batch(spec, ordered, base_seed)
    return [run_spec_trial(spec, i, base_seed) for i in ordered]
