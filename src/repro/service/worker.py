"""The chunk worker: a thin ``/chunks`` execution endpoint.

A worker is deliberately dumb: it holds no job state, no cache, and no
plan — it decodes a wire spec, executes exactly
:func:`repro.harness.exec.run_chunk` on the requested trial indices,
and returns the outcomes.  All scheduling, retry, checkpointing, and
dedup live with the caller (:class:`~repro.service.remote.
RemoteExecutor`), which is what lets a worker crash, restart, or be
replaced mid-batch without losing anything: per-trial seeds are pure
hashes of ``(base_seed, spec_hash, trial_index)``, so any worker
computes the same bytes for the same request.

Endpoints:

* ``POST /chunks`` — body ``{"wire": 1, "spec": <wire spec>,
  "base_seed": int, "indices": [int, ...], "attempt": int}``;
  responds ``{"outcomes": [<trial outcome>, ...], "chunk_digest":
  <hex sha256>}`` where the digest is the outcome attestation
  (:func:`repro.harness.exec.trial.outcomes_digest`) the caller
  checks on receipt.
* ``GET /healthz`` — liveness probe with version info.

Chunks execute off the event loop, on the default thread pool; an
HTTP lane sends one request at a time per endpoint, so more cores are
served by more ``repro worker`` endpoints.  The chaos hook inside
``run_chunk`` honours an explicit :class:`FaultPlan` passed to
:class:`WorkerApp` (used by the differential tests to fault one worker
of a fleet) or, as everywhere else, the ``REPRO_CHAOS`` environment
variable inherited by the worker process.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

import repro
from repro.errors import ReproError
from repro.harness.exec import TrialOutcome, run_chunk, spec_from_wire
from repro.harness.exec.spec import TrialSpec
from repro.harness.exec.trial import outcomes_digest
from repro.harness.exec.wire import WIRE_VERSION
from repro.harness.resilience import (
    FaultPlan,
    corrupt_outcomes,
    inject_chunk_faults,
)
from repro.service.netio import App, HttpError, Request, Response

__all__ = ["WorkerApp", "execute_wire_chunk"]


def execute_wire_chunk(
    spec: TrialSpec,
    base_seed: int,
    indices: List[int],
    attempt: int,
    fault_plan: Optional[FaultPlan] = None,
) -> List[TrialOutcome]:
    """Run one decoded chunk, with optional explicit chaos injection.

    This wraps the executor's ``run_chunk``.  It is also where a
    ``corrupt-outcomes`` chaos fault bites: the chunk computes
    honestly, then targeted outcomes are falsified on the way out —
    the worker *lies consistently* (its attestation digest covers the
    lie), which is exactly the adversary audit re-execution exists to
    catch.
    """
    if fault_plan is not None:
        inject_chunk_faults(indices, attempt, fault_plan)
    outcomes = run_chunk(spec, base_seed, indices, attempt)
    return corrupt_outcomes(outcomes, indices, attempt, fault_plan)


class WorkerApp:
    """Routes plus the execution backend of one worker process.

    Args:
        fault_plan: Explicit chaos plan injected into every chunk this
            worker executes (tests fault one worker of a fleet this
            way without touching the environment).
    """

    def __init__(self, fault_plan: Optional[FaultPlan] = None) -> None:
        self.fault_plan = fault_plan
        self.chunks_served = 0
        self.app = App()
        self.app.add("GET", "/healthz", self._healthz)
        self.app.add("POST", "/chunks", self._chunks)

    # -- handlers ------------------------------------------------------

    async def _healthz(self, request: Request) -> Response:
        return Response(
            payload={
                "ok": True,
                "role": "worker",
                "version": repro.__version__,
                "wire": WIRE_VERSION,
                "chunks_served": self.chunks_served,
            }
        )

    async def _chunks(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "chunk request must be a JSON object")
        if doc.get("wire") != WIRE_VERSION:
            raise HttpError(
                400,
                f"unsupported wire version {doc.get('wire')!r} "
                f"(worker speaks {WIRE_VERSION})",
            )
        try:
            spec = spec_from_wire(doc["spec"])
            base_seed = int(doc["base_seed"])
            indices = [int(i) for i in doc["indices"]]
            attempt = int(doc.get("attempt", 0))
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed chunk request: {exc}") from exc
        if not indices:
            raise HttpError(400, "chunk request has no trial indices")
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                None,
                execute_wire_chunk,
                spec,
                base_seed,
                indices,
                attempt,
                self.fault_plan,
            )
        except Exception as exc:
            # A failed chunk is the caller's retry problem, reported
            # as a structured 500 — the worker itself stays up.
            raise HttpError(
                500, f"chunk execution failed: {type(exc).__name__}: {exc}"
            ) from exc
        self.chunks_served += 1
        return Response(
            payload={
                "outcomes": [o.to_jsonable() for o in outcomes],
                "chunk_digest": outcomes_digest(outcomes),
            }
        )
