"""In-memory span recorder and the timing shims of the traced runs.

A traced run wraps the public entry points of each layer with thin
shims that record *spans* (layer, operation, start, end, parent span,
batch or job key) and *leaves* (high-frequency calls such as
``TrialSpec.trial_seed`` or a coin draw, accumulated per enclosing span
instead of stored one by one).  Spans stay in memory and each process
writes its own file when it ends:

* the benchmark process collects its spans directly;
* process-pool children inherit the shims through ``fork`` and dump
  from a ``multiprocessing`` exit finalizer;
* ``repro serve`` / ``repro worker`` subprocesses run through
  ``launch.py``, which installs the shims and dumps after
  ``repro.cli.main`` returns.

A layer's self time is its span's duration minus the part of it
covered by child spans (including pool round trips the span submitted)
and the top-level leaves recorded inside it.  A shim
entered while the innermost open span already belongs to the same
layer records nothing (``ResultCache.store_chunk`` calling ``load``,
``run_spec_trial`` calling ``run_spec_batch``), so each layer's calls
count outermost entries only.

Shim targets that do not exist in the code under test are skipped and
listed in ``Tracer.missing``: the benchmark outlives refactors of the
program it measures.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

clock = time.perf_counter


class Span:
    """One timed call into a layer."""

    __slots__ = (
        "layer", "op", "key", "start", "end", "parent",
        "leaves", "nested", "attrs", "error",
    )

    def __init__(self, layer: str, op: str, key: str, parent: Optional["Span"]) -> None:
        self.layer = layer
        self.op = op
        self.key = key
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.leaves: Dict[str, List[float]] = {}
        self.nested: Dict[str, List[float]] = {}
        self.attrs: Dict[str, float] = {}
        self.error = False

    def to_doc(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "op": self.op,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else id(self.parent),
            "id": id(self),
            "leaves": self.leaves,
            "nested": self.nested,
            "attrs": self.attrs,
            "error": self.error,
        }


class Tracer:
    """Per-process span store with a per-thread stack of open spans.

    ``enabled`` gates every shim; a disabled tracer costs one attribute
    read per call.  After ``fork`` the child starts with an empty store
    (``os.register_at_fork``) under the role ``pool`` and dumps it from
    a ``multiprocessing`` finalizer, registered lazily because the pool
    child clears the finalizer registry while it boots.
    """

    def __init__(self, role: str, out_dir: Optional[Path] = None) -> None:
        self.role = role
        self.out_dir = out_dir
        self.enabled = False
        self.missing: List[str] = []
        self._reset()
        self._needs_finalizer = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.spans: List[Span] = []
        self.root_leaves: Dict[str, List[float]] = {}
        self.root_nested: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _after_fork(self) -> None:
        self._reset()
        self.role = "pool"
        self._needs_finalizer = self.out_dir is not None

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.in_leaf = False
        if self._needs_finalizer:
            self._needs_finalizer = False
            multiprocessing.util.Finalize(None, self.dump, exitpriority=100)
        return local

    # -- recording -----------------------------------------------------

    def enter(self, layer: str, op: str, key: str = "") -> Optional[Span]:
        """Open a span, or return ``None`` inside a span of the same layer."""
        stack = self._state().stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.layer == layer:
            return None
        span = Span(layer, op, key, parent)
        stack.append(span)
        span.start = clock()
        return span

    def exit(self, span: Span, error: bool = False) -> None:
        span.end = clock()
        span.error = error
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span."""
        stack = self._state().stack
        return stack[-1] if stack else None

    def record(
        self,
        layer: str,
        op: str,
        start: float,
        end: float,
        key: str = "",
        attrs: Optional[Dict[str, float]] = None,
        parent: Optional[Span] = None,
    ) -> None:
        """Store a span measured elsewhere (asynchronous, any thread)."""
        span = Span(layer, op, key, parent)
        span.start, span.end = start, end
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def leaf_call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Time one leaf call and charge it to the innermost open span.

        A leaf entered inside another leaf is kept apart as *nested*:
        it is reported under its own name but not subtracted twice from
        the enclosing span's self time.
        """
        local = self._state()
        outer = local.in_leaf
        local.in_leaf = True
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            local.in_leaf = outer
            stack = local.stack
            if stack:
                table = stack[-1].nested if outer else stack[-1].leaves
            else:
                table = self.root_nested if outer else self.root_leaves
            entry = table.get(name)
            if entry is None:
                table[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    # -- output --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "role": self.role,
            "spans": [span.to_doc() for span in self.spans],
            "root_leaves": self.root_leaves,
            "root_nested": self.root_nested,
            "counters": self.counters,
            "missing": self.missing,
        }

    def dump(self) -> None:
        """Write this process's store to ``out_dir/<role>-<pid>.json``."""
        if self.out_dir is None:
            return
        path = Path(self.out_dir) / f"{self.role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def load_dumps(out_dir: Path) -> List[Dict[str, Any]]:
    """Every process store written under ``out_dir``."""
    docs = []
    for path in sorted(Path(out_dir).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


# ----------------------------------------------------------------------
# Shim construction
# ----------------------------------------------------------------------


def span_shim(
    tracer: Tracer,
    layer: str,
    op: Union[str, Callable[..., str]],
    fn: Callable,
    *,
    key: Optional[Callable[..., str]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable:
    """Wrap ``fn`` so each outermost call records one span.

    ``op`` and ``key`` may be functions of the call's arguments.
    ``after(span, result, *args, **kwargs)`` runs once the span is
    closed, so work it does (sizes, round counts) stays out of the
    measured interval.
    """

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.enter(
            layer,
            op(*args, **kwargs) if callable(op) else op,
            key(*args, **kwargs) if key else "",
        )
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(span, error=True)
            raise
        tracer.exit(span)
        if after is not None:
            after(span, result, *args, **kwargs)
        return result

    return shim


def leaf_shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` as a leaf: counted and timed, charged to its span."""

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        return tracer.leaf_call(name, fn, *args, **kwargs)

    return shim


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(attr)
    return owner, attr


def patch(tracer: Tracer, path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace the callable at ``path`` by ``make(original)``.

    A module-level function is replaced in every loaded ``repro``
    module that imported it by name, so call sites bound at import time
    see the shim too (and the pool can still pickle it by reference).
    A missing target is recorded in ``tracer.missing`` and skipped.
    """
    try:
        owner, attr = _resolve(path)
    except (ImportError, AttributeError):
        tracer.missing.append(path)
        return
    original = owner.__dict__.get(attr, getattr(owner, attr))
    shim = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, shim)
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, shim)


# ----------------------------------------------------------------------
# The shims of every layer
# ----------------------------------------------------------------------

#: Modules imported before patching, so every by-name import of a
#: patched function already exists when references are swept.
_PRELOAD = (
    "repro.sim.streams",
    "repro.sim.engine",
    "repro.sim.fast",
    "repro.sim.batch",
    "repro.sim.batch2d",
    "repro.sim.kernels",
    "repro.harness.exec",
    "repro.harness.exec.trial",
    "repro.harness.exec.executor",
    "repro.harness.exec.cache",
    "repro.harness.exec.wire",
    "repro.harness.resilience.audit",
    "repro.harness.experiments",
    "repro.service.netio",
    "repro.service.client",
    "repro.service.jobs",
    "repro.service.remote",
    "repro.service.server",
    "repro.service.worker",
)


def _chunk_key(spec: Any, base_seed: int, indices: Any, *rest: Any, **kw: Any) -> str:
    """``run_chunk(spec, base_seed, indices, ...)``: spec:seed:first index."""
    return f"{spec.spec_hash()[:12]}:{base_seed}:{min(indices, default=-1)}"


def _slice_key(spec: Any, indices: Any, base_seed: int, *rest: Any, **kw: Any) -> str:
    """``run_spec_batch(spec, indices, base_seed)``: the same key."""
    return _chunk_key(spec, base_seed, indices)


def _engine_shim(tracer: Tracer, layer: str, lifted_leaf: str, fn: Callable) -> Callable:
    """Span an engine run; time its adversary's ``choose`` as a leaf.

    The adversary is wrapped per call on the instance.  A 2-D
    adversary lifting a 1-D one (``Batch2DCounts.inner``) gets its
    inner ``choose`` timed under the 1-D engine's adversary leaf.
    """
    leaves = ((None, f"{layer}.adversary"), ("inner", lifted_leaf))

    @functools.wraps(fn)
    def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
        wrapped = []
        adversary = getattr(engine, "adversary", None)
        for attr, name in leaves:
            target = adversary if attr is None else getattr(adversary, attr, None)
            if target is not None:
                try:
                    target.choose = leaf_shim(tracer, name, target.choose)
                except AttributeError:
                    continue
                wrapped.append(target)
        try:
            return fn(engine, *args, **kwargs)
        finally:
            for target in wrapped:
                del target.choose

    return span_shim(tracer, layer, "run", run, after=_engine_attrs)


def _engine_attrs(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    rounds = getattr(result, "rounds", None)
    if rounds is None:
        return
    try:
        import numpy as np

        arr = np.asarray(rounds)
        span.attrs["rounds"] = float(arr.sum())
        span.attrs["trials"] = float(arr.size)
        span.attrs["slots"] = float(arr.size * (arr.max() if arr.size else 0))
    except (TypeError, ValueError):
        pass


def _store_after(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    if result is not None:
        try:
            span.attrs["bytes"] = float(os.path.getsize(result))
        except (OSError, TypeError):
            pass


def _load_after(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["hit"] = 0.0 if result is None else 1.0


def _request_op(base_url: str, method: str, path: str, *args: Any, **kwargs: Any) -> str:
    """``request_json``'s span op: chunks, submit, status, outcomes, ..."""
    if path.startswith("/chunks"):
        return "chunks"
    if path == "/jobs":
        return "submit" if method == "POST" else "list"
    if path.startswith("/jobs/"):
        return path.rsplit("/", 1)[-1] if path.count("/") > 2 else "status"
    return path.strip("/") or "root"


def _request_path(base_url: str, method: str, path: str, *args: Any, **kwargs: Any) -> str:
    return path


def _request_after(span: Span, result: Any, base_url: str, method: str, path: str,
                   payload: Any = None, *args: Any, **kwargs: Any) -> None:
    """Status and JSON body sizes (re-encoded after the span closes)."""
    status, doc = result
    span.attrs["status"] = float(status)
    span.attrs["request_bytes"] = float(len(json.dumps(payload))) if payload is not None else 0.0
    span.attrs["response_bytes"] = float(len(json.dumps(doc))) if doc is not None else 0.0
    if isinstance(doc, dict) and doc.get("coalesced") is True:
        span.attrs["coalesced"] = 1.0


def _pool_submit_shim(tracer: Tracer, fn: Callable) -> Callable:
    """Parent-side round trip and pickled size of each pool task."""

    @functools.wraps(fn)
    def shim(pool: Any, task: Callable, /, *args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(pool, task, *args, **kwargs)
        parent = tracer.current()
        start = clock()
        future = fn(pool, task, *args, **kwargs)
        sent = len(pickle.dumps((task, args, kwargs)))

        def settled(fut: Any) -> None:
            end = clock()
            received = 0
            if not fut.cancelled() and fut.exception() is None:
                received = len(pickle.dumps(fut.result()))
            tracer.record(
                "harness.exec.executor", "pool_chunk", start, end,
                attrs={"pickle_bytes": float(sent + received)}, parent=parent,
            )

        future.add_done_callback(settled)
        return future

    return shim


def _job_shims(tracer: Tracer) -> None:
    """Server side of ``service.jobs`` and ``service.remote``."""

    def init(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def shim(job: Any, *args: Any, **kwargs: Any) -> None:
            fn(job, *args, **kwargs)
            job._perfbench_created = clock()

        return shim

    def mark_running(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def shim(job: Any, *args: Any, **kwargs: Any) -> Any:
            result = fn(job, *args, **kwargs)
            created = getattr(job, "_perfbench_created", None)
            if tracer.enabled and created is not None:
                tracer.record("service.jobs", "queue_wait", created, clock(), key=job.job_id)
            return result

        return shim

    def finish(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def shim(job: Any, executor: Any, *args: Any, **kwargs: Any) -> Any:
            result = fn(job, executor, *args, **kwargs)
            if tracer.enabled and hasattr(executor, "worker_summary"):
                summary = executor.resilience_summary()
                tracer.count("service.remote.chunks", sum(
                    int(e.get("chunks_completed", 0)) for e in executor.worker_summary()
                ))
                tracer.count("service.remote.retries", int(summary.get("retries", 0)))
                tracer.count("service.remote.audited_chunks", int(summary.get("audited_chunks", 0)))
            return result

        return shim

    patch(tracer, "repro.service.jobs:Job.__init__", init)
    patch(tracer, "repro.service.jobs:Job.mark_running", mark_running)
    patch(tracer, "repro.service.jobs:Job.finish", finish)


def install(tracer: Tracer, *, pool_submit: bool = False) -> None:
    """Wrap every layer entry point the per-layer table reports.

    ``pool_submit`` also wraps ``ProcessPoolExecutor.submit`` (the
    benchmark process only: it measures the executor's chunk round
    trips from the parent side).
    """
    for module in _PRELOAD:
        try:
            __import__(module)
        except ImportError:
            tracer.missing.append(module)
    span = functools.partial(span_shim, tracer)
    leaf = functools.partial(leaf_shim, tracer)

    patch(tracer, "repro.sim.engine:Engine.run", lambda f: span("sim.engine", "run", f, after=_engine_attrs))
    patch(tracer, "repro.sim.fast:FastEngine.run", lambda f: span("sim.fast", "run", f, after=_engine_attrs))
    patch(tracer, "repro.sim.batch:BatchFastEngine.run_counts",
          lambda f: _engine_shim(tracer, "sim.batch", "sim.batch.adversary", f))
    patch(tracer, "repro.sim.batch2d:Batch2DEngine.run",
          lambda f: _engine_shim(tracer, "sim.batch2d", "sim.batch.adversary", f))
    # Coin draws: the 1-D engine's binomial (via the kernel registry or
    # directly) and the 2-D engine's own counter-word block.  Only the
    # 2-D module's reference to counter_words is replaced, so the words
    # fair_binomial draws internally are not counted twice.
    patch(tracer, "repro.sim.streams:fair_binomial", lambda f: leaf("sim.batch.coin", f))
    try:
        owner, attr = _resolve("repro.sim.batch2d:counter_words")
        setattr(owner, attr, leaf("sim.batch2d.coin", getattr(owner, attr)))
    except (ImportError, AttributeError):
        tracer.missing.append("repro.sim.batch2d:counter_words")

    patch(tracer, "repro.harness.exec.trial:run_spec_batch",
          lambda f: span("harness.exec.trial", "run_spec_batch", f, key=_slice_key))
    patch(tracer, "repro.harness.exec.trial:run_spec_trial",
          lambda f: span("harness.exec.trial", "run_spec_trial", f))
    patch(tracer, "repro.harness.exec.trial:outcomes_digest",
          lambda f: leaf("harness.exec.trial.digest", f))
    patch(tracer, "repro.harness.exec.spec:TrialSpec.trial_seed",
          lambda f: leaf("harness.exec.spec.seed", f))
    patch(tracer, "repro.harness.exec.executor:run_chunk",
          lambda f: span("harness.exec.executor", "run_chunk", f, key=_chunk_key))

    for op in ("store", "store_chunk"):
        patch(tracer, f"repro.harness.exec.cache:ResultCache.{op}",
              lambda f, op=op: span("harness.exec.cache", op, f, after=_store_after))
    patch(tracer, "repro.harness.exec.cache:ResultCache.load",
          lambda f: span("harness.exec.cache", "load", f, after=_load_after))
    patch(tracer, "repro.harness.exec.cache:ResultCache.load_partial",
          lambda f: span("harness.exec.cache", "load_partial", f))

    for name in ("plan_to_wire", "spec_to_wire"):
        patch(tracer, f"repro.harness.exec.wire:{name}", lambda f: span("harness.exec.wire", "encode", f))
    for name in ("plan_from_wire", "spec_from_wire"):
        patch(tracer, f"repro.harness.exec.wire:{name}", lambda f: span("harness.exec.wire", "decode", f))
    patch(tracer, "repro.service.netio:request_json",
          lambda f: span("service.netio", _request_op, f, key=_request_path, after=_request_after))
    _job_shims(tracer)

    if pool_submit:
        patch(tracer, "concurrent.futures.process:ProcessPoolExecutor.submit",
              lambda f: _pool_submit_shim(tracer, f))


# ----------------------------------------------------------------------
# Per-layer metrics from the merged stores
# ----------------------------------------------------------------------

#: Layers of the printed table, in stack order (top of the call stack
#: first).  Leaves appear as their own rows.
LAYERS = (
    "harness.experiments",
    "service.jobs",
    "service.netio",
    "harness.exec.wire",
    "harness.exec.executor",
    "harness.exec.cache",
    "harness.exec.trial",
    "harness.exec.trial.digest",
    "harness.exec.spec.seed",
    "sim.engine",
    "sim.fast",
    "sim.batch",
    "sim.batch.coin",
    "sim.batch.adversary",
    "sim.batch2d",
    "sim.batch2d.coin",
    "sim.batch2d.adversary",
)

#: Roles whose ``run_chunk`` spans belong to a local executor (the
#: benchmark process, its pool children, the sweep server's own
#: in-process fallbacks); ``worker`` spans are remote execution.
_LOCAL_ROLES = ("bench", "pool", "server")


class LayerTable:
    """Calls, busy and self seconds per layer, plus the named metrics."""

    def __init__(self, docs: Iterable[Dict[str, Any]]) -> None:
        self.rows: Dict[str, Dict[str, float]] = {}
        self.spans: List[Tuple[str, Dict[str, Any]]] = []
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        for doc in docs:
            role = doc["role"]
            children: Dict[int, List[Tuple[float, float]]] = {}
            for span in doc["spans"]:
                if span["parent"] is not None:
                    children.setdefault(span["parent"], []).append((span["start"], span["end"]))
            for span in doc["spans"]:
                self.spans.append((role, span))
                self._charge_span(span, children.get(span["id"], []))
                self._charge_leaves(span["leaves"], top=True)
                self._charge_leaves(span["nested"], top=False)
            self._charge_leaves(doc["root_leaves"], top=True)
            self._charge_leaves(doc["root_nested"], top=False)
            for name, value in doc["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name in doc["missing"]:
                if name not in self.missing:
                    self.missing.append(name)
        # A /chunks round trip covers the worker's run_chunk, which the
        # worker's own spans already count: it is that request's child.
        if "service.netio" in self.rows:
            remote = self.total(self.select("harness.exec.executor", "run_chunk", ("worker",)))
            self.rows["service.netio"]["self_s"] = max(0.0, self.rows["service.netio"]["self_s"] - remote)

    def _row(self, layer: str) -> Dict[str, float]:
        return self.rows.setdefault(layer, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})

    def _charge_span(self, span: Dict[str, Any], children: List[Tuple[float, float]]) -> None:
        if span["op"] == "pool_chunk" or span["op"] == "queue_wait":
            return  # asynchronous round trips, not busy time of a layer
        duration = span["end"] - span["start"]
        top_leaves = sum(entry[1] for entry in span["leaves"].values())
        row = self._row(span["layer"])
        row["calls"] += 1
        row["busy_s"] += duration
        covered = _union_length(children, span["start"], span["end"])
        row["self_s"] += max(0.0, duration - covered - top_leaves)

    def _charge_leaves(self, leaves: Dict[str, List[float]], *, top: bool) -> None:
        for name, (calls, seconds) in leaves.items():
            row = self._row(name)
            row["calls"] += calls
            row["busy_s"] += seconds
            if top:
                row["self_s"] += seconds

    def select(self, layer: str, op: Optional[str] = None, roles: Optional[Tuple[str, ...]] = None) -> List[Dict[str, Any]]:
        return [
            span for role, span in self.spans
            if span["layer"] == layer
            and (op is None or span["op"] == op)
            and (roles is None or role in roles)
        ]

    @staticmethod
    def total(spans: List[Dict[str, Any]], attr: Optional[str] = None) -> float:
        if attr is None:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(s["attrs"].get(attr, 0.0) for s in spans)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics ``BENCHMARK.json`` names, with units."""
        out: Dict[str, Tuple[float, str]] = {}
        empty = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}

        def row(layer: str) -> Dict[str, float]:
            return self.rows.get(layer, empty)

        for layer in ("sim.engine", "sim.fast"):
            spans = self.select(layer)
            out[f"{layer}.calls"] = (float(len(spans)), "count")
            out[f"{layer}.busy_s"] = (self.total(spans), "s")
            out[f"{layer}.rounds"] = (self.total(spans, "rounds"), "count")
        for layer in ("sim.batch", "sim.batch2d"):
            spans = self.select(layer)
            slots = self.total(spans, "slots")
            rounds = self.total(spans, "rounds")
            out[f"{layer}.calls"] = (float(len(spans)), "count")
            out[f"{layer}.busy_s"] = (self.total(spans), "s")
            out[f"{layer}.trial_rounds"] = (rounds, "count")
            out[f"{layer}.active_frac"] = (rounds / slots if slots else 0.0, "ratio")
            out[f"{layer}.coin_s"] = (row(f"{layer}.coin")["busy_s"], "s")
            out[f"{layer}.adversary_s"] = (row(f"{layer}.adversary")["busy_s"], "s")
            out[f"{layer}.self_s"] = (row(layer)["self_s"], "s")

        trial = row("harness.exec.trial")
        out["harness.exec.trial.calls"] = (trial["calls"], "count")
        out["harness.exec.trial.busy_s"] = (trial["busy_s"], "s")
        out["harness.exec.trial.self_s"] = (trial["self_s"], "s")
        seed = row("harness.exec.spec.seed")
        out["harness.exec.spec.seed_calls"] = (seed["calls"], "count")
        out["harness.exec.spec.seed_s"] = (seed["busy_s"], "s")
        digest = row("harness.exec.trial.digest")
        out["harness.exec.trial.digest_calls"] = (digest["calls"], "count")
        out["harness.exec.trial.digest_s"] = (digest["busy_s"], "s")

        local_chunks = self.select("harness.exec.executor", "run_chunk", _LOCAL_ROLES)
        pool_trips = self.select("harness.exec.executor", "pool_chunk")
        in_process = [s for role, s in self.spans
                      if role in ("bench", "server") and s["layer"] == "harness.exec.executor"
                      and s["op"] == "run_chunk"]
        busy = self.total(local_chunks)
        rtt = self.total(pool_trips) + self.total(in_process)
        out["harness.exec.executor.chunks"] = (float(len(local_chunks)), "count")
        out["harness.exec.executor.chunk_busy_s"] = (busy, "s")
        out["harness.exec.executor.chunk_rtt_s"] = (rtt, "s")
        out["harness.exec.executor.chunk_wait_s"] = (rtt - busy, "s")
        out["harness.exec.executor.pickle_bytes"] = (self.total(pool_trips, "pickle_bytes"), "bytes")
        for name in ("retries", "quarantined", "pool_rebuilds"):
            out[f"harness.exec.executor.{name}"] = (self.counters.get(f"harness.exec.executor.{name}", 0.0), "count")

        stores = self.select("harness.exec.cache", "store")
        chunk_stores = self.select("harness.exec.cache", "store_chunk")
        loads = self.select("harness.exec.cache", "load") + self.select("harness.exec.cache", "load_partial")
        hits = self.total(self.select("harness.exec.cache", "load"), "hit")
        misses = float(len(self.select("harness.exec.cache", "load"))) - hits
        out["harness.exec.cache.store_calls"] = (float(len(stores)), "count")
        out["harness.exec.cache.store_s"] = (self.total(stores), "s")
        out["harness.exec.cache.store_chunk_calls"] = (float(len(chunk_stores)), "count")
        out["harness.exec.cache.store_chunk_s"] = (self.total(chunk_stores), "s")
        out["harness.exec.cache.load_calls"] = (float(len(loads)), "count")
        out["harness.exec.cache.load_s"] = (self.total(loads), "s")
        out["harness.exec.cache.bytes_written"] = (self.total(stores + chunk_stores, "bytes"), "bytes")
        out["harness.exec.cache.hits"] = (hits, "count")
        out["harness.exec.cache.misses"] = (misses, "count")
        out["harness.exec.cache.hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

        requests = self.select("service.netio")
        out["harness.exec.wire.encode_s"] = (self.total(self.select("harness.exec.wire", "encode")), "s")
        out["harness.exec.wire.decode_s"] = (self.total(self.select("harness.exec.wire", "decode")), "s")
        out["harness.exec.wire.request_bytes"] = (self.total(requests, "request_bytes"), "bytes")
        out["harness.exec.wire.response_bytes"] = (self.total(requests, "response_bytes"), "bytes")

        chunk_requests = self.select("service.netio", "chunks")
        remote_busy = self.total(self.select("harness.exec.executor", "run_chunk", ("worker",)))
        out["service.netio.requests"] = (float(len(requests)), "count")
        out["service.netio.rtt_s"] = (self.total(requests), "s")
        out["service.netio.overhead_s"] = (
            self.total(chunk_requests) - remote_busy if chunk_requests else 0.0, "s")
        out["service.netio.errors"] = (float(sum(
            1 for s in requests if s["error"] or s["attrs"].get("status", 0) >= 400)), "count")

        for name in ("chunks", "retries", "audited_chunks"):
            out[f"service.remote.{name}"] = (self.counters.get(f"service.remote.{name}", 0.0), "count")

        submits = self.select("service.netio", "submit", ("bench",))
        polls = self.select("service.netio", "status", ("bench",))
        out["service.jobs.submitted"] = (float(len(submits)), "count")
        out["service.jobs.coalesced"] = (self.total(submits, "coalesced"), "count")
        out["service.jobs.submit_s"] = (self.total(submits), "s")
        out["service.jobs.queue_wait_s"] = (self.total(self.select("service.jobs", "queue_wait")), "s")
        out["service.jobs.status_s"] = (self.total(polls), "s")

        for exp in range(1, 15):
            spans = self.select("harness.experiments", f"E{exp}")
            out[f"harness.experiments.E{exp}.wall_s"] = (self.total(spans), "s")
        return out

    def render(self) -> str:
        """The calls / busy / self table, heaviest self time first."""
        total_self = sum(r["self_s"] for r in self.rows.values()) or 1.0
        lines = [f"{'layer':<28} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>6}"]
        ranked = sorted(
            (layer for layer in LAYERS if layer in self.rows),
            key=lambda layer: -self.rows[layer]["self_s"],
        )
        for rank, layer in enumerate(ranked):
            r = self.rows[layer]
            mark = "  <- top" if rank == 0 else ""
            lines.append(
                f"{layer:<28} {int(r['calls']):>9d} {r['busy_s']:>10.3f} "
                f"{r['self_s']:>10.3f} {100 * r['self_s'] / total_self:>5.1f}%{mark}"
            )
        if self.missing:
            lines.append("shims unavailable in this tree: " + ", ".join(self.missing))
        return "\n".join(lines)
