"""Content-addressed on-disk cache of batch results.

Each completed :class:`~repro.harness.exec.spec.TrialBatch` is stored
as one JSON document under ``.repro-cache/`` (or a caller-chosen
root), addressed by the batch key — a hash over the spec's content
hash, the base seed, and the trial count.  A stored document also
records a *code-version salt*; when the package version (or the cache
schema) changes, every old entry silently misses and is recomputed,
so stale results can never survive a code change that might alter
sampled behaviour.

Schema v2 adds a *partial-batch ledger*: while a batch is in flight,
each completed chunk of trial indices is persisted as its own small
document under ``<key>.partial/`` (atomically renamed, like every
write here).  An interrupted run therefore resumes at chunk
granularity — the executor reloads the ledger, recomputes only the
missing indices, and on completion the final batch document replaces
the ledger (which is then removed).  Ledger documents carry the same
salt and key discipline as batch documents.

Schema v3 makes every stored document *tamper-evident*: batch and
chunk documents carry a ``digest`` — the canonical content hash of
their outcomes (:func:`~repro.harness.exec.trial.outcomes_digest`,
the same attestation digest workers compute in the service tier) —
and a load that cannot reproduce it reads as a miss, so an entry
whose outcome bytes were altered after the fact (a Byzantine worker's
checkpoint, bit rot, a hand-edited file) is recomputed instead of
poisoning every future cache hit.

Schema v4 stores the outcomes as they were encoded once: a document is
one JSON object whose header members (keys sorted, ``digest`` among
them) come first and whose last member, ``"outcomes"``, is the
canonical encoding (:func:`~repro.harness.exec.trial.encode_outcomes`)
spliced in verbatim.  A writer that already holds the encoding (the
service's receipt check made it) passes it on, so nothing is encoded
twice, and a load checks the digest against the outcomes text exactly
as stored rather than encoding the parsed records again.  Text that is
not byte-exact — re-serialised by another writer, edited, truncated —
is a miss.

Loads are defensive — any malformed, truncated, or mismatched
document (batch or chunk) is treated as a miss, never an error.
Stores are resilient the other way: the first ``OSError`` (read-only
or full filesystem) degrades the cache to a warned no-op, so a run
completes uncached rather than crashing.

Concurrency: every document write is an atomic rename, so no reader
ever observes a torn JSON file — but the *ledger transitions* (a batch
store compacting the partial directory away, two writers checkpointing
chunks of the same batch) span several filesystem operations.  Those
are serialised per batch key through an advisory ``flock`` on a
sibling ``<key>.lock`` file, so concurrent server-side jobs and a
local CLI run can share one ``.repro-cache`` safely.  On platforms
without ``fcntl`` (or when the lock file itself cannot be created) the
lock degrades to a no-op and the atomic renames remain the only — and
still torn-write-free — guarantee.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

import repro
from repro.errors import ConfigurationError
from repro.harness.exec.spec import TrialBatch
from repro.harness.exec.trial import TrialOutcome, encode_outcomes, encoding_digest

__all__ = ["CACHE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR", "ResultCache", "cache_salt"]

#: Bumped whenever the stored document layout changes.
#: v2: partial-batch chunk ledger alongside final batch documents.
#: v3: tamper-evident outcome digests on batch and chunk documents.
#: v4: the canonical outcomes encoding stored verbatim as the last
#:     member, and the digest checked against that text.
CACHE_SCHEMA_VERSION = 4

DEFAULT_CACHE_DIR = Path(".repro-cache")

_CHUNK_DOC_RE = re.compile(r"^chunk-(\d{8})-(\d{8})\.json$")

#: What joins a document's header members to its outcomes, the last
#: member.  JSON escapes every quote inside a string, so in a document
#: this schema writes the first occurrence is that member.
_OUTCOMES_MEMBER = ', "outcomes": '

#: What validating a corrupt (well-formed JSON, wrong shape) document
#: raises; anything else is a bug and propagates instead of reading as
#: a cache miss.
_CORRUPT_DOC = (KeyError, TypeError, ValueError, ConfigurationError)


def cache_salt() -> str:
    """The code-version salt stamped into (and required of) every entry."""
    return f"{repro.__version__}/schema{CACHE_SCHEMA_VERSION}"


class ResultCache:
    """JSON result store keyed by batch content hash + seed + salt.

    Args:
        root: Cache directory; created lazily on first store.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR
        self._unwritable = False

    def path_for(self, batch: TrialBatch) -> Path:
        """Where ``batch``'s document lives (two-level fan-out)."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.json"

    def partial_dir(self, batch: TrialBatch) -> Path:
        """Where ``batch``'s in-flight chunk ledger lives."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.partial"

    def lock_path(self, batch: TrialBatch) -> Path:
        """The advisory lock file serialising the batch's writers."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.lock"

    @contextlib.contextmanager
    def _locked(self, batch: TrialBatch) -> Iterator[None]:
        """Hold the batch's advisory write lock for the block.

        Best effort by design: without ``fcntl`` (or when the lock
        file cannot be created) the block simply runs unlocked — the
        atomic renames still rule out torn documents, the lock only
        serialises multi-step ledger transitions between cooperating
        processes.
        """
        handle = None
        if fcntl is not None:
            try:
                path = self.lock_path(batch)
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(path, "a+")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                if handle is not None:
                    handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
                handle.close()

    def load(self, batch: TrialBatch) -> Optional[List[TrialOutcome]]:
        """The batch's cached outcomes, or ``None`` on any miss.

        A hit requires the schema version, salt, batch key, spec
        fields, trial count and base seed all to match, the digest to
        be the hash of the outcomes text as stored, and every outcome
        record to parse, in trial-index order; anything else —
        including a corrupt, tampered, or unreadable file, or one
        written under another schema or package version — is a miss.
        """
        stored = _read_doc(self.path_for(batch))
        if stored is None:
            return None
        header, text = stored
        try:
            if header["schema"] != CACHE_SCHEMA_VERSION:
                return None
            if header["salt"] != cache_salt():
                return None
            if header["batch_key"] != batch.batch_key():
                return None
            if header["spec"] != _spec_doc(batch):
                return None
            if header["trials"] != batch.trials or header["base_seed"] != batch.base_seed:
                return None
            if header["digest"] != encoding_digest(text):
                return None  # tampered, bit-rotted or re-encoded: recompute
            records = json.loads(text)
            if not isinstance(records, list) or len(records) != batch.trials:
                return None
            outcomes = [TrialOutcome.from_jsonable(rec) for rec in records]
        except _CORRUPT_DOC:
            return None
        if [o.trial_index for o in outcomes] != list(range(batch.trials)):
            return None
        return outcomes

    def store(
        self, batch: TrialBatch, outcomes: List[TrialOutcome]
    ) -> Optional[Path]:
        """Persist a completed batch atomically; returns the file path.

        Writes to a temp file in the destination directory and renames
        into place, so readers never observe a partial document.  Any
        chunk ledger for the batch is compacted away afterwards.  On an
        unwritable filesystem the cache degrades (one warning, then
        silent no-ops) and ``None`` is returned — the run's results are
        unaffected, just uncached.
        """
        if self._unwritable:
            return None
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "salt": cache_salt(),
            "batch_key": batch.batch_key(),
            "spec": _spec_doc(batch),
            "trials": batch.trials,
            "base_seed": batch.base_seed,
            "label": batch.label,
        }
        text = _doc_text(header, encode_outcomes(outcomes))
        path = self.path_for(batch)
        with self._locked(batch):
            try:
                written = self._write_doc(path, text)
            except OSError as exc:
                self._degrade(exc)
                return None
            self.clear_partial(batch)
        return written

    def store_chunk(
        self,
        batch: TrialBatch,
        indices: Sequence[int],
        outcomes: List[TrialOutcome],
        encoding: Optional[str] = None,
    ) -> Optional[Path]:
        """Checkpoint one completed chunk into the batch's ledger.

        The document is named after the index span it covers
        (``chunk-<first>-<last>.json``) and written atomically, so a
        crash at any instant leaves either a valid chunk document or
        none.  ``encoding`` is the outcomes'
        :func:`~repro.harness.exec.trial.encode_outcomes` string when
        the caller already made it; the chunk is encoded here only
        without one.  Returns ``None`` on an empty chunk or a degraded
        cache.
        """
        if self._unwritable or not indices:
            return None
        first, last = min(indices), max(indices)
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "salt": cache_salt(),
            "batch_key": batch.batch_key(),
            "indices": sorted(int(i) for i in indices),
        }
        if encoding is None:
            encoding = encode_outcomes(outcomes)
        text = _doc_text(header, encoding)
        path = self.partial_dir(batch) / f"chunk-{first:08d}-{last:08d}.json"
        with self._locked(batch):
            if self.load(batch) is not None:
                # Another writer already completed and compacted the
                # batch; re-creating ledger state under a finished
                # document would only leave an orphan directory.
                return None
            try:
                return self._write_doc(path, text)
            except OSError as exc:
                self._degrade(exc)
                return None

    def load_partial(
        self, batch: TrialBatch
    ) -> Tuple[Dict[int, TrialOutcome], int]:
        """Salvage the batch's chunk ledger from an interrupted run.

        Returns ``(outcomes by trial index, valid chunk documents)``.
        Corrupt, truncated, or mismatched chunk documents are skipped
        (that chunk is simply recomputed); a missing ledger directory
        yields ``({}, 0)``.
        """
        salvaged: Dict[int, TrialOutcome] = {}
        valid_docs = 0
        try:
            paths = self.partial_paths(batch)
        except OSError:
            return salvaged, 0
        for path in paths:
            loaded = self._load_chunk_doc(path, batch)
            if loaded is None:
                continue
            valid_docs += 1
            for outcome in loaded:
                salvaged[outcome.trial_index] = outcome
        return salvaged, valid_docs

    def partial_paths(self, batch: TrialBatch) -> List[Path]:
        """The batch's chunk-ledger documents, sorted by span."""
        directory = self.partial_dir(batch)
        if not directory.is_dir():
            return []
        return sorted(
            p for p in directory.iterdir() if _CHUNK_DOC_RE.match(p.name)
        )

    @staticmethod
    def chunk_doc_span(path: Path) -> Tuple[Optional[int], Optional[int]]:
        """The ``(first, last)`` trial span a chunk document's name claims."""
        match = _CHUNK_DOC_RE.match(path.name)
        if match is None:
            return None, None
        return int(match.group(1)), int(match.group(2))

    def clear_partial(self, batch: TrialBatch) -> None:
        """Remove the batch's chunk ledger (best effort)."""
        directory = self.partial_dir(batch)
        if directory.is_dir():
            shutil.rmtree(directory, ignore_errors=True)

    def remove_chunk(self, batch: TrialBatch, indices: Sequence[int]) -> None:
        """Expunge one chunk document from the batch's ledger.

        The audit path calls this to purge checkpoints attributed to an
        endpoint later proven Byzantine — the span's indices revert to
        "missing" and are recomputed by whoever resumes the batch.
        Best effort: an already-absent document is fine.
        """
        if not indices:
            return
        first, last = min(indices), max(indices)
        path = self.partial_dir(batch) / f"chunk-{first:08d}-{last:08d}.json"
        with self._locked(batch):
            try:
                path.unlink()
            except OSError:
                pass

    def _load_chunk_doc(
        self, path: Path, batch: TrialBatch
    ) -> Optional[List[TrialOutcome]]:
        """One ledger document's outcomes, or ``None`` on any defect."""
        stored = _read_doc(path)
        if stored is None:
            return None
        header, text = stored
        try:
            if header["schema"] != CACHE_SCHEMA_VERSION:
                return None
            if header["salt"] != cache_salt():
                return None
            if header["batch_key"] != batch.batch_key():
                return None
            if header["digest"] != encoding_digest(text):
                return None  # tampered, bit-rotted or re-encoded: recompute
            indices = header["indices"]
            records = json.loads(text)
            if not isinstance(indices, list) or not isinstance(records, list):
                return None
            if any(type(i) is not int for i in indices):
                return None  # the digest does not cover the header
            if len(indices) != len(records):
                return None
            outcomes = [TrialOutcome.from_jsonable(rec) for rec in records]
        except _CORRUPT_DOC:
            return None
        if sorted(o.trial_index for o in outcomes) != sorted(indices):
            return None
        if any(not 0 <= o.trial_index < batch.trials for o in outcomes):
            return None
        return outcomes

    def _write_doc(self, path: Path, text: str) -> Path:
        """Atomic write: temp file in the target dir, then rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def _degrade(self, exc: OSError) -> None:
        """Disable writes after a filesystem failure; warn exactly once.

        Loads keep working (a read-only cache is still a valid source
        of prior results); only persistence stops.
        """
        if self._unwritable:
            return
        self._unwritable = True
        warnings.warn(
            f"result cache at {self.root} is not writable ({exc}); "
            "continuing uncached",
            RuntimeWarning,
            stacklevel=3,
        )


def _doc_text(header: Dict[str, Any], encoding: str) -> str:
    """A document's text: ``header``'s members and the encoding's
    ``digest``, keys sorted, then ``encoding`` verbatim as the last
    member, ``"outcomes"``."""
    members = json.dumps({**header, "digest": encoding_digest(encoding)}, sort_keys=True)
    return members[:-1] + _OUTCOMES_MEMBER + encoding + "}"


def _read_doc(path: Path) -> Optional[Tuple[Any, str]]:
    """A document's parsed header members and its outcomes text exactly
    as stored, or ``None`` if the file is unreadable or not laid out as
    :func:`_doc_text` writes.  The outcomes are left unparsed, for the
    caller to parse once their digest has matched."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        cut = text.find(_OUTCOMES_MEMBER)
        if cut < 0 or not text.endswith("}"):
            return None
        header = json.loads(text[:cut] + "}")
    except (OSError, ValueError):
        return None
    return header, text[cut + len(_OUTCOMES_MEMBER) : -1]


def _spec_doc(batch: TrialBatch) -> dict:
    """The spec as the JSON-round-trippable dict stored in documents.

    Param tuples become lists under ``json.dumps``; normalise here so a
    freshly-built spec compares equal to one read back from disk.
    """
    raw = asdict(batch.spec)
    for key in (
        "protocol_params",
        "adversary_params",
        "inputs_params",
        "fault_model_params",
    ):
        raw[key] = [list(pair) for pair in raw[key]]
    return raw
