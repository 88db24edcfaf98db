"""Writer for the repo's ``BENCH_*.json`` perf artifacts.

Each perf benchmark script measures with its own ``__main__`` and hands
the numbers to :func:`emit`, which fixes the on-disk format: one JSON
document per benchmark at the repo root carrying the exact
configuration measured, the per-case results, and enough host context
to interpret a regression.  ``make bench`` refreshes every artifact;
CI's smoke job runs the scripts in ``--smoke`` mode and relies on
:func:`validate` rejecting malformed documents.  Cells that time a
short operation use :func:`median_seconds`, the one timing rule they
share.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every BENCH_*.json document carries exactly this top-level shape.
REQUIRED_KEYS = (
    "benchmark",
    "schema_version",
    "generated_utc",
    "smoke",
    "config",
    "results",
    "host",
)


def ensure_import_path() -> None:
    """Make ``repro`` importable when run as ``python benchmarks/x.py``.

    The Makefile exports ``PYTHONPATH=src``; direct invocations fall
    back to inserting the in-repo source tree.
    """
    try:
        import repro  # noqa: F401  (probe only)
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))


def host_info() -> Dict[str, object]:
    """The environment facts that make timing numbers comparable."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    }


def validate(doc: Dict[str, object]) -> Dict[str, object]:
    """Assert ``doc`` is a well-formed BENCH document; return it.

    Raises ``ValueError`` on any missing key or malformed section so a
    smoke run fails loudly instead of committing a broken artifact.
    """
    missing = [key for key in REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValueError(f"BENCH document missing keys: {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc['schema_version']!r}"
        )
    if not isinstance(doc["results"], list) or not doc["results"]:
        raise ValueError("results must be a non-empty list")
    if not all(isinstance(row, dict) for row in doc["results"]):
        raise ValueError("every results row must be an object")
    if not isinstance(doc["config"], dict):
        raise ValueError("config must be an object")
    return doc


def emit(
    name: str,
    *,
    config: Dict[str, object],
    results: List[Dict[str, object]],
    smoke: bool = False,
    out_dir: Optional[Path] = None,
) -> Path:
    """Validate and write ``BENCH_<name>.json``; return its path.

    Smoke runs write to the same filename (CI inspects it from a
    throwaway checkout); pass ``out_dir`` to redirect, e.g. in tests.
    """
    doc = validate(
        {
            "benchmark": name,
            "schema_version": SCHEMA_VERSION,
            "generated_utc": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "smoke": smoke,
            "config": config,
            "results": results,
            "host": host_info(),
        }
    )
    path = (out_dir or REPO_ROOT) / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


#: Every case is timed as the median over ``SAMPLES`` samples of its
#: seconds per call.  A sample repeats the case until it spans
#: ``SAMPLE_SECONDS``, so a ~2 ms warm-cache read sits well above timer
#: noise, and the cases are sampled round-robin, so a stretch of host
#: load lands on a few samples of each case rather than on one case.
SAMPLES = 21
SAMPLE_SECONDS = 0.05


def median_seconds(cases, *, samples=SAMPLES):
    """One result row per ``(label, thunk)`` case, and the value each
    thunk returned on its first (warm-up) call."""
    values, repeats = {}, {}
    for label, thunk in cases:
        start = time.perf_counter()
        values[label] = thunk()
        once = time.perf_counter() - start
        repeats[label] = max(1, math.ceil(SAMPLE_SECONDS / max(once, 1e-6)))
    per_call = {label: [] for label, _ in cases}
    for _ in range(samples):
        for label, thunk in cases:
            start = time.perf_counter()
            for _ in range(repeats[label]):
                thunk()
            per_call[label].append(
                (time.perf_counter() - start) / repeats[label]
            )
    rows = [
        {"case": label, "seconds": round(statistics.median(per_call[label]), 6)}
        for label, _ in cases
    ]
    return rows, values
