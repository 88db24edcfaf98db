"""Regression gate over the checked-in ``BENCH_*.json`` artifacts.

``make bench-compare`` refreshes the perf artifacts and then runs this
script, which diffs every freshly written document in the working tree
against the baseline committed at ``HEAD`` (read via ``git show``, so
the comparison works from a dirty tree without stashing).  A named
cell that regresses by more than ``--tolerance`` (default 30%) on its
throughput metric fails the run with exit code 1.

Timings only compare on one host.  When the committed artifact's
``host`` block differs from the fresh one's, the baseline is measured
here instead: the artifact's bench script runs with the same flags in
a temporary ``git worktree`` of ``HEAD``, which is removed afterwards.

Comparison rules, per artifact:

* ``BENCH_batch_engine.json`` — cells keyed by ``(adversary, n)``,
  metric ``batch_trials_per_sec``, higher is better.
* ``BENCH_exec.json`` — cells keyed by ``case``, metric ``seconds``,
  lower is better.

Cells present only in the fresh document are *new* and pass (growing
the grid must not require regenerating history); cells present only in
the baseline are reported as dropped but do not fail (removals are
reviewed in the diff itself).  A fresh document written by ``--smoke``
mode carries no comparable numbers, so it is skipped unless
``--allow-smoke`` asks for the shape-only check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from _emit import REPO_ROOT, validate

#: filename -> (bench script, key fields, metric, higher_is_better)
ARTIFACTS: Dict[str, Tuple[str, Tuple[str, ...], str, bool]] = {
    "BENCH_batch_engine.json": (
        "bench_batch_engine.py",
        ("adversary", "n"),
        "batch_trials_per_sec",
        True,
    ),
    "BENCH_exec.json": ("bench_exec.py", ("case",), "seconds", False),
}


def _baseline(name: str) -> Optional[dict]:
    """The artifact as committed at HEAD, or None if not in HEAD."""
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def _measure_at_head(name: str, flags: List[str]) -> dict:
    """Run ``name``'s bench script with ``flags`` in a temporary
    worktree of HEAD and return the artifact it wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "head"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), "HEAD"],
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
        )
        try:
            # The checkout carries the other host's artifact: remove it
            # so only a fresh measurement can be read back.
            (tree / name).unlink()
            script = tree / "benchmarks" / ARTIFACTS[name][0]
            # No check: a script's own gate may fail after it writes.
            subprocess.run(
                [sys.executable, str(script), *flags],
                cwd=tree,
                env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            )
            return json.loads((tree / name).read_text())
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                cwd=REPO_ROOT,
                capture_output=True,
            )


def baseline_for(
    name: str,
    fresh: dict,
    *,
    committed: Callable[[str], Optional[dict]] = _baseline,
    measure: Callable[[str, List[str]], dict] = _measure_at_head,
) -> Optional[dict]:
    """The document to compare ``fresh`` against: the one committed at
    HEAD when it was measured on this host, else HEAD measured here."""
    baseline = committed(name)
    if baseline is None or baseline["host"] == fresh["host"]:
        return baseline
    print(
        f"{name}: HEAD's artifact is from another host; measuring HEAD here",
        flush=True,
    )
    return measure(name, ["--smoke"] if fresh["smoke"] else [])


def _cells(doc: dict, key_fields: Iterable[str]) -> Dict[tuple, dict]:
    return {
        tuple(row[k] for k in key_fields): row for row in doc["results"]
    }


def _fmt_key(key: tuple) -> str:
    return "/".join(str(k) for k in key)


def compare_artifact(
    name: str, tolerance: float, allow_smoke: bool
) -> Tuple[int, int]:
    """Compare one artifact; return (cells checked, regressions)."""
    _script, key_fields, metric, higher_better = ARTIFACTS[name]
    fresh_path = REPO_ROOT / name
    if not fresh_path.exists():
        print(f"{name}: no fresh artifact in working tree; skipping")
        return 0, 0
    fresh = validate(json.loads(fresh_path.read_text()))
    if fresh["smoke"]:
        if allow_smoke:
            print(f"{name}: smoke artifact; shape check only — ok")
            return 0, 0
        print(
            f"{name}: fresh artifact is a --smoke run; refusing to "
            "compare timing (rerun `make bench` or pass --allow-smoke)"
        )
        return 0, 1
    baseline = baseline_for(name, fresh)
    if baseline is None:
        print(f"{name}: no baseline at HEAD; all cells are new — ok")
        return 0, 0

    base_cells = _cells(baseline, key_fields)
    fresh_cells = _cells(fresh, key_fields)
    checked = regressions = 0
    for key, base_row in sorted(base_cells.items(), key=str):
        fresh_row = fresh_cells.get(key)
        if fresh_row is None:
            print(f"{name}: {_fmt_key(key)} dropped from grid (review)")
            continue
        base_val = float(base_row[metric])
        fresh_val = float(fresh_row[metric])
        checked += 1
        if higher_better:
            bad = fresh_val < base_val * (1.0 - tolerance)
            delta = (fresh_val - base_val) / base_val
        else:
            bad = fresh_val > base_val * (1.0 + tolerance)
            delta = (base_val - fresh_val) / base_val
        marker = "REGRESSION" if bad else "ok"
        print(
            f"{name}: {_fmt_key(key):<28} {metric} "
            f"{base_val:>12.1f} -> {fresh_val:>12.1f} "
            f"({delta:+.1%}) {marker}"
        )
        if bad:
            regressions += 1
    for key in sorted(set(fresh_cells) - set(base_cells), key=str):
        print(f"{name}: {_fmt_key(key)} new cell — ok")
    return checked, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fractional slowdown allowed per cell (default 0.30)",
    )
    parser.add_argument(
        "--allow-smoke",
        action="store_true",
        help="accept --smoke artifacts with a shape-only check",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        default=sorted(ARTIFACTS),
        help="artifact filenames to compare (default: all known)",
    )
    args = parser.parse_args(argv)

    total = failures = 0
    for name in args.artifacts:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; known: {sorted(ARTIFACTS)}")
            return 2
        checked, regressions = compare_artifact(
            name, args.tolerance, args.allow_smoke
        )
        total += checked
        failures += regressions
    print(
        f"compared {total} cells, {failures} regression(s) "
        f"at {args.tolerance:.0%} tolerance"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
