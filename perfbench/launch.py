"""Subprocess entry points of the benchmark.

``python3 perfbench/launch.py probe --cache-dir DIR --import MODULE...``
    One set-up sample of a pool workload: import the modules the
    workload needs, start a two-worker ``ParallelExecutor`` and run one
    single-trial chunk on it, print ``ready`` and exit.

``python3 perfbench/launch.py traced --trace-dir DIR --role ROLE -- ARGS...``
    Run ``repro ARGS...`` (``serve`` or ``worker``) with the per-layer
    timing shims installed; the process writes its spans to DIR when
    ``repro.cli.main`` returns (SIGINT stops the service cleanly).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def probe(cache_dir: str, modules: list) -> int:
    for module in modules:
        __import__(module)
    from repro.harness.exec import (
        ParallelExecutor,
        ResultCache,
        TrialBatch,
        TrialSpec,
    )

    batch = TrialBatch(
        spec=TrialSpec(protocol="synran", adversary="benign", n=8, t=0, engine="batch"),
        trials=2,
        base_seed=0,
        label="setup-probe",
    )
    with ParallelExecutor(2, cache=ResultCache(cache_dir), chunk_size=1) as executor:
        executor.run_outcomes(batch)
        print("ready", flush=True)
    return 0


def traced(trace_dir: str, role: str, argv: list) -> int:
    from tracing import Tracer, install

    tracer = Tracer(role, Path(trace_dir))
    install(tracer)
    tracer.enabled = True
    from repro.cli import main

    try:
        return main(argv)
    finally:
        tracer.enabled = False
        tracer.dump()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--import", dest="modules", action="append", default=[])
    t = sub.add_parser("traced")
    t.add_argument("--trace-dir", required=True)
    t.add_argument("--role", required=True)
    t.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        return probe(args.cache_dir, args.modules)
    forwarded = args.args[1:] if args.args[:1] == ["--"] else args.args
    return traced(args.trace_dir, args.role, forwarded)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
