"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {experiments,sweep-2d,service}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``      the workload's fixed work, first submission to last
                  result (set-up and output checks excluded);
* ``setup_s``     median of several set-ups: imports and a warm
                  two-worker pool, or ``repro serve`` plus two
                  ``repro worker`` processes answering ``/healthz``;
* ``peak_rss_mb`` highest peak RSS of any process the workload runs;
* ``job_p50_s``, ``job_p90_s``  latency of one job, submission to
                  result: an HTTP job from ``POST /jobs`` to settled on
                  ``service``, one batch on ``experiments``, one cell from
                  its plan's submission on ``sweep-2d``.

``fail_frac`` (failed / attempted operations: batches, or jobs on
``service``) is the result's ``failed`` / ``attempted`` pair.

``--trace 1`` runs the same work once untraced and once with timing
shims in every process, and reports the per-layer metrics of the
traced pass plus its overhead over the untraced one.  The per-layer
table (calls, busy and self seconds per layer) is printed above the
result.

``--seconds`` fixes the amount of work: ``max(1, round(S / nominal))``
units of the workload (see ``workloads.WORKLOADS``).  Inputs derive
from ``--seed`` only.  The last stdout line is the JSON result; the
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-tmp"


def _parse(argv: Any) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("experiments", "sweep-2d", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host() -> Dict[str, Any]:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _end_to_end(measured: Any) -> Tuple[Dict[str, Any], str]:
    from workloads import percentile

    jobs = measured.jobs
    p50, p90 = percentile(jobs, 50), percentile(jobs, 90)
    above = sum(1 for x in jobs if x > p90)
    metrics = {
        "wall_s": _metric(measured.wall_s, "s"),
        "setup_s": _metric(statistics.median(measured.setup), "s"),
        "peak_rss_mb": _metric(measured.peak_rss_mb, "MB"),
        "job_p50_s": _metric(p50, "s"),
        "job_p90_s": _metric(p90, "s"),
    }
    lines = [
        f"wall_s      = {measured.wall_s:.3f} s",
        f"setup_s     = {metrics['setup_s']['value']:.3f} s  (median of {len(measured.setup)}: "
        + ", ".join(f"{s:.3f}" for s in measured.setup) + ")",
        f"peak_rss_mb = {measured.peak_rss_mb:.1f} MB",
        f"fail_frac   = {len(measured.failures) / max(1, measured.attempted):.4f}  "
        f"({len(measured.failures)} of {measured.attempted} attempted)",
        f"job_p50_s   = {p50:.4f} s  (n={len(jobs)})",
        f"job_p90_s   = {p90:.4f} s  (n={len(jobs)}, {above} above)",
    ]
    return metrics, "\n".join(lines)


def _report(measured: Any) -> None:
    for line in measured.failures:
        print(f"FAILED: {line}")
    for line in measured.problems:
        print(f"CHECK MISS: {line}")
    print("notes: " + json.dumps(measured.notes, sort_keys=True))


def main(argv: Any = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    from workloads import SETUP_SAMPLES, WORKLOADS, Context

    run, nominal = WORKLOADS[args.workload]
    units = max(1, round(args.seconds / nominal))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        print("host: " + json.dumps(_host(), sort_keys=True))
        print("run: " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "units": units, "trace": args.trace,
            "scratch": str(tmp.relative_to(ROOT)),
            "fresh": "cache dir, pool and service processes per run",
        }, sort_keys=True))
        if args.trace:
            result = _traced(run, args.seed, units, tmp)
        else:
            measured = run(Context(args.seed, units, tmp, setup_samples=SETUP_SAMPLES))
            metrics, summary = _end_to_end(measured)
            print(summary)
            _report(measured)
            result = {
                "correct": not measured.problems,
                "attempted": measured.attempted,
                "failed": len(measured.failures),
                "metrics": metrics,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _traced(run: Any, seed: int, units: int, tmp: Path) -> Dict[str, Any]:
    from tracing import LayerTable, Tracer, install, load_dumps
    from workloads import Context

    for name in ("untraced", "traced", "trace"):
        (tmp / name).mkdir()
    baseline = run(Context(seed, units, tmp / "untraced"))
    trace_dir = tmp / "trace"
    tracer = Tracer("bench", trace_dir)
    install(tracer, pool_submit=True)
    traced = run(Context(seed, units, tmp / "traced", tracer=tracer))
    table = LayerTable([*load_dumps(trace_dir), tracer.snapshot()])
    print(table.render())
    overhead = traced.wall_s - baseline.wall_s
    print(f"tracing overhead = {overhead:.3f} s  (traced wall {traced.wall_s:.3f} s "
          f"- untraced wall {baseline.wall_s:.3f} s)")
    _report(traced)
    metrics = {name: _metric(value, unit) for name, (value, unit) in table.metrics().items()}
    metrics["trace.wall_s"] = _metric(traced.wall_s, "s")
    metrics["trace.untraced_wall_s"] = _metric(baseline.wall_s, "s")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["fail_frac"] = _metric(len(traced.failures) / max(1, traced.attempted), "ratio")
    problems = baseline.problems + traced.problems
    return {
        "correct": not problems,
        "attempted": baseline.attempted + traced.attempted,
        "failed": len(baseline.failures) + len(traced.failures),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
