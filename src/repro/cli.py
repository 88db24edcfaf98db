"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run`` — execute a protocol against an adversary and report the
  decision round, verdicts, and crash accounting over seeded trials.
* ``coin`` — measure one-round game control probabilities (§2).
* ``valency`` — exact valency scan of a tiny system (§3.2).
* ``bounds`` — evaluate the paper's closed-form bounds at (n, t).
* ``sweep`` — a (protocol, adversary, n) grid on the reference engine,
  exported as a table, CSV, or JSON.
* ``experiments`` — the E1..E14 claim-reproduction suite of
  :mod:`repro.harness.experiments` (``python -m
  repro.harness.experiments`` is the same command).
* ``lint`` — the repo-specific static-analysis pass (REP001–REP008,
  including the interprocedural determinism-taint and spec-payload
  rules); its arguments go to :mod:`repro.lint` unparsed.
* ``serve`` / ``worker`` / ``submit`` — the sweep service: a job
  server with spec-hash dedup, the thin chunk-execution worker it can
  shard onto, and the client that submits a grid and renders results
  (see ``docs/service.md``).

``run``, ``sweep``, and ``experiments`` execute through the
:mod:`repro.harness.exec` core, so they share ``--workers N`` (process
parallelism), the result-cache knobs (``--cache``/``--no-cache``,
``--cache-dir``), and the resilience knobs (``--retries``,
``--chunk-timeout``, ``--chaos``; see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from repro._math import (
    adversary_round_budget,
    deterministic_stage_threshold,
)
from repro.adversary.registry import adversary_factory, available_adversaries
from repro.analysis.bounds import (
    expected_rounds_theta,
    lower_bound_rounds_thm1,
    upper_bound_rounds_thm2,
)
from repro.analysis.valency import ValencyAnalyzer
from repro.coinflip.control import find_controllable_outcome
from repro.coinflip.games import (
    LeaderGame,
    MajorityDefaultZeroGame,
    MajorityGame,
    ParityGame,
    QuantileGame,
)
from repro.coinflip.library_games import (
    ThresholdGame,
    TribesGame,
)
from repro.errors import ConfigurationError, ReproError
from repro.faultmodels import available_fault_models
from repro.harness.exec import (
    ENGINE_KINDS,
    ENGINE_REFERENCE,
    ExecutionPlan,
    Executor,
    ResultCache,
    TrialBatch,
    TrialSpec,
    available_input_kinds,
    build_protocol,
    make_executor,
    spec_params,
)
from repro.harness.report import (
    Table,
    quarantine_line,
    render_table,
    report_quarantined,
    resilience_note,
)
from repro.harness.resilience import CHAOS_ENV, FaultPlan, RetryPolicy
from repro.harness.sweep import Sweep, run_sweep
from repro.protocols.registry import available_protocols, make_protocol

__all__ = ["main", "build_parser"]

_GAMES = {
    "majority": lambda n: MajorityGame(n),
    "majority-default-0": lambda n: MajorityDefaultZeroGame(n),
    "parity": lambda n: ParityGame(n),
    "leader": lambda n: LeaderGame(n),
    "quantile4": lambda n: QuantileGame(n, k=4),
    "tribes": lambda n: TribesGame(n, tribe_size=max(1, n // 8)),
    "threshold": lambda n: ThresholdGame(n, threshold=(n + 1) // 2),
}


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _make_executor(args: argparse.Namespace, *, cache_on: bool) -> Iterator[Executor]:
    """The executor shared by run/sweep/experiments, built from flags
    and closed on exit.

    ``--chaos`` is loaded first, so a broken plan file fails before the
    run starts, and is exported as ``REPRO_CHAOS`` while the executor
    runs: the variable reaches every chaos hook, in-process chunks, pool
    workers (which inherit it) and parent-side cache corruption.  On
    exit the variable gets back its earlier value, or is removed if it
    had none, so later runs in the same process inject nothing.
    """
    cache = ResultCache(args.cache_dir) if cache_on else None
    chaos = getattr(args, "chaos", None)
    earlier = os.environ.get(CHAOS_ENV)
    if chaos:
        FaultPlan.load(chaos)
        os.environ[CHAOS_ENV] = chaos
    try:
        with make_executor(
            args.workers,
            cache=cache,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            chunk_timeout=args.chunk_timeout,
        ) as executor:
            yield executor
    finally:
        if chaos:
            if earlier is None:
                del os.environ[CHAOS_ENV]
            else:
                os.environ[CHAOS_ENV] = earlier


def _fault_model_params(
    args: argparse.Namespace,
) -> Tuple[Tuple[str, object], ...]:
    """Lower ``--fault-lag`` into canonical spec parameters.

    Only the ``late`` model takes a lag; passing ``--fault-lag`` with
    any other model would silently change the spec hash without
    changing behaviour, so it is rejected instead.
    """
    if args.fault_lag is None:
        return ()
    if args.fault_model != "late":
        raise ConfigurationError(
            "--fault-lag only applies to --fault-model late "
            f"(got {args.fault_model!r})"
        )
    return spec_params(lag=args.fault_lag)


def _cmd_run(args: argparse.Namespace) -> int:
    n, t = args.n, args.t if args.t is not None else args.n
    spec = TrialSpec(
        protocol=args.protocol,
        adversary=args.adversary,
        n=n,
        t=t,
        inputs=args.inputs,
        engine=args.engine,
        fault_model=args.fault_model,
        fault_model_params=_fault_model_params(args),
    )
    # Fail fast on bad (protocol, n, t) combinations before any worker
    # is spawned (e.g. benor requires t < n/2), and on adversaries the
    # selected engine has no factory for.
    build_protocol(spec)
    adversary_factory(spec.adversary, spec.engine)
    with _make_executor(args, cache_on=args.cache) as executor:
        stats = executor.run_batch(
            TrialBatch(
                spec=spec,
                trials=args.trials,
                base_seed=args.seed,
                label="cli-run",
            )
        )
    report_quarantined(executor)
    fault = (
        "" if spec.fault_model == "crash"
        else f", fault={spec.fault_model}"
    )
    table = Table(
        title=(
            f"run: {args.protocol} vs {args.adversary} "
            f"(n={n}, t={t}, inputs={args.inputs}, "
            f"engine={args.engine}{fault}, trials={args.trials})"
        ),
        columns=["metric", "value"],
    )
    if stats.decision_rounds:
        summary = stats.rounds_summary()
        table.add_row("mean decision round", summary.mean)
        table.add_row(
            "min / max round", f"{summary.minimum:g} / {summary.maximum:g}"
        )
        table.add_row("ci95 half-width", summary.ci95_half_width)
        table.add_row(
            "mean crashes", sum(stats.crashes) / len(stats.crashes)
        )
    table.add_row("timeouts", stats.timeouts)
    if stats.missing_trials:
        table.add_row("missing trials (quarantined)", stats.missing_trials)
    if stats.checked:
        table.add_row("consensus violations", stats.violation_count())
        ok = stats.violation_count() == 0 and stats.missing_trials == 0
    else:
        # Vectorized engines carry no per-trial verdicts; report the
        # structural check they do support instead of a vacuous pass.
        table.add_row("structural check", "ok" if stats.structural_ok() else "FAILED")
        ok = stats.structural_ok()
    decisions = [d for d in stats.decisions if d is not None]
    if decisions:
        table.add_row(
            "decision-1 fraction", sum(decisions) / len(decisions)
        )
    note = resilience_note(executor)
    if note:
        table.add_note(note)
    print(render_table(table))
    return 0 if ok else 1


def _cmd_coin(args: argparse.Namespace) -> int:
    game = _GAMES[args.game](args.n)
    t = args.t if args.t is not None else min(
        args.n, adversary_round_budget(args.n) * game.k
    )
    report = find_controllable_outcome(
        game, t, trials=args.trials, rng=random.Random(args.seed)
    )
    table = Table(
        title=f"coin: {args.game} (n={args.n}, k={game.k}, t={t})",
        columns=["outcome", "P(control)"],
    )
    for v, p in enumerate(report.per_outcome):
        table.add_row(v, p)
    table.add_note(
        f"best outcome {report.best_outcome} at "
        f"{report.best_probability:.4f}; Cor 2.2 bound 1-1/n = "
        f"{1 - 1/args.n:.4f}; met: {report.paper_bound_met()}"
    )
    print(render_table(table))
    return 0


def _cmd_valency(args: argparse.Namespace) -> int:
    protocol = make_protocol(args.protocol, args.n, args.budget)
    analyzer = ValencyAnalyzer(
        protocol, args.n, budget=args.budget, horizon=args.horizon
    )
    table = Table(
        title=(
            f"valency: {args.protocol}, n={args.n}, "
            f"budget={args.budget}, eps={args.epsilon}"
        ),
        columns=["inputs", "min Pr[1]", "max Pr[1]", "class"],
    )
    for bits, report in sorted(analyzer.scan_initial_states().items()):
        table.add_row(
            "".join(map(str, bits)),
            report.min_p,
            report.max_p,
            report.classification(args.epsilon),
        )
    print(render_table(table))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    table = Table(
        title=f"bounds at n={n}, t={t}",
        columns=["bound", "value"],
    )
    table.add_row(
        "Thm 3  t/sqrt(n log(2+t/sqrt n))", expected_rounds_theta(n, t)
    )
    table.add_row(
        "Thm 1  t/(4 sqrt(n log n)+1)", lower_bound_rounds_thm1(n, t)
    )
    table.add_row(
        "Thm 2  t/sqrt(n log n)+sqrt(n/log n)",
        upper_bound_rounds_thm2(n, t),
    )
    table.add_row(
        "per-round adversary budget 4 sqrt(n log n)",
        adversary_round_budget(n),
    )
    table.add_row(
        "det-stage threshold sqrt(n/log n)",
        deterministic_stage_threshold(n),
    )
    print(render_table(table))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.export import sweep_to_csv, sweep_to_json, write_text

    protocols = tuple(p for p in args.protocols.split(",") if p)
    adversaries = tuple(a for a in args.adversaries.split(",") if a)
    ns = tuple(int(n) for n in args.ns.split(",") if n)
    t_frac = args.t_frac
    sweep = Sweep(
        protocols=protocols,
        adversaries=adversaries,
        ns=ns,
        t_of=lambda n: max(0, min(n, int(n * t_frac))),
        trials=args.trials,
        base_seed=args.seed,
        inputs=args.inputs,
        fault_model=args.fault_model,
        fault_model_params=_fault_model_params(args),
    )
    with _make_executor(args, cache_on=not args.no_cache) as executor:
        results = run_sweep(sweep, executor=executor)
        hits, misses = executor.cache_hits, executor.cache_misses
    lost = report_quarantined(executor)
    if args.format == "csv":
        rendered = sweep_to_csv(results)
    elif args.format == "json":
        rendered = sweep_to_json(results)
    else:
        table = Table(
            title=(
                f"sweep: {len(results)} cells, t = {t_frac:g}*n, "
                f"trials={args.trials}"
            ),
            columns=[
                "protocol", "adversary", "n", "t", "mean rounds",
                "timeouts", "violations",
            ],
        )
        for r in results:
            table.add_row(
                r.protocol, r.adversary, r.n, r.t, r.mean_rounds,
                r.timeouts, r.violations,
            )
        if not args.no_cache:
            table.add_note(
                f"cache: {hits} cell(s) resumed, {misses} computed"
            )
        note = resilience_note(executor)
        if note:
            table.add_note(note)
        rendered = render_table(table)
    if args.output:
        path = write_text(args.output, rendered)
        print(f"wrote {path}")
    else:
        print(rendered)
    return 1 if lost else 0


def _experiment_ids(value: str) -> List[str]:
    """One ``--only`` value: comma-separated experiment ids."""
    from repro.harness.experiments import ALL_EXPERIMENTS

    ids = [exp_id.strip() for exp_id in value.split(",") if exp_id.strip()]
    for exp_id in ids:
        if exp_id not in ALL_EXPERIMENTS:
            raise argparse.ArgumentTypeError(
                f"unknown experiment id {exp_id!r} (choose from "
                f"{', '.join(ALL_EXPERIMENTS)})"
            )
    return ids


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS

    if args.only:
        ids = list(dict.fromkeys(i for value in args.only for i in value))
    else:
        ids = list(ALL_EXPERIMENTS)
    with _make_executor(args, cache_on=not args.no_cache) as executor:
        try:
            for exp_id in ids:
                table = ALL_EXPERIMENTS[exp_id](args.scale, executor=executor)
                print(render_table(table))
                print()
            if executor.cache_hits or executor.cache_misses:
                print(
                    f"cache: {executor.cache_hits} batch hit(s), "
                    f"{executor.cache_misses} miss(es)"
                )
            note = resilience_note(executor)
            if note:
                print(note)
        finally:
            lost = report_quarantined(executor)
    return 1 if lost else 0


def _serve_forever(app: object, host: str, port: int, role: str) -> None:
    """Run one service app in the foreground until interrupted.

    Prints the ``<role> serving on http://host:port`` line (flushed)
    that ``repro.service.smoke`` and the CI smoke job parse to
    discover ephemeral ports.
    """
    import asyncio

    from repro.service.netio import HttpServer

    async def _run() -> None:
        server = HttpServer(app, host, port)
        bound = await server.start()
        print(f"{role} serving on http://{host}:{bound}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServerConfig, SweepServerApp

    config = ServerConfig(
        cache_dir=args.cache_dir,
        workers=args.workers,
        worker_endpoints=tuple(args.worker_endpoint or ()),
        job_workers=args.job_workers,
        retries=args.retries,
        chunk_timeout=args.chunk_timeout,
        request_timeout=args.request_timeout,
        audit_fraction=args.audit_fraction,
        journal=args.journal,
        max_jobs=args.max_jobs,
    )
    service = SweepServerApp(config)
    try:
        _serve_forever(service.app, args.host, args.port, "sweep server")
    finally:
        service.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import WorkerApp

    fault_plan = FaultPlan.load(args.chaos) if args.chaos else None
    worker = WorkerApp(fault_plan=fault_plan)
    _serve_forever(worker.app, args.host, args.port, "worker")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    protocols = [p for p in args.protocols.split(",") if p]
    adversaries = [a for a in args.adversaries.split(",") if a]
    ns = [int(n) for n in args.ns.split(",") if n]
    batches = []
    for protocol in protocols:
        for adversary in adversaries:
            for n in ns:
                spec = TrialSpec(
                    protocol=protocol,
                    adversary=adversary,
                    n=n,
                    t=max(0, min(n, int(n * args.t_frac))),
                    inputs=args.inputs,
                    engine=args.engine,
                    fault_model=args.fault_model,
                    fault_model_params=_fault_model_params(args),
                )
                batches.append(
                    TrialBatch(
                        spec=spec,
                        trials=args.trials,
                        base_seed=args.seed,
                        label=f"{protocol}/{adversary}/n{n}",
                    )
                )
    plan = ExecutionPlan(batches=tuple(batches))
    client = ServiceClient(args.server)
    receipt = client.submit(plan, label=args.label)
    print(
        f"job {receipt.job_id} "
        f"({'coalesced' if receipt.coalesced else 'new'}), "
        f"{receipt.total_trials} trials"
    )
    if args.no_wait:
        return 0
    if args.follow:
        final = None
        for event in client.events(receipt.job_id):
            progress = event["progress"]
            print(
                f"[{event['state']}] "
                f"{progress['completed_trials']}/"
                f"{progress['total_trials']} trials, "
                f"batch {progress['completed_batches']}/"
                f"{progress['total_batches']}",
                flush=True,
            )
            final = event
        if final is None:
            print("error: event stream ended early", file=sys.stderr)
            return 1
    else:
        final = client.wait(receipt.job_id, timeout=args.timeout)
    if final["state"] != "done":
        print(f"error: job failed: {final.get('error')}", file=sys.stderr)
        return 1
    for chunk in final["quarantined"]:
        print(quarantine_line(**chunk), file=sys.stderr)
    table = Table(
        title=f"job {receipt.job_id}: {len(final['results'])} batch(es)",
        columns=["batch", "trials", "mean rounds", "timeouts", "missing"],
    )
    for r in final["results"]:
        table.add_row(
            r["label"], r["trials"], r["mean_rounds"], r["timeouts"],
            r["missing_trials"],
        )
    cache = final.get("cache", {})
    table.add_note(
        f"cache: {cache.get('hits', 0)} batch(es) resumed, "
        f"{cache.get('misses', 0)} computed"
    )
    print(render_table(table))
    return 1 if any(r["missing_trials"] for r in final["results"]) else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_fault_model_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The fault-semantics knobs shared by run/sweep."""
    sub_parser.add_argument(
        "--fault-model", choices=available_fault_models(),
        default="crash",
        help=(
            "fault semantics (default: crash, the paper's fail-stop "
            "model; see docs/model.md)"
        ),
    )
    sub_parser.add_argument(
        "--fault-lag", type=int, default=None, metavar="EPS",
        help=(
            "staleness in rounds for --fault-model late "
            "(default: the model's default of 1)"
        ),
    )


def _add_resilience_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The fail-stop-tolerance knobs shared by run/sweep/experiments."""
    sub_parser.add_argument(
        "--retries", type=int, default=2,
        help="retries per failed chunk before quarantine (default: 2)",
    )
    sub_parser.add_argument(
        "--chunk-timeout", type=float, default=None,
        help=(
            "stall-detector window in seconds: rebuild the pool and "
            "retry if no chunk completes in time (default: wait forever)"
        ),
    )
    sub_parser.add_argument(
        "--chaos", default=None, metavar="PLAN.json",
        help="fault-plan JSON to inject (chaos testing)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Bar-Joseph & Ben-Or, 'A Tight Lower Bound "
            "for Randomized Synchronous Consensus' (PODC 1998)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol vs an adversary")
    run.add_argument("--protocol", choices=available_protocols(),
                     default="synran")
    run.add_argument(
        "--adversary", choices=available_adversaries(None),
        default="tally-attack",
        help="engines without a factory for the name reject it",
    )
    run.add_argument(
        "--engine", choices=ENGINE_KINDS, default=ENGINE_REFERENCE,
        help=(
            "reference = message-level with full verdicts; batch = "
            "counts-level, trial-axis vectorized; batch2d = trial x "
            "process vectorized with per-recipient delivery masks "
            "(batch/batch2d check structurally, SynRan-family only)"
        ),
    )
    run.add_argument("--n", type=int, default=64)
    run.add_argument("--t", type=int, default=None,
                     help="crash budget (default: n)")
    run.add_argument("--inputs", choices=available_input_kinds(),
                     default="worst")
    run.add_argument("--trials", type=int, default=5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = serial)")
    run.add_argument("--cache", action="store_true",
                     help="reuse/store results in the on-disk cache")
    run.add_argument("--cache-dir", default=None,
                     help="result-cache directory (default: .repro-cache)")
    _add_fault_model_flags(run)
    _add_resilience_flags(run)
    run.set_defaults(func=_cmd_run)

    coin = sub.add_parser("coin", help="one-round game control (§2)")
    coin.add_argument("--game", choices=sorted(_GAMES), default="majority")
    coin.add_argument("--n", type=int, default=1024)
    coin.add_argument("--t", type=int, default=None,
                      help="hiding budget (default: Lemma 2.1's)")
    coin.add_argument("--trials", type=int, default=300)
    coin.add_argument("--seed", type=int, default=0)
    coin.set_defaults(func=_cmd_coin)

    val = sub.add_parser("valency", help="exact valency scan (§3.2)")
    val.add_argument("--protocol", choices=available_protocols(),
                     default="synran")
    val.add_argument("--n", type=int, default=3)
    val.add_argument("--budget", type=int, default=2)
    val.add_argument("--epsilon", type=float, default=0.3)
    val.add_argument("--horizon", type=int, default=40)
    val.set_defaults(func=_cmd_valency)

    bounds = sub.add_parser("bounds", help="closed-form bounds at (n, t)")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--t", type=int, required=True)
    bounds.set_defaults(func=_cmd_bounds)

    sweep = sub.add_parser(
        "sweep", help="a (protocol, adversary, n) grid on the reference engine"
    )
    sweep.add_argument("--protocols", default="synran",
                       help="comma-separated protocol names")
    sweep.add_argument("--adversaries", default="benign,tally-attack",
                       help="comma-separated adversary names")
    sweep.add_argument("--ns", default="16,32",
                       help="comma-separated system sizes")
    sweep.add_argument("--t-frac", type=float, default=0.5,
                       help="crash budget as a fraction of n")
    sweep.add_argument("--inputs", choices=available_input_kinds(),
                       default="worst")
    sweep.add_argument("--trials", type=int, default=5)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
    sweep.add_argument("--output", default=None,
                       help="write the rendered output to this path")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute every cell (cache is on by default)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: .repro-cache)")
    _add_fault_model_flags(sweep)
    _add_resilience_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    exp = sub.add_parser(
        "experiments",
        help="the E1..E14 claim-reproduction suite",
        description="Regenerate the paper's quantitative claims.",
    )
    exp.add_argument("--scale", choices=("quick", "full"), default="quick")
    exp.add_argument(
        "--only", nargs="*", type=_experiment_ids, metavar="ID[,ID...]",
        help="subset of experiment ids to run (e.g. --only E5,E6)",
    )
    exp.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = serial)")
    exp.add_argument("--no-cache", action="store_true",
                     help="recompute every batch (cache is on by default)")
    exp.add_argument("--cache-dir", default=None,
                     help="result-cache directory (default: .repro-cache)")
    _add_resilience_flags(exp)
    exp.set_defaults(func=_cmd_experiments)

    serve = sub.add_parser(
        "serve", help="run the sweep server (jobs, dedup, SSE progress)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral; default: 8642)")
    serve.add_argument("--workers", type=int, default=1,
                       help="local worker processes per job (1 = serial)")
    serve.add_argument(
        "--worker-endpoint", action="append", default=None, metavar="URL",
        help=(
            "shard jobs across this remote worker (repeatable; "
            "overrides --workers)"
        ),
    )
    serve.add_argument("--job-workers", type=int, default=2,
                       help="jobs executed concurrently (default: 2)")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: .repro-cache)")
    serve.add_argument("--retries", type=int, default=2,
                       help="retries per failed chunk (default: 2)")
    serve.add_argument("--chunk-timeout", type=float, default=None,
                       help="local-pool stall-detector window in seconds")
    serve.add_argument("--request-timeout", type=float, default=300.0,
                       help="per worker-request HTTP timeout (default: 300)")
    serve.add_argument(
        "--audit-fraction", type=float, default=0.0, metavar="F",
        help=(
            "fraction of remote chunks re-executed locally to audit "
            "worker honesty (default: 0.0; 1.0 = audit everything)"
        ),
    )
    serve.add_argument(
        "--journal", action="store_true",
        help=(
            "keep a durable job journal under the cache root and "
            "re-admit journaled jobs on restart"
        ),
    )
    serve.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help=(
            "bound the in-memory job table: evict the oldest finished "
            "job when full, answer 429 when saturated with live jobs"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="run a chunk-execution worker for the sweep server"
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=8643,
                        help="listen port (0 = ephemeral; default: 8643)")
    worker.add_argument("--chaos", default=None, metavar="PLAN.json",
                        help="fault-plan JSON to inject (chaos testing)")
    worker.set_defaults(func=_cmd_worker)

    submit = sub.add_parser(
        "submit", help="submit a sweep grid to a running sweep server"
    )
    submit.add_argument("--server", default="http://127.0.0.1:8642",
                        help="sweep-server base URL")
    submit.add_argument("--label", default="cli-submit")
    submit.add_argument("--protocols", default="synran",
                        help="comma-separated protocol names")
    submit.add_argument("--adversaries", default="benign,tally-attack",
                        help="comma-separated adversary names")
    submit.add_argument("--ns", default="16,32",
                        help="comma-separated system sizes")
    submit.add_argument("--t-frac", type=float, default=0.5,
                        help="crash budget as a fraction of n")
    submit.add_argument("--inputs", choices=available_input_kinds(),
                        default="worst")
    submit.add_argument("--engine", choices=ENGINE_KINDS,
                        default=ENGINE_REFERENCE)
    submit.add_argument("--trials", type=int, default=5)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately")
    submit.add_argument("--follow", action="store_true",
                        help="stream SSE progress instead of polling")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for completion (default: 600)")
    _add_fault_model_flags(submit)
    submit.set_defaults(func=_cmd_submit)

    # Listed for --help only: main() hands `repro lint ARGS` to the
    # linter's own parser unparsed.
    sub.add_parser(
        "lint",
        add_help=False,
        help=(
            "repo-specific static analysis (REP001-REP008); takes the "
            "flags of python -m repro.lint"
        ),
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.lint.runner import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
