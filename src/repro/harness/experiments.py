"""The per-claim experiment suite (E1..E14).

The paper has no empirical section; its evaluation *is* its theorem
statements.  Each ``experiment_*`` function here regenerates the
quantitative content of one claim as a :class:`~repro.harness.report.Table`
(see DESIGN.md §5 for the index and EXPERIMENTS.md for recorded
paper-vs-measured results).  All functions take a ``scale``:

* ``"quick"`` — minutes of CPU; the grids used by the benchmark suite.
* ``"full"`` — the grids recorded in EXPERIMENTS.md.

Every trial-running experiment describes its work as
:class:`~repro.harness.exec.spec.TrialSpec` batches and accepts an
optional ``executor`` (see :mod:`repro.harness.exec`), so the whole
suite parallelises and resumes from the result cache with no
per-experiment code.  Run everything from the command line (the same
command as ``python -m repro experiments``)::

    python -m repro.harness.experiments [--scale quick|full]
        [--only E5,E6] [--workers N] [--no-cache] [--cache-dir DIR]
        [--retries N] [--chunk-timeout S] [--chaos PLAN.json]
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro._math import (
    adversary_round_budget,
    coin_control_budget,
    expected_rounds_bound,
    lower_bound_rounds,
)
from repro.analysis.bounds import upper_bound_rounds_thm2
from repro.analysis.concentration import (
    blowup_probability_threshold_set,
    paper_h,
    schechtman_l0,
    schechtman_lower_bound,
    threshold_set_for_mass,
)
from repro.analysis.deviation import (
    corollary45_bound,
    corollary45_threshold,
    empirical_deviation_probability,
    exact_deviation_probability,
    lemma44_bound,
)
from repro.analysis.stats import fit_ratio
from repro.analysis.valency import ValencyAnalyzer
from repro.coinflip.control import find_controllable_outcome
from repro.coinflip.games import (
    MajorityDefaultZeroGame,
    MajorityGame,
    ParityGame,
    QuantileGame,
)
from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    Executor,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
    spec_params,
)
from repro.harness.report import Table
from repro.harness.runner import TrialStats
from repro.protocols import SynRanProtocol

__all__ = [
    "ALL_EXPERIMENTS",
    "experiment_e1_coin_control",
    "experiment_e2_one_side_bias",
    "experiment_e3_deviation",
    "experiment_e4_valency",
    "experiment_e5_lower_bound",
    "experiment_e6_upper_bound",
    "experiment_e7_baselines",
    "experiment_e8_t_sweep",
    "experiment_e9_correctness",
    "experiment_e10_concentration",
    "experiment_e11_adaptivity",
    "experiment_e12_shared_coin",
    "experiment_e13_adversary_cost",
    "experiment_e14_fault_models",
    "main",
]


def _check_scale(scale: str) -> None:
    if scale not in ("quick", "full"):
        raise ConfigurationError(
            f"scale must be 'quick' or 'full', got {scale!r}"
        )


def _run(
    spec: TrialSpec,
    *,
    trials: int,
    base_seed: int,
    executor: Optional[Executor] = None,
    label: str = "",
) -> TrialStats:
    """Run one batch on the given executor (serial when ``None``)."""
    batch = TrialBatch(
        spec=spec, trials=trials, base_seed=base_seed, label=label
    )
    return (executor or SerialExecutor()).run_batch(batch)


# ----------------------------------------------------------------------
# E1 — Corollary 2.2: coin-game control probability
# ----------------------------------------------------------------------


def experiment_e1_coin_control(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Control probability of one-round games at the Lemma-2.1 budget.

    Claim: with ``t > k * 4 * sqrt(n log n)`` hidings, some outcome is
    forceable with probability > 1 - 1/n (for every game).
    """
    _check_scale(scale)
    if scale == "quick":
        binary_ns, quantile_ns, trials = [1024, 2048], [16384], 300
    else:
        binary_ns, quantile_ns, trials = [1024, 4096, 16384], [16384, 65536], 1000

    table = Table(
        title=(
            "E1 (Cor 2.2): some outcome controllable w.p. > 1 - 1/n at "
            "t = k*4*sqrt(n log n)"
        ),
        columns=[
            "game", "n", "k", "t", "t<n", "best v", "P(control)",
            "1-1/n", "met",
        ],
    )
    games = []
    for n in binary_ns:
        games.append(MajorityGame(n))
        games.append(ParityGame(n))
        games.append(MajorityDefaultZeroGame(n))
    for n in quantile_ns:
        games.append(QuantileGame(n, k=4))
    for game in games:
        t = min(game.n, coin_control_budget(game.n, game.k))
        report = find_controllable_outcome(
            game, t, trials=trials, rng=random.Random(11)
        )
        bound = 1.0 - 1.0 / game.n
        table.add_row(
            report.game_name,
            game.n,
            game.k,
            t,
            t < game.n,
            report.best_outcome,
            report.best_probability,
            bound,
            report.best_probability > bound
            or report.best_probability == 1.0,
        )
    table.add_note(
        "'met' uses the Monte-Carlo point estimate; at these budgets the "
        "oracle games are controlled in every sampled vector."
    )
    return table


# ----------------------------------------------------------------------
# E2 — §2.1: one-side bias of majority-default-zero
# ----------------------------------------------------------------------


def experiment_e2_one_side_bias(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """The asymmetry that motivates SynRan's coin rule.

    Claim: majority-with-default-0 can be biased towards 0 by hiding a
    deviation's worth of players, but can essentially never be forced
    to 1 (the adversary cannot create ones).
    """
    _check_scale(scale)
    ns = [256, 1024] if scale == "quick" else [256, 1024, 4096, 16384]
    trials = 400 if scale == "quick" else 2000
    table = Table(
        title=(
            "E2 (§2.1): one-side bias — majority-default-0 control "
            "probabilities at t = 4*sqrt(n log n)"
        ),
        columns=["n", "t", "P(force 0)", "P(force 1)", "P(ones>n/2)"],
    )
    for n in ns:
        t = min(n, adversary_round_budget(n))
        game = MajorityDefaultZeroGame(n)
        rng = random.Random(23)
        p0 = find_controllable_outcome(
            game, t, trials=trials, rng=rng
        ).per_outcome[0]
        p1 = find_controllable_outcome(
            game, t, trials=trials, rng=rng
        ).per_outcome[1]
        base = exact_deviation_probability(n, 0.5)  # Pr(x > n/2)
        table.add_row(n, t, p0, p1, base)
    table.add_note(
        "P(force 1) equals the probability the coins already landed at "
        "a 1-majority: hiding can only destroy ones."
    )
    return table


# ----------------------------------------------------------------------
# E3 — Lemma 4.4 / Corollary 4.5: binomial deviation lower bound
# ----------------------------------------------------------------------


def experiment_e3_deviation(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Pr(x - n/2 >= t*sqrt(n)) >= e^{-4(t+1)^2}/sqrt(2 pi)."""
    _check_scale(scale)
    ns = [256, 1024] if scale == "quick" else [256, 1024, 4096, 16384]
    t_values = [0.25, 0.5, 0.75, 1.0]
    trials = 50_000 if scale == "quick" else 400_000
    table = Table(
        title="E3 (Lemma 4.4): binomial upper-deviation lower bound",
        columns=[
            "n", "t", "threshold", "lemma bound", "exact", "empirical",
            "exact>=bound",
        ],
    )
    for n in ns:
        for t in t_values:
            if t >= math.sqrt(n) / 8:
                continue
            threshold = t * math.sqrt(n)
            bound = lemma44_bound(t)
            exact = exact_deviation_probability(n, threshold)
            emp = empirical_deviation_probability(
                n, threshold, trials=trials, rng=random.Random(31)
            )
            table.add_row(n, t, threshold, bound, exact, emp, exact >= bound)
        # Corollary 4.5 instantiation.
        thr = corollary45_threshold(n)
        exact = exact_deviation_probability(n, thr)
        table.add_row(
            n,
            "c4.5",
            thr,
            corollary45_bound(n),
            exact,
            empirical_deviation_probability(
                n, thr, trials=trials, rng=random.Random(37)
            ),
            exact >= corollary45_bound(n),
        )
    table.add_note(
        "rows labelled 'c4.5' use threshold sqrt(n log n)/8 against the "
        "corollary's sqrt(log n / n) floor (clean form; see module docs)."
    )
    return table


# ----------------------------------------------------------------------
# E4 — Lemmas 3.1-3.5: exact valency of tiny systems
# ----------------------------------------------------------------------


def experiment_e4_valency(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Exact min/max Pr[decide 1] for every initial state of a tiny
    SynRan system; Lemma 3.5: some initial state is non-univalent."""
    _check_scale(scale)
    n = 3
    budget = 2
    epsilon = 0.3
    table = Table(
        title=(
            f"E4 (Lemmas 3.1-3.5): exact valency of SynRan, n={n}, "
            f"budget={budget}, eps={epsilon}"
        ),
        columns=["inputs", "min Pr[1]", "max Pr[1]", "class"],
    )
    analyzer = ValencyAnalyzer(
        SynRanProtocol(), n, budget=budget, horizon=40
    )
    scan = analyzer.scan_initial_states()
    non_univalent = 0
    for bits in sorted(scan):
        report = scan[bits]
        cls = report.classification(epsilon)
        if not report.is_univalent(epsilon):
            non_univalent += 1
        table.add_row(
            "".join(map(str, bits)), report.min_p, report.max_p, cls
        )
    table.add_note(
        f"non-univalent initial states: {non_univalent} (Lemma 3.5 "
        "requires at least one reachable with <= 1 extra failure)"
    )
    if scale == "full":
        analyzer4 = ValencyAnalyzer(
            SynRanProtocol(), 4, budget=2, horizon=48
        )
        rep = analyzer4.min_max((0, 0, 1, 1))
        table.add_note(
            f"n=4 spot check, inputs 0011: min={rep.min_p:.3f} "
            f"max={rep.max_p:.3f} class={rep.classification(epsilon)}"
        )
    return table


# ----------------------------------------------------------------------
# E5 — Theorem 1: forced rounds under the tally attack
# ----------------------------------------------------------------------


def experiment_e5_lower_bound(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Rounds the implementable adversaries force, vs the Theorem-1
    shape t/(4 sqrt(n log n) + 1)."""
    _check_scale(scale)
    if scale == "quick":
        ns, trials, benor_ns = [256, 1024], 5, [48]
    else:
        ns, trials, benor_ns = [256, 1024, 4096], 20, [48, 96]

    table = Table(
        title=(
            "E5 (Thm 1): adversary-forced rounds vs the lower-bound "
            "shape t/(4 sqrt(n log n)+1)"
        ),
        columns=[
            "protocol", "adversary", "n", "t", "mean rounds", "ci95",
            "thm1 shape", "ratio",
        ],
    )
    measured: List[float] = []
    predicted: List[float] = []
    for n in ns:
        t = n
        stats = _run(
            TrialSpec(
                protocol="synran",
                adversary="tally-attack",
                n=n,
                t=t,
                inputs="worst",
                engine=ENGINE_BATCH,
            ),
            trials=trials,
            base_seed=101,
            executor=executor,
            label=f"E5/synran/n={n}",
        )
        summary = stats.rounds_summary()
        shape = lower_bound_rounds(n, t)
        measured.append(summary.mean)
        predicted.append(shape)
        table.add_row(
            "synran", "tally-attack", n, t, summary.mean,
            summary.ci95_half_width, shape, summary.mean / shape,
        )
    for n in benor_ns:
        # At t -> n/2 the post-attack survivor count approaches the
        # absolute quorum and Ben-Or's coins need near-unanimity:
        # expected rounds blow up past any horizon (the fragility the
        # paper's introduction describes).  t = n/4 keeps the stall
        # finite and measurable.
        t = n // 4
        stats = _run(
            TrialSpec(
                protocol="benor",
                adversary="benor-quorum",
                n=n,
                t=t,
                inputs="worst",
                adversary_params=spec_params(decide_threshold=t + 1),
                inputs_params=spec_params(fraction=0.5),
            ),
            trials=max(3, trials // 2),
            base_seed=103,
            executor=executor,
            label=f"E5/benor/n={n}",
        )
        summary = stats.rounds_summary()
        shape = lower_bound_rounds(n, t)
        table.add_row(
            "benor", "quorum-attack", n, t, summary.mean,
            summary.ci95_half_width, shape, summary.mean / shape,
        )
    c, rmse = fit_ratio(measured, predicted)
    table.add_note(
        f"synran fit: measured ~ {c:.2f} x thm1-shape (rel rmse "
        f"{rmse:.2f}); the implementable attack is a lower estimate of "
        "the unbounded adversary, and at these n the stability-bleed "
        "mode exceeds the asymptotic shape (see EXPERIMENTS.md)."
    )
    return table


# ----------------------------------------------------------------------
# E6 — Theorem 2: SynRan upper bound at t = Omega(n)
# ----------------------------------------------------------------------


def experiment_e6_upper_bound(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """SynRan expected rounds under an adversary suite vs the Theorem-2
    shape t/sqrt(n log n) + sqrt(n/log n)."""
    _check_scale(scale)
    if scale == "quick":
        ns, trials = [256, 1024], 5
    else:
        ns, trials = [256, 1024, 4096, 16384], 20

    suite = [
        ("benign", "benign", ()),
        ("random", "random", spec_params(rate=0.02)),
        ("tally-attack", "tally-attack", ()),
    ]
    table = Table(
        title=(
            "E6 (Thm 2): SynRan expected rounds at t=n vs "
            "t/sqrt(n log n) + sqrt(n/log n)"
        ),
        columns=["n", "t", "adversary", "mean rounds", "thm2 shape", "ratio"],
    )
    worst: List[float] = []
    shapes: List[float] = []
    for n in ns:
        t = n
        shape = upper_bound_rounds_thm2(n, t)
        worst_mean = 0.0
        for name, adv_name, adv_params in suite:
            stats = _run(
                TrialSpec(
                    protocol="synran",
                    adversary=adv_name,
                    n=n,
                    t=t,
                    inputs="worst",
                    adversary_params=adv_params,
                    engine=ENGINE_BATCH,
                ),
                trials=trials,
                base_seed=211,
                executor=executor,
                label=f"E6/{name}/n={n}",
            )
            mean = stats.rounds_summary().mean
            worst_mean = max(worst_mean, mean)
            table.add_row(n, t, name, mean, shape, mean / shape)
        worst.append(worst_mean)
        shapes.append(shape)
    c, rmse = fit_ratio(worst, shapes)
    table.add_note(
        f"worst-adversary fit: measured ~ {c:.2f} x thm2-shape "
        f"(rel rmse {rmse:.2f})"
    )
    return table


# ----------------------------------------------------------------------
# E7 — who wins: SynRan vs deterministic vs Ben-Or vs ablation
# ----------------------------------------------------------------------


def experiment_e7_baselines(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Cross-protocol comparison under each protocol's worst
    implemented adversary, plus the symmetric-coin Validity break."""
    _check_scale(scale)
    n = 48
    ts = [4, 11, 23] if scale == "quick" else [4, 8, 11, 16, 23]
    trials = 4 if scale == "quick" else 12
    table = Table(
        title=(
            f"E7 (§1.1/§4): protocol comparison at n={n} under worst "
            "implemented adversaries"
        ),
        columns=[
            "protocol", "t", "adversary", "mean rounds", "timeouts",
            "violations",
        ],
    )
    max_rounds = 6 * n + 64
    for t in ts:
        # Ben-Or's budget is capped at sqrt(n): against a
        # full-information adversary, [BO83] is only fast for
        # t = O(sqrt n) (the paper's motivating observation) — beyond
        # that the trimmed survivor count sits so close to the
        # absolute quorum that post-attack convergence needs a large
        # binomial deviation every phase pair and the run outlives any
        # horizon.  The cap gives Ben-Or its best playable budget.
        benor_t = min(t, math.isqrt(n))
        configs = [
            ("synran", t, "tally-attack", "tally-attack", ()),
            ("symmetric-ran", t, "tally-attack", "tally-attack", ()),
            ("floodset", t, "random-partial", "random-crash", spec_params(rate=0.1)),
            (
                "benor",
                benor_t,
                "benor-quorum",
                "benor-quorum-attack",
                spec_params(decide_threshold=benor_t + 1),
            ),
        ]
        for name, t_used, adv_name, adv_display, adv_params in configs:
            stats = _run(
                TrialSpec(
                    protocol=name,
                    adversary=adv_name,
                    n=n,
                    t=t_used,
                    inputs="worst",
                    adversary_params=adv_params,
                    max_rounds=max_rounds,
                ),
                trials=trials,
                base_seed=307,
                executor=executor,
                label=f"E7/{name}/t={t_used}",
            )
            table.add_row(
                name,
                t_used,
                adv_display,
                stats.rounds_summary().mean,
                stats.timeouts,
                stats.violation_count(),
            )
    # The Validity break of the symmetric ablation: unanimous-1 inputs,
    # round-0 mass silencing.
    kill = math.floor(0.65 * n)
    stats = _run(
        TrialSpec(
            protocol="symmetric-ran",
            adversary="static-mass-crash",
            n=n,
            t=kill,
            inputs="unanimous1",
            max_rounds=max_rounds,
        ),
        trials=3,
        base_seed=311,
        executor=executor,
        label="E7/validity-break",
    )
    table.add_row(
        "symmetric-ran",
        kill,
        "static-mass-crash",
        stats.rounds_summary().mean,
        stats.timeouts,
        stats.violation_count(),
    )
    table.add_note(
        "floodset always takes exactly t+1 rounds: best for tiny t, "
        "worst for large t. The last row shows the one-side-bias clause "
        "is load-bearing for Validity: the symmetric ablation decides 0 "
        "on unanimous-1 inputs under a round-0 mass crash "
        "(violations > 0 expected THERE and only there)."
    )
    table.add_note(
        "benor rows are capped at budget sqrt(n): [BO83] is only fast "
        "for t = O(sqrt n) against a full-information adversary — at "
        "larger budgets the quorum-trimmed runs outlive any horizon. "
        "That inability to play at large t is the paper's motivating "
        "observation; SynRan's one-side-biased coin is the fix."
    )
    return table


# ----------------------------------------------------------------------
# E8 — Theorem 3: the full t-sweep shape
# ----------------------------------------------------------------------


def experiment_e8_t_sweep(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """SynRan rounds vs t at fixed n: Θ(t / sqrt(n log(2 + t/sqrt n)))."""
    _check_scale(scale)
    if scale == "quick":
        n, trials = 1024, 5
        ts = [1, 8, 32, 64, 128, 256, 512, 1024]
    else:
        n, trials = 4096, 15
        ts = [1, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    table = Table(
        title=(
            f"E8 (Thm 3): SynRan rounds vs t at n={n} against "
            "t/sqrt(n log(2+t/sqrt n))"
        ),
        columns=["t", "mean rounds", "ci95", "thm3 shape", "ratio"],
    )
    measured: List[float] = []
    predicted: List[float] = []
    for t in ts:
        stats = _run(
            TrialSpec(
                protocol="synran",
                adversary="tally-attack",
                n=n,
                t=t,
                inputs="worst",
                engine=ENGINE_BATCH,
            ),
            trials=trials,
            base_seed=401,
            executor=executor,
            label=f"E8/t={t}",
        )
        summary = stats.rounds_summary()
        shape = expected_rounds_bound(n, t)
        measured.append(summary.mean)
        predicted.append(max(shape, 1.0))
        table.add_row(
            t, summary.mean, summary.ci95_half_width, shape,
            summary.mean / max(shape, 1.0),
        )
    c, rmse = fit_ratio(measured, predicted)
    table.add_note(
        f"fit vs max(shape, 1): measured ~ {c:.2f} x shape (rel rmse "
        f"{rmse:.2f}); flat O(1) region for t = O(sqrt n), growth "
        "beyond."
    )
    return table


# ----------------------------------------------------------------------
# E9 — Agreement / Validity / Termination fuzz grid
# ----------------------------------------------------------------------


def experiment_e9_correctness(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Zero violations across protocols x adversaries x sizes x seeds."""
    _check_scale(scale)
    if scale == "quick":
        ns, trials = [1, 2, 3, 5, 9, 17], 4
    else:
        ns, trials = [1, 2, 3, 5, 9, 17, 33, 65], 12
    table = Table(
        title="E9 (§3.1 definitions): consensus-condition fuzz grid",
        columns=["protocol", "adversary", "configs", "runs", "violations"],
    )

    def synran_t(n: int) -> int:
        return n

    def benor_t(n: int) -> int:
        # Fuzz Ben-Or inside its *usable* regime t = O(sqrt n): when
        # n - t approaches the absolute quorum, expected convergence
        # time blows past any test horizon (coins must be near-
        # unanimous among survivors) — boundary behaviour, not a
        # correctness violation, but unusable for a finite fuzz run.
        return max(0, min(n // 3, math.isqrt(n)))

    grid = [
        ("synran", synran_t, [
            ("benign", "benign", ()),
            ("random-partial", "random-partial", spec_params(rate=0.15)),
            ("burst", "burst", ()),
            ("tally-attack", "tally-attack", ()),
        ]),
        ("floodset", synran_t, [
            ("benign", "benign", ()),
            ("random-partial", "random-partial", spec_params(rate=0.15)),
            ("burst", "burst", ()),
        ]),
        ("benor", benor_t, [
            ("benign", "benign", ()),
            ("random-partial", "random-partial", spec_params(rate=0.1)),
            ("quorum-attack", "benor-quorum", ()),
        ]),
    ]
    input_kinds = ("unanimous0", "unanimous1", "random")
    for proto_name, t_of, adversaries in grid:
        for adv_display, adv_name, adv_params in adversaries:
            runs = 0
            violations = 0
            configs = 0
            for n in ns:
                t = t_of(n)
                configs += 1
                for kind in input_kinds:
                    stats = _run(
                        TrialSpec(
                            protocol=proto_name,
                            adversary=adv_name,
                            n=n,
                            t=t,
                            inputs=kind,
                            adversary_params=adv_params,
                            max_rounds=8 * n + 96,
                        ),
                        trials=trials,
                        base_seed=503 + n,
                        executor=executor,
                        label=f"E9/{proto_name}/{adv_display}/n={n}/{kind}",
                    )
                    runs += len(stats.decision_rounds)
                    violations += stats.violation_count()
                    violations += stats.timeouts
            table.add_row(proto_name, adv_display, configs, runs, violations)
    table.add_note(
        "violations counts failed verdicts plus horizon timeouts; the "
        "expected value everywhere is 0."
    )
    return table


# ----------------------------------------------------------------------
# E10 — Schechtman blow-up (Lemma 2.1's engine)
# ----------------------------------------------------------------------


def experiment_e10_concentration(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Pr(B(A, h)) >= 1 - 1/n for sets of mass >= 1/n at h = 4 sqrt(n log n)."""
    _check_scale(scale)
    ns = [64, 256, 1024] if scale == "quick" else [64, 256, 1024, 4096]
    table = Table(
        title=(
            "E10 (Lemma 2.1 proof): blow-up of mass->=1/n threshold "
            "sets at radius h = 4 sqrt(n log n)"
        ),
        columns=[
            "n", "m", "Pr(A)", "l0", "h", "schechtman bound",
            "exact Pr(B(A,h))", ">= 1-1/n",
        ],
    )
    for n in ns:
        alpha = 1.0 / n
        m, actual = threshold_set_for_mass(n, alpha)
        h = int(math.floor(paper_h(n)))
        bound = schechtman_lower_bound(n, actual, h)
        exact = blowup_probability_threshold_set(n, m, h)
        table.add_row(
            n, m, actual, schechtman_l0(n, actual), h, bound, exact,
            exact >= 1.0 - 1.0 / n,
        )
    table.add_note(
        "threshold sets (Hamming-ball-like) are the isoperimetric "
        "near-extremals: if the inequality holds for them with slack, "
        "the paper's use of it is safe on our product spaces."
    )
    return table


# ----------------------------------------------------------------------
# E11 — §1.2 / [CMS89]: the lower bound needs adaptivity
# ----------------------------------------------------------------------


def experiment_e11_adaptivity(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Oblivious (non-adaptive) adversaries cannot force the bound.

    The paper's §1.2: against *non-adaptive* fail-stop adversaries,
    O(1) expected rounds are achievable [CMS89], so Theorem 1's bound
    genuinely requires adaptive selection of the faulty processes.
    This experiment pits SynRan against families of committed-up-front
    crash schedules (the whole budget, t = n/2, placed without seeing
    any coin) and reports both the mean and the *maximum* decision
    round over many sampled schedules, next to the adaptive tally
    attack at the same budget.
    """
    _check_scale(scale)
    if scale == "quick":
        n, trials = 128, 12
    else:
        n, trials = 256, 24
    t = n // 2
    table = Table(
        title=(
            f"E11 (§1.2/[CMS89]): adaptive vs oblivious adversaries on "
            f"SynRan at n={n}, t={t}"
        ),
        columns=[
            "adversary", "adaptive", "mean rounds", "max rounds",
            "violations",
        ],
    )
    oblivious_families = [
        ("oblivious-uniform", "oblivious-uniform", ()),
        ("oblivious-burst", "oblivious-burst", ()),
        (
            "oblivious-drip",
            "oblivious-drip",
            spec_params(per_round=max(1, t // 16)),
        ),
        ("oblivious-calibrated", "oblivious-calibrated", ()),
    ]
    for name, adv_name, adv_params in oblivious_families:
        stats = _run(
            TrialSpec(
                protocol="synran",
                adversary=adv_name,
                n=n,
                t=t,
                inputs="worst",
                adversary_params=adv_params,
            ),
            trials=trials,
            base_seed=701,
            executor=executor,
            label=f"E11/{name}",
        )
        summary = stats.rounds_summary()
        table.add_row(
            name, False, summary.mean, summary.maximum,
            stats.violation_count(),
        )
    stats = _run(
        TrialSpec(
            protocol="synran",
            adversary="tally-attack",
            n=n,
            t=t,
            inputs="worst",
        ),
        trials=max(4, trials // 3),
        base_seed=709,
        executor=executor,
        label="E11/tally-attack",
    )
    summary = stats.rounds_summary()
    table.add_row(
        "tally-attack", True, summary.mean, summary.maximum,
        stats.violation_count(),
    )
    table.add_note(
        "naive oblivious families, even maximised over sampled "
        "schedules, leave SynRan in O(1) rounds.  The *calibrated* "
        "oblivious drip is the interesting row: the STOP stability "
        "arithmetic depends only on message counts, which under silent "
        "crashes follow a deterministic recursion of the schedule "
        "itself, so the bleed stall is precomputable without seeing a "
        "single coin and the calibrated schedule lands within a few "
        "rounds of the adaptive attack at these n.  What obliviousness "
        "cannot do is play the coin-window game, the component that "
        "carries the asymptotic Omega(t/sqrt(n log n)) — which is the "
        "precise sense in which the paper's bound needs adaptivity "
        "(and why [CMS89]-style protocols, designed against oblivious "
        "adversaries, escape it)."
    )
    return table


# ----------------------------------------------------------------------
# E12 — §1.2 extension: a shared coin defeats oblivious adversaries
# ----------------------------------------------------------------------


def experiment_e12_shared_coin(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """BeaconRan (a [CMS89]-style shared coin on SynRan's skeleton)
    against the adversary matrix.

    The paper's §1.2 regime, built out: a protocol whose coin-band
    flippers adopt a self-elected beacon's coin decides in O(1) rounds
    against ANY non-adaptive schedule — including the calibrated drip
    that stalls plain SynRan — while an adaptive adversary restores
    the stall by assassinating the (self-announcing) beacons each
    round, at a per-round budget tax.
    """
    _check_scale(scale)
    if scale == "quick":
        n, trials = 128, 8
    else:
        n, trials = 256, 20
    t = n
    table = Table(
        title=(
            f"E12 (§1.2 ext): shared-coin BeaconRan vs SynRan across "
            f"the adversary matrix at n={n}, t={t}"
        ),
        columns=[
            "protocol", "adversary", "adaptive", "mean rounds",
            "violations",
        ],
    )
    protocols = ["synran", "beacon-ran"]
    adversaries = [
        ("benign", False, "benign"),
        ("oblivious-calibrated", False, "oblivious-calibrated"),
        ("anti-beacon (adaptive)", True, "anti-beacon"),
    ]
    for pname in protocols:
        for aname, adaptive, adv_name in adversaries:
            stats = _run(
                TrialSpec(
                    protocol=pname,
                    adversary=adv_name,
                    n=n,
                    t=t,
                    inputs="worst",
                ),
                trials=trials,
                base_seed=801,
                executor=executor,
                label=f"E12/{pname}/{adv_name}",
            )
            table.add_row(
                pname,
                aname,
                adaptive,
                stats.rounds_summary().mean,
                stats.violation_count(),
            )
    table.add_note(
        "beacon-ran decides in O(1) rounds against every non-adaptive "
        "adversary, including the calibrated schedule that stalls "
        "synran; the adaptive anti-beacon attack restores a stall but "
        "pays ~beacon_rate extra crashes per round, so at these n the "
        "shared coin is a net win even adaptively against our "
        "implementable adversaries (Theorem 1 still applies to it "
        "against the unbounded adversary)."
    )
    return table


# ----------------------------------------------------------------------
# E13 — Lemma 4.6: the adversary's per-block cost floor
# ----------------------------------------------------------------------


def experiment_e13_adversary_cost(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """The upper-bound proof's accounting, observed directly.

    Lemma 4.6 / Theorem 2: to keep SynRan alive, the adversary must
    pay an expected ``sqrt(p log p)/16`` crashes per 3-round block
    (``p`` = living processes), or the protocol ends.  This experiment
    runs the tally attack at t = n, slices each execution's crash
    trace into 3-round blocks, and compares the adversary's actual
    per-block spend against the lemma's floor — per block, for the
    blocks during which the protocol was still running.
    """
    _check_scale(scale)
    if scale == "quick":
        ns, trials = [256, 1024], 6
    else:
        ns, trials = [256, 1024, 4096], 20
    table = Table(
        title=(
            "E13 (Lemma 4.6): adversary spend per 3-round block vs the "
            "sqrt(p log p)/16 floor (tally attack, t = n)"
        ),
        columns=[
            "n", "blocks", "mean spend/block", "mean floor/block",
            "spend/floor", "blocks below floor",
        ],
    )
    runner = executor or SerialExecutor()
    for n in ns:
        spends: List[float] = []
        floors: List[float] = []
        below = 0
        total_blocks = 0
        outcomes = runner.run_outcomes(
            TrialBatch(
                spec=TrialSpec(
                    protocol="synran",
                    adversary="tally-attack",
                    n=n,
                    t=n,
                    inputs="worst",
                    engine=ENGINE_BATCH,
                ),
                trials=trials,
                base_seed=901,
                label=f"E13/n={n}",
            )
        )
        for outcome in outcomes:
            crashes = outcome.crashes_per_round or []
            senders = outcome.senders_per_round or []
            end = (
                outcome.decision_round
                if outcome.decision_round is not None
                else len(crashes)
            )
            # Blocks fully inside the live probabilistic portion.
            for start in range(0, max(0, end - 2), 3):
                p = senders[start]
                if p < 3:
                    continue
                spend = sum(crashes[start : start + 3])
                floor = math.sqrt(p * math.log(p)) / 16.0
                spends.append(float(spend))
                floors.append(floor)
                total_blocks += 1
                if spend < floor:
                    below += 1
        mean_spend = sum(spends) / len(spends)
        mean_floor = sum(floors) / len(floors)
        table.add_row(
            n,
            total_blocks,
            mean_spend,
            mean_floor,
            mean_spend / mean_floor,
            below,
        )
    table.add_note(
        "the lemma bounds the adversary's EXPECTED spend per block "
        "from below; the attack's realised mean spend sits well above "
        "the floor (the bleed mode pays ~p/10 per block >= the "
        "sqrt(p log p)/16 floor at these p).  Individual blocks below "
        "the floor are free split-mode rounds early in the run, "
        "permitted by the in-expectation statement."
    )
    return table


# ----------------------------------------------------------------------
# E14 — fault-model comparison: forced rounds under crash vs
# send-omission vs ε-late adversaries
# ----------------------------------------------------------------------


def experiment_e14_fault_models(
    scale: str = "quick", *, executor: Optional[Executor] = None
) -> Table:
    """Forced rounds of the tally attack under each fault model.

    The paper's Theorem 1 is stated for fail-stop (``crash``) faults.
    This experiment runs the *same* attack on the *same* grid under the
    pluggable fault models and compares the rounds each regime forces:

    * ``crash`` — the paper's semantics; the baseline curve.
    * ``send-omission`` — the adversary silences senders instead of
      killing them (Hajiaghayi–Kowalski–Olkowski, arXiv:2405.04762
      regime).  The population never shrinks, so stability-bleed has
      no attrition to feed on.
    * ``late`` (ε = 1) — crash faults chosen from a view one round
      stale (Robinson–Scheideler–Setzer, arXiv:1805.00774).  Hiding
      the freshest coins costs the full-information attack most of its
      power.
    """
    _check_scale(scale)
    if scale == "quick":
        ns, trials = [256, 1024], 5
    else:
        ns, trials = [256, 1024, 4096], 20
    models = ("crash", "send-omission", "late")

    table = Table(
        title=(
            "E14 (Thm 1 scope): rounds the tally attack forces under "
            "each fault model (same grid, same budget t = n)"
        ),
        columns=[
            "fault model", "n", "t", "mean rounds", "ci95",
            "thm1 shape", "ratio",
        ],
    )
    for fault_model in models:
        for n in ns:
            t = n
            stats = _run(
                TrialSpec(
                    protocol="synran",
                    adversary="tally-attack",
                    n=n,
                    t=t,
                    inputs="worst",
                    engine=ENGINE_BATCH,
                    fault_model=fault_model,
                    fault_model_params=(
                        spec_params(lag=1) if fault_model == "late" else ()
                    ),
                ),
                trials=trials,
                base_seed=101,
                executor=executor,
                label=f"E14/{fault_model}/n={n}",
            )
            summary = stats.rounds_summary()
            shape = lower_bound_rounds(n, t)
            table.add_row(
                fault_model, n, t, summary.mean,
                summary.ci95_half_width, shape, summary.mean / shape,
            )
    table.add_note(
        "crash rows reuse E5's exact specs (same cache keys, same "
        "seeds).  The counts engines realise send-omission as "
        "population-preserving suppression charged by the per-round "
        "high-water mark, and late as crash kills clamped against the "
        "stale view; the reference engine carries the exact "
        "per-message semantics (docs/model.md)."
    )
    return table


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

ALL_EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    "E1": experiment_e1_coin_control,
    "E2": experiment_e2_one_side_bias,
    "E3": experiment_e3_deviation,
    "E4": experiment_e4_valency,
    "E5": experiment_e5_lower_bound,
    "E6": experiment_e6_upper_bound,
    "E7": experiment_e7_baselines,
    "E8": experiment_e8_t_sweep,
    "E9": experiment_e9_correctness,
    "E10": experiment_e10_concentration,
    "E11": experiment_e11_adaptivity,
    "E12": experiment_e12_shared_coin,
    "E13": experiment_e13_adversary_cost,
    "E14": experiment_e14_fault_models,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.harness.experiments ARGS``: the same command as
    ``python -m repro experiments ARGS`` (see :mod:`repro.cli`)."""
    from repro.cli import main as cli_main

    return cli_main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
