"""Differential gate for the counts engine: BatchFastEngine vs the
message-level reference Engine.

Each counts adversary is checked against the closest independent
oracle it has:

* **Exact** on coin-free trajectories.  A configuration that never
  reaches a coin flip (unanimous inputs under benign, oblivious or
  bleed crashes) is a deterministic function of the inputs and the
  kill schedule, so the two engines must agree trial for trial.

* **Distributional** on coin-flipping configurations.  The reference
  engine draws per-process coins from ``random.Random``; the batch
  engine from counter-based hash streams — so coin-flipping runs are
  compared as samples: a two-sample Kolmogorov-Smirnov test on the
  round distribution plus a normal-approximation bound on the decision
  rate, at n in {32, 64, 128}, for every adversary name the table
  implements on both engines.

* **Elementwise** for the valency keeper, which has no message-level
  twin: its vectorized decisions are checked against a scalar oracle
  on fuzzed views.  The random crash adversary's kill counts are also
  checked against ``Binomial(ones, rate)`` directly.

The KS machinery is implemented inline: scipy is not a dependency of
this repo.
"""

import math

import numpy as np
import pytest

from repro._math import deterministic_stage_threshold
from repro.adversary import BenignAdversary, TallyAttackAdversary
from repro.adversary.registry import available_adversaries, make_adversary
from repro.adversary.oblivious import (
    ObliviousAdversary,
    calibrated_drip_schedule,
)
from repro.protocols import SynRanProtocol
from repro.sim.batch import (
    STAGE_DETERMINISTIC,
    STAGE_PROBABILISTIC,
    BatchBenign,
    BatchFastEngine,
    BatchFastView,
    BatchOblivious,
    BatchRandomCrash,
    BatchValencyKeeper,
)
from repro.sim.engine import Engine

# ----------------------------------------------------------------------
# Inline two-sample KS (no scipy)
# ----------------------------------------------------------------------


def ks_statistic(a, b):
    """Two-sample KS statistic: max |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def ks_threshold(m, n, alpha_coeff=1.63):
    """Rejection threshold c(alpha) * sqrt((m+n)/(m*n)).

    ``alpha_coeff=1.63`` is the asymptotic c(0.01).  Both samples come
    from fixed seeds, so the test is deterministic; the significance
    level just documents how close "statistically identical" is.
    """
    return alpha_coeff * math.sqrt((m + n) / (m * n))


class TestKSMachinery:
    def test_identical_samples_have_zero_statistic(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint_samples_have_unit_statistic(self):
        assert ks_statistic([0, 0, 0], [9, 9, 9]) == 1.0

    def test_statistic_is_symmetric(self):
        a, b = [1, 2, 2, 5], [2, 3, 4]
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_known_value(self):
        # At x=2 the ECDFs are 1.0 (left sample exhausted) vs 0.25
        # (only x=1 passed), the largest gap anywhere.
        assert ks_statistic([1, 2], [1, 3, 4, 5]) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Exact agreement on coin-free trajectories
# ----------------------------------------------------------------------


SEEDS = list(range(20))


def _reference_results(adv_factory, n, inputs, seeds):
    """``(rounds, decision_round, decision, crashes)`` per seed."""
    out = []
    for seed in seeds:
        result = Engine(
            SynRanProtocol(), adv_factory(), n, seed=seed,
            strict_termination=False,
        ).run(inputs)
        out.append(
            (
                result.rounds,
                result.decision_round,
                result.common_decision(),
                len(result.crashed),
            )
        )
    return out


def _batch_results(adversary, n, inputs, seeds):
    engine = BatchFastEngine(SynRanProtocol(), adversary, n)
    result = engine.run(inputs, seeds)
    return [result.trial(i) for i in range(len(seeds))]


def _summary(trials):
    return [
        (t.rounds, t.decision_round, t.decision, t.crashes_used)
        for t in trials
    ]


class TestExactSeedAgreement:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_benign_unanimous(self, bit):
        n = 64
        inputs = [bit] * n
        reference = _reference_results(BenignAdversary, n, inputs, SEEDS)
        batch = _batch_results(BatchBenign(), n, inputs, SEEDS)
        assert reference == _summary(batch)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_valency_keeper_unanimous(self, bit):
        # On unanimous inputs the split and block branches never fire
        # (one bit class is empty), so the keeper's play is the tally
        # attack's deterministic stability bleed: no coin is ever
        # flipped, and the message-level tally attack is its exact twin.
        n = 64
        t = n // 2
        inputs = [bit] * n
        reference = _reference_results(
            lambda: TallyAttackAdversary(t), n, inputs, SEEDS
        )
        batch = _batch_results(BatchValencyKeeper(t), n, inputs, SEEDS)
        assert reference == _summary(batch)
        # The port must actually bite: a benign unanimous run decides
        # in a handful of rounds, the keeper drags it out.
        benign = _batch_results(BatchBenign(), n, inputs, SEEDS)
        assert all(
            kept.rounds > free.rounds for kept, free in zip(batch, benign)
        )

    @pytest.mark.parametrize("bit", [0, 1])
    def test_oblivious_calibrated_unanimous(self, bit):
        # Crashes but no coins: the calibrated plan is a pure function
        # of (n, t), so full trajectories agree exactly with the
        # reference engine's oblivious adversary on the same schedule.
        n = 64
        t = n
        inputs = [bit] * n
        reference = _reference_results(
            lambda: ObliviousAdversary(t, calibrated_drip_schedule),
            n,
            inputs,
            SEEDS,
        )
        batch = _batch_results(
            BatchOblivious.from_schedule(t, calibrated_drip_schedule),
            n,
            inputs,
            SEEDS,
        )
        assert reference == _summary(batch)


# ----------------------------------------------------------------------
# Distributional agreement on coin-flipping configurations
# ----------------------------------------------------------------------


def _mixed_inputs(n):
    return [i % 2 for i in range(n)]


#: Every name the adversary table implements on both the reference and
#: the counts engine: a name is one attack, so a new dual-engine name
#: joins this gate automatically.
_DUAL_ENGINE = sorted(
    set(available_adversaries("reference"))
    & set(available_adversaries("batch"))
)


def test_dual_engine_names():
    assert _DUAL_ENGINE == [
        "benign",
        "oblivious-calibrated",
        "random",
        "tally-attack",
        "tally-bleed-only",
        "tally-split-only",
    ]


def _reference_sample(adv_factory, n, trials):
    inputs = _mixed_inputs(n)
    rounds, decisions = [], []
    for seed in range(trials):
        engine = Engine(
            SynRanProtocol(),
            adv_factory(),
            n,
            seed=seed,
            strict_termination=False,
        )
        result = engine.run(inputs)
        rounds.append(result.rounds)
        decisions.append(result.common_decision())
    return np.array(rounds), decisions


def _batch_sample(adversary, n, trials, seed_offset=10_000):
    # Disjoint seed range from the reference sample: the two samples
    # are compared as independent draws from the same distribution.
    seeds = list(range(seed_offset, seed_offset + trials))
    engine = BatchFastEngine(
        SynRanProtocol(), adversary, n, strict_termination=False
    )
    result = engine.run(_mixed_inputs(n), seeds)
    trials_out = [result.trial(i) for i in range(trials)]
    return (
        np.array([t.rounds for t in trials_out]),
        [t.decision for t in trials_out],
    )


class TestDistributionalAgreement:
    """Every name with a reference and a counts factory, both built
    from the adversary table, n in {32, 64, 128}: KS on the round
    distribution + a 4-sigma bound on the decide-1 rate."""

    REFERENCE_TRIALS = 150
    BATCH_TRIALS = 600

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("name", _DUAL_ENGINE)
    def test_rounds_and_decisions_match(self, name, n):
        t = n
        ref_rounds, ref_dec = _reference_sample(
            lambda: make_adversary(name, n, t, SynRanProtocol()),
            n,
            self.REFERENCE_TRIALS,
        )
        batch_rounds, batch_dec = _batch_sample(
            make_adversary(name, n, t, engine="batch"), n, self.BATCH_TRIALS
        )

        stat = ks_statistic(ref_rounds, batch_rounds)
        bound = ks_threshold(self.REFERENCE_TRIALS, self.BATCH_TRIALS)
        assert stat < bound, (
            f"{name} n={n}: KS={stat:.4f} >= {bound:.4f} "
            f"(reference mean {ref_rounds.mean():.2f}, "
            f"batch mean {batch_rounds.mean():.2f})"
        )

        # Decide-1 rate: pooled two-proportion z-test at ~4 sigma.
        p_r = sum(1 for d in ref_dec if d == 1) / len(ref_dec)
        p_b = sum(1 for d in batch_dec if d == 1) / len(batch_dec)
        pool = (
            sum(1 for d in ref_dec if d == 1)
            + sum(1 for d in batch_dec if d == 1)
        ) / (len(ref_dec) + len(batch_dec))
        sigma = math.sqrt(
            max(pool * (1 - pool), 1e-12)
            * (1 / len(ref_dec) + 1 / len(batch_dec))
        )
        assert abs(p_r - p_b) <= 4 * sigma + 1e-9, (
            f"{name} n={n}: decide-1 rate {p_r:.3f} vs {p_b:.3f} "
            f"(sigma {sigma:.4f})"
        )


# ----------------------------------------------------------------------
# Random crash kill counts: Binomial(class size, rate)
# ----------------------------------------------------------------------


class TestRandomCrashKills:
    M = 20_000

    def _view(self, ones, zeros, budget, round_index=3):
        M = self.M
        return BatchFastView(
            round_index=round_index,
            n=ones + zeros,
            stage=np.full(M, STAGE_PROBABILISTIC, dtype=np.int8),
            senders=np.full(M, ones + zeros, dtype=np.int64),
            ones=np.full(M, ones, dtype=np.int64),
            zeros=np.full(M, zeros, dtype=np.int64),
            tentative=np.zeros(M, dtype=np.int64),
            budget_remaining=np.full(M, budget, dtype=np.int64),
            received_history=(),
            active=np.ones(M, dtype=bool),
        )

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_counts_are_binomial_per_class(self, rate):
        ones, zeros = 40, 24
        adv = BatchRandomCrash(ones + zeros, rate=rate)
        adv.reset(ones + zeros, list(range(self.M)))
        k1, k0 = adv.choose(self._view(ones, zeros, budget=ones + zeros))
        for kills, size in ((k1, ones), (k0, zeros)):
            mean, var = size * rate, size * rate * (1 - rate)
            assert kills.min() >= 0 and kills.max() <= size
            # Sample mean within 5 standard errors; sample variance
            # within 10% (its standard error here is about 1%).
            assert abs(kills.mean() - mean) <= 5 * math.sqrt(var / self.M)
            assert kills.var() == pytest.approx(var, rel=0.1)
        # The two classes draw from separate streams.
        assert abs(np.corrcoef(k1, k0)[0, 1]) < 0.05

    def test_counts_trimmed_to_budget(self):
        adv = BatchRandomCrash(64, rate=0.5)
        adv.reset(64, list(range(self.M)))
        k1, k0 = adv.choose(self._view(40, 24, budget=5))
        assert ((k1 + k0) <= 5).all()
        assert ((k1 + k0) == 5).mean() > 0.99  # ~32 raw kills each

    def test_exhausted_budget_kills_nobody(self):
        adv = BatchRandomCrash(64, rate=0.5)
        adv.reset(64, list(range(self.M)))
        k1, k0 = adv.choose(self._view(40, 24, budget=0))
        assert not k1.any() and not k0.any()


# ----------------------------------------------------------------------
# Valency keeper: elementwise against a scalar oracle
# ----------------------------------------------------------------------


def valency_keeper_counts(
    ones,
    zeros,
    senders,
    tentative,
    budget,
    n,
    prev,
    n2,
    n3,
    *,
    propose_lo=0.5,
    propose_hi=0.6,
    decide_hi=0.7,
    stop_fraction=0.1,
):
    """One valency-keeper decision over plain integer counts.

    The keeper's strategy written as straight-line scalar code, one
    branch per case: split the 1-count into the bivalent coin window;
    else shave it below the ``decide_hi`` edge; else break STOP
    stability like the tally attack's bleed.  ``prev``/``n2``/``n3``
    are ``N^{r-1}``/``N^{r-2}``/``N^{r-3}``; the caller applies the
    probabilistic-stage gate.
    """
    if budget <= 0 or senders < deterministic_stage_threshold(n):
        return (0, 0)
    window_hi = math.floor(propose_hi * prev)
    window_lo = math.floor(propose_lo * prev) + 1
    if zeros > 0 and window_lo <= window_hi and ones >= window_lo:
        if ones <= window_hi:
            return (0, 0)  # already in the bivalent coin window; free
        excess = ones - window_hi
        if excess <= budget:
            return (excess, 0)
        edge = math.floor(decide_hi * prev)
        k = ones - edge
        if ones > edge and k <= budget and k < senders:
            return (k, 0)
    if tentative > 0:
        bound = n3 - n2 * stop_fraction
        if senders >= bound:
            k = math.floor(senders - bound) + 1
            if k <= budget and k < senders:
                k0 = min(k, zeros)
                return (k - k0, k0)
    return (0, 0)


class TestValencyKeeperOracle:
    @pytest.mark.parametrize("n", [16, 64, 1000])
    def test_choose_matches_oracle_elementwise(self, n):
        rng = np.random.default_rng(n)
        M = 4000
        senders = rng.integers(1, n + 1, size=M)
        ones = rng.integers(0, senders + 1)
        zeros = senders - ones
        # Tentative trials hold a uniform bit, as the engine guarantees.
        tentative = rng.random(M) < 0.3
        ones = np.where(tentative & (rng.random(M) < 0.5), senders, ones)
        ones = np.where(tentative & (ones != senders), 0, ones)
        zeros = senders - ones
        budget = rng.integers(-1, n + 1, size=M)
        # N^{r-3} >= N^{r-2} >= N^{r-1} >= senders: counts only shrink.
        prev = senders + rng.integers(0, n // 4 + 1, size=M)
        n2 = prev + rng.integers(0, n // 4 + 1, size=M)
        n3 = n2 + rng.integers(0, n // 4 + 1, size=M)
        stage = np.where(
            rng.random(M) < 0.9, STAGE_PROBABILISTIC, STAGE_DETERMINISTIC
        ).astype(np.int8)
        r = 5
        history = [np.full(M, n, dtype=np.int64)] * (r - 3) + [n3, n2, prev]
        view = BatchFastView(
            round_index=r,
            n=n,
            stage=stage,
            senders=senders,
            ones=ones,
            zeros=zeros,
            tentative=np.where(tentative, senders, 0),
            budget_remaining=budget,
            received_history=tuple(history),
            active=np.ones(M, dtype=bool),
        )
        k1, k0 = BatchValencyKeeper(n).choose(view)
        for i in range(M):
            expected = (0, 0)
            if stage[i] == STAGE_PROBABILISTIC:
                expected = valency_keeper_counts(
                    int(ones[i]),
                    int(zeros[i]),
                    int(senders[i]),
                    int(senders[i]) if tentative[i] else 0,
                    int(budget[i]),
                    n,
                    int(prev[i]),
                    int(n2[i]),
                    int(n3[i]),
                )
            assert (int(k1[i]), int(k0[i])) == expected, (i, expected)
        # The fuzz must reach every branch, not just the free ones.
        assert (k1 > 0).any() and (k0 > 0).any()
