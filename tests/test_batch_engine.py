"""Unit tests for the trial-axis vectorized engine (repro.sim.batch):
construction and input validation, the uniform-view invariants of
BatchFastView, budget trimming, per-trial enforcement, and the
BatchResult -> FastResult rehydration contract.

Cross-engine statistical equivalence lives in
tests/test_batch_differential.py.
"""

import numpy as np
import pytest

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    TerminationViolation,
)
from repro.protocols import FloodSetProtocol, SynRanProtocol
from repro.sim.batch import (
    BatchBenign,
    BatchFastAdversary,
    BatchFastEngine,
    BatchFastView,
    BatchOblivious,
    BatchRandomCrash,
    BatchTallyAttack,
    FastResult,
    _trim_to_budget,
)


def _view(M=4, n=10, **overrides):
    fields = dict(
        round_index=2,
        n=n,
        stage=np.zeros(M, dtype=np.int64),
        senders=np.full(M, 8, dtype=np.int64),
        ones=np.full(M, 5, dtype=np.int64),
        zeros=np.full(M, 3, dtype=np.int64),
        tentative=np.zeros(M, dtype=np.int64),
        budget_remaining=np.full(M, 4, dtype=np.int64),
        received_history=(
            np.full(M, n, dtype=np.int64),
            np.full(M, 9, dtype=np.int64),
        ),
        active=np.ones(M, dtype=bool),
    )
    fields.update(overrides)
    return BatchFastView(**fields)


class TestConstruction:
    def test_rejects_non_synran_protocol(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(
                FloodSetProtocol.for_resilience(1), BatchBenign(), 4
            )

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(SynRanProtocol(), BatchBenign(), 0)

    def test_rejects_overbudget_adversary(self):
        with pytest.raises(ConfigurationError):
            BatchFastEngine(SynRanProtocol(), BatchRandomCrash(9), 8)

    def test_adversary_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            BatchRandomCrash(-1)
        with pytest.raises(ConfigurationError):
            BatchRandomCrash(2, rate=1.5)
        with pytest.raises(ConfigurationError):
            BatchTallyAttack(2, propose_lo=0.7, propose_hi=0.6)


class TestRunValidation:
    def _engine(self, n=8):
        return BatchFastEngine(SynRanProtocol(), BatchBenign(), n)

    def test_rejects_non_bit_inputs(self):
        with pytest.raises(ConfigurationError):
            self._engine().run([2] * 8, seeds=[0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            self._engine().run([1] * 7, seeds=[0])

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ConfigurationError):
            self._engine().run(np.ones((3, 8), dtype=int), seeds=[0, 1])

    def test_rejects_3d_inputs(self):
        with pytest.raises(ConfigurationError):
            self._engine().run(np.ones((2, 8, 1), dtype=int), seeds=[0, 1])

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ConfigurationError):
            self._engine().run([1] * 8, seeds=[])

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ConfigurationError):
            self._engine().run_counts([9], seeds=[0])


class TestBatchFastView:
    def test_received_count_negative_convention(self):
        # The paper's N^{-1} = N^0 = n convention, per trial.
        view = _view()
        assert (view.received_count(-1) == 10).all()
        assert (view.received_count(-3) == 10).all()
        assert (view.received_count(0) == 10).all()
        assert (view.received_count(1) == 9).all()

    def test_received_count_shape_matches_batch(self):
        view = _view(M=7)
        assert view.received_count(-1).shape == (7,)


class TestTrimToBudget:
    def _scalar_trim(self, k1, k0, budget):
        # The scalar engines' decrement-the-larger loop (ties -> k1).
        while k1 + k0 > max(budget, 0):
            if k1 >= k0:
                k1 -= 1
            else:
                k0 -= 1
        return k1, k0

    def test_matches_scalar_loop_exhaustively(self):
        k1, k0, budget = np.meshgrid(
            np.arange(8), np.arange(8), np.arange(-2, 12), indexing="ij"
        )
        k1, k0, budget = k1.ravel(), k0.ravel(), budget.ravel()
        t1, t0 = _trim_to_budget(k1, k0, budget)
        for i in range(len(k1)):
            want = self._scalar_trim(int(k1[i]), int(k0[i]), int(budget[i]))
            assert (int(t1[i]), int(t0[i])) == want

    def test_never_negative_and_within_budget(self):
        rng = np.random.default_rng(0)
        k1 = rng.integers(0, 50, 200)
        k0 = rng.integers(0, 50, 200)
        budget = rng.integers(-5, 60, 200)
        t1, t0 = _trim_to_budget(k1, k0, budget)
        assert (t1 >= 0).all() and (t0 >= 0).all()
        assert (t1 + t0 <= np.maximum(budget, 0)).all()


class TestPerTrialEnforcement:
    def test_invalid_kill_counts_rejected(self):
        class Liar(BatchFastAdversary):
            name = "liar"

            def choose(self, view):
                k1 = np.zeros_like(view.ones)
                k1[-1] = view.ones[-1] + 1  # overshoot one trial only
                return k1, np.zeros_like(view.zeros)

        engine = BatchFastEngine(SynRanProtocol(), Liar(4), 8)
        with pytest.raises(ConfigurationError) as err:
            engine.run([1] * 8, seeds=[0, 1, 2])
        assert "trial 2" in str(err.value)

    def test_budget_overdraft_rejected(self):
        class Overspender(BatchFastAdversary):
            name = "overspender"

            def choose(self, view):
                k1 = np.minimum(view.ones, 2)
                return k1, np.zeros_like(view.zeros)

        engine = BatchFastEngine(SynRanProtocol(), Overspender(1), 8)
        with pytest.raises(BudgetExceededError):
            engine.run([1] * 8, seeds=[0])

    def test_strict_termination_raises_at_horizon(self):
        engine = BatchFastEngine(
            SynRanProtocol(), BatchBenign(), 16, max_rounds=1
        )
        with pytest.raises(TerminationViolation):
            engine.run([i % 2 for i in range(16)], seeds=[0, 1])

    def test_lenient_termination_flags_timeouts(self):
        engine = BatchFastEngine(
            SynRanProtocol(),
            BatchBenign(),
            16,
            max_rounds=1,
            strict_termination=False,
        )
        result = engine.run([i % 2 for i in range(16)], seeds=[0, 1])
        for i in range(2):
            trial = result.trial(i)
            assert trial.rounds == 1
            assert trial.decision_round is None


class TestBatchResult:
    def test_trial_rehydrates_fast_result(self):
        engine = BatchFastEngine(SynRanProtocol(), BatchBenign(), 16)
        result = engine.run([1] * 16, seeds=[0, 1, 2])
        assert len(result) == 3
        for i in range(3):
            trial = result.trial(i)
            assert isinstance(trial, FastResult)
            # Unanimous 1 under benign: immediate decision on 1.
            assert trial.decision == 1
            assert trial.crashes_used == 0
            assert len(trial.crashes_per_round) == trial.rounds
            assert len(trial.senders_per_round) == trial.rounds

    def test_per_round_arrays_trimmed_to_trial_length(self):
        # Mixed inputs: trials finish at different rounds; each
        # rehydrated trial only sees its own rounds.
        engine = BatchFastEngine(SynRanProtocol(), BatchBenign(), 32)
        result = engine.run(
            [i % 2 for i in range(32)], seeds=list(range(20))
        )
        lengths = {result.trial(i).rounds for i in range(20)}
        assert len(lengths) > 1  # genuinely different trial lengths
        for i in range(20):
            trial = result.trial(i)
            assert len(trial.senders_per_round) == trial.rounds

    def test_trial_index_out_of_range(self):
        engine = BatchFastEngine(SynRanProtocol(), BatchBenign(), 8)
        result = engine.run([1] * 8, seeds=[0])
        with pytest.raises(IndexError):
            result.trial(1)


class TestBatchOblivious:
    def test_plan_is_per_trial_seeded(self):
        def generator(n, t, rng):
            return {0: rng.randrange(1, 3)}

        adversary = BatchOblivious(4, generator)
        adversary.reset(16, seeds=list(range(40)))
        first_round = adversary._plan[0]
        assert set(np.unique(first_round)) <= {1, 2}
        assert len(set(first_round.tolist())) == 2  # both values occur

    def test_rejects_overbudget_schedule(self):
        def generator(n, t, rng):
            return {0: t + 1}

        adversary = BatchOblivious(2, generator)
        with pytest.raises(ConfigurationError):
            adversary.reset(16, seeds=[0])

    def test_seed_order_invariance(self):
        # The plan column for a seed depends only on that seed, so
        # reordering seeds permutes columns identically.
        def generator(n, t, rng):
            return {r: rng.randrange(0, 2) for r in range(4)}

        a = BatchOblivious(8, generator)
        a.reset(16, seeds=[10, 11, 12])
        b = BatchOblivious(8, generator)
        b.reset(16, seeds=[12, 10, 11])
        np.testing.assert_array_equal(a._plan[:, 0], b._plan[:, 1])
        np.testing.assert_array_equal(a._plan[:, 2], b._plan[:, 0])


class TestChunkInvariance:
    def test_results_independent_of_batch_composition(self):
        # Counter-derived streams are keyed per trial seed, so a trial
        # behaves identically whether it runs alone or in a batch of
        # 30 — the property chunked parallel execution relies on.
        engine = BatchFastEngine(SynRanProtocol(), BatchRandomCrash(16), 32)
        inputs = [i % 2 for i in range(32)]
        seeds = list(range(30))
        whole = engine.run(inputs, seeds)
        split_a = engine.run(inputs, seeds[:11])
        split_b = engine.run(inputs, seeds[11:])
        for i in range(30):
            alone = engine.run(inputs, [seeds[i]]).trial(0)
            chunked = (
                split_a.trial(i) if i < 11 else split_b.trial(i - 11)
            )
            assert whole.trial(i) == chunked == alone
