"""Tests for the declarative execution core (repro.harness.exec):
spec hashing and seed derivation, builder coverage, executor
worker-count invariance, and the on-disk result cache."""

import hashlib
import json
import pickle

import pytest

from repro.adversary.registry import available_adversaries
from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    ENGINE_REFERENCE,
    ExecutionPlan,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
    build_adversary,
    build_protocol,
    derive_trial_seed,
    make_executor,
    run_spec_batch,
    run_spec_trial,
    spec_params,
)
from repro.harness.exec import cache as cache_module
from repro.harness.exec import trial as trial_module
from repro.harness.runner import TrialStats
from repro.protocols.registry import available_protocols


def tally_spec(**overrides):
    fields = dict(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=16,
        inputs="worst",
        engine=ENGINE_BATCH,
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def reference_spec(**overrides):
    fields = dict(
        protocol="synran",
        adversary="random",
        n=6,
        t=3,
        inputs="worst",
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def batch_spec(**overrides):
    # t < n so the random adversary can never crash *every* process:
    # all trials decide, which keeps structural_ok() assertions sharp.
    fields = dict(
        protocol="synran",
        adversary="random",
        n=16,
        t=8,
        inputs="random",
        engine=ENGINE_BATCH,
    )
    fields.update(overrides)
    return TrialSpec(**fields)


class TestSeedDerivation:
    def test_pure_function_of_arguments(self):
        assert derive_trial_seed(7, "scope", 3) == derive_trial_seed(
            7, "scope", 3
        )

    def test_varies_with_each_argument(self):
        base = derive_trial_seed(7, "scope", 3)
        assert derive_trial_seed(8, "scope", 3) != base
        assert derive_trial_seed(7, "other", 3) != base
        assert derive_trial_seed(7, "scope", 4) != base

    def test_63_bit_range(self):
        for i in range(50):
            seed = derive_trial_seed(0, "x", i)
            assert 0 <= seed < 2**63

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_trial_seed(0, "x", -1)


class TestTrialSpec:
    def test_hash_is_stable(self):
        assert tally_spec().spec_hash() == tally_spec().spec_hash()

    def test_hash_changes_with_any_field(self):
        base = tally_spec().spec_hash()
        assert tally_spec(n=32, t=32).spec_hash() != base
        assert tally_spec(adversary="benign").spec_hash() != base
        assert tally_spec(max_rounds=5).spec_hash() != base
        assert (
            tally_spec(
                adversary_params=spec_params(stop_fraction=0.05)
            ).spec_hash()
            != base
        )

    def test_spec_is_hashable_and_equal_by_value(self):
        assert tally_spec() == tally_spec()
        assert hash(tally_spec()) == hash(tally_spec())

    def test_spec_params_sorted_and_validated(self):
        assert spec_params(b=1, a=2) == (("a", 2), ("b", 1))
        with pytest.raises(ConfigurationError):
            spec_params(bad=[1, 2])

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(engine="warp"),
            dict(n=0, t=0),
            dict(t=99),
            dict(max_rounds=0),
            dict(protocol_params={"a": 1}),
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            tally_spec(**overrides)

    def test_every_registry_spec_is_picklable(self):
        # Specs carry only names and primitives, so every registry-
        # constructible configuration must survive a process boundary.
        for protocol in available_protocols():
            for adversary in available_adversaries():
                spec = TrialSpec(
                    protocol=protocol, adversary=adversary, n=8, t=2
                )
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert clone.spec_hash() == spec.spec_hash()

    def test_every_registry_pair_is_buildable(self):
        for protocol in available_protocols():
            for adversary in available_adversaries():
                spec = TrialSpec(
                    protocol=protocol, adversary=adversary, n=8, t=2
                )
                probe = build_protocol(spec)
                assert build_adversary(spec, probe) is not None

    def test_every_fast_adversary_runs(self):
        for adversary in available_adversaries(ENGINE_BATCH):
            outcome = run_spec_trial(
                tally_spec(adversary=adversary, n=8, t=8), 0, 1
            )
            assert outcome.seed == tally_spec(
                adversary=adversary, n=8, t=8
            ).trial_seed(1, 0)


class TestBatchAndPlan:
    def test_batch_requires_trials(self):
        with pytest.raises(ConfigurationError):
            TrialBatch(spec=tally_spec(), trials=0)

    def test_batch_key_covers_seed_and_trials(self):
        batch = TrialBatch(spec=tally_spec(), trials=3, base_seed=1)
        assert (
            TrialBatch(spec=tally_spec(), trials=3, base_seed=2).batch_key()
            != batch.batch_key()
        )
        assert (
            TrialBatch(spec=tally_spec(), trials=4, base_seed=1).batch_key()
            != batch.batch_key()
        )

    def test_plan_counts(self):
        plan = ExecutionPlan(
            batches=(
                TrialBatch(spec=tally_spec(), trials=3),
                TrialBatch(spec=reference_spec(), trials=2),
            )
        )
        assert len(plan) == 2
        assert plan.total_trials() == 5


class TestWorkerInvariance:
    @pytest.mark.parametrize(
        "batch",
        [
            TrialBatch(spec=reference_spec(), trials=4, base_seed=5),
            TrialBatch(spec=batch_spec(), trials=6, base_seed=5),
            TrialBatch(
                spec=batch_spec(engine=ENGINE_BATCH2D), trials=6, base_seed=5
            ),
        ],
        ids=["reference", "batch", "batch2d"],
    )
    def test_serial_equals_parallel_1_and_4(self, batch):
        serial = SerialExecutor().run_outcomes(batch)
        with ParallelExecutor(1, chunk_size=1) as one:
            parallel_one = one.run_outcomes(batch)
        with ParallelExecutor(4, chunk_size=2) as four:
            parallel_four = four.run_outcomes(batch)
        assert serial == parallel_one == parallel_four

    def test_stats_identical_across_executors(self):
        batch = TrialBatch(spec=tally_spec(), trials=6, base_seed=9)
        serial = SerialExecutor().run_batch(batch)
        with ParallelExecutor(4, chunk_size=1) as four:
            parallel = four.run_batch(batch)
        assert serial == parallel

    def test_chunk_size_is_irrelevant(self):
        batch = TrialBatch(spec=tally_spec(), trials=5, base_seed=3)
        results = []
        for chunk_size in (1, 2, 5):
            with ParallelExecutor(2, chunk_size=chunk_size) as executor:
                results.append(executor.run_outcomes(batch))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "spec, chunks",
        [
            (batch_spec(), 2),
            (tally_spec(engine=ENGINE_BATCH2D), 2),
            (tally_spec(adversary="partition", engine=ENGINE_BATCH2D), 8),
            (reference_spec(), 8),
        ],
        ids=["batch", "batch2d-tally", "batch2d-partition", "reference"],
    )
    def test_default_chunk_geometry(self, spec, chunks, monkeypatch):
        # A batch that runs on the counts engine splits once per worker
        # (that engine pays a fixed cost per round whatever the chunk
        # size), whichever vectorized kind the spec names; mask and
        # per-trial engines split four times per worker so stragglers
        # rebalance.
        sizes = []
        submit = ParallelExecutor.submit

        def counting_submit(self, batch, indices, attempt):
            sizes.append(len(indices))
            return submit(self, batch, indices, attempt)

        monkeypatch.setattr(ParallelExecutor, "submit", counting_submit)
        batch = TrialBatch(spec=spec, trials=24, base_seed=4)
        with ParallelExecutor(2) as executor:
            outcomes = executor.run_outcomes(batch)
        assert len(sizes) == chunks and sum(sizes) == batch.trials
        with ParallelExecutor(2, chunk_size=1) as executor:
            assert outcomes == executor.run_outcomes(batch)

    def test_make_executor_dispatch(self):
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3
        parallel.close()

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(2, chunk_size=0)


class TestFreshObjectsPerTrial:
    def test_reference_probe_built_per_trial(self, monkeypatch):
        # Each reference trial must build two protocols: a probe for
        # the adversary and a separate instance for the run (the
        # shared-probe leak the spec layer exists to prevent).
        calls = []
        original = trial_module.build_protocol
        monkeypatch.setattr(
            trial_module,
            "build_protocol",
            lambda spec: calls.append(spec) or original(spec),
        )
        batch = TrialBatch(spec=reference_spec(), trials=3, base_seed=1)
        SerialExecutor().run_outcomes(batch)
        assert len(calls) == 2 * batch.trials


class TestResultCache:
    def test_round_trip_hits_and_equality(self, tmp_path):
        batch = TrialBatch(spec=tally_spec(), trials=4, base_seed=2)
        executor = SerialExecutor(cache=ResultCache(tmp_path))
        first = executor.run_outcomes(batch)
        second = executor.run_outcomes(batch)
        assert executor.cache_misses == 1
        assert executor.cache_hits == 1
        assert first == second
        assert second == SerialExecutor().run_outcomes(batch)

    def test_cache_is_spec_addressed(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        executor.run_outcomes(TrialBatch(spec=tally_spec(), trials=3))
        executor.run_outcomes(
            TrialBatch(spec=tally_spec(adversary="benign"), trials=3)
        )
        assert executor.cache_hits == 0
        assert executor.cache_misses == 2

    def test_changed_base_seed_misses(self, tmp_path):
        executor = SerialExecutor(cache=ResultCache(tmp_path))
        executor.run_outcomes(
            TrialBatch(spec=tally_spec(), trials=3, base_seed=1)
        )
        executor.run_outcomes(
            TrialBatch(spec=tally_spec(), trials=3, base_seed=2)
        )
        assert executor.cache_hits == 0

    def test_corrupt_document_is_a_miss(self, tmp_path):
        batch = TrialBatch(spec=tally_spec(), trials=3)
        cache = ResultCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        executor.run_outcomes(batch)
        cache.path_for(batch).write_text("{not json")
        assert cache.load(batch) is None
        executor.run_outcomes(batch)
        assert executor.cache_hits == 0
        assert executor.cache_misses == 2

    def test_salt_change_invalidates(self, tmp_path, monkeypatch):
        batch = TrialBatch(spec=tally_spec(), trials=3)
        cache = ResultCache(tmp_path)
        SerialExecutor(cache=cache).run_outcomes(batch)
        assert cache.load(batch) is not None
        monkeypatch.setattr(
            cache_module, "cache_salt", lambda: "other-version"
        )
        assert cache.load(batch) is None

    def test_entries_of_version_1_0_0_miss(self, tmp_path, monkeypatch):
        # 1.0.0 built the partial-delivery attack for reference
        # "random" specs, whose hashes still name "random": the version
        # bump keeps those results from serving the silent attack.
        import repro

        batch = TrialBatch(
            spec=reference_spec(adversary="random"), trials=3
        )
        cache = ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(repro, "__version__", "1.0.0")
            assert cache_module.cache_salt() == "1.0.0/schema4"
            SerialExecutor(cache=cache).run_outcomes(batch)
            assert cache.load(batch) is not None
        assert cache_module.cache_salt() != "1.0.0/schema4"
        assert cache.load(batch) is None

    def test_plan_resume_skips_completed_cells(self, tmp_path):
        plan = ExecutionPlan(
            batches=(
                TrialBatch(spec=tally_spec(), trials=3),
                TrialBatch(spec=tally_spec(adversary="benign"), trials=3),
            )
        )
        first = SerialExecutor(cache=ResultCache(tmp_path))
        first.run_plan(plan)
        resumed = SerialExecutor(cache=ResultCache(tmp_path))
        resumed.run_plan(plan)
        assert resumed.cache_hits == len(plan)
        assert resumed.cache_misses == 0


class TestCacheDocumentBytes:
    """Stored documents keep the exact bytes of the schema-4 writer.

    The sha256 pins were captured from files written by the schema-4
    writer: the header members with sorted keys, then the canonical
    outcomes encoding spliced in verbatim as the last member.  They
    change only with a deliberate schema, version or outcome change.
    """

    PINS = {
        "reference": (
            "5fa7f0df5181ffef22f453f82e077f61bcac3c63395eeae1f3624038ba347260",
            "7c8372cfe507fce3ea5f9831b2bce03458450fcd9c9e7b3c51944d4860379263",
        ),
        "batch": (
            "10a764b45c11e7c29a04a1a16a0a328ad02bdd64971f8e1ec967cf01a61eac47",
            "696cdbb7e13d98814879fcf1a4349ed691ac36a54521bb93f5d508bb7cea8268",
        ),
        "batch2d": (
            "a112c2b52a9ff881f4ca13f62e4ceb106a04e8c72d52df096a06131bcd45675e",
            "31320f530b6fa6ae060bbea74ba92172e82e9508f49a8b4018172198b6a49549",
        ),
    }

    SPECS = {
        "reference": reference_spec(),
        "batch": tally_spec(),
        "batch2d": tally_spec(
            adversary="partition", t=8, engine=ENGINE_BATCH2D
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_batch_and_chunk_documents_are_pinned(self, kind, tmp_path):
        batch = TrialBatch(
            spec=self.SPECS[kind], trials=4, base_seed=3, label=kind
        )
        outcomes = trial_module.compute_chunk(
            batch.spec, batch.base_seed, range(batch.trials)
        )
        if kind == "reference":
            assert all(isinstance(o.verdict, dict) for o in outcomes)
        cache = ResultCache(tmp_path)
        # The chunk first: a stored batch document compacts its ledger.
        chunk = cache.store_chunk(batch, [0, 1], outcomes[:2])
        chunk_sha = hashlib.sha256(chunk.read_bytes()).hexdigest()
        batch_sha = hashlib.sha256(
            cache.store(batch, outcomes).read_bytes()
        ).hexdigest()
        assert (batch_sha, chunk_sha) == self.PINS[kind]
        assert cache.load(batch) == outcomes


class TestCacheDocumentText:
    """A document's digest covers its outcomes text exactly as stored:
    text that still parses to outcomes but is not the writer's own
    bytes is a miss, for batch and chunk documents alike."""

    @staticmethod
    def stored(entry, tmp_path):
        """``(path, outcomes, hit)`` for one stored ``entry``:
        ``hit()`` reads the outcomes back, or gives None on a miss."""
        batch = TrialBatch(spec=tally_spec(), trials=4, base_seed=3, label="text")
        outcomes = trial_module.compute_chunk(
            batch.spec, batch.base_seed, range(batch.trials)
        )
        cache = ResultCache(tmp_path)
        if entry == "batch":
            path = cache.store(batch, outcomes)
            return path, outcomes, lambda: cache.load(batch)

        path = cache.store_chunk(batch, [0, 1], outcomes[:2])

        def hit():
            salvaged, docs = cache.load_partial(batch)
            return [salvaged[i] for i in sorted(salvaged)] if docs else None

        return path, outcomes[:2], hit

    @pytest.mark.parametrize("entry", ["batch", "chunk"])
    def test_one_changed_digit_in_the_outcomes_is_a_miss(self, entry, tmp_path):
        path, outcomes, hit = self.stored(entry, tmp_path)
        assert hit() == outcomes
        text = path.read_text()
        start = text.index('"outcomes": ')
        # The last digit of the first trial's round count: the record
        # still parses, to a different number of rounds.
        digit = text.index(",", text.index('"rounds":', start)) - 1
        changed = str((int(text[digit]) + 1) % 10)
        path.write_text(text[:digit] + changed + text[digit + 1 :])
        doc = json.loads(path.read_text())
        assert doc["digest"] == json.loads(text)["digest"]
        assert doc["outcomes"][0]["rounds"] != outcomes[0].rounds
        assert hit() is None

    @pytest.mark.parametrize("entry", ["batch", "chunk"])
    def test_reserialised_document_is_a_miss(self, entry, tmp_path):
        path, outcomes, hit = self.stored(entry, tmp_path)
        text = path.read_text()
        path.write_text(json.dumps(json.loads(text), sort_keys=True))
        assert json.loads(path.read_text()) == json.loads(text)
        assert hit() is None


class TestTrialOutcome:
    def test_json_round_trip(self):
        outcome = run_spec_trial(reference_spec(), 0, 7)
        clone = TrialOutcome.from_jsonable(outcome.to_jsonable())
        assert clone == outcome
        assert clone.verdict_obj().ok == outcome.verdict_obj().ok

    def test_malformed_doc_rejected(self):
        with pytest.raises(ConfigurationError):
            TrialOutcome.from_jsonable({"trial_index": 0})


class TestTrialStatsEngineKind:
    def test_fast_stats_refuse_verdict_queries(self):
        stats = SerialExecutor().run_batch(
            TrialBatch(spec=tally_spec(engine=ENGINE_BATCH2D), trials=2)
        )
        assert stats.engine_kind == ENGINE_BATCH2D
        assert not stats.checked
        with pytest.raises(ConfigurationError):
            stats.all_ok()
        with pytest.raises(ConfigurationError):
            stats.violation_count()
        assert stats.structural_ok()

    def test_reference_stats_answer_verdict_queries(self):
        stats = SerialExecutor().run_batch(
            TrialBatch(spec=reference_spec(), trials=2)
        )
        assert stats.engine_kind == ENGINE_REFERENCE
        assert stats.checked
        assert stats.all_ok()
        assert stats.violation_count() == 0

    def test_batch_stats_refuse_verdict_queries(self):
        stats = SerialExecutor().run_batch(
            TrialBatch(spec=batch_spec(), trials=3)
        )
        assert stats.engine_kind == ENGINE_BATCH
        assert not stats.checked
        with pytest.raises(ConfigurationError):
            stats.all_ok()
        with pytest.raises(ConfigurationError):
            stats.violation_count()
        assert stats.structural_ok()

    def test_unknown_engine_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TrialStats(engine_kind="warp")


class TestBatchSpecExecution:
    def test_single_trial_routes_through_batch_engine(self):
        spec = batch_spec()
        assert run_spec_trial(spec, 3, 7) == run_spec_batch(spec, [3], 7)[0]

    def test_chunk_composition_is_irrelevant(self):
        # The executor may slice a batch-engine TrialBatch into
        # arbitrary chunks; per-trial outcomes must not depend on
        # which chunk (or how large a chunk) a trial landed in.
        spec = batch_spec()
        whole = run_spec_batch(spec, range(12), 7)
        pieces = (
            run_spec_batch(spec, range(0, 5), 7)
            + run_spec_batch(spec, range(5, 6), 7)
            + run_spec_batch(spec, range(6, 12), 7)
        )
        assert whole == pieces

    def test_rejects_non_batch_spec(self):
        with pytest.raises(ConfigurationError):
            run_spec_batch(reference_spec(), [0], 7)

    def test_seeds_are_the_spec_trial_seeds(self):
        spec = batch_spec()
        outcomes = run_spec_batch(spec, [7, 2, 11], 5)
        assert [o.trial_index for o in outcomes] == [7, 2, 11]
        assert [o.seed for o in outcomes] == [
            spec.trial_seed(5, i) for i in (7, 2, 11)
        ]

    def test_cache_round_trip(self, tmp_path):
        batch = TrialBatch(spec=batch_spec(), trials=4, base_seed=2)
        executor = SerialExecutor(cache=ResultCache(tmp_path))
        first = executor.run_outcomes(batch)
        second = executor.run_outcomes(batch)
        assert executor.cache_misses == 1
        assert executor.cache_hits == 1
        assert first == second
        assert second == SerialExecutor().run_outcomes(batch)

    def test_every_batch_adversary_runs(self):
        for name in available_adversaries(ENGINE_BATCH):
            outcome = run_spec_batch(
                batch_spec(adversary=name), [0], 11
            )[0]
            assert outcome.rounds >= 1
