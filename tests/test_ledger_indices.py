"""A chunk-ledger document whose ``indices`` header is not a list of
ints reads as a miss, and a resumed run recomputes its chunk.

A chunk document's digest covers only its outcomes text, so a header
rewritten after the fact still passes the digest check.  Mixed-type
indices used to reach ``sorted`` outside the loader's error handling
and end the resumed run with a ``TypeError``.
"""

import pytest

from repro.harness.exec import (
    ENGINE_BATCH,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
)

_STORED = '"indices": [0, 1, 2]'


def _batch():
    spec = TrialSpec(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=16,
        inputs="worst",
        engine=ENGINE_BATCH,
    )
    return TrialBatch(spec=spec, trials=6, base_seed=11, label="ledger")


def _plant(cache, batch, indices):
    """Store a marked chunk document for trials 0-2 (rounds 999, so a
    hit is told from a recomputation), then rewrite its header's
    ``indices`` as the JSON text ``indices``."""
    with SerialExecutor() as ex:
        clean = ex.run_outcomes(batch)
    marked = [
        TrialOutcome(
            trial_index=o.trial_index,
            seed=o.seed,
            rounds=999,
            decision_round=999,
            timeout=False,
            crashes=o.crashes,
            decision=o.decision,
        )
        for o in clean[:3]
    ]
    path = cache.store_chunk(batch, [0, 1, 2], marked)
    text = path.read_text()
    assert text.count(_STORED) == 1
    path.write_text(text.replace(_STORED, f'"indices": {indices}'))
    return clean


@pytest.mark.parametrize(
    "indices",
    ['[0, "1", 2]', "[0, null, 2]", "[0, 1.0, 2]", "[0, true, 2]"],
)
def test_non_int_indices_are_a_miss(tmp_path, indices):
    batch = _batch()
    cache = ResultCache(tmp_path)
    _plant(cache, batch, indices)
    assert cache.load_partial(batch) == ({}, 0)


def test_well_formed_indices_still_hit(tmp_path):
    batch = _batch()
    cache = ResultCache(tmp_path)
    _plant(cache, batch, "[2, 0, 1]")
    salvaged, docs = cache.load_partial(batch)
    assert docs == 1
    assert sorted(salvaged) == [0, 1, 2]
    assert {o.rounds for o in salvaged.values()} == {999}


def test_resumed_run_recomputes_the_chunk(tmp_path):
    batch = _batch()
    cache = ResultCache(tmp_path)
    clean = _plant(cache, batch, '[0, "1", 2]')
    with SerialExecutor(cache=cache) as ex:
        resumed = ex.run_outcomes(batch)
    assert ex.last_report.resumed_chunks == 0
    assert [o.to_jsonable() for o in resumed] == [
        o.to_jsonable() for o in clean
    ]
