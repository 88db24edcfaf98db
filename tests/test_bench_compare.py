"""``benchmarks/compare.py`` compares timings measured on one host.

The bench runner is stubbed: these tests check which baseline the
comparator picks and how it prints a compared cell, not the timings
themselves.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = "BENCH_exec.json"


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "benchmarks" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(host, smoke=False, seconds=1.0):
    return {
        "host": {"machine": host, "cpu_count": 2},
        "smoke": smoke,
        "results": [{"case": "serial", "seconds": seconds}],
    }


class _Runner:
    def __init__(self, doc):
        self.doc = doc
        self.calls = []

    def __call__(self, name, flags):
        self.calls.append((name, flags))
        return self.doc


def test_same_host_compares_against_committed(compare):
    committed = _doc("here")
    runner = _Runner(_doc("here", seconds=9.0))
    baseline = compare.baseline_for(
        NAME, _doc("here"), committed=lambda name: committed, measure=runner
    )
    assert baseline is committed
    assert runner.calls == []


def test_other_host_measures_head_here(compare, capsys):
    measured = _doc("here", seconds=2.0)
    runner = _Runner(measured)
    baseline = compare.baseline_for(
        NAME,
        _doc("here"),
        committed=lambda name: _doc("elsewhere"),
        measure=runner,
    )
    assert baseline is measured
    assert runner.calls == [(NAME, [])]
    assert "another host" in capsys.readouterr().out


def test_measurement_reuses_the_fresh_flags(compare):
    runner = _Runner(_doc("here", smoke=True))
    compare.baseline_for(
        NAME,
        _doc("here", smoke=True),
        committed=lambda name: _doc("elsewhere"),
        measure=runner,
    )
    assert runner.calls == [(NAME, ["--smoke"])]


def test_every_artifact_names_its_bench_script(compare):
    for script, *_ in compare.ARTIFACTS.values():
        assert (ROOT / "benchmarks" / script).is_file()


def test_second_scale_cells_print_both_values(
    compare, monkeypatch, tmp_path, capsys
):
    fresh = dict(
        _doc("here", seconds=0.0712),
        benchmark="exec",
        schema_version=1,
        generated_utc="2026-01-01T00:00:00+00:00",
        config={},
    )
    (tmp_path / NAME).write_text(json.dumps(fresh))
    monkeypatch.setattr(compare, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        compare, "baseline_for", lambda name, doc: _doc("here", seconds=0.0655)
    )
    assert compare.compare_artifact(NAME, 0.30, False) == (1, 0)
    assert re.search(r" 0\.0655 -> +0\.0712 ", capsys.readouterr().out)
