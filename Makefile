# Developer entry points.  `make check` is what CI runs.

PYTHONPATH := src
export PYTHONPATH

.PHONY: lint lint-full replint ruff mypy test bench bench-compare bench-pytest check chaos experiments-quick faults serve-smoke byzantine-smoke

# Repo-specific static analysis (REP001-REP008, including the
# interprocedural determinism-taint and spec-payload rules).
# Benchmarks and examples are included so REP005 (dead heavyweight
# imports) and REP007 (determinism taint) cover the perf-critical
# files too.
replint:
	python -m repro.lint src benchmarks examples

# Generic python lint; requires `pip install -e '.[lint]'`.  Skips
# with a notice when ruff is absent so `make check` stays usable in
# minimal environments (CI installs the extra and runs it for real).
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping"; \
	fi

# Optional-extra type check, same skip-with-notice contract as ruff.
mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src; \
	else \
		echo "mypy not installed (pip install -e '.[lint]'); skipping"; \
	fi

lint: ruff replint

# Everything: repro-lint + ruff + mypy (the optional tools skip with
# a notice when absent; CI runs them for real).
lint-full: replint ruff mypy

# Tier-1 test suite (the gate every change must keep green).
test:
	python -m pytest -x -q

# Refresh every BENCH_*.json perf artifact: each bench_* script has a
# __main__ that measures and writes its own BENCH_<name>.json at the
# repo root (benchmarks/_emit.py fixes the format).
bench:
	python benchmarks/bench_batch_engine.py
	python benchmarks/bench_exec.py
	python benchmarks/bench_service.py

# Refresh the artifacts, then diff every cell against the baselines
# committed at HEAD: >30% throughput regression in any named cell
# fails (benchmarks/compare.py).  New cells pass; dropped cells are
# reported for review.
bench-compare: bench
	python benchmarks/compare.py

# The pytest-benchmark harness over the same files (contract checks +
# interactive timing tables; does not write BENCH_*.json).
bench-pytest:
	python -m pytest benchmarks/ --benchmark-only

# Fast end-to-end smoke of the parallel executor + result cache on the
# two headline experiments.  Cached under .repro-cache/ (resumable).
experiments-quick:
	python -m repro.harness.experiments --only E5,E6 --workers 2

# Fault-model gates: the pluggable-fault-layer unit suite, the
# exact-seed differential proving fault_model="crash" is byte-identical
# to the pre-fault-layer engines, the reference engine's delivery rule
# and full-outcome goldens, reference-engine runs under both omission
# models (receivers of one round see different inboxes), and the E14
# crash-vs-omission-vs-late comparison at quick scale (docs/model.md).
# CI runs this as the fault-model-smoke job.
faults:
	python -m pytest tests/test_fault_models.py tests/test_fault_differential.py tests/test_inbox.py tests/test_reference_goldens.py -q
	python -m repro run --engine reference --n 32 --t 32 --trials 2 --fault-model send-omission
	python -m repro run --engine reference --n 32 --t 32 --trials 2 --fault-model receive-omission
	python -m repro.harness.experiments --only E14 --workers 2

# Service gates: the sweep server + worker + RemoteExecutor suite,
# then the real-subprocess smoke — server plus one worker on ephemeral
# ports, the same small sweep submitted twice (second must coalesce),
# clean teardown (docs/service.md).  CI runs this inside the
# scheduler-smoke job.
serve-smoke:
	python -m pytest tests/test_wire.py tests/test_service.py tests/test_service_resume.py -q
	python -m repro.service.smoke

# Untrusted-fleet gates: attestation digests, audit re-execution,
# circuit breakers, and the durable job journal — then the real
# subprocess smoke with one Byzantine worker behind full audit, whose
# results must be byte-identical to a fault-free serial run
# (docs/robustness.md).  CI runs this inside the scheduler-smoke job.
byzantine-smoke:
	python -m pytest tests/test_byzantine.py -q
	python -m repro.service.smoke --byzantine

# Chaos gates: killed workers, stalled chunks, corrupted cache docs,
# SIGKILLed mid-batch runs — all byte-identical to fault-free serial
# (docs/robustness.md).  CI runs this inside the scheduler-smoke job.
chaos:
	python -m pytest tests/test_chaos.py tests/test_resilience.py -q

check: lint test
