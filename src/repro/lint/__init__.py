"""``repro.lint`` — repo-specific static analysis + runtime sanitizer.

Two halves guard the model contracts the paper's results depend on:

* **Static pass** (``python -m repro.lint src`` or ``repro lint``):
  per-file AST rules REP001 (no global-RNG usage), REP003
  (adversary-knowledge boundary), REP004 (paper-reference hygiene),
  REP005 (no dead heavyweight imports), REP006 (fail-stop-safe
  futures), plus whole-project rules built on a symbol table and
  conservative call graph (:mod:`repro.lint.project`,
  :mod:`repro.lint.callgraph`): REP002 (registry completeness),
  interprocedural REP003, REP007 (determinism taint: wall-clock /
  pid / entropy values must not reach seed, stream-key, or cache-key
  computation, even through helper chains), and REP008 (spec payload
  safety: ``*Spec``/``*Plan``/``*Batch`` dataclasses stay frozen,
  hashable, and picklable).  Every run parses each file once and runs
  every selected rule; findings can be exported as SARIF 2.1.0
  (:mod:`repro.lint.sarif`).  See ``docs/static_analysis.md``.
* **Runtime pass** (:class:`SimSanitizer`): hooked into the
  message-level ``Engine`` behind a flag, asserting fail-stop
  semantics, failure budgets, round monotonicity, and decision
  irrevocability at execution time.
"""

from repro.lint.findings import Finding, LintReport
from repro.lint.rules import ALL_RULES, RuleConfig
from repro.lint.runner import lint_paths, main
from repro.lint.sanitizer import SanitizerViolation, SimSanitizer

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "RuleConfig",
    "SanitizerViolation",
    "SimSanitizer",
    "lint_paths",
    "main",
]
