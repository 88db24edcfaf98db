"""Finding objects, suppression pragmas, and machine-readable reports.

A :class:`Finding` pins one rule violation to a file and line.  Findings
are plain data so the runner can render them as text for humans or JSON
for CI and the acceptance harness.

Suppression: a finding on line ``L`` is dropped when line ``L`` of the
source carries an inline pragma::

    tally = random.random()  # repro-lint: disable=REP001
    risky_pair()             # repro-lint: disable=REP001,REP003
    anything_at_all()        # repro-lint: disable=all

Pragmas are anchored to *statement spans*, not single lines: a pragma
on the opening line of a multi-line call (or a multi-line ``def``
signature) suppresses findings reported anywhere inside that
statement's header span.  Pass the parsed tree to :func:`suppressions`
to get the expansion; without a tree the exact-line behaviour is kept.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["Finding", "LintReport", "suppressions"]

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Rule identifier (``REP001`` .. ``REP008``, or ``REP000``
            for a file that could not be read or parsed).
        file: Path of the offending file, as given to the runner.
        line: 1-based line of the offending construct.
        col: 0-based column offset.
        message: Human-readable explanation with the suggested remedy.
        symbol: The offending name when one exists (class, call target,
            or registry key) — empty otherwise.
    """

    rule: str
    file: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, keys stable for tooling."""
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }

    def render(self) -> str:
        """``file:line:col: RULE message`` (clickable in most editors)."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"

    def fingerprint(self) -> str:
        """Stable identity for code scanning, independent of line/column.

        Keyed on rule, file, symbol, and message so a finding stays
        recognised when unrelated edits shift it down the file, but
        becomes a new finding as soon as the offending code itself
        changes shape.  SARIF output carries it as the result's
        ``partialFingerprints`` entry.
        """
        material = f"{self.rule}|{self.file}|{self.symbol}|{self.message}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass
class LintReport:
    """Everything one lint invocation produced.

    ``ok`` is ``True`` exactly when no finding survived suppression;
    the CLI exit code is ``0 if ok else 1``.
    """

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "counts": self.counts_by_rule(),
            "findings": [f.to_dict() for f in self.findings],
        }


def _statement_spans(tree: ast.AST) -> List[tuple]:
    """``(start, end)`` line spans a pragma on ``start`` should cover.

    Simple statements span their full extent (a call broken over five
    lines is one suppression target).  Compound statements (``def``,
    ``class``, ``if``, ``for``, …) span only their *header* — from the
    keyword line to the line before the first body statement — so a
    pragma on a ``def`` line covers a multi-line signature without
    silencing the whole function body.
    """
    spans: List[tuple] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", start) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        if end > start:
            spans.append((start, end))
    return spans


def suppressions(
    source: str, tree: Optional[ast.AST] = None
) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    The special id ``all`` suppresses every rule.  When ``tree`` is
    given, a pragma on the opening line of a multi-line statement is
    expanded over the statement's span (see :func:`_statement_spans`);
    without a tree only the pragma's own line is covered.
    """
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = {
            token.strip().upper() if token.strip().lower() != "all" else "all"
            for token in match.group(1).split(",")
            if token.strip()
        }
        if rules:
            out.setdefault(lineno, set()).update(rules)
    if tree is not None and out:
        for start, end in _statement_spans(tree):
            anchored = out.get(start)
            if not anchored:
                continue
            for covered in range(start + 1, end + 1):
                out.setdefault(covered, set()).update(anchored)
    return out
