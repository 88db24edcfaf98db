"""Orchestration: walk paths, run rules, apply pragmas, render reports.

Entry points::

    python -m repro.lint src                    # JSON report, exit 1 on findings
    python -m repro.lint src --format text
    python -m repro.lint src --format sarif     # GitHub code scanning
    repro lint src                              # CLI subcommand

Every run parses each scanned file once and runs every selected rule.
The rules come in two tiers.  *Per-file* rules (REP001, the direct half
of REP003, REP004, REP005, REP006) see one parsed file at a time.
*Project* rules (REP002 registry completeness, the interprocedural half
of REP003, REP007 determinism taint, REP008 spec payload safety) run
over a :class:`~repro.lint.project.ProjectModel` built from the whole
tree.  Pragmas then drop suppressed findings, and the rest are sorted
by location.

The runner resolves the repo root (nearest ancestor of the first
scanned path containing ``PAPER.md`` or ``pyproject.toml``) to locate
``PAPER.md`` for REP004 and ``docs/`` for REP002; ``--paper`` /
``--docs`` override the discovery, which the fixture-tree tests use.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.findings import Finding, LintReport, suppressions
from repro.lint.rules import (
    ALL_RULES,
    FileContext,
    RuleConfig,
    check_rep001,
    check_rep002,
    check_rep003,
    check_rep004,
    check_rep005,
    check_rep006,
    paper_references,
)

__all__ = ["discover_root", "lint_paths", "main"]

_PER_FILE_RULES = {
    "REP001": check_rep001,
    "REP003": check_rep003,
    "REP004": check_rep004,
    "REP005": check_rep005,
    "REP006": check_rep006,
}

_ROOT_MARKERS = ("PAPER.md", "pyproject.toml", ".git")


def discover_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` that looks like a repo root."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return probe


def _iter_py_files(paths: Sequence[Path]) -> Iterable[Path]:
    seen = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files: Iterable[Path] = (path,)
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            files = ()
        for f in files:
            if f not in seen:
                seen.add(f)
                yield f


def _build_config(
    root: Path,
    *,
    select: Sequence[str],
    allow: Sequence[str],
    paper: Optional[Path],
    docs: Optional[Path],
) -> RuleConfig:
    paper_path = paper if paper is not None else root / "PAPER.md"
    paper_refs = None
    if paper_path.is_file():
        paper_refs = paper_references(
            paper_path.read_text(encoding="utf-8", errors="replace")
        )
    docs_dir = docs if docs is not None else root / "docs"
    return RuleConfig(
        allow_global_random=tuple(allow),
        paper_refs=paper_refs,
        docs_dir=docs_dir if docs_dir.is_dir() else None,
        select=tuple(select),
    )


def _parse(path: Path, display: str) -> Optional[FileContext]:
    """Parse one file; ``None`` when it cannot be read, decoded or parsed.

    Any other failure is a fault of the analyzer, not of the file, so
    it propagates, naming the file.
    """
    try:
        source = path.read_bytes().decode("utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):  # includes UnicodeDecodeError
        return None
    except Exception as exc:
        raise RuntimeError(f"could not parse {display}: {exc!r}") from exc
    return FileContext(
        path=path, display_path=display, source=source, tree=tree
    )


def _project_findings(
    contexts: List[FileContext], config: RuleConfig
) -> List[Finding]:
    """Findings of the whole-tree rules REP002, REP003, REP007, REP008."""
    findings: List[Finding] = []
    if "REP002" in config.select:
        findings.extend(check_rep002(contexts, config))
    interproc_rules = [
        r for r in ("REP003", "REP007", "REP008") if r in config.select
    ]
    if interproc_rules and contexts:
        from repro.lint.callgraph import CallGraph
        from repro.lint.interproc import (
            check_rep003_interproc,
            check_rep007,
            check_rep008,
        )
        from repro.lint.project import ProjectModel

        project = ProjectModel.build(contexts)
        if "REP003" in interproc_rules:
            graph = CallGraph.build(project)
            findings.extend(check_rep003_interproc(project, graph, config))
        if "REP007" in interproc_rules:
            findings.extend(check_rep007(project, config))
        if "REP008" in interproc_rules:
            findings.extend(check_rep008(project, config))
    return findings


def lint_paths(
    paths: Sequence[str],
    *,
    select: Sequence[str] = ALL_RULES,
    allow: Sequence[str] = (),
    paper: Optional[str] = None,
    docs: Optional[str] = None,
) -> LintReport:
    """Lint ``paths`` and return the full report.

    Every call parses each file once and runs every selected rule, so
    the findings always come from the rule code being run.
    """
    resolved = [Path(p) for p in paths]
    root = discover_root(resolved[0]) if resolved else Path.cwd()
    config = _build_config(
        root,
        select=select,
        allow=allow,
        paper=Path(paper) if paper else None,
        docs=Path(docs) if docs else None,
    )

    report = LintReport(rules_run=[r for r in ALL_RULES if r in config.select])
    per_file = [
        check for rule, check in _PER_FILE_RULES.items() if rule in config.select
    ]
    cwd = Path.cwd()
    contexts: List[FileContext] = []
    pragmas: Dict[str, Dict[int, Set[str]]] = {}
    raw: List[Finding] = []
    for file_path in _iter_py_files(resolved):
        report.files_scanned += 1
        try:
            display = str(file_path.relative_to(cwd))
        except ValueError:
            display = str(file_path)
        ctx = _parse(file_path, display)
        if ctx is None:
            raw.append(
                Finding(
                    rule="REP000",
                    file=display,
                    line=1,
                    col=0,
                    message="file could not be read or parsed",
                )
            )
            continue
        contexts.append(ctx)
        pragmas[display] = suppressions(ctx.source, ctx.tree)
        for check in per_file:
            raw.extend(check(ctx, config))
    raw.extend(_project_findings(contexts, config))

    kept = []
    for finding in raw:
        suppressed = pragmas.get(finding.file, {}).get(finding.line, set())
        if "all" in suppressed or finding.rule in suppressed:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    report.findings = kept
    return report


def _render_text(report: LintReport) -> str:
    lines = [f.render() for f in report.findings]
    counts = report.counts_by_rule()
    summary = (
        f"repro.lint: {report.files_scanned} files scanned, "
        f"{len(report.findings)} finding(s)"
    )
    if counts:
        summary += " (" + ", ".join(
            f"{rule}: {count}" for rule, count in sorted(counts.items())
        ) + ")"
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exit 0 clean, 1 findings, 2 usage error."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Repo-specific static analysis: REP001 no-global-RNG, "
            "REP002 registry completeness, REP003 adversary-knowledge "
            "boundary (direct + interprocedural), REP004 "
            "paper-reference hygiene, REP005 no dead heavyweight "
            "imports, REP006 fail-stop-safe futures, REP007 "
            "determinism taint, REP008 spec payload safety."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("json", "text", "sarif"),
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--select",
        default=",".join(ALL_RULES),
        help="comma-separated rule ids to run",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="GLOB",
        help="glob of paths exempt from REP001 (repeatable)",
    )
    parser.add_argument(
        "--paper", default=None, help="override PAPER.md location (REP004)"
    )
    parser.add_argument(
        "--docs", default=None, help="override docs/ location (REP002)"
    )
    args = parser.parse_args(argv)

    select = tuple(
        token.strip().upper()
        for token in args.select.split(",")
        if token.strip()
    )
    unknown = [rule for rule in select if rule not in ALL_RULES]
    if unknown:
        print(f"repro.lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not read as a clean run in CI.
        print(f"repro.lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    report = lint_paths(
        args.paths,
        select=select,
        allow=args.allow,
        paper=args.paper,
        docs=args.docs,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
