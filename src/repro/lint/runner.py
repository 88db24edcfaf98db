"""Orchestration: walk paths, run rules, apply pragmas, render reports.

Entry points::

    python -m repro.lint src                    # JSON report, exit 1 on findings
    python -m repro.lint src --format text
    python -m repro.lint src --format sarif     # GitHub code scanning
    python -m repro.lint src --cache            # incremental re-lint
    repro lint src                              # CLI subcommand

The pipeline has two tiers.  *Per-file* rules (REP001, the direct half
of REP003, REP004, REP005, REP006) see one parsed file at a time and
their results are cacheable per content hash.  *Project* rules (REP002
registry completeness, the interprocedural half of REP003, REP007
determinism taint, REP008 spec payload safety) run over a
:class:`~repro.lint.project.ProjectModel` built from the whole tree in
one pass, and their results are cacheable per tree hash.  With
``--cache``, a second run over an unchanged tree re-parses and
re-analyses nothing (see :mod:`repro.lint.cache`).

The runner resolves the repo root (nearest ancestor of the first
scanned path containing ``PAPER.md`` or ``pyproject.toml``) to locate
``PAPER.md`` for REP004, ``docs/`` for REP002, and the optional
checked-in baseline ``.repro-lint-baseline.json`` (see
:mod:`repro.lint.baseline`); ``--paper`` / ``--docs`` override the
discovery, which the fixture-tree tests use.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.baseline import (
    BASELINE_FILENAME,
    load_baseline,
    write_baseline,
)
from repro.lint.cache import LintCache, SCHEMA_VERSION
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

#: Rules that need the whole tree (symbol tables / call graph).
_PROJECT_RULES = ("REP002", "REP003", "REP007", "REP008")

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


@dataclass
class _FileEntry:
    """One scanned file moving through the read→cache→parse pipeline."""

    path: Path
    display: str
    data: Optional[bytes] = None
    sha: Optional[str] = None
    ctx: Optional[FileContext] = None
    parsed: bool = False
    findings: Optional[List[Finding]] = None
    from_cache: bool = False


def _read_entry(entry: _FileEntry) -> None:
    try:
        entry.data = entry.path.read_bytes()
    except OSError:
        entry.data = None
        return
    entry.sha = hashlib.sha256(entry.data).hexdigest()


def _parse_entry(entry: _FileEntry) -> None:
    """Parse one file; undecodable or invalid source becomes REP000.

    Any other failure is a fault of the analyzer, not of the file, so
    it propagates, naming the file.
    """
    entry.parsed = True
    if entry.data is None:
        return
    try:
        source = entry.data.decode("utf-8")
        tree = ast.parse(source, filename=str(entry.path))
    except (SyntaxError, ValueError):  # includes UnicodeDecodeError
        return
    except Exception as exc:
        raise RuntimeError(f"could not parse {entry.display}: {exc!r}") from exc
    entry.ctx = FileContext(
        path=entry.path,
        display_path=entry.display,
        source=source,
        tree=tree,
    )


def _config_fingerprint(
    config: RuleConfig, docs_digest: Optional[str]
) -> str:
    material = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "select": sorted(config.select),
            "allow": list(config.allow_global_random),
            "paper": (
                sorted(",".join(ref) for ref in config.paper_refs)
                if config.paper_refs is not None
                else None
            ),
            "docs": docs_digest,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _docs_digest(config: RuleConfig) -> Optional[str]:
    if config.docs_dir is None or not config.docs_dir.is_dir():
        return None
    digest = hashlib.sha256()
    for md in sorted(config.docs_dir.rglob("*.md")):
        try:
            digest.update(md.read_bytes())
        except OSError:
            continue
    return digest.hexdigest()


def lint_paths(
    paths: Sequence[str],
    *,
    select: Sequence[str] = ALL_RULES,
    allow: Sequence[str] = (),
    paper: Optional[str] = None,
    docs: Optional[str] = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    baseline: Optional[str] = None,
    use_baseline: bool = True,
    write_baseline_to: Optional[str] = None,
) -> LintReport:
    """Lint ``paths`` and return the full report.

    ``cache=True`` enables the incremental analysis cache (under
    ``<root>/.repro-cache/lint/`` unless ``cache_dir`` overrides it).
    ``baseline`` points at an accepted-findings file; by default the
    checked-in ``<root>/.repro-lint-baseline.json`` is used when
    present (``use_baseline=False`` disables).  ``write_baseline_to``
    records the surviving findings as a fresh baseline.
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
    cwd = Path.cwd()
    entries: List[_FileEntry] = []
    for file_path in _iter_py_files(resolved):
        try:
            display = str(file_path.relative_to(cwd))
        except ValueError:
            display = str(file_path)
        entries.append(_FileEntry(path=file_path, display=display))
    report.files_scanned = len(entries)

    for entry in entries:
        _read_entry(entry)

    per_file_selected = [
        r for r in _PER_FILE_RULES if r in config.select
    ]
    project_selected = [r for r in _PROJECT_RULES if r in config.select]

    store: Optional[LintCache] = None
    config_fp = ""
    tree_key = ""
    project_findings: Optional[List[Finding]] = None
    if cache:
        directory = (
            Path(cache_dir) if cache_dir else root / ".repro-cache" / "lint"
        )
        store = LintCache(directory)
        config_fp = _config_fingerprint(config, _docs_digest(config))
        tree_material = config_fp + "".join(
            f"\n{e.display}:{e.sha or 'unreadable'}" for e in entries
        )
        tree_key = hashlib.sha256(tree_material.encode("utf-8")).hexdigest()
        if project_selected:
            project_findings = store.get_project(tree_key)
        for entry in entries:
            if entry.sha is None:
                continue
            hit = store.get_file(
                f"{entry.display}:{entry.sha}:{config_fp[:16]}"
            )
            if hit is not None:
                entry.findings = hit
                entry.from_cache = True

    need_project_pass = bool(project_selected) and project_findings is None
    to_parse = [
        e
        for e in entries
        if (e.findings is None or need_project_pass) and e.data is not None
    ]
    for entry in to_parse:
        _parse_entry(entry)
    report.cache_hits = sum(1 for e in entries if e.from_cache)
    report.files_reanalyzed = sum(1 for e in entries if e.parsed)

    pragma_tables: Dict[str, Dict[int, Set[str]]] = {}

    def pragmas_for(display: str) -> Dict[int, Set[str]]:
        table = pragma_tables.get(display)
        if table is None:
            ctx = next(
                (e.ctx for e in entries if e.display == display and e.ctx),
                None,
            )
            table = (
                suppressions(ctx.source, ctx.tree) if ctx is not None else {}
            )
            pragma_tables[display] = table
        return table

    def apply_pragmas(findings: Iterable[Finding]) -> List[Finding]:
        kept = []
        for finding in findings:
            suppressed = pragmas_for(finding.file).get(finding.line, set())
            if "all" in suppressed or finding.rule in suppressed:
                continue
            kept.append(finding)
        return kept

    for entry in entries:
        if entry.findings is not None:
            continue
        if entry.ctx is None:
            entry.findings = [
                Finding(
                    rule="REP000",
                    file=entry.display,
                    line=1,
                    col=0,
                    message="file could not be read or parsed",
                )
            ]
        else:
            raw: List[Finding] = []
            for rule_id in per_file_selected:
                raw.extend(_PER_FILE_RULES[rule_id](entry.ctx, config))
            entry.findings = apply_pragmas(raw)
        if store is not None and entry.sha is not None:
            store.set_file(
                f"{entry.display}:{entry.sha}:{config_fp[:16]}",
                entry.findings,
            )

    if need_project_pass:
        contexts = [e.ctx for e in entries if e.ctx is not None]
        raw = []
        if "REP002" in project_selected:
            raw.extend(check_rep002(contexts, config))
        interproc_rules = [
            r for r in project_selected if r in ("REP003", "REP007", "REP008")
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
                raw.extend(check_rep003_interproc(project, graph, config))
            if "REP007" in interproc_rules:
                raw.extend(check_rep007(project, config))
            if "REP008" in interproc_rules:
                raw.extend(check_rep008(project, config))
        project_findings = apply_pragmas(raw)
        if store is not None:
            store.set_project(tree_key, project_findings)

    merged: List[Finding] = []
    for entry in entries:
        merged.extend(entry.findings or ())
    merged.extend(project_findings or ())
    merged.sort(key=lambda f: (f.file, f.line, f.col, f.rule))

    if write_baseline_to is not None:
        write_baseline(Path(write_baseline_to), merged)

    accepted: Set[str] = set()
    if write_baseline_to is not None:
        # A write run reports what it just recorded; applying the
        # freshly written baseline would claim "0 accepted" instead.
        pass
    elif baseline is not None:
        accepted = load_baseline(Path(baseline))
    elif use_baseline:
        default_baseline = root / BASELINE_FILENAME
        if default_baseline.is_file():
            accepted = load_baseline(default_baseline)
    if accepted:
        surviving = []
        for finding in merged:
            if finding.fingerprint() in accepted:
                report.baselined += 1
            else:
                surviving.append(finding)
        merged = surviving

    report.findings = merged
    if store is not None:
        store.save()
    return report


def _render_text(report: LintReport) -> str:
    lines = [f.render() for f in report.findings]
    counts = report.counts_by_rule()
    summary = (
        f"repro.lint: {report.files_scanned} files scanned "
        f"({report.files_reanalyzed} analyzed, {report.cache_hits} cached), "
        f"{len(report.findings)} finding(s)"
    )
    if report.baselined:
        summary += f", {report.baselined} baselined"
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
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the incremental analysis cache "
             "(.repro-cache/lint/ under the repo root)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="override the analysis cache directory",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="accepted-findings file "
             f"(default: <root>/{BASELINE_FILENAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any checked-in baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the baseline and exit 0",
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

    write_baseline_to = None
    if args.write_baseline:
        first = Path(args.paths[0]) if args.paths else Path.cwd()
        write_baseline_to = str(
            Path(args.baseline)
            if args.baseline
            else discover_root(first) / BASELINE_FILENAME
        )

    report = lint_paths(
        args.paths,
        select=select,
        allow=args.allow,
        paper=args.paper,
        docs=args.docs,
        cache=args.cache,
        cache_dir=args.cache_dir,
        baseline=args.baseline,
        use_baseline=not args.no_baseline,
        write_baseline_to=write_baseline_to,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    if args.write_baseline:
        print(
            f"repro.lint: baseline written to {write_baseline_to} "
            f"({len(report.findings)} finding(s) accepted)",
            file=sys.stderr,
        )
        return 0
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
