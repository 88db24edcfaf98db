"""Fixed-width table rendering for experiment output.

Experiments return :class:`Table` objects; benchmarks and the CLI
render them with :func:`render_table`.  Cells may be strings, ints,
floats (formatted to a sensible precision), bools (``yes``/``no``), or
``None`` (``-``).  :func:`resilience_note` and
:func:`report_quarantined` tell the user what an executor recovered
from and which trials it lost.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.harness.exec.executor import Executor

__all__ = [
    "Table",
    "format_cell",
    "render_table",
    "report_quarantined",
    "resilience_note",
]


def format_cell(value: Any) -> str:
    """Human-readable cell text."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        if magnitude >= 100:
            return f"{value:.1f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


@dataclass
class Table:
    """A titled grid of results.

    Attributes:
        title: Table caption (experiment id + claim).
        columns: Column headers.
        rows: Row cells; each row must match ``columns`` in length.
        notes: Free-form footnotes rendered under the table.
    """

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All cells of the named column (for programmatic assertions)."""
        try:
            idx = list(self.columns).index(name)
        except ValueError:
            raise ConfigurationError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None
        return [row[idx] for row in self.rows]


def render_table(table: Table) -> str:
    """Render a :class:`Table` as fixed-width text."""
    headers = [str(c) for c in table.columns]
    grid = [headers] + [
        [format_cell(cell) for cell in row] for row in table.rows
    ]
    widths = [
        max(len(row[i]) for row in grid) for i in range(len(headers))
    ]
    lines = [table.title, "=" * max(len(table.title), 1)]
    header_line = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in grid[1:]:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    for note in table.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def resilience_note(executor: "Executor") -> Optional[str]:
    """A one-line recovery summary, or ``None`` for an uneventful run."""
    summary = executor.resilience_summary()
    keys = ("resumed_chunks", "retries", "quarantined", "pool_rebuilds")
    if not any(summary[k] for k in keys):
        return None
    return (
        f"resilience: {summary['resumed_chunks']} chunk(s) resumed, "
        f"{summary['retries']} retried, "
        f"{summary['quarantined']} quarantined, "
        f"{summary['pool_rebuilds']} pool rebuild(s)"
    )


def report_quarantined(executor: "Executor") -> int:
    """Print one ``error:`` line on stderr per quarantined chunk, with
    its batch label, trials, failure kind and last error; return the
    number of trials lost."""
    lost = 0
    for report in executor.reports:
        for failure in report.failures:
            trials = failure.trial_indices
            lost += len(trials)
            span = f"{trials[0]}-{trials[-1]}" if len(trials) > 1 else trials[0]
            print(
                f"error: {report.label}: trial(s) {span} "
                f"quarantined after {failure.attempts} attempt(s) "
                f"({failure.kind}): {failure.error}",
                file=sys.stderr,
            )
    return lost
