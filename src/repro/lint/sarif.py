"""SARIF 2.1.0 emitter for GitHub code scanning.

Renders a :class:`~repro.lint.findings.LintReport` as a single-run
SARIF log: one ``reportingDescriptor`` per rule that ran (with the
summaries from :data:`repro.lint.rules.RULE_SUMMARIES`) and one
``result`` per finding, each carrying a ``partialFingerprints`` entry
(:meth:`~repro.lint.findings.Finding.fingerprint`) so code scanning
tracks findings across line-shifting edits.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.findings import LintReport
from repro.lint.rules import RULE_SUMMARIES

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_URI = "docs/static_analysis.md"


def _rule_descriptor(rule_id: str) -> Dict[str, object]:
    summary = RULE_SUMMARIES.get(rule_id, rule_id)
    return {
        "id": rule_id,
        "name": rule_id,
        "shortDescription": {"text": summary},
        "helpUri": _TOOL_URI,
        "defaultConfiguration": {"level": "error"},
    }


def to_sarif(report: LintReport) -> Dict[str, object]:
    """The report as a SARIF 2.1.0 log (a JSON-serialisable dict)."""
    rule_ids = list(report.rules_run)
    for finding in report.findings:
        if finding.rule not in rule_ids:
            rule_ids.append(finding.rule)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    results: List[Dict[str, object]] = []
    for finding in report.findings:
        results.append(
            {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.file.replace("\\", "/"),
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": max(1, finding.line),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproLintFingerprint/v1": finding.fingerprint()
                },
            }
        )

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": _TOOL_URI,
                        "rules": [_rule_descriptor(r) for r in rule_ids],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
