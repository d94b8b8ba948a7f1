"""SARIF 2.1.0 emission for ``repro lint`` results.

One :class:`~repro.analysis.model.LintResult` renders to both the native
JSON report (``model.report()``) and this SARIF document — same findings,
same suppressions, two consumers: the native schema for the repo's own CI
gate and diffing, SARIF for code-scanning UIs that ingest the standard
format.

Mapping choices (the minimal valid profile, nothing speculative):

* every rule that ran gets a ``tool.driver.rules`` entry (id + short
  description), so result ``ruleIndex`` references resolve;
* a flow trace becomes one ``codeFlow`` with a single ``threadFlow`` whose
  locations carry the hop notes — source first, sink last;
* a suppressed finding is still a ``result``, with a ``suppressions``
  entry of kind ``inSource`` and the mandatory reason as justification —
  SARIF consumers show it greyed out instead of losing it;
* columns are 0-based internally, 1-based in SARIF regions.
"""

from __future__ import annotations

import json

from .model import Finding, LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning"}


def _rule_descriptions() -> "dict[str, str]":
    from .engine import CATALOGUE, FRAMEWORK_RULES

    out = {r.name: r.description for r in CATALOGUE}
    out.setdefault("parse-error", "file does not parse")
    out.setdefault(
        "bad-suppression",
        "malformed or unknown-rule inline suppression",
    )
    for name in FRAMEWORK_RULES:
        out.setdefault(name, name)
    return out


def _location(path: str, line: int, col: int, message: "str | None" = None):
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": max(line, 1),
                       "startColumn": max(col, 0) + 1},
        }
    }
    if message is not None:
        loc["message"] = {"text": message}
    return loc


def _result(finding: Finding, rule_index: "dict[str, int]",
            suppression_reason: "str | None" = None) -> dict:
    result = {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": _LEVELS.get(finding.severity, "error"),
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line, finding.col)],
    }
    if finding.trace:
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {
                                "location": _location(
                                    hop.path, hop.line, 0, hop.note
                                )
                            }
                            for hop in finding.trace
                        ]
                    }
                ]
            }
        ]
    if suppression_reason is not None:
        result["suppressions"] = [
            {"kind": "inSource", "justification": suppression_reason}
        ]
    return result


def to_sarif(result: LintResult) -> dict:
    """The SARIF 2.1.0 document for one lint run."""
    descriptions = _rule_descriptions()
    rule_ids = sorted(
        set(result.rules_run)
        | {f.rule for f in result.findings}
        | {s.finding.rule for s in result.suppressed}
    )
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}
    rules = [
        {
            "id": rid,
            "shortDescription": {"text": descriptions.get(rid, rid)},
        }
        for rid in rule_ids
    ]
    results = [_result(f, rule_index) for f in result.findings]
    results.extend(
        _result(s.finding, rule_index, suppression_reason=s.reason)
        for s in result.suppressed
    )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def format_sarif(result: LintResult) -> str:
    return json.dumps(to_sarif(result), indent=2, sort_keys=False)
