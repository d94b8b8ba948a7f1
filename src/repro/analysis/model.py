"""Finding model and the stable JSON report schema of ``repro lint``.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects with a total ordering (path, line, col, rule) so reports
are deterministic regardless of rule-execution order — the property the CI
gate's archived ``LINT_report.json`` diffs rely on.

JSON report schema (``--format=json``), version 2 — **stable**: fields are
only ever added, never renamed or removed, so downstream tooling can pin on
``version``.  Version 2 added the per-finding ``trace`` array (a flow
rule's source → hops → sink path; empty when a rule has none); every
v1 field is untouched, so a v1 consumer reads a v2 report unchanged — the
compatibility the ``test_v1_consumer_reads_v2_report`` test pins::

    {
      "version": 2,
      "tool": "repro-lint",
      "files": <int: python files analysed>,
      "findings": [            # active findings, sorted
        {"rule": str, "path": str, "line": int, "col": int,
         "severity": "error"|"warning", "message": str,
         "trace": [            # v2: flow path, source first, sink last
           {"path": str, "line": int, "note": str}
         ]}
      ],
      "suppressed": [          # findings silenced by an inline disable
        {... same fields ..., "reason": str}
      ],
      "summary": {
        "total": <int: len(findings)>,
        "suppressed": <int: len(suppressed)>,
        "by_rule": {rule: count, ...},       # active findings only
        "rules_run": [rule, ...]             # every rule that executed
      }
    }

The CI gate asserts ``summary.total == 0`` and that every entry in
``suppressed`` carries a non-empty ``reason`` (the linter itself refuses
reason-less suppressions with a ``bad-suppression`` finding, so the second
assertion is belt-and-braces).
"""

from __future__ import annotations

import re

from dataclasses import dataclass, field
from typing import Iterable

#: Bump when the schema changes shape.  v2 (flow traces) is purely additive:
#: v1 consumers keep working — see the module docstring.
JSON_SCHEMA_VERSION = 2

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class TraceHop:
    """One step of a flow trace: where a tainted value was, and why.

    ``note`` is free text (``source: counts.cluster_size``, ``call:
    _describe``, ``sink: error envelope``) restricted only by the render
    grammar: no newlines and no literal ``" -> "`` separator.
    """

    path: str
    line: int
    note: str

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "note": self.note}

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.note}"


#: Separator between hops in the one-line text rendering of a trace.
TRACE_SEP = " -> "

#: Non-greedy path: the *first* ``:<digits>: `` splits path from note, so a
#: free-text note may itself contain that motif (paths never do — they have
#: no spaces).
_HOP_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+): (?P<note>.*)$", re.DOTALL)


def render_trace(hops: "Iterable[TraceHop]") -> str:
    """One-line text form of a flow trace: ``path:line: note -> ...``.

    Exact inverse of :func:`parse_trace` for hops whose ``note`` contains
    neither a newline nor the literal ``" -> "`` separator, and whose
    ``path`` contains no ``:<digits>: `` motif (the grammar the hypothesis
    round-trip test pins).
    """
    return TRACE_SEP.join(h.render() for h in hops)


def parse_trace(text: str) -> "tuple[TraceHop, ...]":
    """Parse :func:`render_trace` output back into hops.

    Raises ``ValueError`` on malformed hops; an empty string is the empty
    trace.
    """
    if not text:
        return ()
    hops = []
    for part in text.split(TRACE_SEP):
        m = _HOP_RE.match(part)
        if m is None:
            raise ValueError(f"malformed trace hop {part!r}")
        hops.append(
            TraceHop(
                path=m.group("path"),
                line=int(m.group("line")),
                note=m.group("note"),
            )
        )
    return tuple(hops)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``trace`` (v2) is the flow engine's evidence path — source first, sink
    last; empty for purely syntactic findings.  It is excluded from the
    ordering so report determinism keeps depending only on the location.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = SEVERITY_ERROR
    trace: "tuple[TraceHop, ...]" = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "trace": [h.as_dict() for h in self.trace],
        }

    def render(self) -> str:
        """The one-line text form: ``path:line:col: rule severity: message``.

        Findings with a flow trace append it on an indented second line.
        """
        head = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )
        if self.trace:
            return f"{head}\n    trace: {render_trace(self.trace)}"
        return head


@dataclass(frozen=True)
class SuppressedFinding:
    """A finding silenced by an inline ``# repro-lint: disable=`` comment."""

    finding: Finding
    reason: str

    def as_dict(self) -> dict:
        out = self.finding.as_dict()
        out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class LintResult:
    """The outcome of one lint run over a set of paths."""

    findings: tuple[Finding, ...]
    suppressed: tuple[SuppressedFinding, ...]
    files: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def report(self) -> dict:
        by_rule: dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files": self.files,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [s.as_dict() for s in self.suppressed],
            "summary": {
                "total": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": by_rule,
                "rules_run": list(self.rules_run),
            },
        }


def sort_findings(findings: Iterable[Finding]) -> tuple[Finding, ...]:
    """Deterministic report order: (path, line, col, rule)."""
    return tuple(sorted(findings))
