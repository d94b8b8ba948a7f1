"""``repro.analysis`` — the repro-lint static-analysis framework.

A stdlib-``ast`` checker for this codebase's DP and serving invariants:
syntactic rules (integer-grid epsilon arithmetic, explicit RNG streams,
trace-key hygiene, monotonic deadlines, in-hook journal durability,
copy-on-write cached envelopes) plus interprocedural rules on one
dataflow fixpoint (charge-before-release at any call depth, unsanitized
releases, leaks into error envelopes) and on the lockset walker
(unguarded shared state, locked ledger mutation, lock-order cycles).
Every run checks the whole catalogue.  Run it with ``python -m repro lint [paths]
[--format=text|json] [--rule=NAME]``; it is wired into ``scripts/ci.sh`` as
a hard gate.

Public surface: :func:`lint_paths` / :class:`Linter` to run,
:class:`Finding` / :class:`LintResult` to consume results, ``CATALOGUE``
for the shipping rules (``ALL_RULES`` / ``RULE_NAMES`` are its syntactic
half, :data:`repro.analysis.flow.FLOW_RULES` its flow half), and the
suppression helpers (:func:`parse_suppression_comment`,
:func:`render_suppression`).
"""

from .engine import (
    CATALOGUE,
    FRAMEWORK_RULES,
    Linter,
    format_json,
    format_text,
    lint_paths,
)
from .loader import (
    Module,
    RULE_NAME_RE,
    Suppression,
    iter_python_files,
    load_module,
    parse_suppression_comment,
    parse_suppressions,
    render_suppression,
)
from .model import (
    Finding,
    JSON_SCHEMA_VERSION,
    LintResult,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SuppressedFinding,
    TraceHop,
    parse_trace,
    render_trace,
    sort_findings,
)
from .rules import ALL_RULES, LintContext, RULE_NAMES, Rule

__all__ = [
    "ALL_RULES",
    "CATALOGUE",
    "FRAMEWORK_RULES",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintContext",
    "LintResult",
    "Linter",
    "Module",
    "RULE_NAMES",
    "RULE_NAME_RE",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SuppressedFinding",
    "Suppression",
    "TraceHop",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_paths",
    "load_module",
    "parse_suppression_comment",
    "parse_suppressions",
    "parse_trace",
    "render_suppression",
    "render_trace",
    "sort_findings",
]
