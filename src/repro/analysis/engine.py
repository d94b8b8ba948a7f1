"""The lint engine: load → call-graph → rules → suppressions → report.

:class:`Linter` ties the framework layers together.  One run:

1. expands the requested paths into ``*.py`` files (never importing them);
2. parses each into a :class:`~repro.analysis.loader.Module` — syntax errors
   become ``parse-error`` findings rather than crashes;
3. builds the intra-package call graph once, shared by every rule;
4. runs every rule of the catalogue (or the ``--rule`` subset) per module;
5. applies inline suppressions: a finding covered by a
   ``# repro-lint: disable=<rule> — <reason>`` comment moves to the
   ``suppressed`` list (with its reason); malformed suppressions and
   suppressions naming unknown rules are themselves ``bad-suppression``
   findings and can never be suppressed — the gate's "zero unexplained
   suppressions" guarantee is enforced by the linter, not by review.

:func:`lint_paths` is the one-call convenience the CLI and the tests use.
"""

from __future__ import annotations

import gc
import json

from dataclasses import dataclass, field

from .callgraph import build_callgraph
from .flow import FLOW_RULES
from .loader import Module, iter_python_files, load_module
from .model import Finding, LintResult, SEVERITY_ERROR, SuppressedFinding, sort_findings
from .rules import ALL_RULES, LintContext, Rule

#: Rules emitted by the framework itself (not suppressible, always known).
FRAMEWORK_RULES = ("parse-error", "bad-suppression")

#: The one rule catalogue every run checks: the syntactic rules, then the
#: interprocedural taint and lockset rules.
CATALOGUE: "tuple[Rule, ...]" = ALL_RULES + FLOW_RULES

#: Every name a suppression comment may carry.
_KNOWN_RULES = frozenset(r.name for r in CATALOGUE) | frozenset(FRAMEWORK_RULES)


@dataclass
class Linter:
    """A configured lint run: the catalogue, optionally narrowed by name."""

    only: "tuple[str, ...] | None" = None  # --rule filter (None = all)
    _selected: "tuple[Rule, ...]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.only is None:
            self._selected = CATALOGUE
            return
        names = {r.name for r in CATALOGUE}
        unknown = set(self.only) - names
        if unknown:
            raise ValueError(
                f"unknown rule(s) {', '.join(sorted(unknown))} — "
                f"available: {', '.join(sorted(names))}"
            )
        self._selected = tuple(r for r in CATALOGUE if r.name in self.only)

    # ------------------------------------------------------------------ #

    def run(self, paths: "list[str]") -> LintResult:
        # A run allocates a growing heap of AST nodes, summaries and taints
        # and leaves no cycles, so the collector's passes find nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run(paths)
        finally:
            if collecting:
                gc.enable()

    def _run(self, paths: "list[str]") -> LintResult:
        files = iter_python_files(paths)
        modules: list[Module] = []
        findings: list[Finding] = []
        for path in files:
            module, parse_error = load_module(path)
            if parse_error is not None:
                findings.append(parse_error)
                continue
            modules.append(module)

        ctx = LintContext(modules=modules, callgraph=build_callgraph(modules))
        suppressed: list[SuppressedFinding] = []

        for module in modules:
            # Malformed suppressions are findings in their own right …
            findings.extend(module.bad_suppressions)
            # … and so is naming a rule the suite has never heard of
            # (catches typos that would otherwise silently suppress nothing).
            for sup in module.suppressions:
                for name in sup.rules:
                    if name not in _KNOWN_RULES:
                        findings.append(
                            Finding(
                                path=module.path,
                                line=sup.line,
                                col=0,
                                rule="bad-suppression",
                                message=(
                                    f"suppression names unknown rule "
                                    f"{name!r} — available: "
                                    f"{', '.join(sorted(_KNOWN_RULES))}"
                                ),
                                severity=SEVERITY_ERROR,
                            )
                        )
            for rule in self._selected:
                for finding in rule.check(module, ctx):
                    sup = module.suppression_for(finding.rule, finding.line)
                    if sup is not None:
                        suppressed.append(
                            SuppressedFinding(finding=finding, reason=sup.reason)
                        )
                    else:
                        findings.append(finding)

        return LintResult(
            findings=sort_findings(findings),
            suppressed=tuple(
                sorted(suppressed, key=lambda s: s.finding)
            ),
            files=len(files),
            rules_run=tuple(r.name for r in self._selected),
        )


def lint_paths(
    paths: "list[str]",
    only: "tuple[str, ...] | None" = None,
    engine: str = "all",
) -> LintResult:
    """Run the catalogue (optionally filtered by ``only``) over ``paths``.

    ``engine`` is kept only because perfbench calls
    ``lint_paths([corpus], engine="all")``; ``"all"`` is its one value.
    """
    if engine != "all":
        raise ValueError(f"unknown engine {engine!r} — every run checks all rules")
    return Linter(only=only).run(paths)


# --------------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------------- #

def format_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [f.render() for f in result.findings]
    for s in result.suppressed:
        lines.append(f"{s.finding.render()}  [suppressed: {s.reason}]")
    noun = "file" if result.files == 1 else "files"
    lines.append(
        f"{len(result.findings)} finding(s), {len(result.suppressed)} "
        f"suppressed, {result.files} {noun} checked"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """The stable schema-v2 JSON report (see ``model.py`` for the contract)."""
    return json.dumps(result.report(), indent=2, sort_keys=False)
