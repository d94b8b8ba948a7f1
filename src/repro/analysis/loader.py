"""Module loading and inline-suppression parsing for ``repro lint``.

The loader walks the given paths, parses every ``*.py`` with the stdlib
``ast`` module (nothing is ever imported or executed — linting a file with
import-time side effects is safe), and extracts inline suppressions from the
comment stream via ``tokenize``.  Only a file whose text contains
``repro-lint`` is tokenized: every marker carries that literal, so a file
without it (most of a tree) holds no suppression and skips the tokenizer.

Suppression grammar
-------------------

::

    # repro-lint: disable=<rule>[,<rule>...] — <reason>

* The separator between the rule list and the reason is an em-dash (``—``)
  or a spaced double hyphen (`` -- ``).  The spaced form is required for
  the ASCII spelling because rule names themselves contain single hyphens.
* The **reason is mandatory**: a disable with a missing/empty reason is
  itself a ``bad-suppression`` finding (error severity), so the CI gate
  can assert "zero unexplained suppressions" by asserting zero findings.
* Rule names must match ``[a-z][a-z0-9]*(-[a-z0-9]+)*``; anything else in
  the rule list is a ``bad-suppression`` finding.
* Placement: a suppression covers findings on its own line; a comment that
  stands alone on a line additionally covers the next line.  (Put the
  disable at the end of the offending line, or on the line directly above.)

:func:`render_suppression` is the exact inverse of
:func:`parse_suppression_comment` — the round-trip the property tests in
``tests/test_lint.py`` pin with hypothesis.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize

from dataclasses import dataclass, field

from .model import Finding, SEVERITY_ERROR

#: Legal rule-name grammar (single hyphens only — the ASCII separator is a
#: *spaced* double hyphen precisely so it can never be confused with a name).
RULE_NAME_RE = re.compile(r"^[a-z][a-z0-9]*(?:-[a-z0-9]+)*$")

_MARKER_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_DISABLE_RE = re.compile(
    r"^disable=(?P<rules>[^\s].*?)\s*(?:—|\s--\s)\s*(?P<reason>.*)$",
    re.DOTALL,
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    standalone: bool  # nothing but the comment on its line -> covers line+1

    def covers(self, line: int) -> bool:
        return line == self.line or (self.standalone and line == self.line + 1)


@dataclass
class Module:
    """One parsed source file plus its comment-derived suppression table."""

    path: str
    source: str
    tree: ast.AST
    suppressions: tuple[Suppression, ...] = ()
    bad_suppressions: tuple[Finding, ...] = ()
    _lines: "list[str] | None" = field(default=None, repr=False)

    @property
    def lines(self) -> "list[str]":
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    def suppression_for(self, rule: str, line: int) -> "Suppression | None":
        for sup in self.suppressions:
            if rule in sup.rules and sup.covers(line):
                return sup
        return None


def render_suppression(rules: "tuple[str, ...] | list[str]", reason: str) -> str:
    """The canonical comment for suppressing ``rules`` with ``reason``.

    Inverse of :func:`parse_suppression_comment`; the hypothesis round-trip
    test generates arbitrary legal rule lists and reasons through this pair.
    """
    return f"# repro-lint: disable={','.join(rules)} — {reason}"


def parse_suppression_comment(
    comment: str,
) -> "tuple[tuple[str, ...], str] | str | None":
    """Parse one comment string.

    Returns ``None`` when the comment is not a repro-lint marker at all,
    an error-message ``str`` when it is a malformed marker, and a
    ``(rules, reason)`` tuple on success.
    """
    marker = _MARKER_RE.search(comment)
    if marker is None:
        return None
    body = marker.group("body").strip()
    m = _DISABLE_RE.match(body)
    if m is None:
        if body.startswith("disable"):
            return (
                "suppression is missing its mandatory reason — write "
                "'# repro-lint: disable=<rule> — <why this is safe>'"
            )
        return f"unknown repro-lint directive {body.split('=')[0]!r}"
    rules = tuple(r.strip() for r in m.group("rules").split(","))
    for r in rules:
        if not RULE_NAME_RE.match(r):
            return f"illegal rule name {r!r} in suppression"
    reason = m.group("reason").strip()
    if not reason:
        return (
            "suppression is missing its mandatory reason — write "
            "'# repro-lint: disable=<rule> — <why this is safe>'"
        )
    return rules, reason


def parse_suppressions(
    path: str, source: str
) -> "tuple[tuple[Suppression, ...], tuple[Finding, ...]]":
    """Extract every suppression (and every malformed one) from a file."""
    if "repro-lint" not in source:
        return (), ()  # no marker can match: skip the tokenizer
    sups: list[Suppression] = []
    bad: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return (), ()  # the ast parse reports the syntax error
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        parsed = parse_suppression_comment(tok.string)
        if parsed is None:
            continue
        line, col = tok.start
        if isinstance(parsed, str):
            bad.append(
                Finding(
                    path=path,
                    line=line,
                    col=col,
                    rule="bad-suppression",
                    message=parsed,
                    severity=SEVERITY_ERROR,
                )
            )
            continue
        rules, reason = parsed
        prefix = tok.line[: col] if tok.line else ""
        sups.append(
            Suppression(
                line=line,
                rules=rules,
                reason=reason,
                standalone=not prefix.strip(),
            )
        )
    return tuple(sups), tuple(bad)


def load_module(path: str) -> "tuple[Module | None, Finding | None]":
    """Parse one file; a syntax error becomes a ``parse-error`` finding."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            rule="parse-error",
            message=f"file does not parse: {exc.msg}",
            severity=SEVERITY_ERROR,
        )
    sups, bad = parse_suppressions(path, source)
    return Module(path=path, source=source, tree=tree,
                  suppressions=sups, bad_suppressions=bad), None


def iter_python_files(paths: "list[str]") -> "list[str]":
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    out: list[str] = []
    seen: set[str] = set()
    for p in paths:
        if os.path.isfile(p):
            candidates = [p]
        elif os.path.isdir(p):
            candidates = []
            for root, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                candidates.extend(
                    os.path.join(root, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {p!r}")
        for c in candidates:
            norm = os.path.normpath(c)
            if norm not in seen and norm.endswith(".py"):
                seen.add(norm)
                out.append(norm)
    return sorted(out)
