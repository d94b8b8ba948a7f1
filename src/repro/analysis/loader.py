"""Module loading and inline-suppression parsing for ``repro lint``.

The loader walks the given paths, parses every ``*.py`` with the stdlib
``ast`` module (nothing is ever imported or executed — linting a file with
import-time side effects is safe), and extracts inline suppressions from the
comment stream via ``tokenize``.  Only a file whose text contains
``repro-lint`` is tokenized: every marker carries that literal, so a file
without it (most of a tree) holds no suppression and skips the tokenizer.

Each file is parsed once and its tree walked once, into a
:class:`ModuleIndex` (nodes by type, every def with its class, each def's
own nodes, the import alias table).  Rules and the other whole-tree
passes read the index; none of them walks ``module.tree`` again.

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

from collections import deque
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
class ModuleIndex:
    """One walk of a module's tree, read by every whole-tree pass.

    ``load_module`` builds it once per file, so the rules, the call graph,
    the taint-config scan and ``--diff`` never walk a tree again.
    """

    #: node type -> every node of that type, in ``ast.walk`` order;
    #: expression contexts and operators are left out.
    nodes: "dict[type, list[ast.AST]]"
    #: every def with its enclosing class name (None outside a class), in
    #: source pre-order; a def nested in a method keeps the method's class.
    functions: "list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]]"
    #: def -> its own nodes: the def and everything under it except lambda
    #: and nested-def bodies (what ``rules._walk_no_lambda(def)`` yields,
    #: less expression contexts and operators).
    own: "dict[ast.AST, list[ast.AST]]"
    #: ``Import``/``ImportFrom`` statements, in ``ast.walk`` order.
    imports: "list[ast.Import | ast.ImportFrom]"
    #: local name -> dotted target of the import that binds it
    #: (``npr`` -> ``numpy.random``, ``now`` -> ``time.time``); a relative
    #: import's target keeps its leading dots.  The last binding in walk
    #: order wins.
    aliases: "dict[str, str]"

    def of(self, kind: type) -> "list[ast.AST]":
        """Every node of exactly type ``kind``."""
        return self.nodes.get(kind, [])


_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_IMPORT_TYPES = (ast.Import, ast.ImportFrom)
#: Expression contexts and operators: leaf singletons that rules only test
#: as ``node.ctx`` / ``node.op`` attributes, so the index never holds them.
_UNINDEXED = frozenset(
    kind
    for base in (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)
    for kind in base.__subclasses__()
)


def index_tree(tree: ast.AST) -> ModuleIndex:
    """Walk ``tree`` once, breadth first like ``ast.walk``, into its index."""
    nodes: "dict[type, list[ast.AST]]" = {}
    own: "dict[ast.AST, list[ast.AST]]" = {}
    functions: list = []
    imports: list = []
    # (node, enclosing class name, own-node list of the enclosing def)
    todo = deque([(tree, None, None)])
    popleft, push = todo.popleft, todo.append
    while todo:
        node, cls, owner = popleft()
        kind = node.__class__
        group = nodes.get(kind)
        if group is None:
            group = nodes[kind] = []
        group.append(node)
        if kind in _DEF_TYPES:
            owner = own[node] = [node]
            functions.append((node, cls))
        elif kind is ast.Lambda:
            owner = None
        else:
            if owner is not None:
                owner.append(node)
            if kind is ast.ClassDef:
                cls = node.name
            elif kind in _IMPORT_TYPES:
                imports.append(node)
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST) and item.__class__ not in _UNINDEXED:
                        push((item, cls, owner))
            elif isinstance(value, ast.AST) and value.__class__ not in _UNINDEXED:
                push((value, cls, owner))
    # Defs never share a line, so source order is the pre-order.
    functions.sort(key=lambda fc: (fc[0].lineno, fc[0].col_offset))
    return ModuleIndex(nodes, functions, own, imports, _import_aliases(imports))


def _import_aliases(imports: "list[ast.Import | ast.ImportFrom]") -> "dict[str, str]":
    aliases: "dict[str, str]" = {}
    for stmt in imports:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds `a`; usage spells a.b.c.fn.
                    head = alias.name.split(".")[0]
                    aliases[head] = head
            continue
        base = "." * stmt.level + (stmt.module or "")
        sep = "." if stmt.module else ""
        for alias in stmt.names:
            if alias.name != "*":
                aliases[alias.asname or alias.name] = f"{base}{sep}{alias.name}"
    return aliases


@dataclass
class Module:
    """One parsed source file plus its comment-derived suppression table."""

    path: str
    source: str
    tree: ast.AST
    index: ModuleIndex
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
    return Module(path=path, source=source, tree=tree, index=index_tree(tree),
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
