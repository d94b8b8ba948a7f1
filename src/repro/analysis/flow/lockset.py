"""Lockset inference: guarded-by relations for shared mutable state.

Eraser-style, adapted to this codebase's idioms.  Scope: classes that
create locks in ``__init__`` (``self._lock = threading.Lock()``, RLock,
Condition, ...).  For each such class:

* **guarded-by inference** — an attribute accessed at least once inside a
  ``with self.<lock>:`` scope is *lock-associated*; every write to it
  outside any lock scope (and outside ``__init__``, where the object is
  not yet shared) is a ``lockset-unguarded-access`` finding.  Attributes
  never accessed under a lock are treated as thread-confined and skipped.
* **caller-holds-lock helpers** — a private method whose every intra-class
  call site holds a lock (or is itself such a helper, or ``__init__``) is
  *verified* by fixpoint iteration; accesses inside it count as locked.
  This is the ``_append``/``_drain_matching`` idiom the ledger and the
  request queue lean on — verified, not trusted.
* **acquisition order** — acquiring lock B while holding lock A adds an
  A → B edge (lexical nesting, plus one hop through resolved intra-class
  calls).  Any cycle in the per-class edge graph is a
  ``lockset-order-cycle`` finding at each acquisition site on the cycle:
  two threads taking the locks in opposite orders deadlock.
* **declared ledger guards** — in ``*Accountant`` classes the ledger state
  (``_charges``, ``_spent_units``, ``_next_token``, ``_limit*``,
  ``_observer``) is guarded by declaration rather than by
  inference: every write to it with no lock held, outside ``__init__`` and
  outside a verified helper, is a ``locked-ledger-mutation`` finding (the
  atomic check-and-charge contract).

Inferred-guard findings carry a two-hop v2 trace: the locked access that
established the guarded-by relation, then the offending access.
"""

from __future__ import annotations

import ast
import re

from collections import deque
from dataclasses import dataclass, field

from ..loader import Module
from ..model import Finding, SEVERITY_ERROR, TraceHop
from ..rules import LintContext, Rule

#: Constructors whose result is a lock-like object.
_LOCK_FACTORIES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}
_LOCK_NAME_RE = re.compile(r"lock|_cv$|condition", re.IGNORECASE)

#: Accountant ledger attributes, guarded by declaration.
_LEDGER_ATTR_RE = re.compile(
    r"^_(charges|spent_units|next_token|limit|limit_units|observer)$"
)

#: Container methods that mutate their receiver.
_MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
}


@dataclass
class _Access:
    attr: str
    method: str
    node: ast.AST
    locks: "frozenset[str]"
    is_write: bool


@dataclass
class _ClassFacts:
    """Everything the lockset rules need about one lock-owning class."""

    name: str
    node: ast.ClassDef
    #: an ``*Accountant`` class, whose ledger attributes are declared guarded
    ledger: bool = False
    lock_attrs: "set[str]" = field(default_factory=set)
    accesses: "list[_Access]" = field(default_factory=list)
    #: method -> [(caller method, locks held at the call site)]
    call_sites: "dict[str, list[tuple[str, frozenset[str]]]]" = field(
        default_factory=dict
    )
    #: private methods verified to run with a caller-held lock
    verified_helpers: "set[str]" = field(default_factory=set)
    #: (held lock, acquired lock) -> acquisition node (first seen)
    order_edges: "dict[tuple[str, str], ast.AST]" = field(default_factory=dict)
    methods: "dict[str, ast.AST]" = field(default_factory=dict)


def _is_lock_factory(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name in _LOCK_FACTORIES


def _self_attr(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _with_locks(stmt: "ast.With | ast.AsyncWith",
                lock_attrs: "set[str]") -> "list[tuple[str, ast.AST]]":
    out = []
    for item in stmt.items:
        attr = _self_attr(item.context_expr)
        if attr is not None and attr in lock_attrs:
            out.append((attr, item.context_expr))
    return out


def _collect_class(module: Module,
                   cls: ast.ClassDef) -> "_ClassFacts | None":
    facts = _ClassFacts(name=cls.name, node=cls,
                        ledger="Accountant" in cls.name)
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.methods[node.name] = node
    # Lock attributes: created in __init__ by a lock factory, or assigned
    # there under a lock-shaped name.
    init = facts.methods.get("__init__")
    for node in ast.walk(init) if init is not None else ():
        if isinstance(node, ast.Assign):
            for t in node.targets:
                attr = _self_attr(t)
                if attr and (_is_lock_factory(node.value)
                             or _LOCK_NAME_RE.search(attr)):
                    facts.lock_attrs.add(attr)
    # A lockless accountant is still checked: its every ledger write races.
    if not facts.lock_attrs and not facts.ledger:
        return None

    for name, method in facts.methods.items():
        _walk_method(module, facts, name, method.body, frozenset())

    _verify_helpers(facts)
    return facts


def _walk_method(module: Module, facts: _ClassFacts, method: str,
                 body, locks: "frozenset[str]") -> None:
    for stmt in body:
        _walk_stmt(module, facts, method, stmt, locks)


def _walk_stmt(module: Module, facts: _ClassFacts, method: str,
               stmt: ast.stmt, locks: "frozenset[str]") -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return  # nested scopes are separate analysis units
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        acquired = _with_locks(stmt, facts.lock_attrs)
        for attr, node in acquired:
            for held in locks:
                if held != attr:
                    facts.order_edges.setdefault((held, attr), node)
        inner = locks | {a for a, _ in acquired}
        for item in stmt.items:
            _scan_exprs(module, facts, method, item.context_expr, locks)
        _walk_method(module, facts, method, stmt.body, inner)
        return
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            _walk_stmt(module, facts, method, child, locks)
        elif isinstance(child, ast.excepthandler):
            if child.type is not None:
                _scan_exprs(module, facts, method, child.type, locks)
            _walk_method(module, facts, method, child.body, locks)
        elif isinstance(child, ast.expr):
            _scan_exprs(module, facts, method, child, locks)
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for t in targets:
            _record_store(facts, method, t, locks)
    elif isinstance(stmt, ast.Delete):
        for t in stmt.targets:
            _record_store(facts, method, t, locks)


def _record_store(facts: _ClassFacts, method: str, target: ast.AST,
                  locks: "frozenset[str]") -> None:
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr and attr not in facts.lock_attrs:
        facts.accesses.append(_Access(attr, method, target, locks, True))
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _record_store(facts, method, elt, locks)


def _scan_exprs(module: Module, facts: _ClassFacts, method: str,
                node: ast.AST, locks: "frozenset[str]") -> None:
    # Breadth first like ``ast.walk``, with the locks held per node: a
    # lambda body runs later, on whichever thread calls it, so none of the
    # locks held where the lambda is built guard it.
    todo = deque([(node, locks)])
    while todo:
        n, locks = todo.popleft()
        if isinstance(n, ast.Lambda):
            todo.append((n.args, locks))
            todo.append((n.body, frozenset()))
            continue
        todo.extend((child, locks) for child in ast.iter_child_nodes(n))
        if isinstance(n, ast.Call):
            func = n.func
            # self.method(...) call sites feed helper verification.
            if isinstance(func, ast.Attribute):
                recv_attr = _self_attr(func)
                if recv_attr is None and _self_attr(func.value) is not None:
                    # self.<attr>.<mutator>(...): a write to the attribute.
                    attr = _self_attr(func.value)
                    if func.attr in _MUTATING_METHODS and \
                            attr not in facts.lock_attrs:
                        facts.accesses.append(
                            _Access(attr, method, n, locks, True)
                        )
                elif recv_attr is not None and recv_attr in facts.methods:
                    facts.call_sites.setdefault(recv_attr, []).append(
                        (method, locks)
                    )
                    # One-hop acquisition-order edges through the callee.
                    for acquired in _acquires(facts, recv_attr):
                        for held in locks:
                            if held != acquired:
                                facts.order_edges.setdefault(
                                    (held, acquired), n
                                )
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attr = _self_attr(n)
            if attr and attr not in facts.lock_attrs and \
                    attr not in facts.methods:
                facts.accesses.append(_Access(attr, method, n, locks, False))


def _acquires(facts: _ClassFacts, method: str) -> "set[str]":
    node = facts.methods.get(method)
    if node is None:
        return set()
    out: "set[str]" = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.With, ast.AsyncWith)):
            out.update(a for a, _ in _with_locks(n, facts.lock_attrs))
    return out


def _verify_helpers(facts: _ClassFacts) -> None:
    """Greatest fixpoint of "every call site holds a lock"."""
    from .dataflow import fixpoint

    candidates = {
        name
        for name in facts.methods
        if name.startswith("_") and not name.startswith("__")
        and facts.call_sites.get(name)
    }

    def step() -> bool:
        dropped = set()
        for name in candidates:
            for caller, locks in facts.call_sites.get(name, ()):
                site_ok = (
                    bool(locks)
                    or caller == "__init__"
                    or caller in candidates
                )
                if not site_ok:
                    dropped.add(name)
                    break
        if dropped:
            candidates.difference_update(dropped)
            return True
        return False

    fixpoint(step)
    facts.verified_helpers = candidates


def _class_facts(module: Module, ctx: LintContext) -> "list[_ClassFacts]":
    cache = getattr(ctx, "_lockset_facts", None)
    if cache is None:
        cache = {}
        ctx._lockset_facts = cache
    if module.path not in cache:
        facts = []
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                f = _collect_class(module, node)
                if f is not None:
                    facts.append(f)
        cache[module.path] = facts
    return cache[module.path]


def _unlocked_writes(facts: _ClassFacts) -> "list[_Access]":
    """Writes with no lock held, outside ``__init__`` and verified helpers."""
    return [
        acc for acc in facts.accesses
        if acc.is_write and not acc.locks and acc.method != "__init__"
        and acc.method not in facts.verified_helpers
    ]


class LocksetUnguardedAccessRule(Rule):
    """Writes to lock-associated attributes must hold the lock.

    An attribute of a lock-owning class that is ever accessed under a
    ``with self.<lock>:`` scope is shared state; writing it with no lock
    held — outside ``__init__`` and outside a verified caller-holds-lock
    helper — is a race (lost update, or a reader observing a half-applied
    transition).
    """

    name = "lockset-unguarded-access"
    severity = SEVERITY_ERROR
    description = (
        "a lock-associated attribute is written with no lock held — "
        "every access to shared mutable state goes through its inferred "
        "guarding lock (or a verified caller-holds-lock helper)"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for facts in _class_facts(module, ctx):
            guarded: "dict[str, tuple[str, int]]" = {}
            for acc in facts.accesses:
                if acc.locks and acc.attr not in guarded:
                    guarded[acc.attr] = (
                        sorted(acc.locks)[0],
                        getattr(acc.node, "lineno", 1),
                    )
            for acc in _unlocked_writes(facts):
                guard = guarded.get(acc.attr)
                if guard is None:
                    continue  # never locked anywhere: thread-confined
                lock, locked_line = guard
                findings.append(
                    Finding(
                        path=module.path,
                        line=getattr(acc.node, "lineno", 1),
                        col=getattr(acc.node, "col_offset", 0),
                        rule=self.name,
                        message=(
                            f"{facts.name}.{acc.attr} is written in "
                            f"{acc.method} with no lock held, but is "
                            f"guarded by self.{lock} elsewhere (line "
                            f"{locked_line}) — take the lock or route "
                            "through a verified caller-holds-lock helper"
                        ),
                        severity=self.severity,
                        trace=(
                            TraceHop(
                                module.path, locked_line,
                                f"guarded-by inferred: {acc.attr} accessed "
                                f"under self.{lock}",
                            ),
                            TraceHop(
                                module.path,
                                getattr(acc.node, "lineno", 1),
                                f"unguarded write in {acc.method}",
                            ),
                        ),
                    )
                )
        return findings


class LockedLedgerMutationRule(Rule):
    """The accountant's atomic check-and-charge contract.

    In ``*Accountant`` classes the ledger attributes are guarded by
    declaration: a write to one (assignment, aug-assign, ``del``, subscript
    store or mutating call) with no lock held — outside ``__init__`` and
    outside a verified caller-holds-lock helper — lets racing spenders
    interleave past the cap.
    """

    name = "locked-ledger-mutation"
    severity = SEVERITY_ERROR
    description = (
        "accountant/ledger state mutates only under the ledger lock "
        "(atomic check-and-charge; racing spenders must never interleave "
        "past the cap)"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        return [
            self.finding(
                module, acc.node,
                f"ledger state {facts.name}.{acc.attr} mutated in "
                f"{acc.method} with no lock held (and not in a verified "
                "caller-holds-lock helper)",
            )
            for facts in _class_facts(module, ctx) if facts.ledger
            for acc in _unlocked_writes(facts)
            if _LEDGER_ATTR_RE.match(acc.attr)
        ]


class LocksetOrderCycleRule(Rule):
    """Lock acquisition order must be acyclic per class.

    If one code path takes A then B and another takes B then A, two
    threads can each hold one and wait forever on the other.  Edges come
    from lexical ``with`` nesting plus one hop through resolved
    intra-class calls.
    """

    name = "lockset-order-cycle"
    severity = SEVERITY_ERROR
    description = (
        "inconsistent lock-acquisition order (A→B on one path, B→A on "
        "another) — a two-thread deadlock waiting to happen"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for facts in _class_facts(module, ctx):
            edges = facts.order_edges
            adj: "dict[str, set[str]]" = {}
            for (a, b) in edges:
                adj.setdefault(a, set()).add(b)
            for (a, b), node in sorted(
                edges.items(),
                key=lambda kv: (getattr(kv[1], "lineno", 1), kv[0]),
            ):
                if self._reaches(adj, b, a):
                    findings.append(
                        Finding(
                            path=module.path,
                            line=getattr(node, "lineno", 1),
                            col=getattr(node, "col_offset", 0),
                            rule=self.name,
                            message=(
                                f"{facts.name}: acquiring self.{b} while "
                                f"holding self.{a} closes an acquisition-"
                                f"order cycle (self.{b} → … → self.{a} "
                                "elsewhere) — pick one global order"
                            ),
                            severity=self.severity,
                            trace=(
                                TraceHop(
                                    module.path,
                                    getattr(node, "lineno", 1),
                                    f"acquires self.{b} holding self.{a}",
                                ),
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _reaches(adj: "dict[str, set[str]]", src: str, dst: str) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False
