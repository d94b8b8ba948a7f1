"""The repro-lint rule suite: this codebase's DP and serving invariants.

Every rule here encodes a convention the repo already paid a bugfix PR for
(or a guarantee a later PR's correctness silently leans on):

==============================  =============================================
rule                            invariant (origin)
==============================  =============================================
no-float-epsilon-arithmetic     no float comparison / floor-division /
                                tolerance slack on epsilon values outside
                                ``privacy/budget.py`` — decisions route
                                through ``quantize_epsilon`` units (PR 5)
no-global-rng                   no argless ``default_rng()`` / module-level
                                ``np.random.*`` — byte-reproducibility
trace-key-hygiene               ``trace_id`` must not reach engine/cache key
                                or fingerprint constructions (PR 8)
monotonic-deadlines             ``time.time()`` is wall clock; deadlines use
                                ``time.monotonic()`` (PR 3 review)
fsync-in-hook                   every charge is durable before the first
                                draw: journal appends happen inside the
                                accountant mutation hook, never after a
                                charge returned, and no draw sits inside an
                                open commit scope (journal durability)
no-cached-envelope-mutation     objects from cache ``.get`` paths are
                                copy-on-write, never mutated in place (PR 8)
==============================  =============================================

The interprocedural rules (``charge-before-release``, taint, lockset and
``locked-ledger-mutation``) live in :mod:`repro.analysis.flow`; every run
checks both halves as one catalogue.  Heuristics are scoped to keep the signal clean (see each
rule's docstring); intentional exceptions carry
``# repro-lint: disable=<rule> — <reason>``.

Rules read the module's :class:`~repro.analysis.loader.ModuleIndex`,
built by the one walk of each tree in ``load_module``; none walks
``module.tree`` again.
"""

from __future__ import annotations

import ast
import re

from dataclasses import dataclass

from .callgraph import CallGraph
from .loader import Module
from .model import Finding, SEVERITY_ERROR, SEVERITY_WARNING


class Rule:
    """Base class: a named check producing findings for one module."""

    name: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""

    def check(self, module: Module, ctx: "LintContext") -> "list[Finding]":
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
            severity=self.severity,
        )


@dataclass
class LintContext:
    """Shared state handed to every rule."""

    modules: "list[Module]"
    callgraph: CallGraph


# --------------------------------------------------------------------------- #
# shared AST helpers
# --------------------------------------------------------------------------- #

def _attr_chain(node: ast.AST) -> "list[str]":
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a pure name chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _receiver_tail(func: ast.Attribute) -> str:
    """The innermost receiver name of ``<recv>.method`` (or '')."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


def _walk_no_lambda(node: ast.AST):
    """``ast.walk`` that does not descend into lambda/nested-def bodies."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        for child in ast.iter_child_nodes(n):
            if isinstance(
                child, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            stack.append(child)


def _calls_in_order(node: ast.AST) -> "list[ast.Call]":
    if isinstance(node, ast.Lambda):
        return []  # its body runs later, not where it is built
    return _sorted_calls(_walk_no_lambda(node))


def _sorted_calls(nodes) -> "list[ast.Call]":
    calls = [n for n in nodes if n.__class__ is ast.Call]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _qualname(func: ast.AST, class_name: "str | None") -> str:
    return f"{class_name + '.' if class_name else ''}{func.name}"


def _dotted(chain: "list[str]", aliases: "dict[str, str]") -> "list[str]":
    """A name chain spelled out through the module's import aliases.

    ``["npr", "rand"]`` under ``import numpy.random as npr`` ->
    ``["numpy", "random", "rand"]``; an unbound head stays as written.
    """
    if not chain or chain[0] not in aliases:
        return chain
    return aliases[chain[0]].split(".") + chain[1:]


def _norm_path(path: str) -> str:
    return path.replace("\\", "/")


# --------------------------------------------------------------------------- #
# charge/draw vocabulary (charge-before-release, no-global-rng, fsync-in-hook)
# --------------------------------------------------------------------------- #

#: Methods that charge a ledger.
CHARGE_METHODS = {"spend", "parallel", "spend_many"}

#: Receiver names that look like a ``numpy.random.Generator``.
GEN_NAME_RE = re.compile(r"^(gen|rng|g)$|(_rng|_gen)$|^generator$")

#: ``Generator`` sampling methods (drawing on one of these advances the
#: noise stream — i.e. it *is* the release, for accounting purposes).
GEN_DRAW_METHODS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "integers", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_hypergeometric", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f", "normal",
    "pareto", "permutation", "permuted", "poisson", "power", "random",
    "rayleigh", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
}

#: Mechanism methods/functions that draw noise internally.  ``release`` and
#: ``select`` additionally require at least one argument — ``lock.release()``
#: and GUI-ish ``x.select()`` are zero-arg, mechanism releases never are.
MECH_DRAW_METHODS = {
    "randomise", "randomize", "sample_noise", "noisy_scores", "release",
    "release_rows", "release_runs", "release_blocks", "release_column",
    "gumbel_rows", "select", "select_index", "select_indices", "select_batch",
}
_ARG_REQUIRED = {"release", "select"}

#: Plumbing that touches generators without drawing from them.
NEUTRAL_FUNCS = {
    "ensure_rng", "default_rng", "spawn", "check_epsilon",
    "quantize_epsilon", "batch_score_rows",
}


def is_charge_call(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in CHARGE_METHODS
    )


def is_draw_call(call: ast.Call) -> bool:
    func = call.func
    has_args = bool(call.args or call.keywords)
    if isinstance(func, ast.Attribute):
        if func.attr in MECH_DRAW_METHODS:
            return func.attr not in _ARG_REQUIRED or has_args
        if func.attr in GEN_DRAW_METHODS and GEN_NAME_RE.search(
            _receiver_tail(func)
        ):
            return True
        return False
    if isinstance(func, ast.Name):
        return func.id in MECH_DRAW_METHODS and (
            func.id not in _ARG_REQUIRED or has_args
        )
    return False


def references_accountant(nodes) -> bool:
    """Whether a function is responsible for accounting: among its own
    ``nodes`` it names an accountant (parameter, local,
    ``self._accountant``, ``accountant=``)."""
    for n in nodes:
        if isinstance(n, ast.Name) and n.id == "accountant":
            return True
        if isinstance(n, ast.Attribute) and n.attr in (
            "accountant", "_accountant"
        ):
            return True
        if isinstance(n, ast.keyword) and n.arg == "accountant":
            return True
    return False


# --------------------------------------------------------------------------- #
# no-float-epsilon-arithmetic
# --------------------------------------------------------------------------- #

EPS_NAME_RE = re.compile(r"(^|_)eps", re.IGNORECASE)


def _node_names(node: ast.AST) -> "list[str]":
    names: list[str] = []
    for n in _walk_no_lambda(node):
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            names.append(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            names.append(n.func.id)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            names.append(n.func.attr)
    return names


def _mentions_eps(node: ast.AST) -> bool:
    return any(EPS_NAME_RE.search(name) for name in _node_names(node))


def _routes_through_units(node: ast.AST) -> bool:
    return any(
        name == "quantize_epsilon" or "units" in name.lower()
        for name in _node_names(node)
    )


def _is_zero_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


class FloatEpsilonArithmeticRule(Rule):
    """PR 5's invariant: epsilon *decisions* happen on the integer grid.

    Budget splits (``eps / T``, ``eps / 2``) are mechanism parameterization
    and stay float — they feed noise scales, not admission decisions.  What
    this rule forbids, outside ``privacy/budget.py``:

    * ordering comparisons (``<``, ``<=``, ``>``, ``>=``) whose operands
      mention an ``eps*``/``epsilon*`` name — unless the expression routes
      through ``quantize_epsilon``/``*units*`` values, or compares against
      a literal ``0`` (sign checks are float-exact);
    * floor-division / modulo on epsilon values (``eps // (2 * probe)``
      mis-counts: ``0.3 // 0.1 == 2.0`` in binary floats);
    * any ``TOLERANCE`` name — the pre-PR-5 slack must never come back.
    """

    name = "no-float-epsilon-arithmetic"
    severity = SEVERITY_ERROR
    description = (
        "epsilon comparisons and floor-divisions outside privacy/budget.py "
        "must route through quantize_epsilon / integer units"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        if _norm_path(module.path).endswith("privacy/budget.py"):
            return []
        findings: list[Finding] = []
        index = module.index
        for node in index.of(ast.Name):
            if "TOLERANCE" in node.id:
                findings.append(
                    self.finding(
                        module, node,
                        f"tolerance slack {node.id!r} on the admission path "
                        "— the ledger's integer grid has no tolerance window",
                    )
                )
        for node in index.of(ast.Compare):
            if not any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                continue
            operands = [node.left, *node.comparators]
            if not any(_mentions_eps(o) for o in operands):
                continue
            if any(_is_zero_literal(o) for o in operands):
                continue  # sign check against literal zero: exact
            if _routes_through_units(node):
                continue
            findings.append(
                self.finding(
                    module, node,
                    "float ordering comparison on an epsilon value — "
                    "compare quantize_epsilon() integer units instead",
                )
            )
        for node in index.of(ast.BinOp):
            if not isinstance(node.op, (ast.FloorDiv, ast.Mod)):
                continue
            if not _mentions_eps(node):
                continue
            if _routes_through_units(node):
                continue
            op = "floor-division" if isinstance(node.op, ast.FloorDiv) \
                else "modulo"
            findings.append(
                self.finding(
                    module, node,
                    f"float {op} on an epsilon value mis-counts on "
                    "binary floats (0.3 // 0.1 == 2.0) — divide "
                    "quantize_epsilon() integer units instead",
                )
            )
        return findings


# --------------------------------------------------------------------------- #
# no-global-rng
# --------------------------------------------------------------------------- #

_NP_MODULE_RNG = GEN_DRAW_METHODS | {
    "seed", "rand", "randn", "randint", "random_sample", "ranf", "sample",
    "random_integers",
}
_STDLIB_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}


_ARGLESS_RNG = (
    "argless default_rng() seeds from OS entropy — releases stop being "
    "byte-reproducible; pass an explicit seed or Generator"
)


class GlobalRngRule(Rule):
    """Byte-reproducibility: all randomness flows from explicit generators.

    Flags an **argless** ``default_rng()`` (fresh OS entropy — two runs of
    the same release can never be byte-compared) and any call on the
    module-level ``np.random.*`` / stdlib ``random.*`` global state (shared
    across threads, reseedable from anywhere — the opposite of the
    per-request seed streams the service's byte-identity contract needs).
    """

    name = "no-global-rng"
    severity = SEVERITY_WARNING
    description = (
        "argless default_rng() / module-level np.random or random.* calls "
        "break byte-reproducibility of releases"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        aliases = module.index.aliases
        findings: list[Finding] = []
        for node in module.index.of(ast.Call):
            chain = _attr_chain(node.func)
            name = _dotted(chain, aliases)
            argless = not (node.args or node.keywords)
            if len(name) == 3 and name[:2] == ["numpy", "random"]:
                method = name[2]
                if method == "default_rng" and argless:
                    findings.append(self.finding(module, node, _ARGLESS_RNG))
                elif method in _NP_MODULE_RNG:
                    findings.append(
                        self.finding(
                            module, node,
                            f"np.random.{method} uses the process-global "
                            "RNG — draw from an explicit "
                            "numpy.random.Generator instead",
                        )
                    )
            elif (
                # `random` is a common variable name: only an import of
                # the stdlib module makes it one.
                name[:1] == ["random"]
                and len(name) == 2
                and chain[0] in aliases
                and name[1] in _STDLIB_RANDOM_FNS
            ):
                findings.append(
                    self.finding(
                        module, node,
                        f"random.{name[1]} uses the process-global RNG — "
                        "draw from an explicit numpy.random.Generator "
                        "instead",
                    )
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "default_rng"
                and argless
            ):
                findings.append(self.finding(module, node, _ARGLESS_RNG))
        return findings


# --------------------------------------------------------------------------- #
# trace-key-hygiene
# --------------------------------------------------------------------------- #

_KEY_FUNC_RE = re.compile(r"(^|_)(engine_key|cache_key|key)$|fingerprint|^signature$")
_OBS_FIELDS = {"trace_id", "last_trace_id"}


class TraceKeyHygieneRule(Rule):
    """PR 8's contract: tracing never splits coalescing or misses caches.

    Inside any function whose name looks like a key/fingerprint constructor
    (``engine_key``, ``cache_key``, ``*_key``, ``fingerprint*``,
    ``signature``), any reference to ``trace_id`` — as a name, an attribute,
    or the literal string ``"trace_id"`` — is flagged: a trace id in a cache
    or engine key would split request coalescing, miss every cache, and
    (worst) let observability metadata perturb which DP release a request
    maps to.
    """

    name = "trace-key-hygiene"
    severity = SEVERITY_ERROR
    description = (
        "trace_id/observability fields must not appear in engine_key/"
        "cache_key/fingerprint constructions"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for func, class_name in module.index.functions:
            if not _KEY_FUNC_RE.search(func.name):
                continue
            qual = _qualname(func, class_name)
            for node in module.index.own[func]:
                hit = None
                if isinstance(node, ast.Name) and node.id in _OBS_FIELDS:
                    hit = node.id
                elif isinstance(node, ast.Attribute) and node.attr in _OBS_FIELDS:
                    hit = node.attr
                elif isinstance(node, ast.Constant) and node.value in _OBS_FIELDS:
                    hit = node.value
                if hit is not None:
                    findings.append(
                        self.finding(
                            module, node,
                            f"{hit!r} referenced inside key constructor "
                            f"{qual} — observability fields are excluded "
                            "from release identity (they would split "
                            "coalescing and miss caches)",
                        )
                    )
        return findings


# --------------------------------------------------------------------------- #
# monotonic-deadlines
# --------------------------------------------------------------------------- #

class MonotonicDeadlinesRule(Rule):
    """Deadlines and timeouts must be immune to wall-clock steps.

    Flags **every** ``time.time()`` call: a wall-clock read that feeds any
    deadline, timeout, or duration arithmetic breaks under NTP steps and
    DST. ``time.monotonic()`` (or ``time.perf_counter()`` for spans) is the
    correct source.  Genuine wall-clock timestamps (e.g. a ``*_unix`` field
    exported for humans) are rare enough to carry an explicit suppression
    stating they never enter deadline math.
    """

    name = "monotonic-deadlines"
    severity = SEVERITY_ERROR
    description = (
        "time.time() is wall clock; deadline/timeout arithmetic uses "
        "time.monotonic() — display timestamps need an explicit suppression"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for node in module.index.of(ast.Call):
            chain = _attr_chain(node.func)
            if _dotted(chain, module.index.aliases) == ["time", "time"]:
                findings.append(
                    self.finding(
                        module, node,
                        "time.time() is wall clock (steps under NTP/DST) — "
                        "use time.monotonic() for deadlines/timeouts; a "
                        "genuine display timestamp needs a suppression "
                        "saying so",
                    )
                )
        return findings


# --------------------------------------------------------------------------- #
# fsync-in-hook
# --------------------------------------------------------------------------- #

_JOURNAL_APPEND_METHODS = {
    "append", "append_event", "append_record", "record", "write_event",
}
_JOURNAL_RECV_RE = re.compile(r"journal|store|ledger", re.IGNORECASE)

#: Context managers that defer journal fsyncs to their exit (the journal's
#: group commit): the charges made in the body are durable only after it.
COMMIT_SCOPE_FUNCS = {"commit_scope"}


class FsyncInHookRule(Rule):
    """The durability contract: every charge is durable before the first draw.

    The journal record for a charge is written *inside* the accountant's
    mutation observer, under the ledger lock, and fsync'd either there or
    when the enclosing journal commit scope exits — so no noise is ever
    drawn against an unpersisted reservation.  This rule flags the two
    anti-patterns that would silently re-open the crash window:

    * a journal/store append (or raw ``os.fsync``/``_fsync_write``) issued
      *after* a charge call in the same function body — durability bolted
      on after the charge already returned;
    * a noise draw lexically inside an open ``with commit_scope():`` body —
      the scope's charges become durable only at its exit, so the draw
      must follow the ``with``.
    """

    name = "fsync-in-hook"
    severity = SEVERITY_ERROR
    description = (
        "every charge must be durable before the first draw: journal "
        "appends belong inside the accountant mutation hook, not after a "
        "charge returned, and draws follow an open commit scope's exit"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        # Only a module naming a commit scope can open one: skip the walk
        # for draws inside scopes everywhere else.
        scoped = any(name in module.source for name in COMMIT_SCOPE_FUNCS)
        for func, class_name in module.index.functions:
            own = module.index.own[func]
            qual = _qualname(func, class_name)
            if scoped:
                findings.extend(self._draws_in_open_scope(module, own, qual))
            charged_line: "int | None" = None
            for call in _sorted_calls(own):
                if is_charge_call(call):
                    charged_line = charged_line or call.lineno
                    continue
                if charged_line is None:
                    continue
                if self._is_journal_append(call):
                    findings.append(
                        self.finding(
                            module, call,
                            f"journal append in {qual} after the charge on "
                            f"line {charged_line} returned — write it in "
                            "the accountant's mutation hook instead, so a "
                            "crash cannot separate the charge from its "
                            "durability record",
                        )
                    )
        return findings

    def _draws_in_open_scope(self, module, own, qual) -> "list[Finding]":
        findings: list[Finding] = []
        seen: "set[int]" = set()  # a draw inside nested scopes reports once
        for node in own:
            if not isinstance(node, (ast.With, ast.AsyncWith)) or not any(
                self._is_commit_scope(item.context_expr) for item in node.items
            ):
                continue
            for stmt in node.body:
                for call in _calls_in_order(stmt):
                    if is_draw_call(call) and id(call) not in seen:
                        seen.add(id(call))
                        findings.append(self.finding(
                            module, call,
                            f"noise draw in {qual} inside an open commit "
                            f"scope (line {node.lineno}) — its charges are "
                            "not durable until the scope exits; draw after "
                            "the with block",
                        ))
        return findings

    @staticmethod
    def _is_commit_scope(expr: ast.AST) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", "")
        return name in COMMIT_SCOPE_FUNCS

    @staticmethod
    def _is_journal_append(call: ast.Call) -> bool:
        func = call.func
        chain = _attr_chain(func)
        if chain[-2:] == ["os", "fsync"] or chain == ["os", "fsync"]:
            return True
        if isinstance(func, ast.Name) and func.id == "_fsync_write":
            return True
        if isinstance(func, ast.Attribute) and \
                func.attr in _JOURNAL_APPEND_METHODS:
            receiver = _receiver_tail(func)
            return bool(_JOURNAL_RECV_RE.search(receiver))
        return False


# --------------------------------------------------------------------------- #
# no-cached-envelope-mutation
# --------------------------------------------------------------------------- #

_CACHE_RECV_RE = re.compile(r"cache|cached", re.IGNORECASE)
_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}


class CachedEnvelopeMutationRule(Rule):
    """PR 8's copy-on-write contract for cached payloads.

    A value fetched through a cache ``.get`` path is shared: mutating it in
    place (subscript store, ``del``, ``.update/.setdefault/.pop/...``)
    poisons every future hit — the bug class PR 8 closed by attaching
    ``trace_id`` copy-on-write.  Tracked per function: names bound from a
    ``<...cache...>.get(...)`` call; mutations of a tracked name (until it
    is rebound) are flagged.  ``entry.payload()`` copies are deliberately
    not tracked — that is the sanctioned mutation route.
    """

    name = "no-cached-envelope-mutation"
    severity = SEVERITY_ERROR
    description = (
        "objects returned from cache .get paths are shared — mutate a "
        "copy (dict(x) / entry.payload()), never the cached object"
    )

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for func, class_name in module.index.functions:
            own = module.index.own[func]
            # Every finding needs a cache .get among the def's own calls.
            if not any(
                n.__class__ is ast.Call and self._is_cache_get(n) for n in own
            ):
                continue
            qual = _qualname(func, class_name)
            tracked: set[str] = set()
            for stmt in self._linear_statements(func, own):
                self._scan_statement(module, stmt, tracked, qual, findings)
        return findings

    @staticmethod
    def _linear_statements(func, own):
        """Every statement in the function, in source order."""
        stmts = [n for n in own if isinstance(n, ast.stmt) and n is not func]
        stmts.sort(key=lambda s: (s.lineno, s.col_offset))
        return stmts

    def _scan_statement(self, module, stmt, tracked, qual, findings):
        def msg(name):
            return (
                f"{name!r} came from a cache .get path in {qual} — mutating "
                "it in place poisons every future cache hit; mutate a copy "
                "(dict(x) / entry.payload()) instead"
            )

        if isinstance(stmt, ast.Assign):
            from_cache = any(
                self._is_cache_get(c) for c in _calls_in_order(stmt.value)
            )
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    if from_cache:
                        tracked.add(t.id)
                    else:
                        tracked.discard(t.id)
                elif isinstance(t, ast.Subscript) and \
                        self._names_tracked_base(t.value, tracked):
                    findings.append(self.finding(
                        module, stmt, msg(self._base_name(t.value))))
                elif isinstance(t, ast.Subscript) and any(
                    self._is_cache_get(c) for c in _calls_in_order(t.value)
                ):
                    findings.append(self.finding(
                        module, stmt,
                        f"subscript store into a cache .get result in {qual}"
                        " — mutate a copy, never the cached object"))
        elif isinstance(stmt, ast.AugAssign):
            t = stmt.target
            if isinstance(t, ast.Subscript) and \
                    self._names_tracked_base(t.value, tracked):
                findings.append(self.finding(
                    module, stmt, msg(self._base_name(t.value))))
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Subscript) and \
                        self._names_tracked_base(t.value, tracked):
                    findings.append(self.finding(
                        module, stmt, msg(self._base_name(t.value))))
        elif isinstance(stmt, ast.Expr):
            for call in _calls_in_order(stmt):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _DICT_MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in tracked
                ):
                    findings.append(self.finding(
                        module, call, msg(func.value.id)))

    @staticmethod
    def _is_cache_get(call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "get"):
            return False
        return any(
            _CACHE_RECV_RE.search(part) for part in _attr_chain(func.value)
        )

    @staticmethod
    def _base_name(node: ast.AST) -> str:
        return node.id if isinstance(node, ast.Name) else "<expr>"

    @staticmethod
    def _names_tracked_base(node: ast.AST, tracked: "set[str]") -> bool:
        return isinstance(node, ast.Name) and node.id in tracked


#: The shipping rule suite, in catalogue order.
ALL_RULES: "tuple[Rule, ...]" = (
    FloatEpsilonArithmeticRule(),
    GlobalRngRule(),
    TraceKeyHygieneRule(),
    MonotonicDeadlinesRule(),
    FsyncInHookRule(),
    CachedEnvelopeMutationRule(),
)

RULE_NAMES: "tuple[str, ...]" = tuple(rule.name for rule in ALL_RULES)
