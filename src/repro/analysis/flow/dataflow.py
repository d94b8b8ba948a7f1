"""The fixpoint interprocedural dataflow engine behind the flow rules.

One analysis unit is a function body.  The transfer function walks its
statements in source order, carrying an environment that maps local names
(and ``self.<attr>`` pseudo-names) to sets of :class:`Taint` values.  Taint
enters at *sources* (raw row/count accessors from the privacy manifest),
stops at *sanitizers* (mechanism release methods), and is reported when it
reaches a *sink* (envelope constructions, logging, metrics label values,
journal records, frame writers, trace attachments, exception messages).

The same walk carries a ``charged`` flag for ``charge-before-release``:
a ledger charge sets it, branches OR it (any path), and a noise draw made
while it is unset is a hit on the ``uncharged-draw`` channel.

Interprocedural propagation is context-insensitive: each function gets a
:class:`FunctionSummary` saying (a) what its return value's taint is in
terms of its parameters and any internal sources, (b) which parameters
flow into sinks inside it, (c) whether some path through it charges, and
(d) the hops to its first draw made before any charge.  Summaries are
computed over the extended call graph (``analysis/callgraph.py`` —
``name()``, ``self.m()``, ``Cls.m()``, ``super().m()``, ``pkg.mod.fn()``)
by iterating :func:`fixpoint` until no summary changes.  Taint summaries
and ``charges`` only ever grow (``charges`` never reads ``draws_first``).
``draws_first`` can shrink when a callee's ``charges`` flips.  A callee
draw trace that re-enters the caller is not taken in: draws do not depend
on parameters, so the caller's own walk reaches that draw without the
cycle.  A param-to-sink trace that re-enters the caller is kept only as
the shortest trace of its (param, channel) (see
:meth:`_State.settled_param_sinks`), so call cycles stop extending those
traces and converge.  Return taints are taken in whole: their traces do
not grow around the cycles of this tree.  :data:`MAX_ROUNDS` bounds the
iteration regardless.

Each round walks only the *dirty* functions.  Every function starts
dirty, and every walk records, at each resolved call, the reverse edge
callee -> caller.  A walk reads nothing but its body and the summaries
of the callees it resolves, and which calls resolve is fixed by the body
alone.  So when a summary changes, its callers become dirty and are
walked later in the same round (if they come later in source order) or
in the next, and nothing else needs a walk: the summaries and round
count are those of walking every function every round, at about one
walk per function.

Findings come from the same walks.  Each walk also collects its hits,
replacing those of the function's earlier walk; a function is walked
again whenever a summary it read changes, so at convergence its last
walk read the final summaries, and its hits are those a reporting pass
over every function would record.  Only when :data:`MAX_ROUNDS` cuts the
iteration short are functions left dirty, and those are walked once
more.  A ``def`` nested in a body is walked with it, and its reads count
as its outer function's.  Tests pin all of this against a reference
that walks every function every round and then reports.

Every taint carries a bounded trace of :class:`~repro.analysis.model.
TraceHop` — the evidence path rendered into the v2 JSON schema.
"""

from __future__ import annotations

import ast

from collections import defaultdict
from dataclasses import dataclass, field

from ..callgraph import CallGraph, FunctionInfo
from ..loader import Module
from ..model import TraceHop
from ..rules import NEUTRAL_FUNCS, is_charge_call, is_draw_call

#: Caps keeping the taint lattice finite: hops per trace, taints per value.
MAX_TRACE_HOPS = 16
MAX_TAINTS = 32
#: Fixpoint iteration bound (reached only by pathological call cycles).
MAX_ROUNDS = 12

TAG_DATA = "data"   # derived from raw rows/counts
TAG_EXC = "exc"     # text of a broadly-caught exception (may embed raw data)
TAG_DRAW = "draw"   # a noise draw made before any ledger charge

#: Hit channel of a noise draw reached before any ledger charge.
CHANNEL_DRAW = "uncharged-draw"

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Builtins whose results never carry their arguments' data.
CLEAN_FUNCS = {
    "type", "isinstance", "issubclass", "hasattr", "callable", "super",
    "range", "enumerate", "id", "iter", "next", "property", "classmethod",
    "staticmethod",
}


@dataclass(frozen=True)
class TaintConfig:
    """The vocabularies the transfer function classifies call sites with."""

    source_methods: "frozenset[str]"
    source_attrs: "frozenset[str]"
    source_recv_re: "object"          # compiled regex over receiver names
    sanitizers: "frozenset[str]"
    sink_channels: "dict[str, frozenset[str]]"
    #: Calls never counted as draws or charges (public data generators).
    public_generators: "frozenset[str]" = frozenset()


@dataclass(frozen=True)
class Taint:
    """One tracked taint on a value.

    ``kind`` is ``"source"`` (originates inside the analysed body or a
    callee) or ``"param"`` (flows from the enclosing function's parameter
    ``param`` — the currency of summaries).  ``tag`` distinguishes raw
    row/count data from broad-exception text, which feed different rules.
    """

    kind: str            # "source" | "param"
    tag: str = TAG_DATA
    param: int = -1
    trace: "tuple[TraceHop, ...]" = ()

    def with_hop(self, hop: TraceHop) -> "Taint":
        if len(self.trace) >= MAX_TRACE_HOPS:
            return self
        return Taint(self.kind, self.tag, self.param, self.trace + (hop,))

    def sort_key(self):
        return (self.kind, self.tag, self.param, len(self.trace),
                tuple((h.path, h.line, h.note) for h in self.trace))


@dataclass(frozen=True)
class SinkHit:
    """A taint reaching a sink — a finding (source-kind) or a summary entry
    (param-kind, reported at whichever caller supplies tainted data)."""

    channel: str
    node_line: int
    node_col: int
    taint: Taint
    hop: TraceHop  # the sink hop itself


@dataclass(frozen=True)
class FunctionSummary:
    """Context-insensitive effect of calling one function."""

    #: Taints of the return value (param-kind entries mean flow-through).
    returns: "frozenset[Taint]" = frozenset()
    #: (param index, channel, hops from param entry to sink incl. sink hop).
    param_sinks: "frozenset[tuple[int, str, tuple[TraceHop, ...]]]" = frozenset()
    #: Some path through the body charges the ledger.
    charges: bool = False
    #: Hops from the body to its first draw made before any charge (empty
    #: when there is none).
    draws_first: "tuple[TraceHop, ...]" = ()


def fixpoint(step, max_rounds: int = MAX_ROUNDS) -> int:
    """Iterate ``step()`` (returns True when anything changed) to stability.

    The shared driver for taint summaries and the lockset caller-holds-lock
    inference.  Returns the number of rounds taken.
    """
    for i in range(max_rounds):
        if not step():
            return i + 1
    return max_rounds


def _key(info: FunctionInfo) -> "tuple[str, str]":
    return (info.module.path, info.qualname)


def _limit(taints: "set[Taint]") -> "frozenset[Taint]":
    if len(taints) <= MAX_TAINTS:
        return frozenset(taints)
    return frozenset(sorted(taints, key=Taint.sort_key)[:MAX_TAINTS])


def _receiver_tail(node: ast.AST) -> str:
    """The innermost receiver name of ``<recv>.attr`` (or '')."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _receiver_tail(node.func)
    return ""


def _const_keys(node: ast.Dict) -> "set[str]":
    return {
        k.value
        for k in node.keys
        if isinstance(k, ast.Constant) and isinstance(k.value, str)
    }


class FlowAnalysis:
    """Whole-tree taint analysis: summaries and findings by one fixpoint.

    Construct once per lint run (the flow rules share one instance through
    the :class:`~repro.analysis.rules.LintContext` cache), then read
    ``hits`` — every source-kind taint that reached a sink, attributed to
    the module/function where source and sink met, and every draw made
    before any charge, attributed to the function that made or called it.
    ``hits`` are kept from each function's last walk of the fixpoint and
    listed in call-graph order, a function's nested defs before its own.
    """

    def __init__(self, modules: "list[Module]", callgraph: CallGraph,
                 config: TaintConfig):
        self.modules = modules
        self.callgraph = callgraph
        self.config = config
        self.summaries: "dict[tuple[str, str], FunctionSummary]" = {}
        #: Every source-kind sink hit and uncharged draw, with the module
        #: and function it is reported in.
        self.hits: "list[tuple[Module, FunctionInfo, SinkHit]]" = []
        #: callee key -> keys of the functions whose bodies resolve a call
        #: to it: the summaries each walk reads, recorded as it reads them.
        self._callers: "defaultdict[tuple[str, str], set]" = defaultdict(set)
        self._ran = False

    # ------------------------------------------------------------------ #

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        infos = list(self.callgraph.functions.items())
        dirty = {key for key, _ in infos}
        #: function key -> the hits of its latest walk (closures' first)
        found: "dict[tuple[str, str], list]" = {}

        def walk(key, info) -> FunctionSummary:
            found[key] = []
            return self._analyze(info, found[key])

        def round_() -> bool:
            changed = False
            for key, info in infos:
                if key not in dirty:
                    continue
                dirty.discard(key)
                new = walk(key, info)
                if self.summaries.get(key) != new:
                    self.summaries[key] = new
                    dirty.update(self._callers[key])
                    changed = True
            return changed

        self.rounds = fixpoint(round_)
        # A function is dirty here only when the round cap cut the
        # iteration short: its last walk read a summary changed since.
        for key, info in infos:
            if key in dirty:
                walk(key, info)
        self.hits = [hit for key, _ in infos for hit in found[key]]

    # ------------------------------------------------------------------ #
    # per-function transfer
    # ------------------------------------------------------------------ #

    def _analyze(self, info: FunctionInfo,
                 collect: "list[tuple[Module, FunctionInfo, SinkHit]]",
                 unit: "tuple[str, str] | None" = None) -> FunctionSummary:
        """Walk one body: return its summary and append its hits to
        ``collect``, the draws of the defs nested in it before its own.

        ``unit`` is the call-graph function this walk belongs to: a nested
        def's reads of callee summaries count as its outer function's, so
        a change to one of them walks the outer function again.
        """
        unit = unit or _key(info)
        node = info.node
        env: "dict[str, set[Taint]]" = {}
        params = [a.arg for a in (
            list(node.args.posonlyargs) + list(node.args.args)
        )]
        offset = 1 if params and params[0] in ("self", "cls") else 0
        for i, name in enumerate(params[offset:]):
            env[name] = {Taint("param", param=i)}
        state = _State(self, info, env, unit)
        state.exec_stmts(node.body)
        for inner in state.closures.values():
            self._walk_closure(info, inner, collect, unit)
        collect.extend((info.module, info, hit) for hit in state.hits)
        return FunctionSummary(
            returns=_limit(state.returns),
            param_sinks=state.settled_param_sinks(),
            charges=state.charged,
            draws_first=state.draws_first,
        )

    def _walk_closure(self, outer: FunctionInfo, node, collect,
                      unit: "tuple[str, str]") -> None:
        """A def nested in a body is no call-graph node: walk it with its
        outer function for its own draws only (closures were never taint
        units)."""
        qual = f"{outer.class_name}.{node.name}" if outer.class_name \
            else node.name
        info = FunctionInfo(outer.module, node, qual, outer.class_name)
        inner: "list[tuple[Module, FunctionInfo, SinkHit]]" = []
        self._analyze(info, inner, unit)
        collect.extend(
            entry for entry in inner if entry[2].channel == CHANNEL_DRAW
        )


class _State:
    """Mutable walk state for one function body."""

    def __init__(self, analysis: FlowAnalysis, info: FunctionInfo,
                 env: "dict[str, set[Taint]]", unit: "tuple[str, str]"):
        self.a = analysis
        self.info = info
        self.env = env
        #: The call-graph function whose walk this is (see ``_analyze``).
        self.unit = unit
        #: Source-kind taints at sinks and draws before any charge, in
        #: walk order.
        self.hits: "list[SinkHit]" = []
        self.returns: "set[Taint]" = set()
        self.param_sinks: "set[tuple[int, str, tuple[TraceHop, ...]]]" = set()
        #: Param-to-sink entries routed through a callee that calls back
        #: into this function; see :meth:`settled_param_sinks`.
        self.cycle_sinks: "set[tuple[int, str, tuple[TraceHop, ...]]]" = set()
        self.charged = False
        self.draws_first: "tuple[TraceHop, ...]" = ()
        self.closures: "dict[int, ast.FunctionDef]" = {}

    @property
    def path(self) -> str:
        return self.info.module.path

    # -- statements ----------------------------------------------------- #

    def exec_stmts(self, stmts) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.closures[id(stmt)] = stmt  # walked after this body
            return
        if isinstance(stmt, ast.ClassDef):
            return  # nested scopes are their own analysis unit
        if isinstance(stmt, ast.Assign):
            taints = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval_expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self.eval_expr(stmt.value) | self._read_target(stmt.target)
            self._bind(stmt.target, taints, weak=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self._exec_raise(stmt)
        elif isinstance(stmt, ast.If):
            self.eval_expr(stmt.test)
            self._branch([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taints = self.eval_expr(stmt.iter)
            self._bind(stmt.target, iter_taints)
            # Two passes pick up loop-carried one-step chains.
            self._branch([stmt.body])
            self._branch([stmt.body])
            self.exec_stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval_expr(stmt.test)
            self._branch([stmt.body])
            self._branch([stmt.body])
            self.exec_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints)
            self.exec_stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            charged = self.charged
            self._branch([stmt.body])
            after = self.charged
            for handler in stmt.handlers:
                saved = {k: set(v) for k, v in self.env.items()}
                if handler.name:
                    self.env[handler.name] = self._exception_taint(handler)
                self.charged = charged  # the body may have failed first
                self.exec_stmts(handler.body)
                for k, v in saved.items():
                    self.env.setdefault(k, set()).update(v)
            self.charged = after
            self.exec_stmts(stmt.orelse)
            self.exec_stmts(stmt.finalbody)
        elif isinstance(stmt, (ast.Expr, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        # Pass/Import/Global/Nonlocal/Break/Continue: nothing to do.

    def _branch(self, bodies) -> None:
        merged: "dict[str, set[Taint]]" = {
            k: set(v) for k, v in self.env.items()
        }
        base = {k: set(v) for k, v in self.env.items()}
        base_charged = charged = self.charged
        for body in bodies:
            self.env = {k: set(v) for k, v in base.items()}
            self.charged = base_charged
            self.exec_stmts(body)
            for k, v in self.env.items():
                merged.setdefault(k, set()).update(v)
            # Any path: `if accountant is not None: accountant.spend(...)`
            # is the charging idiom; the other branch has nothing to fund.
            charged = charged or self.charged
        self.env = merged
        self.charged = charged

    def _exception_taint(self, handler: ast.ExceptHandler) -> "set[Taint]":
        """A broadly-caught exception's text may embed raw values."""
        types = []
        t = handler.type
        if isinstance(t, ast.Tuple):
            types = list(t.elts)
        elif t is not None:
            types = [t]
        broad = t is None or any(
            isinstance(x, ast.Name) and x.id in _BROAD_EXCEPTIONS
            for x in types
        )
        if not broad:
            return set()
        hop = TraceHop(
            self.path, handler.lineno,
            "broad `except Exception` binds unredacted exception text",
        )
        return {Taint("source", tag=TAG_EXC, trace=(hop,))}

    def _exec_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return  # bare re-raise keeps the original object: fine
        if isinstance(stmt.exc, ast.Call):
            for arg in list(stmt.exc.args) + [
                k.value for k in stmt.exc.keywords
            ]:
                taints = self.eval_expr(arg)
                self._sink("exception", stmt.exc, taints,
                           "tainted value in a raised exception message")
            self.eval_expr(stmt.exc)
        else:
            self.eval_expr(stmt.exc)

    # -- binding -------------------------------------------------------- #

    def _bind(self, target: ast.AST, taints: "set[Taint]",
              weak: bool = False) -> None:
        if isinstance(target, ast.Name):
            if weak:
                self.env.setdefault(target.id, set()).update(taints)
            else:
                self.env[target.id] = set(taints)
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            key = f"self.{target.attr}"
            self.env.setdefault(key, set()).update(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taints, weak=weak)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taints, weak=weak)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(taints)
            elif isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and \
                    base.value.id == "self":
                self.env.setdefault(f"self.{base.attr}", set()).update(taints)

    def _read_target(self, target: ast.AST) -> "set[Taint]":
        if isinstance(target, ast.Name):
            return set(self.env.get(target.id, ()))
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            return set(self.env.get(f"self.{target.attr}", ()))
        return set()

    # -- expressions ---------------------------------------------------- #

    def eval_expr(self, node: ast.expr) -> "set[Taint]":
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Dict):
            return self._eval_dict(node)
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return self.eval_expr(node.body) | self.eval_expr(node.orelse)
        # Generic: union over child expressions (BinOp, BoolOp, Compare,
        # JoinedStr, Subscript, Tuple, List, Set, Starred, UnaryOp, ...).
        out: "set[Taint]" = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval_expr(child)
        return out

    def _eval_attribute(self, node: ast.Attribute) -> "set[Taint]":
        cfg = self.a.config
        out: "set[Taint]" = set()
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            out |= self.env.get(f"self.{node.attr}", set())
        out |= self.eval_expr(node.value)
        if node.attr in cfg.source_attrs and cfg.source_recv_re.search(
            _receiver_tail(node.value) or ""
        ):
            hop = TraceHop(
                self.path, node.lineno,
                f"source: {_receiver_tail(node.value)}.{node.attr}",
            )
            out = set(out)
            out.add(Taint("source", trace=(hop,)))
        return out

    def _eval_comprehension(self, node) -> "set[Taint]":
        out: "set[Taint]" = set()
        for gen in node.generators:
            taints = self.eval_expr(gen.iter)
            self._bind(gen.target, taints)
            for cond in gen.ifs:
                self.eval_expr(cond)
        if isinstance(node, ast.DictComp):
            out |= self.eval_expr(node.key) | self.eval_expr(node.value)
        else:
            out |= self.eval_expr(node.elt)
        return out

    def _eval_dict(self, node: ast.Dict) -> "set[Taint]":
        out: "set[Taint]" = set()
        keys = _const_keys(node)
        is_envelope = "status" in keys and ({"error", "result", "code"} & keys)
        for key, value in zip(node.keys, node.values):
            if key is not None:
                self.eval_expr(key)
            if value is None:
                continue
            taints = self.eval_expr(value)
            out |= taints
            if is_envelope and taints:
                self._sink(
                    "envelope", value, taints,
                    "tainted value in a response/error envelope",
                )
        return out

    # -- calls ---------------------------------------------------------- #

    def _eval_call(self, node: ast.Call) -> "set[Taint]":
        cfg = self.a.config
        func = node.func
        callee_name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else ""
        )
        arg_nodes = list(node.args) + [k.value for k in node.keywords]
        arg_taints = [self.eval_expr(a) for a in arg_nodes]
        union_args: "set[Taint]" = set()
        for t in arg_taints:
            union_args |= t

        # Sinks first: a sanitizer name can never be a sink in this suite.
        self._check_call_sinks(node, callee_name, arg_nodes, arg_taints)
        # The arguments are walked, so a draw in one counts before the call.
        info = self.a.callgraph.resolve(
            node, self.info.module, self.info.class_name
        )
        if info is not None:
            self.a._callers[_key(info)].add(self.unit)
        self._order_call(node, callee_name, info)

        # Sanitizer: the returned value is differentially private.
        if callee_name in cfg.sanitizers:
            return set()

        # Source accessor.
        if callee_name in cfg.source_methods and isinstance(
            func, ast.Attribute
        ) and cfg.source_recv_re.search(_receiver_tail(func.value) or ""):
            hop = TraceHop(
                self.path, node.lineno,
                f"source: {_receiver_tail(func.value)}.{callee_name}()",
            )
            return {Taint("source", trace=(hop,))}

        # Resolved callee: substitute its summary.
        if info is not None:
            return self._apply_summary(node, info, arg_nodes, arg_taints)

        if callee_name in CLEAN_FUNCS:
            return set()
        # Unresolved: conservative pass-through of argument taint, plus the
        # receiver's own taint for method calls (str(x), x.format(...), ...).
        if isinstance(func, ast.Attribute):
            union_args |= self.eval_expr(func.value)
        return union_args

    def _summary(self, info: FunctionInfo) -> FunctionSummary:
        return self.a.summaries.get(_key(info), FunctionSummary())

    def _order_call(self, node: ast.Call, callee_name: str,
                    info: "FunctionInfo | None") -> None:
        """Charge-before-release: does this call charge, draw, or both?"""
        if self.charged or callee_name in NEUTRAL_FUNCS or \
                callee_name in self.a.config.public_generators:
            return
        if is_charge_call(node):
            self.charged = True
        elif is_draw_call(node):
            func = node.func
            recv = f"{_receiver_tail(func.value)}." \
                if isinstance(func, ast.Attribute) else ""
            self._draw(node, (TraceHop(
                self.path, node.lineno, f"draw: {recv}{callee_name}()"
            ),))
        elif info is not None:
            summary = self._summary(info)
            if summary.draws_first and not self._reenters(summary.draws_first):
                self._draw(node, (TraceHop(
                    self.path, node.lineno, f"call: {info.qualname}"
                ),) + summary.draws_first)
            self.charged = summary.charges

    def _reenters(self, trace: "tuple[TraceHop, ...]") -> bool:
        """Whether a callee's draw or param-to-sink trace calls back into
        this function.  Both run in call order: a ``call: f`` hop, then
        the hops inside ``f``.  Return traces run the other way (source
        first, each caller appending its hop), so this test does not
        apply to them."""
        note = f"call: {self.info.qualname}"
        return any(
            hop.note == note and nxt.path == self.path
            for hop, nxt in zip(trace, trace[1:])
        )

    def _draw(self, node: ast.Call, trace: "tuple[TraceHop, ...]") -> None:
        """A draw made before any charge: the summary keeps the first, the
        hits every one."""
        if not self.draws_first:
            self.draws_first = trace
        self.hits.append(SinkHit(
            channel=CHANNEL_DRAW,
            node_line=node.lineno,
            node_col=node.col_offset,
            taint=Taint("source", tag=TAG_DRAW, trace=trace),
            hop=trace[-1],
        ))

    def _apply_summary(self, node: ast.Call, info: FunctionInfo,
                       arg_nodes, arg_taints) -> "set[Taint]":
        summary = self._summary(info)
        params = [a.arg for a in (
            list(info.node.args.posonlyargs) + list(info.node.args.args)
        )]
        offset = 1 if params and params[0] in ("self", "cls") else 0
        names = params[offset:]

        def taints_of_param(i: int) -> "set[Taint]":
            # Map the callee's param index back to this call's arguments.
            pos = 0
            for arg_node, taints in zip(arg_nodes, arg_taints):
                kw = None
                for k in node.keywords:
                    if k.value is arg_node:
                        kw = k.arg
                        break
                if kw is not None:
                    if i < len(names) and names[i] == kw:
                        return taints
                else:
                    if pos == i:
                        return taints
                    pos += 1
            return set()

        call_hop = TraceHop(
            self.path, node.lineno, f"call: {info.qualname}"
        )
        out: "set[Taint]" = set()
        for t in summary.returns:
            if t.kind == "source":
                out.add(t.with_hop(call_hop))
            else:
                for at in taints_of_param(t.param):
                    out.add(at.with_hop(call_hop))
        for param_idx, channel, hops in summary.param_sinks:
            cycle = self._reenters(hops)
            for at in taints_of_param(param_idx):
                routed = at.with_hop(call_hop)
                for hop in hops:
                    routed = routed.with_hop(hop)
                if cycle and routed.kind == "param":
                    self.cycle_sinks.add((routed.param, channel, routed.trace))
                else:
                    self._record_hit(channel, node, routed)
        return out

    # -- sinks ---------------------------------------------------------- #

    def _check_call_sinks(self, node: ast.Call, callee_name: str,
                          arg_nodes, arg_taints) -> None:
        cfg = self.a.config
        func = node.func
        recv = _receiver_tail(func.value) if isinstance(func, ast.Attribute) \
            else ""
        channels = cfg.sink_channels

        def flag(channel: str, nodes_and_taints, note: str) -> None:
            for arg_node, taints in nodes_and_taints:
                self._sink(channel, arg_node, taints, note)

        pairs = list(zip(arg_nodes, arg_taints))
        if callee_name in channels.get("log", ()) and (
            recv.lower().endswith(("log", "logger", "logging"))
            or recv in ("logging",)
        ):
            flag("log", pairs, "tainted value in a log call")
        if callee_name in channels.get("metric-label", ()):
            for k, (arg_node, taints) in zip(node.keywords, pairs[len(node.args):]):
                if k.arg == "labels":
                    flag("metric-label", [(arg_node, taints)],
                         "tainted value used as a metrics label")
        if callee_name in channels.get("journal", ()) and (
            "journal" in recv.lower() or "store" in recv.lower()
            or "ledger" in recv.lower()
        ):
            flag("journal", pairs, "tainted value in a journal record")
        if callee_name in channels.get("frame", ()):
            flag("frame", pairs, "tainted value in a frame/HTTP payload")
        if callee_name in channels.get("trace", ()):
            # attach_trace(envelope, trace_id): the trace id is the sink.
            flag("trace", pairs[1:], "tainted value attached to a trace")

    def _sink(self, channel: str, node: ast.AST, taints: "set[Taint]",
              note: str) -> None:
        for taint in taints:
            hop = TraceHop(
                self.path, getattr(node, "lineno", 1), f"sink: {note}"
            )
            self._record_hit(channel, node, taint.with_hop(hop))

    def _record_hit(self, channel: str, node: ast.AST, taint: Taint) -> None:
        if taint.kind == "param":
            # Report at the caller that supplies tainted data: publish the
            # path from our parameter to this sink in the summary.
            self.param_sinks.add((taint.param, channel, taint.trace))
            return
        self.hits.append(
            SinkHit(
                channel=channel,
                node_line=getattr(node, "lineno", 1),
                node_col=getattr(node, "col_offset", 0),
                taint=taint,
                hop=taint.trace[-1] if taint.trace else TraceHop(
                    self.path, getattr(node, "lineno", 1), "sink"
                ),
            )
        )

    def settled_param_sinks(self) -> "frozenset":
        """This walk's param-to-sink entries for the summary.

        An entry that re-enters this function through a call cycle is kept
        only where it is the shortest trace of its (param, channel).  The
        keys a caller can be reported on stay the same, and so does the
        shortest trace, the one a finding shows (below
        :data:`MAX_TRACE_HOPS`); the longer laps of the cycle, which would
        grow each round, are dropped.  A source routed into a cycle is a
        hit, never an entry, so it is always reported.
        """
        if not self.cycle_sinks:
            return frozenset(self.param_sinks)
        best: dict = {}
        for entry in self.param_sinks | self.cycle_sinks:
            order = (len(entry[2]),
                     tuple((h.path, h.line, h.note) for h in entry[2]))
            key = entry[:2]
            if key not in best or order < best[key][0]:
                best[key] = (order, entry)
        shortest = {entry for _, entry in best.values()}
        return frozenset(self.param_sinks | (self.cycle_sinks & shortest))
