"""Privacy rules over the interprocedural dataflow engine.

Three rules share one :class:`~repro.analysis.flow.dataflow.FlowAnalysis`
(computed once per lint run, cached on the :class:`LintContext`):

``charge-before-release``
    In a function responsible for accounting, no noise draw — direct or
    through any number of calls — may happen before the ledger charge that
    funds it (PR 4's ``DPKMeans.fit`` bug).

``taint-unsanitized-release``
    A value derived from raw rows/counts (a *source* per the privacy
    manifest) reaches an output channel — envelope, log, metrics label,
    journal record, frame payload, trace attachment — without crossing a
    registered DP mechanism release (*sanitizer*).  This is the paper's
    core guarantee, checked statically on every path the call graph can
    see.

``taint-error-envelope``
    The error-path companion: raw data in a raised exception's message, or
    broadly-caught exception text (``except Exception as exc`` — ``exc``
    may embed raw values interpolated by arbitrary callees) forwarded into
    envelopes/logs/sinks.  The sanctioned redaction is ``type(exc).__name__``
    (``type`` is a clean builtin) plus a stable error code.

All three emit v2 findings carrying the full trace: source → hops → sink,
or caller → hops → draw.
"""

from __future__ import annotations

import ast

from ..loader import Module
from ..model import Finding, SEVERITY_ERROR
from ..rules import LintContext, Rule, references_accountant
from .dataflow import (
    CHANNEL_DRAW,
    FlowAnalysis,
    TAG_DATA,
    TAG_EXC,
    TaintConfig,
)

#: Channels whose data-tagged hits are unsanitized releases; the
#: ``exception`` channel (raise-site messages) belongs to the error rule.
RELEASE_CHANNELS = {
    "envelope", "log", "metric-label", "journal", "frame", "trace",
}

_REGISTER_FUNCS = {
    "register_source": "source",
    "register_sanitizer": "sanitizer",
    "register_sink": "sink",
}


def load_taint_config(modules: "list[Module]") -> TaintConfig:
    """The manifest vocabularies: runtime import plus static scan.

    The import picks up everything the shipped ``repro.privacy`` package
    registers; the scan over the *analysed* tree picks up
    ``register_sanitizer("x")`` calls in code the linter only parses (an
    out-of-tree backend, a fixture).  Literal string arguments only — the
    linter never executes analysed code.
    """
    try:
        from repro.privacy import manifest
    except Exception:  # pragma: no cover - manifest is part of this repo
        manifest = None

    sources: "set[str]" = set()
    source_attrs: "set[str]" = set()
    sanitizers: "set[str]" = set()
    sinks: "dict[str, set[str]]" = {}
    public: "set[str]" = set()
    if manifest is not None:
        sources |= manifest.TAINT_SOURCE_METHODS
        public |= manifest.PUBLIC_GENERATORS
        source_attrs |= manifest.TAINT_SOURCE_ATTRS
        sanitizers |= manifest.SANITIZER_METHODS
        for channel, names in manifest.SINK_CHANNELS.items():
            sinks.setdefault(channel, set()).update(names)
        recv_re = manifest.TAINT_SOURCE_RECV_RE
    else:  # pragma: no cover
        import re

        recv_re = re.compile(r"dataset|counts|stack|table", re.IGNORECASE)

    for module in modules:
        for node in module.index.of(ast.Call):
            if not isinstance(node.func, (ast.Name, ast.Attribute)):
                continue
            fname = node.func.id if isinstance(node.func, ast.Name) \
                else node.func.attr
            kind = _REGISTER_FUNCS.get(fname)
            if kind is None:
                continue
            literals = [
                a.value for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            if kind == "source" and literals:
                sources.add(literals[-1])
            elif kind == "sanitizer" and literals:
                sanitizers.add(literals[-1])
            elif kind == "sink" and len(literals) >= 2:
                sinks.setdefault(literals[0], set()).add(literals[1])

    return TaintConfig(
        source_methods=frozenset(sources),
        source_attrs=frozenset(source_attrs),
        source_recv_re=recv_re,
        sanitizers=frozenset(sanitizers),
        sink_channels={k: frozenset(v) for k, v in sinks.items()},
        public_generators=frozenset(public),
    )


def flow_analysis(ctx: LintContext) -> FlowAnalysis:
    """The per-run analysis, computed once and shared by every flow rule."""
    cached = getattr(ctx, "_flow_analysis", None)
    if cached is None:
        cached = FlowAnalysis(
            ctx.modules, ctx.callgraph, load_taint_config(ctx.modules)
        )
        cached.run()
        ctx._flow_analysis = cached
    return cached


_CHANNEL_NOUN = {
    "envelope": "a response envelope",
    "log": "a log call",
    "metric-label": "a metrics label",
    "journal": "a journal record",
    "frame": "a frame/HTTP payload",
    "trace": "a trace attachment",
    "exception": "a raised exception message",
}


class _FlowRule(Rule):
    """Shared plumbing: pick this rule's hits for one module, deduped."""

    def _hits_for(self, module: Module, ctx: LintContext):
        analysis = flow_analysis(ctx)
        picked = [
            (info, hit)
            for mod, info, hit in analysis.hits
            if mod.path == module.path and self._selects(hit)
        ]
        # One finding per (location, function): keep the shortest trace so
        # reports are deterministic under set-iteration order.
        best: dict = {}
        for info, hit in picked:
            key = (hit.node_line, hit.node_col, info.qualname)
            trace = hit.taint.trace
            rendered = tuple((h.path, h.line, h.note) for h in trace)
            prior = best.get(key)
            if prior is None or (len(trace), rendered) < prior[0]:
                best[key] = ((len(trace), rendered), info, hit)
        return [best[k][1:] for k in sorted(best)]

    def _selects(self, hit) -> bool:
        raise NotImplementedError

    def _finding(self, module: Module, info, hit, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=hit.node_line,
            col=hit.node_col,
            rule=self.name,
            message=message,
            severity=self.severity,
            trace=hit.taint.trace,
        )


class ChargeBeforeReleaseRule(_FlowRule):
    """PR 4's invariant, machine-checked.

    Scope: functions that reference an accountant — the ones *responsible*
    for accounting.  In one, no noise draw may come before a ledger charge
    on some path; the dataflow walk's ``charged`` flag and the summaries'
    ``charges``/``draws_first`` facts follow draws through any number of
    calls.
    """

    name = "charge-before-release"
    severity = SEVERITY_ERROR
    description = (
        "noise must never be drawn before the accountant charge that funds "
        "it has been admitted (a BudgetError after a release has been "
        "sampled burns privacy the ledger never saw)"
    )

    def _selects(self, hit) -> bool:
        return hit.channel == CHANNEL_DRAW

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for info, hit in self._hits_for(module, ctx):
            if not references_accountant(info.module.index.own[info.node]):
                continue
            first = hit.taint.trace[0].note
            where = f" (via {first[len('call: '):]} draws first)" \
                if first.startswith("call: ") else ""
            findings.append(
                self._finding(
                    module, info, hit,
                    f"noise draw{where} reachable in {info.qualname} before "
                    "any accountant.spend/parallel charge — charge the "
                    "ledger first, then sample",
                )
            )
        return findings


class TaintUnsanitizedReleaseRule(_FlowRule):
    """No raw-data path may reach an output channel unsanitized.

    Sources, sanitizers, and sinks come from :mod:`repro.privacy.manifest`
    (mechanism backends self-register their release methods).  Paths are
    followed through the call graph via context-insensitive summaries, so a
    helper that builds an envelope from its argument is reported at the
    caller that fed it raw counts.
    """

    name = "taint-unsanitized-release"
    severity = SEVERITY_ERROR
    description = (
        "a value derived from raw rows/counts reaches an output channel "
        "(envelope/log/metrics label/journal/frame/trace) without crossing "
        "a registered DP mechanism release"
    )

    def _selects(self, hit) -> bool:
        return hit.channel in RELEASE_CHANNELS and hit.taint.tag == TAG_DATA

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for info, hit in self._hits_for(module, ctx):
            origin = hit.taint.trace[0].note if hit.taint.trace else "a source"
            findings.append(
                self._finding(
                    module, info, hit,
                    f"raw value ({origin}) reaches "
                    f"{_CHANNEL_NOUN.get(hit.channel, hit.channel)} in "
                    f"{info.qualname} without crossing a DP sanitizer — "
                    "release through a registered mechanism first",
                )
            )
        return findings


class TaintErrorEnvelopeRule(_FlowRule):
    """Raw data must not leak through error paths.

    Flags (a) tainted values interpolated into a raised exception's
    message, and (b) broadly-caught exception text (``except Exception as
    exc``) forwarded into envelopes, logs, or other sinks — an exception
    raised by a deeper layer can embed raw counts in its ``str()``.  Redact
    with ``type(exc).__name__`` and a stable error code.
    """

    name = "taint-error-envelope"
    severity = SEVERITY_ERROR
    description = (
        "tainted values in exception messages, or unredacted broad-caught "
        "exception text in error envelopes/logs — redact to "
        "type(exc).__name__ plus a stable code"
    )

    def _selects(self, hit) -> bool:
        return hit.channel == "exception" or hit.taint.tag == TAG_EXC

    def check(self, module: Module, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for info, hit in self._hits_for(module, ctx):
            if hit.channel == "exception":
                msg = (
                    f"tainted value interpolated into a raised exception "
                    f"message in {info.qualname} — exception text ends up "
                    "in error envelopes and logs; raise with a stable "
                    "error code instead"
                )
            else:
                msg = (
                    f"unredacted exception text reaches "
                    f"{_CHANNEL_NOUN.get(hit.channel, hit.channel)} in "
                    f"{info.qualname} — a deep exception's str() can embed "
                    "raw values; redact to type(exc).__name__ plus a "
                    "stable code"
                )
            findings.append(self._finding(module, info, hit, msg))
        return findings
