"""Request tracing: trace IDs over the frame protocol, span histograms.

A **trace ID** is a 16-hex-char token minted once at the serving edge —
the HTTP handler for ``POST /v1/explain``/``/v1/pipeline``, the async
front end, or :meth:`ExplanationService.submit` for in-process callers —
and carried end-to-end:

* into the request as the ``trace_id`` field of
  :class:`~repro.service.service.ExplainRequest` (deliberately excluded
  from ``engine_key``/``cache_key``, so tracing never perturbs coalescing,
  caching, or the DP release bytes);
* across processes inside the ``asdict(request)`` payload of the
  length-prefixed ``explain``/``explain_batch`` frames — no frame-protocol
  change, just one more request field;
* back out in the response envelope via :func:`attach_trace`, which tags
  ``meta`` on success and ``error`` on structured refusals/failures
  (429/503/5xx) so a failed request is attributable from the client side.

A **span** is one named timed section recorded into the shared
``repro_span_duration_seconds{span=...}`` histogram.  The span taxonomy
(:data:`SPANS`) covers the request path end to end: frontend queueing
(until the request's tick flushes its frame), frame round-trip, scoring,
DP release, journal fsync, and cache lookup.  Spans are aggregate (no per-trace storage) —
the point is "where do requests spend time", at histogram cost.
"""

from __future__ import annotations

import secrets
import time
from contextlib import contextmanager

from .metrics import Histogram, MetricsRegistry

#: The one histogram family every span records into, labelled by span name.
SPAN_HISTOGRAM = "repro_span_duration_seconds"
SPAN_HELP = "Duration of one named request-path section (span taxonomy)."

#: The span taxonomy — every instrumented section of the request path.
SPANS = (
    "frontend-queue",     # explain() enqueue -> end-of-tick flush, per request
    "frame-rtt",          # frame write -> reply resolve, per request
    "engine-score",       # batched candidate scoring (select_batched)
    "mechanism-release",  # DP histogram releases for selected combos
    "journal-fsync",      # one ledger journal fsync: a lone record's
                          # append + fsync, or one commit-scope sync
    "cache-lookup",       # explanation-cache probe in submit()
)


def new_trace_id() -> str:
    """A fresh 64-bit trace ID (16 hex chars)."""
    return secrets.token_hex(8)


def span_histogram(metrics: MetricsRegistry) -> Histogram:
    """The registry's span-duration histogram (idempotent lookup)."""
    return metrics.histogram(SPAN_HISTOGRAM, SPAN_HELP, labels=("span",))


def record_span(metrics: "MetricsRegistry | None", span: str,
                seconds: float) -> None:
    if metrics is not None:
        span_histogram(metrics).observe(seconds, (span,))


@contextmanager
def span(metrics: "MetricsRegistry | None", name: str):
    """Time a ``with`` block into the span histogram (no-op without metrics)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        record_span(metrics, name, time.perf_counter() - t0)


def attach_trace(envelope: dict, trace_id: str) -> dict:
    """Return a copy of ``envelope`` tagged with ``trace_id``.

    Tags the ``meta`` block (success) and/or the ``error`` block
    (refusals/failures) — never the ``result`` block, which must stay
    byte-identical with tracing on or off.  Copy-on-attach: envelopes are
    shared across a coalesced group (every pending request in the group
    resolves with the same dict), so tagging in place would leak one
    request's trace into its groupmates' responses.
    """
    if not trace_id or not isinstance(envelope, dict):
        return envelope
    out = dict(envelope)
    tagged = False
    meta = out.get("meta")
    if isinstance(meta, dict):
        out["meta"] = {**meta, "trace_id": trace_id}
        tagged = True
    error = out.get("error")
    if isinstance(error, dict):
        out["error"] = {**error, "trace_id": trace_id}
        tagged = True
    if not tagged:
        out["trace_id"] = trace_id
    return out


def trace_id_of(envelope: object) -> "str | None":
    """The trace ID tagged onto an envelope, or ``None``."""
    if not isinstance(envelope, dict):
        return None
    for block_name in ("meta", "error"):
        block = envelope.get(block_name)
        if isinstance(block, dict) and block.get("trace_id"):
            return str(block["trace_id"])
    trace_id = envelope.get("trace_id")
    return str(trace_id) if trace_id else None
