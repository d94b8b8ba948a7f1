"""Unified observability: metrics registry, request tracing, exposition.

Three stdlib-only modules shared by every tier of the serving stack:

* :mod:`repro.obs.metrics` — sharded Counter/Gauge/Histogram families
  with an associative snapshot/merge algebra (worker registries fold into
  one scrape);
* :mod:`repro.obs.tracing` — edge-minted trace IDs carried through the
  shard frame protocol, plus the span-duration histogram taxonomy;
* :mod:`repro.obs.export` — Prometheus text exposition for ``/metrics``.
"""

from .export import prometheus_text
from .metrics import (
    DEFAULT_BASE,
    DEFAULT_BUCKETS,
    DEFAULT_GROWTH,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_bound,
    histogram_quantile,
    merge,
    merge_snapshots,
    snapshot_series,
    snapshot_value,
)
from .tracing import (
    SPAN_HISTOGRAM,
    SPANS,
    attach_trace,
    new_trace_id,
    record_span,
    span,
    span_histogram,
    trace_id_of,
)

__all__ = [
    "DEFAULT_BASE",
    "DEFAULT_BUCKETS",
    "DEFAULT_GROWTH",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_HISTOGRAM",
    "SPANS",
    "attach_trace",
    "bucket_index",
    "bucket_upper_bound",
    "histogram_quantile",
    "merge",
    "merge_snapshots",
    "new_trace_id",
    "prometheus_text",
    "record_span",
    "snapshot_series",
    "snapshot_value",
    "span",
    "span_histogram",
    "trace_id_of",
]
