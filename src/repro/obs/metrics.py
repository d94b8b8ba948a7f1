"""Low-overhead metrics registry: counters, gauges, geometric histograms.

One :class:`MetricsRegistry` per process-level component (an in-process
:class:`~repro.service.service.ExplanationService`, a shard worker, the
async front end).  Three metric kinds:

* :class:`Counter` — monotonically increasing, merged by **summing**;
* :class:`Gauge` — a point-in-time value, merged **last-wins** (in the
  sharded tier, gauge label sets are partition-scoped — e.g. per-tenant
  budget gauges live only on the tenant's owner worker — so last-wins
  never silently drops a series);
* :class:`Histogram` — geometric buckets, merged by **vector-adding**
  buckets/counts/sums.

Each family keeps one series dict under one lock.  Histogram *sums* are
integers in :data:`SUM_SCALE` nano-units, so merging snapshots is exact
integer arithmetic and therefore **associative**
(``merge(a, merge(b, c)) == merge(merge(a, b), c)``) — the property that
lets the supervisor/front end fold N worker snapshots in any grouping.

Snapshots are plain JSON-able dicts, small enough to ride in one
length-prefixed frame (:mod:`repro.service.transport`), and merge with
:func:`merge` / :func:`merge_snapshots`.

``MetricsRegistry(enabled=False)`` makes ``inc``/``set``/``observe``
early-return no-ops (the switch the benchmark's instrumentation-overhead
and DP byte-identity comparisons flip).
"""

from __future__ import annotations

import math
import re
import threading

#: Default geometric bucket geometry — identical to the service's PR 7
#: latency histograms: 100µs base, √2 growth (half-powers of two), 44
#: buckets covering past 200s with one overflow bucket.
DEFAULT_BASE = 1e-4
DEFAULT_GROWTH = 2.0 ** 0.5
DEFAULT_BUCKETS = 44

#: Histogram sums are stored as integers in units of ``1/SUM_SCALE`` (for
#: duration histograms: nanoseconds).  Integer sums make snapshot merging
#: exactly associative — float addition is not.
SUM_SCALE = 10**9

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

SNAPSHOT_FORMAT = 1


# --------------------------------------------------------------------------- #
# bucket geometry
# --------------------------------------------------------------------------- #


def bucket_index(
    value: float,
    base: float = DEFAULT_BASE,
    growth: float = DEFAULT_GROWTH,
    n_buckets: int = DEFAULT_BUCKETS,
) -> int:
    """The bucket holding ``value``: bucket ``b`` covers ``(u(b-1), u(b)]``."""
    if value <= base:
        return 0
    b = int(math.log(value / base) / math.log(growth)) + 1
    return min(b, n_buckets - 1)


def bucket_upper_bound(
    bucket: int, base: float = DEFAULT_BASE, growth: float = DEFAULT_GROWTH
) -> float:
    """The inclusive upper edge of a bucket (the quantile estimate)."""
    return base * growth**bucket


def histogram_quantile(
    buckets: "list[int]",
    q: float,
    base: float = DEFAULT_BASE,
    growth: float = DEFAULT_GROWTH,
) -> "float | None":
    """Bucket-upper-bound quantile; ``None`` on an empty histogram.

    Within one ``growth`` factor of the true value — the resolution
    tail-latency dashboards need without holding per-event samples.
    """
    total = sum(buckets)
    if total == 0:
        return None
    rank = q * total
    seen = 0
    for b, count in enumerate(buckets):
        seen += count
        if seen >= rank:
            return bucket_upper_bound(b, base, growth)
    return bucket_upper_bound(len(buckets) - 1, base, growth)


# --------------------------------------------------------------------------- #
# metric families
# --------------------------------------------------------------------------- #


class _Metric:
    """Shared family state: name, help text, label names, owning registry."""

    kind = "?"

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str,
                 labels: "tuple[str, ...]"):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.registry = registry
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)

    def _check(self, label_values: tuple) -> tuple:
        if len(label_values) != len(self.labels):
            raise ValueError(
                f"{self.name} takes {len(self.labels)} label value(s) "
                f"{self.labels!r}, got {label_values!r}"
            )
        return label_values


class Counter(_Metric):
    """A monotonically increasing counter family (merged by summing)."""

    kind = "counter"

    def __init__(self, registry, name, help_text, labels):
        super().__init__(registry, name, help_text, labels)
        self._lock = threading.Lock()
        self._series: "dict[tuple, int]" = {}

    def inc(self, by: int = 1, labels: tuple = ()) -> None:
        if not self.registry.enabled:
            return
        self._check(labels)
        with self._lock:
            self._series[labels] = self._series.get(labels, 0) + by

    def value(self, labels: tuple = ()) -> int:
        with self._lock:
            return self._series.get(labels, 0)

    def series(self) -> "dict[tuple, int]":
        with self._lock:
            return dict(self._series)


class Gauge(_Metric):
    """A point-in-time value family (merged last-wins)."""

    kind = "gauge"

    def __init__(self, registry, name, help_text, labels):
        super().__init__(registry, name, help_text, labels)
        self._lock = threading.Lock()
        self._series: "dict[tuple, float]" = {}

    def set(self, value: float, labels: tuple = ()) -> None:
        if not self.registry.enabled:
            return
        self._check(labels)
        with self._lock:
            self._series[labels] = value

    def value(self, labels: tuple = ()) -> "float | None":
        with self._lock:
            return self._series.get(labels)

    def series(self) -> "dict[tuple, float]":
        with self._lock:
            return dict(self._series)


class Histogram(_Metric):
    """A geometric-bucket histogram family (merged by vector addition).

    Per-series cells are ``[buckets, count, sum_scaled]`` — the sum an
    integer in :data:`SUM_SCALE` units so merges stay exact.
    """

    kind = "histogram"

    def __init__(self, registry, name, help_text, labels,
                 base=DEFAULT_BASE, growth=DEFAULT_GROWTH,
                 n_buckets=DEFAULT_BUCKETS):
        super().__init__(registry, name, help_text, labels)
        if not (base > 0 and growth > 1 and n_buckets >= 1):
            raise ValueError("histogram needs base>0, growth>1, n_buckets>=1")
        self.base = float(base)
        self.growth = float(growth)
        self.n_buckets = int(n_buckets)
        self._lock = threading.Lock()
        self._series: "dict[tuple, list]" = {}

    def observe(self, value: float, labels: tuple = ()) -> None:
        if not self.registry.enabled:
            return
        self._check(labels)
        b = bucket_index(value, self.base, self.growth, self.n_buckets)
        with self._lock:
            cell = self._series.get(labels)
            if cell is None:
                cell = [[0] * self.n_buckets, 0, 0]
                self._series[labels] = cell
            cell[0][b] += 1
            cell[1] += 1
            cell[2] += int(value * SUM_SCALE)

    def series(self) -> "dict[tuple, list]":
        """A copy of ``{labels: [buckets, count, sum_scaled]}``."""
        with self._lock:
            return {
                key: [list(buckets), count, total]
                for key, (buckets, count, total) in self._series.items()
            }

    def quantile(self, q: float, labels: tuple = ()) -> "float | None":
        cell = self.series().get(labels)
        if cell is None:
            return None
        return histogram_quantile(cell[0], q, self.base, self.growth)


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #


class MetricsRegistry:
    """One component's metric families, with a mergeable snapshot view.

    A disabled registry (``enabled=False``) still *defines* families (so
    instrumented code never branches) but every write is an early-return
    no-op.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._metrics: "dict[str, _Metric]" = {}
        self._meta_lock = threading.Lock()

    def _family(self, cls, name, help_text, labels, **kwargs) -> _Metric:
        labels = tuple(labels)
        with self._meta_lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self, name, help_text, labels, **kwargs)
                self._metrics[name] = metric
                return metric
        if type(metric) is not cls or metric.labels != labels:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind} "
                f"with labels {metric.labels!r}"
            )
        return metric

    def counter(self, name: str, help_text: str = "", labels=()) -> Counter:
        return self._family(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels=()) -> Gauge:
        return self._family(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels=(),
        *,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
        n_buckets: int = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._family(
            Histogram, name, help_text, labels,
            base=base, growth=growth, n_buckets=n_buckets,
        )

    def metrics(self) -> "tuple[_Metric, ...]":
        with self._meta_lock:
            return tuple(self._metrics.values())

    def snapshot(self) -> dict:
        """A JSON-able point-in-time view of every family (see :func:`merge`)."""
        out: "dict[str, dict]" = {}
        for metric in self.metrics():
            block: dict = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.labels),
            }
            if isinstance(metric, Histogram):
                block["base"] = metric.base
                block["growth"] = metric.growth
                block["series"] = [
                    [list(key), {"buckets": cell[0], "count": cell[1], "sum": cell[2]}]
                    for key, cell in sorted(metric.series().items())
                ]
            else:
                block["series"] = [
                    [list(key), value]
                    for key, value in sorted(metric.series().items())
                ]
            out[metric.name] = block
        return {"format": SNAPSHOT_FORMAT, "metrics": out}


# --------------------------------------------------------------------------- #
# snapshot algebra
# --------------------------------------------------------------------------- #


def _series_map(block: dict) -> "dict[tuple, object]":
    return {tuple(key): value for key, value in block.get("series", ())}


def _check_compatible(name: str, a: dict, b: dict) -> None:
    if a.get("type") != b.get("type") or list(a.get("labels", ())) != list(
        b.get("labels", ())
    ):
        raise ValueError(f"cannot merge metric {name!r}: family shapes differ")
    if a.get("type") == "histogram" and (
        a.get("base") != b.get("base") or a.get("growth") != b.get("growth")
    ):
        raise ValueError(f"cannot merge metric {name!r}: bucket geometry differs")


def _merge_blocks(name: str, a: dict, b: dict) -> dict:
    _check_compatible(name, a, b)
    kind = a["type"]
    sa, sb = _series_map(a), _series_map(b)
    merged: "dict[tuple, object]" = dict(sa)
    for key, value in sb.items():
        if key not in merged:
            merged[key] = value
        elif kind == "counter":
            merged[key] = merged[key] + value
        elif kind == "gauge":
            merged[key] = value  # last-wins: the right operand is newer
        else:  # histogram: exact vector addition (sums are integers)
            ca, cb = merged[key], value
            buckets_a, buckets_b = ca["buckets"], cb["buckets"]
            if len(buckets_a) != len(buckets_b):
                raise ValueError(
                    f"cannot merge metric {name!r}: bucket counts differ"
                )
            merged[key] = {
                "buckets": [x + y for x, y in zip(buckets_a, buckets_b)],
                "count": ca["count"] + cb["count"],
                "sum": ca["sum"] + cb["sum"],
            }
    out = {k: v for k, v in a.items() if k != "series"}
    out["series"] = [[list(key), merged[key]] for key in sorted(merged)]
    return out


def merge(a: dict, b: dict) -> dict:
    """Merge two snapshots (pure: inputs are never mutated).

    Counters sum, gauges take the right operand (last-wins), histograms
    vector-add; all three rules are associative, so any fold grouping of N
    worker snapshots yields the same result.
    """
    metrics_a = a.get("metrics", {})
    metrics_b = b.get("metrics", {})
    out = dict(metrics_a)
    for name, block in metrics_b.items():
        existing = out.get(name)
        out[name] = block if existing is None else _merge_blocks(
            name, existing, block
        )
    return {"format": SNAPSHOT_FORMAT, "metrics": out}


def merge_snapshots(snapshots) -> dict:
    """Left-fold :func:`merge` over N snapshots (empty input → empty snapshot)."""
    out = {"format": SNAPSHOT_FORMAT, "metrics": {}}
    for snap in snapshots:
        if snap:
            out = merge(out, snap)
    return out


def snapshot_series(snapshot: dict, name: str) -> "dict[tuple, object]":
    """One metric's ``{label_values: value_or_cell}`` map from a snapshot."""
    block = snapshot.get("metrics", {}).get(name)
    if block is None:
        return {}
    return _series_map(block)


def snapshot_value(snapshot: dict, name: str, labels: tuple = ()) -> object:
    """One series' value from a snapshot (``None`` when absent)."""
    return snapshot_series(snapshot, name).get(tuple(labels))
