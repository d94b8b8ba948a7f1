"""The in-process explanation service: coalesce → engine → cache → ledger.

One :class:`ExplanationService` instance serves concurrent explanation
requests from many tenants over registered datasets.  A request's lifecycle:

1. **Admission** — tenant and dataset are resolved against the
   :class:`~repro.service.registry.ServiceRegistry`; malformed parameters
   are refused with a 400-style envelope before touching any data.
2. **Cache probe** — a hit on the fingerprint-keyed
   :class:`~repro.service.cache.ExplanationCache` is re-served immediately:
   a DP release is public once computed, so the response is byte-identical
   to the original and **zero** budget is charged (post-processing is free).
3. **Coalescing** — misses enqueue on the
   :class:`~repro.service.queue.RequestQueue`; a worker drains every pending
   request sharing the same engine key (dataset + explainer configuration)
   into one batch.  The queue gives each engine key to one worker at a
   time, so two workers never compute or charge the same release: a
   duplicate that arrives mid-compute waits in the queue and is served
   from the cache once the running batch has filled it.
4. **Ledger** — each *distinct* release in the batch is charged once, to the
   first requester with budget left, via the tenant's thread-safe
   :class:`~repro.privacy.budget.PrivacyAccountant`; over-budget requesters
   get a structured 429-style refusal without touching the data.  Charged
   ledgers persist crash-safely before the response is released.
5. **Engine** — all funded seeds run through
   :func:`~repro.evaluation.sweeps.explain_batched`: one batched scoring
   pass over the dataset's counts, then one histogram release for every
   seed, whose bytes equal the serial ``DPClustX.explain`` path.
6. **Response** — payloads are cached and every waiting future resolves
   with an envelope recording how it was served (``miss`` — the payer,
   ``coalesced`` — a free rider in the same batch, or ``hit``).
"""

from __future__ import annotations

import copy
import numbers
import threading
import time

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.dpclustx import DPClustX
from ..core.hbe import GlobalExplanation
from ..core.io import single_to_dict
from ..core.quality.scores import Weights
from ..evaluation.sweeps import explain_batched
from ..obs.metrics import Histogram, MetricsRegistry, histogram_quantile
from ..obs.tracing import attach_trace, new_trace_id, span_histogram, trace_id_of
from ..pipeline import ClusteringSpec
from ..privacy.budget import BudgetError, ExplanationBudget, PrivacyAccountant
# canonical_json is re-exported: the encoding explanation_payload bodies compare under.
from .cache import CacheEntry, ExplanationCache, canonical_json  # noqa: F401
from .journal import commit_scope
from .queue import RequestQueue, run_worker
from .registry import (
    DERIVED_SEPARATOR,
    DatasetEntry,
    ServiceRegistry,
    ServiceError,
    Tenant,
)

_EXPLAINERS = ("DPClustX",)


def _with_trace_id(request, trace_id: str):
    """A shallow copy of a frozen request with ``trace_id`` set.

    ``dataclasses.replace`` would re-run ``__init__`` and ``__post_init__``
    on every request; the source is already normalised, so a shallow copy
    with one field swapped is equal and cheaper.
    """
    clone = copy.copy(request)
    object.__setattr__(clone, "trace_id", trace_id)
    return clone


#: JSON field coercions shared by the request parsers, in the order they
#: apply (the first failing field names the 400).  ``tenant``, ``dataset``,
#: ``explainer`` and ``method`` stay as sent; ``validated()`` checks them.
_JSON_COERCIONS = (
    ("weights", lambda ws: tuple(float(w) for w in ws)),
    ("eps_cand_set", float),
    ("eps_top_comb", float),
    ("eps_hist", float),
    ("clustering_epsilon", float),
    ("n_candidates", int),
    ("seed", int),
    ("n_clusters", int),
    ("n_iterations", int),
    ("clustering_seed", int),
    ("trace_id", str),
)


def _request_from_json(cls, body: Mapping):
    """Build a ``cls`` request from a decoded JSON object (400 on bad input).

    Refuses a non-object body, unknown fields and a missing ``tenant`` or
    ``dataset``, then coerces the numeric fields and ``trace_id`` that
    ``cls`` declares.
    """
    if not isinstance(body, Mapping):
        raise ServiceError(400, "invalid-request", "body must be a JSON object")
    unknown = set(body) - set(cls.__dataclass_fields__)
    if unknown:
        raise ServiceError(
            400, "invalid-request", f"unknown fields: {sorted(unknown)}"
        )
    for key in ("tenant", "dataset"):
        if key not in body:
            raise ServiceError(400, "invalid-request", f"{key!r} is required")
    kwargs = dict(body)
    try:
        for key, coerce in _JSON_COERCIONS:
            if key in kwargs:
                kwargs[key] = coerce(kwargs[key])
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, "invalid-request", str(exc)) from None
    return cls(**kwargs)


@dataclass(frozen=True)
class ExplainRequest:
    """One tenant's explanation request over a registered dataset.

    The epsilon triple follows Algorithm 2 / Theorem 5.3 (defaults 0.1 each,
    Section 6.1); ``seed`` names the seed stream of the DP noise draws and is
    part of the cache key — two requests with equal parameters *and* seed
    are the same release.

    ``trace_id`` is observability metadata minted at the serving edge (or
    via :meth:`with_trace`): it rides the frame protocol inside
    ``asdict(request)`` and is tagged onto the response envelope, but is
    deliberately **not** part of :meth:`engine_key` / :meth:`cache_key` —
    tracing must never perturb coalescing, caching, or release bytes.
    """

    tenant: str
    dataset: str
    eps_cand_set: float = 0.1
    eps_top_comb: float = 0.1
    eps_hist: float = 0.1
    n_candidates: int = 3
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    seed: int = 0
    explainer: str = "DPClustX"
    trace_id: str = ""

    def __post_init__(self) -> None:
        # Programmatic callers naturally pass weights as a list; normalise
        # to a tuple so cache_key()/engine_key() stay hashable.  Anything
        # else (wrong arity, non-floats) is rejected by validated().
        if isinstance(self.weights, list):
            object.__setattr__(self, "weights", tuple(self.weights))

    @classmethod
    def from_json(cls, body: Mapping) -> "ExplainRequest":
        """Build a request from a decoded JSON object (HTTP front end)."""
        return _request_from_json(cls, body)

    def with_trace(self, trace_id: str) -> "ExplainRequest":
        """A copy carrying ``trace_id`` (same release identity)."""
        return _with_trace_id(self, trace_id)

    def budget(self) -> ExplanationBudget:
        return ExplanationBudget(self.eps_cand_set, self.eps_top_comb, self.eps_hist)

    def weights_obj(self) -> Weights:
        return Weights(*self.weights)

    @property
    def epsilon_total(self) -> float:
        return self.eps_cand_set + self.eps_top_comb + self.eps_hist

    def validated(self) -> "ExplainRequest":
        """Parameter validation; raises a 400-style :class:`ServiceError`.

        Everything the engine could choke on is rejected here, *before* any
        budget is reserved — a malformed request must never burn budget.
        """
        for key in ("tenant", "dataset"):
            value = getattr(self, key)
            if not isinstance(value, str) or not value:
                raise ServiceError(
                    400, "invalid-request", f"{key!r} must be a non-empty string"
                )
        if self.explainer not in _EXPLAINERS:
            raise ServiceError(
                400,
                "invalid-request",
                f"unknown explainer {self.explainer!r}; supported: {_EXPLAINERS}",
            )
        if (
            not isinstance(self.weights, (tuple, list))
            or len(self.weights) != 3
        ):
            raise ServiceError(
                400,
                "invalid-request",
                f"weights must be a sequence of three floats, "
                f"got {self.weights!r}",
            )
        for key in ("eps_cand_set", "eps_top_comb", "eps_hist"):
            value = getattr(self, key)
            # ``float()`` in the budget check would admit "0.1" and True.
            if type(value) is not float and (
                not isinstance(value, numbers.Real) or isinstance(value, bool)
            ):
                raise ServiceError(
                    400, "invalid-request",
                    f"{key!r} must be a real number, got {value!r}",
                )
        try:
            self.budget()
            self.weights_obj()
        except (BudgetError, TypeError, ValueError) as exc:
            raise ServiceError(400, "invalid-request", str(exc)) from None
        if not isinstance(self.n_candidates, int) or isinstance(
            self.n_candidates, bool
        ):
            raise ServiceError(
                400, "invalid-request", "n_candidates must be an integer"
            )
        if self.n_candidates < 1:
            raise ServiceError(400, "invalid-request", "n_candidates must be >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ServiceError(400, "invalid-request", "seed must be an integer")
        if self.seed < 0:
            raise ServiceError(400, "invalid-request", "seed must be >= 0")
        if not isinstance(self.trace_id, str):
            raise ServiceError(400, "invalid-request", "trace_id must be a string")
        return self

    def engine_key(self) -> tuple:
        """The coalescing key: everything but the seed stream and tenant.

        Requests sharing this key share their true Stage-1 score matrix,
        so one batched scoring pass serves all of them regardless of seed.
        """
        return (
            self.dataset,
            self.explainer,
            self.eps_cand_set,
            self.eps_top_comb,
            self.eps_hist,
            self.n_candidates,
            self.weights,
        )

    def cache_key(self, entry: DatasetEntry) -> tuple:
        """The release identity: fingerprints + parameters + seed stream.

        The dataset id follows the fingerprint, which stays first for
        :meth:`~repro.service.cache.ExplanationCache.invalidate_fingerprint`.
        The payload names the id, and equal cache keys must imply equal
        :meth:`engine_key` values: the queue gives each engine key to one
        worker at a time, and that is what keeps a release from being
        computed or charged twice.
        """
        return (
            entry.fingerprint,
            entry.dataset_id,
            entry.signature,
            self.explainer,
            self.eps_cand_set,
            self.eps_top_comb,
            self.eps_hist,
            self.n_candidates,
            self.weights,
            self.seed,
        )


@dataclass(frozen=True)
class PipelineRequest:
    """One end-to-end pipeline request: fit DP clustering, then explain.

    Names a *labels-free* (or any) registered dataset, a server-fittable
    DP clustering (``method`` + parameters + ``clustering_seed`` — together
    the fitted-clustering release identity), and a standard explanation
    configuration.  The service charges both stages to the tenant's ledger
    for the **base** dataset id: one cap covers the whole pipeline.
    """

    tenant: str
    dataset: str
    method: str = "dp-kmeans"
    n_clusters: int = 5
    clustering_epsilon: float = 1.0  # the paper's DP-k-means budget (6.1)
    n_iterations: int = 5
    clustering_seed: int = 0
    eps_cand_set: float = 0.1
    eps_top_comb: float = 0.1
    eps_hist: float = 0.1
    n_candidates: int = 3
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    seed: int = 0
    explainer: str = "DPClustX"
    trace_id: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.weights, list):
            object.__setattr__(self, "weights", tuple(self.weights))

    @classmethod
    def from_json(cls, body: Mapping) -> "PipelineRequest":
        """Build a request from a decoded JSON object (HTTP front end)."""
        return _request_from_json(cls, body)

    def with_trace(self, trace_id: str) -> "PipelineRequest":
        """A copy carrying ``trace_id`` (same release identity)."""
        return _with_trace_id(self, trace_id)

    def spec(self) -> ClusteringSpec:
        """The clustering half of the request as its release identity."""
        return ClusteringSpec(
            self.method,
            self.n_clusters,
            self.clustering_epsilon,
            self.n_iterations,
            self.clustering_seed,
        )

    def explain_request(self, dataset_id: str | None = None) -> ExplainRequest:
        """The explanation half, targeting ``dataset_id`` (default: base)."""
        return ExplainRequest(
            tenant=self.tenant,
            dataset=dataset_id if dataset_id is not None else self.dataset,
            eps_cand_set=self.eps_cand_set,
            eps_top_comb=self.eps_top_comb,
            eps_hist=self.eps_hist,
            n_candidates=self.n_candidates,
            weights=self.weights,
            seed=self.seed,
            explainer=self.explainer,
            trace_id=self.trace_id,
        )

    def validated(self) -> "PipelineRequest":
        """400-style validation of both halves before any budget moves."""
        try:
            self.spec().validated()
        except (BudgetError, TypeError, ValueError) as exc:
            raise ServiceError(400, "invalid-request", str(exc)) from None
        self.explain_request().validated()
        return self


def _check_width(request: "ExplainRequest | PipelineRequest", entry) -> None:
    """400 when ``n_candidates`` exceeds the dataset's attribute count."""
    width = entry.dataset.schema.width
    if request.n_candidates > width:
        raise ServiceError(
            400,
            "invalid-request",
            f"n_candidates={request.n_candidates} exceeds the "
            f"{width} attributes of {request.dataset!r}",
        )


def _request_class(envelope: dict) -> str:
    """The latency class of a resolved envelope: how the request was served."""
    meta = envelope.get("meta")
    if meta and "cache" in meta:
        return str(meta["cache"])  # "hit" | "miss" | "coalesced"
    if envelope.get("status") == "refused":
        return "refused"
    return "error"


@dataclass
class _Pending:
    """One queued request and the future its caller is waiting on.

    ``enqueued`` is stamped at admission, so :meth:`resolve` can record the
    full enqueue→resolve wall time — queue wait, coalescing, funding, and
    the engine pass — in the service's latency histograms, classed by how
    the request was ultimately served.
    """

    request: ExplainRequest
    latency: "Histogram | None" = None
    future: "Future[dict]" = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)

    def resolve(self, envelope: dict) -> None:
        if not self.future.done():
            envelope = attach_trace(envelope, self.request.trace_id)
            if self.latency is not None:
                self.latency.observe(
                    time.monotonic() - self.enqueued, (_request_class(envelope),)
                )
            self.future.set_result(envelope)


#: The lifecycle events ``repro_service_events_total`` counts, in the order
#: ``/v1/stats`` lists them (zero-filled before the first of each).
SERVICE_EVENTS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "refused",
    "errors",
    "engine_calls",
    "releases",
    "pipeline_requests",
    "clustering_fits",
    "clustering_cache_hits",
)


def latency_summary(hist: Histogram) -> dict:
    """Per-class latency from ``hist``: count + p50/p99 (the /v1/stats block).

    Quantiles are bucket upper bounds — within one √2 factor of the
    true value, which is the resolution tail-latency dashboards need
    without the service ever holding per-request samples.
    """
    summary = {}
    for (klass,), (buckets, count, _sum) in sorted(hist.series().items()):
        summary[klass] = {
            "count": count,
            "p50_s": histogram_quantile(buckets, 0.50, hist.base, hist.growth),
            "p99_s": histogram_quantile(buckets, 0.99, hist.base, hist.growth),
        }
    return summary


def _json_number(value):
    """``value`` as ``json.loads(canonical_json(value))`` reads it back."""
    if type(value) in (bool, int, float):
        return value
    return int(value) if isinstance(value, int) else float(value)


def explanation_payload(
    request: ExplainRequest, entry: DatasetEntry, explanation: GlobalExplanation
) -> dict:
    """The JSON response body for one released explanation.

    Every field is a pure function of the cache key, so re-serialising the
    payload is byte-stable — the property the cache's canonical encoding
    and the byte-identity tests rely on.  The body is built decoded: it
    equals ``json.loads(canonical_json(body))``, keys in sorted order at
    every level and only JSON-native values, so a miss serves it without
    encoding and parsing it first.
    """
    return {
        "clusters": [single_to_dict(e) for e in explanation],
        "combination": list(explanation.combination),
        "dataset": entry.dataset_id,
        "epsilon": {
            "cand_set": _json_number(request.eps_cand_set),
            "hist": _json_number(request.eps_hist),
            "top_comb": _json_number(request.eps_top_comb),
            "total": _json_number(request.epsilon_total),
        },
        "explainer": request.explainer,
        "fingerprint": entry.fingerprint,
        "n_candidates": int(request.n_candidates),
        "seed": int(request.seed),
        "signature": entry.signature,
        "weights": [float(w) for w in request.weights],
    }


class ExplanationService:
    """Multi-tenant explanation server over registered datasets.

    Parameters
    ----------
    registry:
        Optional pre-built :class:`ServiceRegistry`; by default a fresh one
        (persisting under ``ledger_dir`` when given).
    ledger_dir:
        Directory for per-tenant JSON privacy ledgers; existing ledgers are
        reloaded, so a restarted service keeps refusing what a crashed one
        could no longer afford.
    cache_entries:
        LRU capacity of the explanation cache.
    fitted_entries:
        How many server-side fitted clusterings (the registry's derived
        entries) stay registered; past it the least recently used is
        dropped (a later identical request re-fits byte-identically and
        legitimately re-charges — overcounting, never leaking).
    auto_tenant_budget:
        When set, unknown tenants are auto-provisioned with this per-dataset
        budget cap on their first request (the demo server's mode); when
        ``None``, unknown tenants are refused.
    """

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        *,
        ledger_dir=None,
        cache_entries: int = 256,
        fitted_entries: int = 64,
        auto_tenant_budget: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if registry is not None and ledger_dir is not None:
            raise ValueError("pass ledger_dir to the registry or here, not both")
        # One metrics registry per service instance — adopted from the
        # service registry when one is passed in (so budget/journal
        # instrumentation and request instrumentation land in the same
        # snapshot), else created here and shared downward.
        if registry is not None:
            self.registry = registry
            self.metrics = metrics if metrics is not None else registry.metrics
        else:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.registry = ServiceRegistry(
                ledger_dir=ledger_dir, metrics=self.metrics
            )
        self.cache = ExplanationCache(cache_entries, metrics=self.metrics)
        # Server-side fitted clusterings (the /v1/pipeline route) live only
        # in the registry, as derived entries named ``base::spec-slug``.
        # Fits are single-flight per derived id via striped locks:
        # concurrent identical pipeline requests charge one clustering fit,
        # not N, while fits of *different* specs (almost always on
        # different stripes) proceed in parallel.
        if fitted_entries < 1:
            raise ValueError("fitted_entries must be >= 1")
        self.registry.derived_limit = fitted_entries
        self._fit_stripes = [threading.Lock() for _ in range(16)]
        # Lifecycle events, and enqueue→resolve latency by serving class on
        # the default geometry (100µs up, factor √2, 44 buckets: past every
        # service timeout).  One family each serves /v1/stats, /metrics and
        # cross-worker snapshot merging.
        self._events = self.metrics.counter(
            "repro_service_events_total",
            "Service lifecycle events by kind (requests, hits, refusals...).",
            ("event",),
        )
        self._latency = self.metrics.histogram(
            "repro_request_duration_seconds",
            "Enqueue-to-resolve request latency by serving class.",
            ("class",),
        )
        self._spans = span_histogram(self.metrics)
        self._budget_refusals = self.metrics.counter(
            "repro_budget_refusals_total",
            "Requests refused because the tenant ledger could not cover them.",
            ("tenant", "dataset"),
        )
        self.auto_tenant_budget = auto_tenant_budget
        self._queue = RequestQueue(metrics=self.metrics)
        self._stop = threading.Event()
        self._workers: list[threading.Thread] = []
        self._drain_lock = threading.Lock()

    # -- registry passthroughs ------------------------------------------ #

    def register_dataset(
        self, dataset_id, dataset, clustering=None, n_clusters=None
    ):
        """Register/replace a dataset and evict the old version's releases.

        ``clustering=None`` registers the dataset labels-free: explainable
        only through ``/v1/pipeline``, which fits a DP clustering
        server-side under the tenant's ledger.  See :meth:`register_entry`
        for what a replacement evicts.
        """
        return self.register_entry(
            DatasetEntry(dataset_id, dataset, clustering, n_clusters)
        )

    def register_entry(self, entry: DatasetEntry) -> DatasetEntry:
        """Register/replace ``entry`` under its id and evict what it orphans.

        The release identity is the (fingerprint, signature) pair, so a
        replacement that keeps the data but changes the clustering (same
        fingerprint, new signature) also orphans every old cache entry —
        evict on any change of the pair, not just the fingerprint, or dead
        entries would squat in LRU slots crowding out live releases.  The
        same replacement also drops the id's server-side fitted clusterings
        (its derived registry entries): they reference the replaced dataset
        object and must not keep serving it (a later re-fit of the same
        spec is byte-identical, so at worst the re-fit re-charges for the
        same release — overcounting, never leaking).
        """
        old = self.registry.add_entry(entry)
        if old is not None and (old.fingerprint, old.signature) != (
            entry.fingerprint,
            entry.signature,
        ):
            self.cache.invalidate_fingerprint(old.fingerprint)
            for stale in self.registry.drop_derived(entry.dataset_id):
                self.cache.invalidate_fingerprint(stale.fingerprint)
        return entry

    def create_tenant(self, tenant_id: str, budget_limit: float) -> Tenant:
        return self.registry.create_tenant(tenant_id, budget_limit)

    # -- request entry points ------------------------------------------- #

    def submit(self, request: ExplainRequest) -> "Future[dict]":
        """Admit a request; returns a future resolving to the envelope.

        A request arriving without a trace id is minted one here — the
        in-process edge.  The id rides the (dataclass-copied) request
        through coalescing and is attached to the envelope's meta/error
        block on resolve; it is *not* part of the engine or cache key, so
        tracing never perturbs coalescing, caching, or released bytes.
        """
        if not request.trace_id:
            request = request.with_trace(new_trace_id())
        pending = _Pending(request, self._latency)
        self._events.inc(1, ("requests",))
        try:
            request.validated()
            entry = self.registry.dataset(request.dataset)
            self.registry.tenant(request.tenant, self.auto_tenant_budget)
            if entry.counts is None:
                raise ServiceError(
                    400,
                    "no-clustering",
                    f"dataset {request.dataset!r} is registered without a "
                    "clustering; fit one server-side via /v1/pipeline",
                )
            _check_width(request, entry)
        except ServiceError as exc:
            self._events.inc(1, ("errors",))
            pending.resolve(self._error_envelope(exc))
            return pending.future
        t0 = time.perf_counter()
        cached = self.cache.get(request.cache_key(entry))
        self._spans.observe(time.perf_counter() - t0, ("cache-lookup",))
        if cached is not None:
            self._events.inc(1, ("cache_hits",))
            pending.resolve(self._ok_envelope(request, cached, "hit", 0.0))
            return pending.future
        self._queue.put(request.engine_key(), pending)
        return pending.future

    def explain(
        self,
        request: ExplainRequest | None = None,
        timeout: float = 60.0,
        **kwargs,
    ) -> dict:
        """Synchronous request: submit, (inline-drain if no workers), wait."""
        if request is None:
            request = ExplainRequest(**kwargs)
        future = self.submit(request)
        if not self._workers and not future.done():
            self.process_pending()
        return future.result(timeout)

    def pipeline(
        self,
        request: PipelineRequest | None = None,
        timeout: float = 60.0,
        **kwargs,
    ) -> dict:
        """Serve one end-to-end pipeline request: fit-or-cache, then explain.

        Lifecycle: admission (both halves validated before any budget
        moves) → derived-entry probe for ``base::spec-slug`` over the same
        base data — a hit reuses the released fit at **zero** clustering
        charge (post-processing is free) — →
        on a miss, the clustering epsilon is reserved atomically on the
        tenant's *base-dataset* ledger before the fit draws any noise
        (over-budget → structured 429, fit failure → token refund), the
        clustering is fitted server-side and registered as a derived
        dataset entry → the explanation half is routed through the
        standard :meth:`explain` path (cache, coalescing, per-release
        funding) against the derived entry, whose charges land in the
        *same* base-dataset ledger.

        The returned envelope is the explanation envelope plus a
        ``"pipeline"`` block recording the fitted clustering and what the
        clustering stage charged.
        """
        if request is None:
            request = PipelineRequest(**kwargs)
        if not request.trace_id:
            request = request.with_trace(new_trace_id())
        self._events.inc(1, ("pipeline_requests",))
        try:
            request.validated()
            base = self.registry.dataset(request.dataset)
            self.registry.tenant(request.tenant, self.auto_tenant_budget)
            _check_width(request, base)
        except ServiceError as exc:
            self._events.inc(1, ("errors",))
            return attach_trace(self._error_envelope(exc), request.trace_id)
        spec = request.spec()
        try:
            entry, fit_status, charged_fit = self._fitted_entry(
                base, spec, request.tenant
            )
        except BudgetError as exc:
            self._events.inc(1, ("refused",))
            self._budget_refusals.inc(1, (request.tenant, request.dataset))
            tenant = self.registry.tenant(request.tenant, self.auto_tenant_budget)
            accountant = tenant.accountant(base.base_id)
            envelope = attach_trace(
                self._budget_refusal(
                    request.tenant, request.dataset, spec.epsilon, accountant, exc
                ),
                request.trace_id,
            )
            envelope["error"]["stage"] = "clustering"
            return envelope
        except ServiceError as exc:
            self._events.inc(1, ("errors",))
            return attach_trace(self._error_envelope(exc), request.trace_id)
        except Exception as exc:  # noqa: BLE001 — fit failure must not 500 raw
            self._events.inc(1, ("errors",))
            # Redacted: exception text can embed raw rows/counts a deep
            # layer interpolated; tenants get the type name and a code.
            return attach_trace(
                self._error_envelope(
                    ServiceError(500, "internal-error", type(exc).__name__)
                ),
                request.trace_id,
            )
        envelope = self.explain(
            request.explain_request(entry.dataset_id), timeout=timeout
        )
        envelope["pipeline"] = {
            "dataset": request.dataset,
            "fitted_dataset": entry.dataset_id,
            "clustering": {**spec.describe(), "signature": entry.signature},
            "clustering_cache": fit_status,
            "charged_clustering_epsilon": charged_fit,
        }
        meta = envelope.get("meta")
        if meta is not None:
            meta["charged_total_epsilon"] = charged_fit + meta.get(
                "charged_epsilon", 0.0
            )
        return envelope

    def _fitted_entry(
        self, base: DatasetEntry, spec: ClusteringSpec, tenant_id: str
    ) -> "tuple[DatasetEntry, str, float]":
        """Fit-or-reuse the requested DP clustering under the tenant ledger.

        Returns ``(derived entry, "hit"|"miss", charged epsilon)``.  The
        registry's derived entry ``base::spec-slug`` is the one record of
        the fit, and the slug names the spec exactly.  Fits are
        single-flight per derived id (striped locks), so concurrent
        pipeline requests naming the same release fit and charge exactly
        once while unrelated fits proceed in parallel.  On a genuine miss,
        the clustering epsilon is reserved (atomic check-and-charge, may
        raise :class:`~repro.privacy.budget.BudgetError`) *before* the fit
        touches data, and refunded by token if the fit itself fails — so
        an over-budget or crashed fit provably draws no noise that the
        ledger doesn't cover.  A base re-registered *mid-fit* is detected
        by the atomic :meth:`ServiceRegistry.add_entry_if_current` admit:
        the never-exposed fit is discarded, its reservation refunded, and
        the caller told to retry against the new registration.
        """
        derived_id = f"{base.dataset_id}{DERIVED_SEPARATOR}{spec.slug()}"
        entry = self.registry.derived(derived_id, base)
        if entry is not None:
            self._events.inc(1, ("clustering_cache_hits",))
            return entry, "hit", 0.0
        stripes = self._fit_stripes
        with stripes[hash(derived_id) % len(stripes)]:
            entry = self.registry.derived(derived_id, base)
            if entry is not None:
                self._events.inc(1, ("clustering_cache_hits",))
                return entry, "hit", 0.0
            tenant = self.registry.tenant(tenant_id, self.auto_tenant_budget)
            accountant = tenant.accountant(base.base_id)
            token = accountant.spend(spec.epsilon, spec.label(base.dataset_id))
            try:
                clustering = spec.fit(base.dataset)
                entry = DatasetEntry(
                    derived_id,
                    base.dataset,
                    clustering,
                    base_id=base.base_id,
                    clustering_spec=spec,
                )
            except Exception:
                accountant.refund(token)
                raise
            if not self.registry.add_entry_if_current(entry, base):
                # The base was re-registered while we fitted: this fit ran
                # on the replaced data and was never exposed to anyone, so
                # the reservation rolls back and the caller retries
                # against the new registration.
                accountant.refund(token)
                raise ServiceError(
                    409,
                    "dataset-replaced",
                    f"dataset {base.dataset_id!r} was re-registered during "
                    "the clustering fit; retry",
                )
            self._events.inc(1, ("clustering_fits",))
            return entry, "miss", spec.epsilon

    def process_pending(self) -> int:
        """Drain the queue inline (single-threaded mode); returns batch count.

        Serialised by a lock so concurrent HTTP handler threads on a
        worker-less service don't interleave batch executions.
        """
        n = 0
        with self._drain_lock:
            while True:
                batch = self._queue.take_batch(timeout=0)
                if not batch:
                    return n
                self._execute_batch(batch)
                n += 1

    # -- worker pool ----------------------------------------------------- #

    def start(self, workers: int = 2) -> "ExplanationService":
        """Spin up the worker pool (idempotent start is an error)."""
        if self._workers:
            raise RuntimeError("service is already started")
        if workers < 1:
            raise ValueError("need at least one worker")
        self._stop.clear()
        for i in range(workers):
            t = threading.Thread(
                target=run_worker,
                args=(self._queue, self._execute_batch, self._stop),
                name=f"explain-worker-{i}",
                daemon=True,
            )
            t.start()
            self._workers.append(t)
        return self

    def stop(self) -> None:
        """Stop workers, then drain any stragglers so no future hangs.

        A worker that does not join in time is abandoned with its engine
        key still held; the final drain takes held keys too, so every
        accepted future resolves.  At worst that computes one release a
        second time, byte-identically: an overcount, never a leak.  The
        tenant journals are closed last; they reopen on the next charge.
        """
        self._stop.set()
        for t in self._workers:
            t.join(timeout=10.0)
        self._workers = []
        self._queue.release_all()
        self.process_pending()
        self.registry.close()

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- batch execution -------------------------------------------------- #

    def _execute_batch(self, batch: Sequence[_Pending]) -> None:
        """Serve one coalesced batch; every future resolves, come what may.

        The batch's engine key is handed back to the queue however the
        batch ends, so the key's next queued requests become takeable.
        """
        try:
            self._serve_batch(list(batch))
        except ServiceError as exc:
            for p in batch:
                p.resolve(self._error_envelope(exc))
        except Exception as exc:  # noqa: BLE001 — worker must not die
            envelope = self._error_envelope(
                ServiceError(500, "internal-error", type(exc).__name__)
            )
            for p in batch:
                p.resolve(envelope)
        finally:
            self._queue.release(batch[0].request.engine_key())

    def _serve_batch(self, batch: "list[_Pending]") -> None:
        request0 = batch[0].request
        entry = self.registry.dataset(request0.dataset)
        explainer = DPClustX(
            request0.n_candidates, request0.weights_obj(), request0.budget()
        )

        # Group by release identity: duplicates (same seed & params) share
        # one DP release — the first funded requester pays, the rest ride
        # free under post-processing.  A release an earlier batch of this
        # engine key filled while these requests waited is served as a hit.
        groups: "dict[tuple, list[_Pending]]" = {}
        for p in batch:
            groups.setdefault(p.request.cache_key(entry), []).append(p)
        missing: "list[tuple[tuple, list[_Pending]]]" = []
        for key, group in groups.items():
            cached = self.cache.get(key)
            if cached is not None:
                self._resolve_hits(group, cached)
            else:
                missing.append((key, group))
        if missing:
            self._compute_groups(entry, explainer, missing)

    def _compute_groups(
        self,
        entry: DatasetEntry,
        explainer: DPClustX,
        items: "list[tuple[tuple, list[_Pending]]]",
    ) -> None:
        """Fund and compute missing release groups in one batched pass.

        Budget is *reserved* before the engine runs (the atomic
        check-and-charge is what makes caps unbreakable under concurrency)
        and rolled back via
        :meth:`~repro.privacy.budget.PrivacyAccountant.refund` — by the
        charge token :meth:`~repro.privacy.budget.PrivacyAccountant.spend`
        returned at reservation time, so a failed batch can only ever remove
        its *own* reservations, never another request's recorded release
        (two requests may share a label: same dataset+seed, different
        epsilon config).  A failed request must not burn its tenant's
        budget.

        The whole batch is funded inside one journal commit scope: each
        touched tenant journal is fsync'd once as the scope exits, and the
        engine draws no noise until it has.  A failed commit refunds every
        reservation and fails the batch before any draw.
        """
        funded: "list[tuple[tuple, list[_Pending], _Pending, Tenant, int]]" = []
        try:
            with commit_scope():
                for key, group in items:
                    payer, tenant, charge_token = self._fund_group(entry, group)
                    if payer is not None:
                        funded.append((key, group, payer, tenant, charge_token))
        except Exception:
            self._refund_funded(entry, funded)
            raise  # _execute_batch resolves the futures with a 500
        if not funded:
            return

        self._events.inc(1, ("engine_calls",))
        seeds = [payer.request.seed for _, _, payer, _, _ in funded]
        try:
            explanations = explain_batched(
                explainer,
                entry.counts,
                seeds,
                metrics=self.metrics,
            )
        except Exception:
            self._refund_funded(entry, funded)
            raise  # _execute_batch resolves the futures with a 500

        self._events.inc(len(funded), ("releases",))
        for (key, group, payer, _, _), explanation in zip(
            funded, explanations
        ):
            payer_result = explanation_payload(payer.request, entry, explanation)
            cache_entry = CacheEntry.of(payer_result, payer.request.epsilon_total)
            self.cache.put(key, cache_entry)
            for p in group:
                if p.future.done():
                    continue  # refused while seeking a payer
                if p is payer:
                    self._events.inc(1, ("cache_misses",))
                    p.resolve(
                        self._ok_envelope(
                            p.request,
                            cache_entry,
                            "miss",
                            p.request.epsilon_total,
                            result=payer_result,
                        )
                    )
                else:
                    self._events.inc(1, ("coalesced",))
                    p.resolve(
                        self._ok_envelope(p.request, cache_entry, "coalesced", 0.0)
                    )

    def _refund_funded(self, entry: DatasetEntry, funded: list) -> None:
        """Roll back a failed batch's reservations; nothing was released."""
        for _key, _group, _payer, tenant, charge_token in funded:
            tenant.accountant(entry.base_id).refund(charge_token)

    def _resolve_hits(self, group: "list[_Pending]", cached: CacheEntry) -> None:
        for p in group:
            self._events.inc(1, ("cache_hits",))
            p.resolve(self._ok_envelope(p.request, cached, "hit", 0.0))

    @staticmethod
    def _charge_label(request: ExplainRequest) -> str:
        """The ledger line for one release: the full release identity.

        Refunds go by charge token, not by this label, so the label is pure
        audit trail — but it still records every parameter that makes the
        release distinct (the eps triple, n_candidates, weights), so a human
        reading the persisted ledger can tell two same-seed charges apart.
        """
        return (
            f"service: {request.explainer} dataset={request.dataset} "
            f"seed={request.seed} "
            f"eps=({request.eps_cand_set},{request.eps_top_comb},"
            f"{request.eps_hist}) k={request.n_candidates} "
            f"w={request.weights}"
        )

    def _fund_group(
        self, entry: DatasetEntry, group: "list[_Pending]"
    ) -> "tuple[_Pending | None, Tenant | None, int | None]":
        """Charge the first requester whose ledger can afford the release.

        The ledger is the tenant's ``entry.base_id`` ledger — for derived
        (pipeline-fitted) datasets that is the *base* dataset's ledger, so
        clustering and explanation charges share one cap.  Requesters
        refused along the way get their 429 envelope immediately; the
        accountant's atomic check-and-charge is what makes the cap
        unbreakable under concurrent batches.  Returns the payer, its
        tenant, and the charge token to :meth:`refund
        <repro.privacy.budget.PrivacyAccountant.refund>` by on engine
        failure.
        """
        for p in group:
            request = p.request
            tenant = self.registry.tenant(request.tenant, self.auto_tenant_budget)
            accountant = tenant.accountant(entry.base_id)
            try:
                token = accountant.spend(
                    request.epsilon_total, self._charge_label(request)
                )
                return p, tenant, token
            except BudgetError as exc:
                self._events.inc(1, ("refused",))
                self._budget_refusals.inc(1, (request.tenant, request.dataset))
                p.resolve(self._refusal_envelope(request, accountant, exc))
        return None, None, None

    # -- envelopes -------------------------------------------------------- #

    def _ok_envelope(
        self,
        request: ExplainRequest,
        entry: CacheEntry,
        cache_status: str,
        charged: float,
        result: "dict | None" = None,
    ) -> dict:
        """The 200 envelope; ``result`` defaults to a fresh copy of ``entry``."""
        return {
            "status": "ok",
            "code": 200,
            "result": entry.payload() if result is None else result,
            "meta": {
                "cache": cache_status,
                "charged_epsilon": charged,
                "tenant": request.tenant,
                "dataset": request.dataset,
            },
        }

    def _refusal_envelope(
        self,
        request: ExplainRequest,
        accountant: PrivacyAccountant,
        exc: BudgetError,
    ) -> dict:
        """The structured 429-style over-budget refusal."""
        return self._budget_refusal(
            request.tenant,
            request.dataset,
            request.epsilon_total,
            accountant,
            exc,
        )

    def _budget_refusal(
        self,
        tenant_id: str,
        dataset_id: str,
        requested: float,
        accountant: PrivacyAccountant,
        exc: BudgetError,
    ) -> dict:
        # One locked read: spent/remaining/limit move together, so a
        # concurrent charge can never make this envelope report
        # spent + remaining != limit.
        balance = accountant.balance()
        return {
            "status": "refused",
            "code": 429,
            "error": {
                "reason": "budget-exhausted",
                "message": str(exc),
                "tenant": tenant_id,
                "dataset": dataset_id,
                "requested_epsilon": requested,
                "spent": balance.spent,
                "remaining": balance.remaining,
                "limit": balance.limit,
            },
        }

    def _error_envelope(self, exc: ServiceError) -> dict:
        return {
            "status": "error",
            "code": exc.code,
            "error": {"reason": exc.reason, "message": str(exc)},
        }

    # -- observability ---------------------------------------------------- #

    def describe(self) -> dict:
        """Stats + cache + registered datasets/tenants (the /v1/stats body)."""
        datasets = self.registry.datasets()
        return {
            "stats": {
                **dict.fromkeys(SERVICE_EVENTS, 0),
                **{event: n for (event,), n in self._events.series().items()},
            },
            "latency": latency_summary(self._latency),
            "cache": self.cache.stats(),
            "fitted_clusterings": {
                "entries": sum(e.is_derived for e in datasets),
                "max_entries": self.registry.derived_limit,
            },
            "datasets": [e.describe() for e in datasets],
            "tenants": [t.describe() for t in self.registry.tenants()],
            "workers": len(self._workers),
            "queued": len(self._queue),
        }

    def metrics_snapshot(self) -> dict:
        """This process's metrics registry snapshot (mergeable across workers)."""
        return self.metrics.snapshot()

    def health(self, deep: bool = False) -> dict:
        """The /healthz body: liveness plus (``deep``) cheap internal reads.

        Deep mode adds per-tenant journal tail lengths and registry counts
        — pure lock-guarded reads, never a scoring pass or a fsync.
        """
        body = {
            "status": "ok",
            "sharded": False,
            "workers": len(self._workers),
            "queued": len(self._queue),
        }
        if deep:
            body["datasets"] = len(self.registry.datasets())
            body["tenants"] = len(self.registry.tenants())
            body["journal_tails"] = self.registry.journal_tails()
        return body

    def ledger_describe(self, tenant_id: str) -> dict:
        """One tenant's per-dataset ledgers (the /v1/ledger/<tenant> body)."""
        return self.registry.tenant(tenant_id).describe()

    def dataset_listing(self) -> "list[dict]":
        """Registered datasets with fingerprints (the /v1/datasets body)."""
        return [e.describe() for e in self.registry.datasets()]


class ServiceClient:
    """Thin programmatic client bound to one tenant (tests, notebooks).

    Wraps :meth:`ExplanationService.explain` with per-client defaults::

        client = ServiceClient(service, tenant="alice", dataset="diabetes")
        response = client.explain(seed=3)
        response["result"]["combination"]

    ``last_trace_id`` holds the trace id of the most recent response —
    success *or* structured refusal/error (429/503/...) — so a caller
    that just got refused can quote the id the server logged it under.
    """

    def __init__(
        self,
        service: ExplanationService,
        tenant: str,
        dataset: str | None = None,
        timeout: float = 60.0,
    ):
        self._service = service
        self.tenant = tenant
        self.dataset = dataset
        self.timeout = timeout
        self.last_trace_id: "str | None" = None

    def explain(self, dataset: str | None = None, **params) -> dict:
        target = dataset or self.dataset
        if target is None:
            raise ValueError("no dataset given (per-call or client default)")
        request = ExplainRequest(tenant=self.tenant, dataset=target, **params)
        envelope = self._service.explain(request, timeout=self.timeout)
        self.last_trace_id = trace_id_of(envelope)
        return envelope

    def pipeline(self, dataset: str | None = None, **params) -> dict:
        """End-to-end request: server-side DP clustering + explanation."""
        target = dataset or self.dataset
        if target is None:
            raise ValueError("no dataset given (per-call or client default)")
        request = PipelineRequest(tenant=self.tenant, dataset=target, **params)
        envelope = self._service.pipeline(request, timeout=self.timeout)
        self.last_trace_id = trace_id_of(envelope)
        return envelope

    def ledger(self) -> dict:
        return self._service.registry.tenant(self.tenant).describe()
