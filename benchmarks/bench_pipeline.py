"""Before/after benchmark of the end-to-end pipeline route.

Replays a fit-once/explain-many workload — one DP clustering spec, many
explanation requests (``unique`` distinct seeds, each asked ``repeats``
times) — against two server designs:

* ``serial_s`` — naive refit-per-request: every request re-fits the DP
  clustering from scratch (same spec seed, so the *same* release is
  re-derived each time) and runs a stateless ``DPClustX.explain``;
* ``service_s`` — the ``/v1/pipeline`` path: the fitted clustering is
  cached by ``(fingerprint, method, params, seed)`` after the first
  request, repeat explanations coalesce/hit the explanation cache, and
  only genuinely new releases touch the engine.

Because :meth:`~repro.pipeline.spec.ClusteringSpec.fit` is
byte-reproducible given the spec seed, both paths produce byte-identical
response payloads (``exact_equal`` in the artifact); ``scripts/ci.sh``
fails if the throughput speedup regresses below 3x or the payloads
diverge.

Entry points:

* ``pytest benchmarks/bench_pipeline.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_pipeline.py [--rows N --unique U --repeats R]``
  — standalone comparison emitting the ``BENCH_pipeline.json`` artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.experiments.common import load_dataset
from repro.pipeline import ClusteringSpec
from repro.service import (
    ExplanationService,
    PipelineRequest,
    canonical_json,
    explanation_payload,
)

from bench_common import BENCH_ROWS


def _workload(unique: int, repeats: int, n_clusters: int):
    """One clustering spec, ``unique`` explanation seeds x ``repeats``."""
    return [
        PipelineRequest(
            tenant="bench",
            dataset="raw",
            n_clusters=n_clusters,
            clustering_epsilon=1.0,
            seed=seed,
        )
        for _ in range(repeats)
        for seed in range(unique)
    ]


class _PayloadEntry:
    """Just enough of a DatasetEntry for explanation_payload()."""

    def __init__(self, dataset_id, data, counts):
        self.dataset_id = dataset_id
        self.fingerprint = data.fingerprint()
        self.signature = counts.signature()


def _serve_naive(data, requests) -> "list[str]":
    """Refit-per-request serving: stateless, uncached, one fit per call."""
    payloads = []
    for request in requests:
        spec = request.spec()
        clustering = spec.fit(data)  # re-derives the same release each time
        counts = ClusteredCounts(data, clustering)
        derived_id = f"{request.dataset}::{spec.slug()}"
        inner = request.explain_request(derived_id)
        explainer = DPClustX(
            inner.n_candidates, inner.weights_obj(), inner.budget()
        )
        explanation = explainer.explain(
            data, clustering, rng=inner.seed, counts=counts
        )
        entry = _PayloadEntry(derived_id, data, counts)
        payloads.append(
            canonical_json(explanation_payload(inner, entry, explanation))
        )
    return payloads


def _make_service(data) -> ExplanationService:
    service = ExplanationService(auto_tenant_budget=1e9)
    service.register_dataset("raw", data)  # labels-free: pipeline-only
    return service


def _serve_pipeline(service: ExplanationService, requests) -> "list[str]":
    return [
        canonical_json(service.pipeline(r)["result"]) for r in requests
    ]


def test_pipeline_naive(benchmark):
    data = load_dataset("Diabetes", BENCH_ROWS["Diabetes"], n_groups=5, seed=0)
    requests = _workload(unique=3, repeats=2, n_clusters=5)
    benchmark(lambda: _serve_naive(data, requests))


def test_pipeline_service(benchmark):
    data = load_dataset("Diabetes", BENCH_ROWS["Diabetes"], n_groups=5, seed=0)
    requests = _workload(unique=3, repeats=2, n_clusters=5)

    def run():
        return _serve_pipeline(_make_service(data), requests)

    benchmark(run)


# --------------------------------------------------------------------------- #
# standalone before/after harness (JSON artifact)
# --------------------------------------------------------------------------- #


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pipeline_bench(
    n_rows: int = 8_000,
    n_clusters: int = 5,
    unique: int = 6,
    repeats: int = 6,
    timing_repeats: int = 3,
) -> dict:
    """Refit-per-request vs fit-once-cached pipeline + byte-equality check."""
    data = load_dataset("Diabetes", n_rows, n_groups=n_clusters, seed=0)
    requests = _workload(unique, repeats, n_clusters)

    naive_payloads = _serve_naive(data, requests)
    service = _make_service(data)
    service_payloads = _serve_pipeline(service, requests)
    exact_equal = naive_payloads == service_payloads
    stats = service.describe()["stats"]

    serial_s = _median_time(lambda: _serve_naive(data, requests), timing_repeats)
    service_s = _median_time(
        lambda: _serve_pipeline(_make_service(data), requests), timing_repeats
    )

    n_requests = len(requests)
    return {
        "benchmark": "pipeline fit-once/explain-many vs naive refit-per-request",
        "dataset": "diabetes_like",
        "rows": n_rows,
        "clusters": n_clusters,
        "unique_requests": unique,
        "repeats_per_request": repeats,
        "total_requests": n_requests,
        "timing_repeats": timing_repeats,
        "serial_s": serial_s,
        "service_s": service_s,
        "serial_rps": n_requests / serial_s,
        "service_rps": n_requests / service_s,
        "speedup": serial_s / service_s,
        "clustering_fits": stats["clustering_fits"],
        "clustering_cache_hits": stats["clustering_cache_hits"],
        "engine_calls": stats["engine_calls"],
        "cache_hit_ratio": (stats["cache_hits"] + stats["coalesced"])
        / n_requests,
        "exact_equal": exact_equal,
    }


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=8_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--unique", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=6)
    parser.add_argument("--timing-repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default="BENCH_pipeline.json",
        help="JSON artifact path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    result = run_pipeline_bench(
        n_rows=args.rows,
        n_clusters=args.clusters,
        unique=args.unique,
        repeats=args.repeats,
        timing_repeats=args.timing_repeats,
    )
    print(json.dumps(result, indent=2))
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


if __name__ == "__main__":
    main()
