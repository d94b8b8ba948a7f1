"""Before/after benchmark of the explanation service layer.

Replays a realistic interactive workload — ``unique`` distinct requests
(different seed streams), each asked ``repeats`` times, as analysts re-open
the same explanation — against two server designs:

* ``serial_s`` — naive per-request execution: every request is handled
  statelessly (fresh :class:`~repro.core.counts.ClusteredCounts`, fresh
  scoring engine, full ``DPClustX.explain``), no batching, no caching —
  what a thin stateless HTTP wrapper around the explainer would do;
* ``service_s`` — the :class:`~repro.service.service.ExplanationService`
  path: requests coalesce into one batched scoring pass per configuration
  (:func:`~repro.evaluation.sweeps.explain_batched`), repeat releases are
  served from the fingerprint-keyed cache with zero budget charged.

Both paths produce byte-identical response payloads (``exact_equal`` in the
artifact — the serial release and the served release consume the same seed
streams); ``scripts/ci.sh`` fails if the throughput speedup regresses below
5x or the payloads diverge.

Entry points:

* ``pytest benchmarks/bench_service.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_service.py [--rows N --unique U --repeats R]``
  — standalone comparison emitting the ``BENCH_service.json`` artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.experiments.common import fit_clustering, load_dataset
from repro.service import (
    ExplainRequest,
    ExplanationService,
    canonical_json,
    explanation_payload,
)

from bench_common import BENCH_ROWS, merge_json_artifact


def _dataset_and_clustering(n_rows: int, n_clusters: int):
    data = load_dataset("Diabetes", n_rows, n_groups=n_clusters, seed=0)
    clustering = fit_clustering("k-means", data, n_clusters, rng=0)
    return data, clustering


def _workload(unique: int, repeats: int) -> "list[ExplainRequest]":
    """``unique`` distinct seed streams, each requested ``repeats`` times."""
    return [
        ExplainRequest(tenant="bench", dataset="diabetes", seed=seed)
        for _ in range(repeats)
        for seed in range(unique)
    ]


def _serve_serial(data, clustering, requests) -> "list[str]":
    """The naive per-request server: stateless, uncached, unbatched."""
    payloads = []
    for request in requests:
        counts = ClusteredCounts(data, clustering)  # stateless handling
        explainer = DPClustX(
            request.n_candidates, request.weights_obj(), request.budget()
        )
        explanation = explainer.explain(
            data, clustering, rng=request.seed, counts=counts
        )
        entry = _PayloadEntry(data, counts)
        payloads.append(canonical_json(explanation_payload(request, entry, explanation)))
    return payloads


class _PayloadEntry:
    """Just enough of a DatasetEntry for explanation_payload()."""

    def __init__(self, data, counts):
        self.dataset_id = "diabetes"
        self.fingerprint = data.fingerprint()
        self.signature = counts.signature()


def _make_service(data, clustering) -> ExplanationService:
    service = ExplanationService(auto_tenant_budget=1e9)
    service.register_dataset("diabetes", data, clustering)
    return service


def _serve_batched(service: ExplanationService, requests) -> "list[str]":
    """The service path: submit everything, drain, collect payload bytes."""
    futures = [service.submit(r) for r in requests]
    service.process_pending()
    return [
        canonical_json(f.result(timeout=60)["result"]) for f in futures
    ]


def test_service_serial(benchmark):
    data, clustering = _dataset_and_clustering(BENCH_ROWS["Diabetes"], 5)
    requests = _workload(unique=4, repeats=4)
    benchmark(lambda: _serve_serial(data, clustering, requests))


def test_service_batched(benchmark):
    data, clustering = _dataset_and_clustering(BENCH_ROWS["Diabetes"], 5)
    requests = _workload(unique=4, repeats=4)

    def run():
        service = _make_service(data, clustering)
        return _serve_batched(service, requests)

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


def run_service_bench(
    n_rows: int = 8_000,
    n_clusters: int = 5,
    unique: int = 6,
    repeats: int = 6,
    timing_repeats: int = 3,
) -> dict:
    """Serial vs coalesced/cached service comparison + byte-equality check."""
    data, clustering = _dataset_and_clustering(n_rows, n_clusters)
    requests = _workload(unique, repeats)

    serial_payloads = _serve_serial(data, clustering, requests)
    service = _make_service(data, clustering)
    service_payloads = _serve_batched(service, requests)
    exact_equal = serial_payloads == service_payloads
    stats = service.describe()["stats"]

    serial_s = _median_time(
        lambda: _serve_serial(data, clustering, requests), timing_repeats
    )

    def timed_service():
        # A fresh service each run: the cold path (one batched scoring pass
        # per configuration) plus the warm path (cache hits) together.
        _serve_batched(_make_service(data, clustering), requests)

    service_s = _median_time(timed_service, timing_repeats)

    n_requests = len(requests)
    return {
        "benchmark": "explanation service vs naive per-request serving",
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
        "cache_hit_ratio": (stats["cache_hits"] + stats["coalesced"])
        / n_requests,
        "engine_calls": stats["engine_calls"],
        "releases": stats["releases"],
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
        default="BENCH_service.json",
        help="JSON artifact path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    result = run_service_bench(
        n_rows=args.rows,
        n_clusters=args.clusters,
        unique=args.unique,
        repeats=args.repeats,
        timing_repeats=args.timing_repeats,
    )
    print(json.dumps(result, indent=2))
    if args.out != "-":
        # Merge, don't clobber: bench_load.py adds a "sharded" section to
        # the same artifact.
        merge_json_artifact(args.out, result)
    return result


if __name__ == "__main__":
    main()
