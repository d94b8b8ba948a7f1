"""Load benchmark for the sharded multi-process serving tier.

Two measurements against a live :class:`~repro.service.supervisor.ShardSupervisor`
deployment, driven through the :class:`~repro.service.frontend.AsyncFrontend`
data path (the same code ``python -m repro serve --workers N`` runs):

* **open loop** — Poisson arrivals at a fixed offered rate (exponential
  interarrival gaps, *not* waiting for responses — queueing delay shows up
  as latency, the honest way to measure a server), with zipf-skewed tenant
  and seed popularity (a few hot tenants and hot request configurations
  dominate, as in any real multi-tenant service).  Reports p50/p99/p999 of
  the per-request enqueue→resolve wall time and the achieved throughput.
* **saturation** — a closed-loop flood of the same workload, as fast as the
  deployment will take it, against both a single in-process service and the
  W-worker sharded tier.  The ratio is the tier's scaling headroom; on a
  single-core container it is ≈1 by construction (W workers share one CPU),
  so the artifact records ``cores`` and ``scripts/ci.sh`` gates the ≥3x
  expectation only where ≥8 cores exist to scale onto.  The flood also
  records ``frames_per_request`` (``explain_batch`` frames the front end
  wrote, per request) and ``engine_passes`` (``engine-score`` spans across
  the workers): the cost of the one-coalescer design, in frames and in
  batched scoring passes.

Correctness rides along: the DP releases (the ``result`` block) produced by
the single-process service and the sharded tier for the identical workload
must be byte-identical (``exact_equal``) — sharding may change *where* a
request is served, never *what* is released.  (Envelope ``meta`` is
excluded by design: a single process dedups cache hits across tenants,
while shards only dedup within their own partition, so cache/charge
annotations legitimately differ.)

Observability rides along too (both tiers run with per-tenant journal
ledgers, so the fsync path is part of what is measured):

* the ``obs`` section floods the single-process service with the metrics
  registry enabled and disabled (best-of-N each); ``throughput_ratio``
  is enabled/disabled — ``scripts/ci.sh`` gates it at >= 0.95 — and
  ``byte_identical`` asserts instrumentation never perturbs DP bytes;
* the sharded deployment is scraped through the front end's merged
  snapshot before shutdown; the artifact records per-span observation
  counts and that the snapshot renders as Prometheus text;
* open-loop and saturation results both break errors down per class
  (``"<code>:<reason>"``), so a 429 surge is distinguishable from 503s.

Entry point::

    python benchmarks/bench_load.py [--workers N --rate R --duration S]

merges a ``"sharded"`` section into ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import tempfile
import time

import numpy as np

from repro.experiments.common import fit_clustering, load_dataset
from repro.obs import (
    SPAN_HISTOGRAM,
    MetricsRegistry,
    prometheus_text,
    snapshot_series,
    snapshot_value,
)
from repro.service import ExplainRequest, ExplanationService
from repro.service.cache import canonical_json
from repro.service.frontend import AsyncFrontend
from repro.service.supervisor import ShardSupervisor

from bench_common import merge_json_artifact


def _dataset_and_clustering(n_rows: int, n_clusters: int):
    data = load_dataset("Diabetes", n_rows, n_groups=n_clusters, seed=0)
    clustering = fit_clustering("k-means", data, n_clusters, rng=0)
    return data, clustering


def _zipf_probs(n: int, a: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-a
    return p / p.sum()


def make_workload(
    n_requests: int,
    rate_rps: float,
    *,
    n_tenants: int = 16,
    n_seeds: "int | None" = 8,
    tenant_skew: float = 1.1,
    seed_skew: float = 1.2,
    rng_seed: int = 0,
) -> "list[tuple[float, ExplainRequest]]":
    """``(arrival_offset_s, request)`` pairs: Poisson arrivals, zipf skew.

    ``n_seeds=None`` gives every request a unique seed — all cache misses,
    the compute-bound workload the saturation comparison scales on (a
    cache-hit flood would only measure IPC overhead).
    """
    rng = np.random.default_rng(rng_seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n_requests)
    offsets = np.cumsum(gaps)
    tenants = rng.choice(
        n_tenants, size=n_requests, p=_zipf_probs(n_tenants, tenant_skew)
    )
    if n_seeds is None:
        seeds = np.arange(n_requests)
    else:
        seeds = rng.choice(
            n_seeds, size=n_requests, p=_zipf_probs(n_seeds, seed_skew)
        )
    return [
        (
            float(offsets[i]),
            ExplainRequest(
                tenant=f"tenant-{tenants[i]}",
                dataset="diabetes",
                seed=int(seeds[i]),
            ),
        )
        for i in range(n_requests)
    ]


def _quantile(sorted_xs: "list[float]", q: float) -> float:
    if not sorted_xs:
        return float("nan")
    idx = min(len(sorted_xs) - 1, max(0, int(round(q * (len(sorted_xs) - 1)))))
    return sorted_xs[idx]


def _error_classes(envelopes) -> "dict[str, int]":
    """Non-ok envelopes bucketed as ``"<code>:<reason>"`` counts."""
    counts: "dict[str, int]" = {}
    for e in envelopes:
        if e.get("status") == "ok":
            continue
        reason = (e.get("error") or {}).get("reason", "unknown")
        key = f"{e.get('code')}:{reason}"
        counts[key] = counts.get(key, 0) + 1
    return counts


async def _open_loop(
    frontend: AsyncFrontend, schedule, timeout_s: float
) -> dict:
    """Fire requests at their scheduled offsets; latency includes queueing."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    tasks = []

    async def one(request, intended: float):
        envelope = await frontend.explain(request, timeout_s=timeout_s)
        return loop.time() - intended, envelope

    for offset, request in schedule:
        delay = (t0 + offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(one(request, t0 + offset))
        )
    pairs = await asyncio.gather(*tasks)
    total_s = loop.time() - t0
    latencies = sorted(p[0] for p in pairs)
    envelopes = [e for _, e in pairs]
    errors = sum(1 for e in envelopes if e.get("status") != "ok")
    return {
        "requests": len(schedule),
        "errors": errors,
        "error_classes": _error_classes(envelopes),
        "offered_rps": len(schedule) / schedule[-1][0],
        "achieved_rps": len(schedule) / total_s,
        "p50_ms": _quantile(latencies, 0.50) * 1e3,
        "p99_ms": _quantile(latencies, 0.99) * 1e3,
        "p999_ms": _quantile(latencies, 0.999) * 1e3,
        "max_ms": latencies[-1] * 1e3,
    }


async def _flood(
    frontend: AsyncFrontend, requests, timeout_s: float
) -> "tuple[float, list[dict]]":
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    envelopes = await asyncio.gather(
        *[frontend.explain(r, timeout_s=timeout_s) for r in requests]
    )
    return loop.time() - t0, list(envelopes)


def _flood_single_process(
    data, clustering, requests, *, obs_enabled: bool = True
) -> "tuple[float, list[dict]]":
    """The single-process baseline: same workload, one coalescing service.

    Runs against a throwaway journal ledger directory so the fsync path is
    exercised like the sharded tier's; ``obs_enabled=False`` keeps every
    metric and span a no-op, which is what the overhead ratio compares.
    """
    with tempfile.TemporaryDirectory(prefix="bench-load-ledgers-") as ledgers:
        service = ExplanationService(
            ledger_dir=ledgers,
            auto_tenant_budget=1e9,
            metrics=MetricsRegistry(enabled=obs_enabled),
        )
        service.register_dataset("diabetes", data, clustering)
        t0 = time.perf_counter()
        futures = [service.submit(r) for r in requests]
        service.process_pending()
        envelopes = [f.result(timeout=120) for f in futures]
        elapsed = time.perf_counter() - t0
        service.stop()
    return elapsed, envelopes


def _span_counts(snapshot: dict) -> "dict[str, int]":
    """Observation count per span label in a merged registry snapshot."""
    return {
        labels[0]: cell["count"]
        for labels, cell in snapshot_series(snapshot, SPAN_HISTOGRAM).items()
    }


def _frames_written(frontend: AsyncFrontend) -> int:
    """Frames the front end's process has written (its own registry only)."""
    snapshot = frontend.metrics.snapshot()
    return snapshot_value(snapshot, "repro_frames_total", ("written",)) or 0


def _result_bytes(envelopes) -> "list[str]":
    return [
        canonical_json(e["result"]) if e.get("status") == "ok" else canonical_json(e)
        for e in envelopes
    ]


def run_load_bench(
    n_rows: int = 2_000,
    n_clusters: int = 3,
    workers: int = 2,
    rate_rps: float = 50.0,
    duration_s: float = 3.0,
    flood_requests: int = 200,
    timeout_s: float = 120.0,
    obs_repeats: int = 4,
) -> dict:
    data, clustering = _dataset_and_clustering(n_rows, n_clusters)
    schedule = make_workload(
        max(8, int(rate_rps * duration_s)), rate_rps
    )
    flood = [
        r
        for _, r in make_workload(
            flood_requests, rate_rps, n_seeds=None, rng_seed=1
        )
    ]

    # Instrumentation overhead: best-of-N floods with the registry enabled
    # vs disabled (fresh service + ledger dir each run, so caches and
    # journal replay never favour one side).  Each repeat alternates which
    # side runs first: when ambient load is decaying (this bench runs right
    # after heavier ones in CI) a fixed order hands the first runner a
    # systematic penalty that best-of-N alone cannot cancel.  N=2 also
    # proved too few on a busy single-core box, so the default is
    # best-of-4.  The enabled envelopes double as the single-process
    # baseline for the sharded comparison below.
    _flood_single_process(data, clustering, flood)  # warmup (not timed)
    enabled_times, disabled_times = [], []
    single_envelopes = disabled_envelopes = None
    for i in range(max(1, obs_repeats)):
        sides = ("on", "off") if i % 2 == 0 else ("off", "on")
        for side in sides:
            if side == "on":
                t_on, env_on = _flood_single_process(data, clustering, flood)
                enabled_times.append(t_on)
            else:
                t_off, env_off = _flood_single_process(
                    data, clustering, flood, obs_enabled=False
                )
                disabled_times.append(t_off)
        single_envelopes, disabled_envelopes = env_on, env_off
    single_s = min(enabled_times)
    obs = {
        "enabled_s": min(enabled_times),
        "disabled_s": min(disabled_times),
        "throughput_ratio": min(disabled_times) / min(enabled_times),
        "byte_identical": _result_bytes(single_envelopes)
        == _result_bytes(disabled_envelopes),
    }

    with tempfile.TemporaryDirectory(prefix="bench-load-shards-") as ledgers:
        supervisor = ShardSupervisor(
            workers, ledger_dir=ledgers, auto_tenant_budget=1e9
        )
        supervisor.start()
        try:
            supervisor.register_dataset("diabetes", data, clustering)

            async def session():
                frontend = AsyncFrontend(supervisor)
                await frontend.start()
                open_loop = await _open_loop(frontend, schedule, timeout_s)
                # Scrapes write control frames, so frame counts are read
                # inside the scrapes that bracket the flood.
                spans_before = _span_counts(frontend.metrics_snapshot())
                frames_before = _frames_written(frontend)
                flood_s, flood_envelopes = await _flood(
                    frontend, flood, timeout_s
                )
                flood_frames = _frames_written(frontend) - frames_before
                snapshot = frontend.metrics_snapshot()
                await frontend.close()
                engine_passes = _span_counts(snapshot).get(
                    "engine-score", 0
                ) - spans_before.get("engine-score", 0)
                return (open_loop, flood_s, flood_envelopes, snapshot,
                        flood_frames, engine_passes)

            (open_loop, flood_s, flood_envelopes, snapshot, flood_frames,
             engine_passes) = asyncio.run(session())
            worker_latency = [
                w.get("latency") for w in supervisor.describe()["workers"]
            ]
        finally:
            supervisor.stop()

    obs["span_counts"] = _span_counts(snapshot)
    obs["prometheus_text_ok"] = prometheus_text(snapshot).startswith("# HELP")

    exact_equal = _result_bytes(single_envelopes) == _result_bytes(
        flood_envelopes
    )
    return {
        "benchmark": "sharded serving tier under open-loop + saturation load",
        "workers": workers,
        "cores": os.cpu_count(),
        "rows": n_rows,
        "clusters": n_clusters,
        "open_loop": open_loop,
        "saturation": {
            "requests": len(flood),
            "single_process_s": single_s,
            "single_process_rps": len(flood) / single_s,
            "sharded_s": flood_s,
            "sharded_rps": len(flood) / flood_s,
            "speedup": single_s / flood_s,
            "frames_per_request": flood_frames / len(flood),
            "engine_passes": engine_passes,
            "error_classes": _error_classes(flood_envelopes),
        },
        "obs": obs,
        "exact_equal": exact_equal,
        "worker_latency": worker_latency,
    }


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2_000)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rate", type=float, default=50.0,
                        help="offered open-loop arrival rate (requests/s)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="open-loop phase length (s)")
    parser.add_argument("--flood-requests", type=int, default=200,
                        help="closed-loop saturation workload size")
    parser.add_argument("--obs-repeats", type=int, default=4,
                        help="best-of-N repeats for the metrics-overhead ratio")
    parser.add_argument(
        "--out",
        default="BENCH_service.json",
        help="artifact to merge the 'sharded' section into ('-' to skip)",
    )
    args = parser.parse_args(argv)
    result = run_load_bench(
        n_rows=args.rows,
        n_clusters=args.clusters,
        workers=args.workers,
        rate_rps=args.rate,
        duration_s=args.duration,
        flood_requests=args.flood_requests,
        obs_repeats=args.obs_repeats,
    )
    print(json.dumps(result, indent=2))
    if args.out != "-":
        merge_json_artifact(args.out, {"sharded": result})
    return result


if __name__ == "__main__":
    main()
