"""The benchmark's five workloads.

Each workload class builds its inputs from the ``--seed`` argument alone,
then exposes the same lifecycle to ``run.py``:

* ``setup()`` — generate data, fit the reference clustering, build and
  register the service (or supervisor, or lint corpus) and warm its caches;
  this is what ``setup_s`` times;
* ``run(seconds, tracer)`` — one measured :class:`~harness.Window`; a
  second (traced) window continues where the first stopped, so keys that
  must be unseen stay unseen;
* ``instrument(tracer)`` — the public functions wrapped in a traced run;
* ``verify(window)`` — correctness checks; a failed check counts its op as
  failed;
* ``layers(window, tracer)`` — the per-layer metrics of a window;
* ``close()`` — stop every thread and process, remove its work files.

Work files (ledgers, sockets, the extracted lint corpus) live under
``.perfbench-work/`` in the current directory, which ``run.py`` sets to the
checkout root.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import queue
import shutil
import tarfile
import tempfile
import time

from collections import Counter

import numpy as np

import repro.service.service as service_mod

from repro.analysis import lint_paths
from repro.analysis import engine as lint_engine
from repro.analysis.flow import FLOW_RULES
from repro.analysis.rules import ALL_RULES
from repro.clustering import KMeans
from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.core.engine.engine import ScoringEngine
from repro.evaluation.sweeps import explain_batched
from repro.obs.metrics import SUM_SCALE, snapshot_series
from repro.obs.tracing import SPAN_HISTOGRAM
from repro.privacy.budget import GRID, PrivacyAccountant, quantize_epsilon
from repro.service.cache import CacheEntry, ExplanationCache, canonical_json
from repro.service.frontend import AsyncFrontend
from repro.service.journal import TenantLedgerStore
from repro.service.queue import RequestQueue
from repro.service.registry import ServiceRegistry
from repro.service.shard import shard_of
from repro.service.service import (
    ExplainRequest,
    ExplanationService,
    explanation_payload,
)
from repro.service.supervisor import ShardSupervisor
from repro.synth import diabetes_like

from harness import Tracer, Window, envelope_error_class, quantile

WORK_DIR = ".perfbench-work"
DATASET = "diabetes"
N_TENANTS = 16
TENANT_SKEW = 1.1
SEED_SKEW = 1.2
BUDGET = 1e9  # per tenant: any refusal is a bug
FIT_ROWS = 8_000  # the reference clustering is fitted on the first rows
DATA_SEED = 0

#: ε one default request is charged (the Section 6.1 triple).
REQUEST_EPSILON = ExplainRequest(tenant="t", dataset=DATASET).epsilon_total
REQUEST_UNITS = quantize_epsilon(REQUEST_EPSILON)


TENANTS = tuple(f"tenant-{i:02d}" for i in range(N_TENANTS))


def _zipf_probs(n: int, a: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -a
    return p / p.sum()


def _diabetes(n_rows: int, n_clusters: int):
    """Diabetes-like rows plus a k-means clustering fitted on a prefix.

    The table is the same for every ``--seed`` (which draws the requests,
    DP seeds and arrivals): how long a release takes depends on the data,
    and a per-seed table would make runs differ by more than any change
    worth detecting.
    """
    data = diabetes_like(n_rows=n_rows, n_groups=n_clusters, seed=DATA_SEED)
    fit_on = data.subset(np.arange(n_rows) < min(n_rows, FIT_ROWS))
    clustering = KMeans(n_clusters).fit(fit_on, np.random.default_rng(DATA_SEED))
    return data, clustering


def _work_dir(prefix: str) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def _mean(total: float, n: float) -> float:
    return total / n if n else 0.0


class _PayloadEntry:
    """Just enough of a ``DatasetEntry`` for ``explanation_payload``."""

    def __init__(self, data, counts):
        self.dataset_id = DATASET
        self.fingerprint = data.fingerprint()
        self.signature = counts.signature()


def _serial_payload(data, clustering, request: ExplainRequest) -> str:
    """One release the stateless way: fresh counts, serial ``explain``."""
    counts = ClusteredCounts(data, clustering)
    explainer = DPClustX(request.n_candidates, request.weights_obj(), request.budget())
    explanation = explainer.explain(data, clustering, rng=request.seed, counts=counts)
    return canonical_json(
        explanation_payload(request, _PayloadEntry(data, counts), explanation)
    )


# --------------------------------------------------------------------------- #
# metrics-registry snapshots (the numbers /metrics exports)
# --------------------------------------------------------------------------- #


def _counter_delta(after: dict, before: dict, name: str, labels=()) -> int:
    a = snapshot_series(after, name).get(tuple(labels)) or 0
    b = snapshot_series(before, name).get(tuple(labels)) or 0
    return a - b


def _hist_delta(after: dict, before: dict, name: str, labels=()) -> "tuple[int, float]":
    """``(observations, sum)`` added to one histogram series between snapshots."""
    a = snapshot_series(after, name).get(tuple(labels))
    b = snapshot_series(before, name).get(tuple(labels))
    count = (a["count"] if a else 0) - (b["count"] if b else 0)
    total = ((a["sum"] if a else 0) - (b["sum"] if b else 0)) / SUM_SCALE
    return count, total


def _span_delta(after: dict, before: dict, span: str) -> "tuple[int, float]":
    return _hist_delta(after, before, SPAN_HISTOGRAM, (span,))


def _hit_ratio(after: dict, before: dict) -> float:
    hits = _counter_delta(after, before, "repro_cache_events_total", ("explanation", "hit"))
    misses = _counter_delta(
        after, before, "repro_cache_events_total", ("explanation", "miss")
    )
    return _mean(hits, hits + misses)


def _fanin(after: dict, before: dict) -> float:
    batches, items = _hist_delta(after, before, "repro_coalesce_fanin")
    return _mean(items, batches)


# --------------------------------------------------------------------------- #
# in-process service workloads
# --------------------------------------------------------------------------- #


def _record_waits(tracer: Tracer, batch) -> None:
    """Queue wait of every request a ``take_batch`` handed to a worker."""
    if not batch:
        return
    now = time.monotonic()
    tracer.sums["service.queue.wait"] += sum(now - p.enqueued for p in batch)


def _record_seeds(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["evaluation.sweeps.calls"] += 1
    tracer.counts["evaluation.sweeps.seeds"] += len(args[2])


def _instrument_service(tracer: Tracer) -> None:
    """Wrap every service-path layer, including consumer rebindings."""
    tracer.patch(ExplainRequest, "validated", "service.admission.validated")
    tracer.patch(ServiceRegistry, "dataset", "service.admission.lookup")
    tracer.patch(ServiceRegistry, "tenant", "service.admission.lookup")
    tracer.patch(ExplanationCache, "get", "service.cache.get")
    tracer.patch(ExplanationCache, "put", "service.cache.put")
    tracer.patch(CacheEntry, "payload", "service.cache.entry_payload")
    tracer.patch(service_mod, "explanation_payload", "service.envelope.encode")
    tracer.patch(service_mod, "canonical_json", "service.envelope.encode")
    tracer.patch(RequestQueue, "put", "service.queue.put")
    tracer.patch(RequestQueue, "take_batch", "service.queue.take_batch",
                 on_return=_record_waits, span=False)
    tracer.patch(PrivacyAccountant, "spend", "privacy.budget.spend")
    tracer.patch(TenantLedgerStore, "record", "service.journal.record")
    tracer.patch(os, "fsync", "service.journal.fsync")
    tracer.patch(service_mod, "explain_batched", "evaluation.sweeps.explain_batched",
                 on_call=_record_seeds)
    tracer.patch(DPClustX, "release_histograms", "core.dpclustx.release_histograms")


def _service_layers(window: Window, tracer: Tracer) -> dict:
    """Per-op layer times of a traced in-process service window."""
    ops = max(1, window.attempted)
    totals = tracer.layer_totals()

    def per_op(layer: str, scale: float) -> float:
        return totals.get(layer, {}).get("incl_s", 0.0) / ops * scale

    counts = tracer.counts
    return {
        "service.admission.validated_us": per_op("service.admission.validated", 1e6),
        "service.admission.lookup_us": per_op("service.admission.lookup", 1e6),
        "service.cache.get_us": per_op("service.cache.get", 1e6),
        "service.cache.entry_payload_us": per_op("service.cache.entry_payload", 1e6),
        "service.envelope.encode_us": per_op("service.envelope.encode", 1e6),
        "service.queue.wait_ms": tracer.sums["service.queue.wait"] / ops * 1e3,
        "privacy.budget.spend_us": per_op("privacy.budget.spend", 1e6),
        "service.journal.record_us": per_op("service.journal.record", 1e6),
        "service.journal.fsyncs_per_op": totals.get(
            "service.journal.fsync", {}
        ).get("calls", 0) / ops,
        "evaluation.sweeps.explain_batched_ms": per_op(
            "evaluation.sweeps.explain_batched", 1e3
        ),
        "evaluation.sweeps.seeds_per_call": _mean(
            counts["evaluation.sweeps.seeds"], counts["evaluation.sweeps.calls"]
        ),
        "core.dpclustx.release_histograms_us": per_op(
            "core.dpclustx.release_histograms", 1e6
        ),
    }


class _ServiceWorkload:
    """Shared set-up of the two in-process service workloads."""

    name = ""
    n_rows = 8_000
    n_clusters = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0x5E7])
        self.dir: "str | None" = None
        self.service: "ExplanationService | None" = None
        self.paid: Counter = Counter()  # tenant -> misses it paid for

    def _build(self) -> None:
        self.dir = _work_dir(f"{self.name}-")
        self.data, self.clustering = _diabetes(self.n_rows, self.n_clusters)
        self.service = ExplanationService(
            ledger_dir=os.path.join(self.dir, "ledgers"), auto_tenant_budget=BUDGET
        )
        self.service.register_dataset(DATASET, self.data, self.clustering)

    def _note(self, window: Window, envelope: dict, expect: str) -> bool:
        """Classify one envelope; ``True`` when it was served as ``expect``."""
        error = envelope_error_class(envelope)
        if error is not None:
            window.fail(error)
            return False
        meta = envelope["meta"]
        if meta["cache"] == "miss":
            self.paid[meta["tenant"]] += 1
        if meta["cache"] != expect:
            window.fail(f"check:served-{meta['cache']}-not-{expect}")
            return False
        return True

    def _ledger_units(self) -> "dict[str, int]":
        return {
            t.tenant_id: t.accountant(DATASET).balance().spent_units
            for t in self.service.registry.tenants()
        }

    def _verify_ledgers(self, window: Window) -> None:
        """Each tenant's spend equals its paid misses × ε, exactly in units."""
        units = self._ledger_units()
        for tenant in set(units) | set(self.paid):
            if units.get(tenant, 0) != self.paid[tenant] * REQUEST_UNITS:
                window.fail("check:ledger-units")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def instrument(self, tracer: Tracer) -> None:
        _instrument_service(tracer)

    def layers(self, window: Window, tracer: "Tracer | None") -> dict:
        """Registry-derived layers always; wrapped ones when traced."""
        before, after = window.extra["snapshots"]
        units = sum(after[1].values()) - sum(before[1].values())
        served = max(1, window.attempted - window.failed)
        out = {
            "service.cache.hit_ratio": _hit_ratio(after[0], before[0]),
            "service.queue.batch_size": _fanin(after[0], before[0]),
            "privacy.budget.epsilon_per_op": units / GRID / served,
        }
        if tracer is not None:
            out.update(_service_layers(window, tracer))
        return out

    def _snapshot(self):
        return self.service.metrics.snapshot(), self._ledger_units()


class HotHits(_ServiceWorkload):
    """Closed loop, one client, every request a cache hit.

    16 tenants (zipf 1.1) × 8 seeds (zipf 1.2), all warmed in set-up, so the
    window runs only admission, cache lookup and envelope decode; the
    ledger, journal and engine are bypassed.
    """

    name = "hot-hits"
    n_seeds = 8
    stream_len = 4096
    byte_check_every = 16

    def setup(self) -> None:
        self._build()
        seeds = [int(s) for s in self.rng.choice(1 << 30, self.n_seeds, replace=False)]
        tenants = TENANTS
        self.expected: "dict[int, str]" = {}
        warm = Window()
        for tenant in tenants:
            for seed in seeds:
                envelope = self.service.explain(
                    ExplainRequest(tenant=tenant, dataset=DATASET, seed=seed)
                )
                if envelope_error_class(envelope) is not None:
                    raise RuntimeError(f"warm-up request failed: {envelope}")
                self._note(warm, envelope, envelope["meta"]["cache"])
                self.expected.setdefault(seed, canonical_json(envelope["result"]))
        t_idx = self.rng.choice(
            N_TENANTS, self.stream_len, p=_zipf_probs(N_TENANTS, TENANT_SKEW)
        )
        s_idx = self.rng.choice(
            self.n_seeds, self.stream_len, p=_zipf_probs(self.n_seeds, SEED_SKEW)
        )
        self.stream = [
            ExplainRequest(tenant=tenants[t], dataset=DATASET, seed=seeds[s])
            for t, s in zip(t_idx, s_idx)
        ]

    def run(self, seconds: float, tracer: "Tracer | None") -> Window:
        window = Window()
        explain = self.service.explain
        stream, n = self.stream, len(self.stream)
        expected = self.expected
        latencies = window.latencies
        clock = time.perf_counter
        before = self._snapshot()
        pace = window.start_pace(tracer)
        deadline = clock() + seconds
        i = 0
        try:
            while True:
                request = stream[i % n]
                if tracer is not None:
                    tracer.set_op(i)
                stolen = pace.stolen
                t0 = clock()
                envelope = explain(request)
                t1 = clock()
                latencies.append(t1 - t0 - (pace.stolen - stolen))
                window.stamps.append(t0)
                if self._note(window, envelope, "hit") and i % self.byte_check_every == 0:
                    if canonical_json(envelope["result"]) != expected[request.seed]:
                        window.fail("check:hit-bytes")
                i += 1
                if t1 >= deadline:
                    break
        finally:
            pace.stop()
        window.attempted = i
        window.busy_s = sum(latencies)
        window.e2e_per_op_s = window.busy_s / i
        window.extra["snapshots"] = (before, self._snapshot())
        return window

    def verify(self, window: Window) -> None:
        self._verify_ledgers(window)



class ColdMisses(_ServiceWorkload):
    """Closed loop, 32 requests outstanding from one thread, all misses.

    The service runs one worker thread; every seed is unique, so every
    request is a funded miss through queue coalescing, ``spend`` plus the
    journal fsync, ``explain_batched``, release and encode.
    """

    name = "cold-misses"
    outstanding = 32
    warm_requests = 64
    sample_every = 1024  # ops between byte-identity samples
    max_samples = 8
    timeout_s = 60.0

    def setup(self) -> None:
        self._build()
        # One core for the client and the worker thread (threads started
        # from here inherit it): the GIL runs one of them at a time anyway,
        # and the pace samples, taken on the client thread, then measure
        # the core the worker runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.service.start(workers=1)
        self.tenant_probs = _zipf_probs(N_TENANTS, TENANT_SKEW)
        self.next_seed = int(self.rng.integers(1 << 40))
        # Provision every tenant's journal and warm the sweep context.
        futures = [self.service.submit(self._request(i % N_TENANTS))
                   for i in range(self.warm_requests)]
        warm = Window()
        for future in futures:
            self._note(warm, future.result(self.timeout_s), "miss")
        if warm.failed:
            raise RuntimeError(f"warm-up requests failed: {dict(warm.errors)}")

    def _request(self, tenant: "int | None" = None) -> ExplainRequest:
        if tenant is None:
            tenant = int(self.rng.choice(N_TENANTS, p=self.tenant_probs))
        self.next_seed += 1
        return ExplainRequest(
            tenant=TENANTS[tenant], dataset=DATASET, seed=self.next_seed
        )

    def run(self, seconds: float, tracer: "Tracer | None") -> Window:
        window = Window()
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        clock = time.perf_counter
        submit = self.service.submit
        samples = window.extra["samples"] = []
        before = self._snapshot()

        def send() -> None:
            request = self._request()
            t0 = clock()
            future = submit(request)
            future.add_done_callback(lambda f: done.put((request, t0, clock(), f)))

        pace = window.start_pace(tracer)
        start = last = clock()
        deadline = start + seconds
        try:
            for _ in range(self.outstanding):
                send()
            in_flight = self.outstanding
            while in_flight:
                try:
                    request, t0, t1, future = done.get(timeout=self.timeout_s)
                except queue.Empty:
                    window.fail("timeout:no-reply", in_flight)
                    window.attempted += in_flight
                    break
                in_flight -= 1
                window.attempted += 1
                window.latencies.append(t1 - t0)
                window.stamps.append(t0)
                last = max(last, t1)
                envelope = future.result()
                served = self._note(window, envelope, "miss")
                if (served and window.attempted % self.sample_every == 1
                        and len(samples) < self.max_samples):
                    samples.append((request, canonical_json(envelope["result"])))
                if clock() < deadline:
                    send()
                    in_flight += 1
        finally:
            pace.stop()
        window.busy_s = last - start
        window.e2e_per_op_s = window.busy_s / max(1, window.attempted)
        window.extra["snapshots"] = (before, self._snapshot())
        return window

    def verify(self, window: Window) -> None:
        for request, served in window.extra["samples"]:
            if _serial_payload(self.data, self.clustering, request) != served:
                window.fail("check:release-bytes")
        self._verify_ledgers(window)



# --------------------------------------------------------------------------- #
# sharded tier, open loop
# --------------------------------------------------------------------------- #


async def _gather(awaitables) -> list:
    return await asyncio.gather(*awaitables)


class ShardedOpen:
    """Open-loop Poisson arrivals into a 2-worker sharded deployment.

    Requests go through ``AsyncFrontend`` (2 ms coalescing window, frame
    transport, worker queue).  16 tenants; 98% of requests ask for one of
    64 zipf-popular seeds that set-up warmed on both workers (hits), and
    exactly 2% for a seed nobody asked before (funded misses, through the
    worker queue, ledger and engine).  So the mix is the same from the
    first second of the window to the last.  Latency runs from each
    request's due time; worker-side layers come from the deployment's
    merged metrics snapshot, because worker processes cannot be wrapped
    from here.
    """

    name = "sharded-open"
    workers = 2
    rate_rps = 200.0
    n_hot = 64
    miss_share = 0.02
    timeout_s = 30.0
    #: The generator fell behind (the run is invalid) when a tenth of the
    #: requests went out this late: a backlog, not one host stall (those
    #: show in the lateness p99 and max the report prints).
    late_p90_limit_s = 0.010

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0x0BE])
        self.loop: "asyncio.AbstractEventLoop | None" = None
        self.supervisor: "ShardSupervisor | None" = None
        self.frontend: "AsyncFrontend | None" = None
        self.dir: "str | None" = None

    def setup(self) -> None:
        self.dir = _work_dir("sharded-")
        self.data, self.clustering = _diabetes(8_000, 5)
        self.hot = [int(s) for s in self.rng.choice(1 << 30, self.n_hot, replace=False)]
        self.next_fresh = (1 << 40) + int(self.rng.integers(1 << 30))
        self.loop = asyncio.new_event_loop()
        self.supervisor = ShardSupervisor(
            self.workers,
            ledger_dir=os.path.join(self.dir, "ledgers"),
            auto_tenant_budget=BUDGET,
            # Relative and short: unix socket paths are limited to ~100 bytes.
            socket_dir=os.path.relpath(os.path.join(self.dir, "s")),
        )
        self.supervisor.start()
        self.supervisor.register_dataset(DATASET, self.data, self.clustering)
        self.frontend = AsyncFrontend(self.supervisor)
        self.loop.run_until_complete(self.frontend.start())
        # Provision every tenant, and put every hot seed in every worker's
        # cache (a tenant's worker is fixed, so one tenant per worker).
        tenants = TENANTS
        per_worker = {shard_of(t, self.workers): t for t in tenants}
        warm = [
            ExplainRequest(tenant=t, dataset=DATASET, seed=self.hot[0]) for t in tenants
        ] + [
            ExplainRequest(tenant=t, dataset=DATASET, seed=s)
            for t in per_worker.values()
            for s in self.hot
        ]
        envelopes = self.loop.run_until_complete(
            _gather([self.frontend.explain(r, self.timeout_s) for r in warm])
        )
        failed = [e for e in envelopes if envelope_error_class(e) is not None]
        if failed:
            raise RuntimeError(f"warm-up requests failed: {failed[0]}")

    def close(self) -> None:
        if self.frontend is not None:
            self.loop.run_until_complete(self.frontend.close())
            self.frontend = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def _schedule(self, seconds: float):
        """Poisson arrivals: zipf-popular hot seeds plus fresh ones."""
        n = max(16, int(round(self.rate_rps * seconds)))
        offsets = np.cumsum(self.rng.exponential(1.0 / self.rate_rps, size=n))
        tenants = self.rng.choice(N_TENANTS, n, p=_zipf_probs(N_TENANTS, TENANT_SKEW))
        hot = self.rng.choice(self.n_hot, n, p=_zipf_probs(self.n_hot, SEED_SKEW))
        fresh = np.zeros(n, dtype=bool)
        fresh[self.rng.choice(n, int(round(n * self.miss_share)), replace=False)] = True
        names = TENANTS
        schedule = []
        for i in range(n):
            if fresh[i]:
                self.next_fresh += 1
                seed = self.next_fresh
            else:
                seed = self.hot[hot[i]]
            schedule.append((
                float(offsets[i]),
                ExplainRequest(tenant=names[tenants[i]], dataset=DATASET, seed=seed),
            ))
        return schedule

    def _ledger_spent(self) -> float:
        return sum(
            sum(l["spent"] for l in self.supervisor.ledger(t)["ledgers"].values())
            for t in TENANTS
        )

    async def _drive(self, schedule, window: Window) -> "list[tuple]":
        loop = asyncio.get_running_loop()
        lateness = window.extra["lateness"] = []
        explain = self.frontend.explain

        async def one(request, due):
            late = loop.time() - due
            lateness.append(late)
            window.stamps.append(time.perf_counter() - late)
            try:
                envelope = await explain(request, timeout_s=self.timeout_s)
            except TimeoutError:
                envelope = {"status": "error", "code": "timeout",
                            "error": {"reason": "frontend"}}
            return request, loop.time() - due, envelope

        tasks = []
        t0 = loop.time() + 0.005
        for offset, request in schedule:
            due = t0 + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(one(request, due)))
        results = await asyncio.gather(*tasks)
        window.busy_s = loop.time() - t0
        return results

    def run(self, seconds: float, tracer: "Tracer | None") -> Window:
        window = Window(open_loop=True)
        schedule = self._schedule(seconds)
        snap0 = self.frontend.metrics_snapshot()
        local0 = self.frontend.metrics.snapshot()
        spent0 = self._ledger_spent()
        pace = window.start_pace(tracer, clock=time.perf_counter)
        try:
            results = self.loop.run_until_complete(self._drive(schedule, window))
        finally:
            pace.stop()
        local1 = self.frontend.metrics.snapshot()
        snap1 = self.frontend.metrics_snapshot()
        window.extra["snapshots"] = (snap0, snap1, local0, local1)
        window.extra["spent"] = self._ledger_spent() - spent0
        window.attempted = len(results)
        window.extra["results"] = []
        for request, latency, envelope in results:
            window.latencies.append(latency)
            error = envelope_error_class(envelope)
            if error is not None:
                window.fail(error)
            else:
                window.extra["results"].append((request.seed, envelope["result"]))
        window.e2e_per_op_s = sum(window.latencies) / max(1, window.attempted)
        late = sorted(window.extra["lateness"])
        window.extra["late_p99_s"] = quantile(late, 0.99)
        window.extra["late_max_s"] = late[-1] if late else 0.0
        if quantile(late, 0.90) > self.late_p90_limit_s:
            window.fail("check:generator-behind")
        return window

    def verify(self, window: Window) -> None:
        """``result`` blocks equal an in-process replay of the same seeds."""
        replay = ExplanationService(auto_tenant_budget=BUDGET)
        replay.register_dataset(DATASET, self.data, self.clustering)
        seeds = sorted({seed for seed, _ in window.extra["results"]})
        futures = {
            s: replay.submit(ExplainRequest(tenant="replay", dataset=DATASET, seed=s))
            for s in seeds
        }
        replay.process_pending()
        expected = {s: canonical_json(f.result(self.timeout_s)["result"])
                    for s, f in futures.items()}
        for seed, result in window.extra["results"]:
            if canonical_json(result) != expected[seed]:
                window.fail("check:release-bytes")
        replay.stop()

    def instrument(self, tracer: Tracer) -> None:
        """Nothing to wrap: every layer is read from the metrics snapshot."""

    def layers(self, window: Window, tracer: "Tracer | None") -> dict:
        snap0, snap1, local0, local1 = window.extra["snapshots"]
        ops = max(1, window.attempted)
        served = max(1, window.attempted - window.failed)
        _, queue_s = _span_delta(snap1, snap0, "frontend-queue")
        windows, window_s = _span_delta(snap1, snap0, "coalesce-window")
        _, rtt_s = _span_delta(snap1, snap0, "frame-rtt")
        _, lookup_s = _span_delta(snap1, snap0, "cache-lookup")
        _, fsync_s = _span_delta(snap1, snap0, "journal-fsync")
        _, score_s = _span_delta(snap1, snap0, "engine-score")
        _, release_s = _span_delta(snap1, snap0, "mechanism-release")
        batches, batched = _hist_delta(snap1, snap0, "repro_frontend_batch_size")
        frames = sum(
            _counter_delta(local1, local0, "repro_frames_total", (d,))
            for d in ("read", "written")
        )
        engine_calls = _counter_delta(
            snap1, snap0, "repro_service_events_total", ("engine_calls",)
        )
        releases = _counter_delta(snap1, snap0, "repro_service_events_total", ("releases",))
        late = window.extra["lateness"]
        mean_latency_s = window.e2e_per_op_s
        return {
            "service.frontend.queue_ms": queue_s / ops * 1e3,
            "service.frontend.coalesce_window_ms": _mean(window_s, windows) * 1e3,
            "service.frontend.batch_size": _mean(batched, batches),
            "service.transport.frame_rtt_ms": rtt_s / ops * 1e3,
            "service.transport.frames_per_op": frames / ops,
            "service.supervisor.respawns": sum(
                snapshot_series(snap1, "repro_worker_respawns_total").values()
            ) - sum(snapshot_series(snap0, "repro_worker_respawns_total").values()),
            "service.cache.get_us": lookup_s / ops * 1e6,
            "service.cache.hit_ratio": _hit_ratio(snap1, snap0),
            "service.queue.batch_size": _fanin(snap1, snap0),
            "service.journal.fsyncs_per_op": _counter_delta(
                snap1, snap0, "repro_journal_records_total"
            ) / ops,
            "service.journal.record_us": fsync_s / ops * 1e6,
            "evaluation.sweeps.explain_batched_ms": (score_s + release_s) / ops * 1e3,
            "evaluation.sweeps.seeds_per_call": _mean(releases, engine_calls),
            "privacy.budget.epsilon_per_op": window.extra["spent"] / served,
            "loadgen.lateness_p99_ms": window.extra["late_p99_s"] * 1e3,
            "loadgen.lateness_max_ms": window.extra["late_max_s"] * 1e3,
            "unattributed_ms": (
                mean_latency_s - _mean(sum(late), len(late)) - (queue_s + rtt_s) / ops
            ) * 1e3,
        }


# --------------------------------------------------------------------------- #
# cold explanation (the paper's Fig. 9 shape)
# --------------------------------------------------------------------------- #


class ExplainCold:
    """Serial ``DPClustX.explain`` over fresh counts, one distinct seed each.

    Diabetes-like data, 50k rows and 8 clusters.  Counts materialisation
    and the scoring kernels run cold on every op; the service layers are
    bypassed.
    """

    name = "explain-cold"
    n_rows = 50_000
    n_clusters = 8
    recheck = 4  # ops re-run at the end to prove the digests stable

    def __init__(self, seed: int):
        self.seed = seed
        self.explainer = DPClustX()

    def setup(self) -> None:
        self.data, self.clustering = _diabetes(self.n_rows, self.n_clusters)
        self.accountant = PrivacyAccountant()
        self.base_seed = int(np.random.default_rng([self.seed, 0xC01D]).integers(1 << 40))
        self.next_op = 0
        self._explain(self.base_seed - 1)  # warm imports and lazy tables

    def close(self) -> None:
        pass

    def _explain(self, seed: int):
        counts = ClusteredCounts(self.data, self.clustering)
        explanation = self.explainer.explain(
            self.data, self.clustering, rng=seed, counts=counts,
            accountant=self.accountant,
        )
        return counts, explanation

    def _digest(self, seed: int, counts, explanation) -> str:
        payload = explanation_payload(
            ExplainRequest(tenant="cold", dataset=DATASET, seed=seed),
            _PayloadEntry(self.data, counts),
            explanation,
        )
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def run(self, seconds: float, tracer: "Tracer | None") -> Window:
        window = Window()
        digests = window.extra["digests"] = []
        clock = time.perf_counter
        units0 = self.accountant.total_units()
        pace = window.start_pace(tracer)
        deadline = clock() + seconds
        try:
            while True:
                seed = self.base_seed + self.next_op
                if tracer is not None:
                    tracer.set_op(self.next_op)
                self.next_op += 1
                stolen = pace.stolen
                t0 = clock()
                counts, explanation = self._explain(seed)
                t1 = clock()
                window.latencies.append(t1 - t0 - (pace.stolen - stolen))
                window.stamps.append(t0)
                digests.append((seed, self._digest(seed, counts, explanation)))
                if t1 >= deadline:
                    break
        finally:
            pace.stop()
        window.attempted = len(window.latencies)
        window.busy_s = sum(window.latencies)
        window.e2e_per_op_s = window.busy_s / window.attempted
        window.extra["units"] = self.accountant.total_units() - units0
        return window

    def verify(self, window: Window) -> None:
        """Re-run the first ops serially and batched: same payload digests."""
        head = window.extra["digests"][: self.recheck]
        for seed, digest in head[:1]:
            if self._digest(seed, *self._explain(seed)) != digest:
                window.fail("check:digest-unstable")
        counts = ClusteredCounts(self.data, self.clustering)
        batched = explain_batched(self.explainer, counts, [s for s, _ in head])
        for (seed, digest), explanation in zip(head, batched):
            if self._digest(seed, counts, explanation) != digest:
                window.fail("check:digest-batched")

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(ClusteredCounts, "__init__", "core.counts.build")
        tracer.patch(ClusteredCounts, "materialise", "core.counts.materialise")
        tracer.patch(ScoringEngine, "score_matrix", "core.engine.score_matrix")
        tracer.patch(ScoringEngine, "combination_score_tensor",
                     "core.engine.combination_score_tensor")
        tracer.patch(DPClustX, "select_combination", "core.dpclustx.select_combination")
        tracer.patch(DPClustX, "release_histograms", "core.dpclustx.release_histograms")
        tracer.patch(PrivacyAccountant, "spend", "privacy.budget.spend")

    def layers(self, window: Window, tracer: "Tracer | None") -> dict:
        ops = max(1, window.attempted)
        out = {"privacy.budget.epsilon_per_op": window.extra["units"] / GRID / ops}
        if tracer is not None:
            totals = tracer.layer_totals()

            def per_op(layer: str, scale: float) -> float:
                return totals.get(layer, {}).get("incl_s", 0.0) / ops * scale

            out.update({
                "core.counts.build_ms": per_op("core.counts.build", 1e3),
                "core.counts.materialise_ms": per_op("core.counts.materialise", 1e3),
                "core.engine.score_matrix_ms": per_op("core.engine.score_matrix", 1e3),
                "core.engine.combination_score_tensor_ms": per_op(
                    "core.engine.combination_score_tensor", 1e3
                ),
                "core.dpclustx.select_combination_ms": per_op(
                    "core.dpclustx.select_combination", 1e3
                ),
                "core.dpclustx.release_histograms_us": per_op(
                    "core.dpclustx.release_histograms", 1e6
                ),
                "privacy.budget.spend_us": per_op("privacy.budget.spend", 1e6),
            })
        return out


# --------------------------------------------------------------------------- #
# static analysis over a frozen corpus
# --------------------------------------------------------------------------- #


class LintSrc:
    """``lint_paths([corpus], engine="all")`` over a frozen ``src/repro``.

    The corpus is ``src/repro`` at a pinned commit, archived with
    ``git archive`` into ``corpus/``, so later changes to ``src/`` change
    the linter under test but never its input.
    """

    name = "lint-src"
    corpus_commit = "df671ee53d94ff9caba0e70fd8acca20cac7b0f6"
    archive = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "corpus", "src-repro-df671ee.tar.gz"
    )
    archive_sha256 = "9b7f3b025eb1da5b09b5cf444a986bae5d55cb3484a4a2462107de560c0b57fb"
    #: The pinned report of the frozen corpus: files, findings, suppressed.
    expected = (116, 0, 5)

    def __init__(self, seed: int):
        self.seed = seed  # the corpus is frozen; the seed changes nothing
        self.dir: "str | None" = None

    def setup(self) -> None:
        with open(self.archive, "rb") as fh:
            blob = fh.read()
        if hashlib.sha256(blob).hexdigest() != self.archive_sha256:
            raise RuntimeError(f"{self.archive} does not match its pinned digest")
        self.dir = _work_dir("lint-")
        with tarfile.open(self.archive) as tar:
            tar.extractall(self.dir, filter="data")
        self.corpus = os.path.join(self.dir, "src", "repro")

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def run(self, seconds: float, tracer: "Tracer | None") -> Window:
        window = Window()
        clock = time.perf_counter
        pace = window.start_pace(tracer)
        deadline = clock() + seconds
        try:
            while True:
                if tracer is not None:
                    tracer.set_op(window.attempted)
                stolen = pace.stolen
                t0 = clock()
                result = lint_paths([self.corpus], engine="all")
                t1 = clock()
                window.latencies.append(t1 - t0 - (pace.stolen - stolen))
                window.stamps.append(t0)
                window.attempted += 1
                got = (result.files, len(result.findings), len(result.suppressed))
                if got != self.expected:
                    window.fail("check:lint-report")
                if t1 >= deadline:
                    break
        finally:
            pace.stop()
        window.busy_s = sum(window.latencies)
        window.e2e_per_op_s = window.busy_s / window.attempted
        return window

    def verify(self, window: Window) -> None:
        """The report is checked op by op inside :meth:`run`."""

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(lint_engine, "load_module", "analysis.loader.load")
        tracer.patch(lint_engine, "build_callgraph", "analysis.callgraph.build",
                     on_return=lambda _tracer, graph: setattr(self, "graph", graph))
        for rule in ALL_RULES:
            tracer.patch(type(rule), "check", "analysis.rules.ast")
        for rule in FLOW_RULES:
            tracer.patch(type(rule), "check", "analysis.rules.flow")

    def layers(self, window: Window, tracer: "Tracer | None") -> dict:
        if tracer is None:
            return {}
        ops = max(1, window.attempted)
        totals = tracer.layer_totals()

        def per_op(layer: str) -> float:
            return totals.get(layer, {}).get("incl_s", 0.0) / ops * 1e3

        return {
            "analysis.loader.load_ms": per_op("analysis.loader.load"),
            "analysis.callgraph.build_ms": per_op("analysis.callgraph.build"),
            "analysis.callgraph.edges": _resolved_edges(self.graph),
            "analysis.rules.ast_ms": per_op("analysis.rules.ast"),
            "analysis.rules.flow_ms": per_op("analysis.rules.flow"),
        }


def _resolved_edges(graph) -> int:
    """Call sites the call graph resolves to a definition, over every function."""
    import ast

    edges = 0
    for info in graph.functions.values():
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and graph.resolve(
                node, info.module, info.class_name
            ) is not None:
                edges += 1
    return edges


WORKLOADS = {
    cls.name: cls for cls in (HotHits, ColdMisses, ShardedOpen, ExplainCold, LintSrc)
}
