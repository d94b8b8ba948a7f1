"""Observability layer: metrics registry algebra, tracing, exposition.

Four claim families:

* **Histogram/quantile algebra** (hypothesis): quantiles are monotone in
  ``q`` (p50 <= p99 <= p999), ``None`` on empty, and snapshot merge is
  exactly associative — ``merge(a, merge(b, c)) == merge(merge(a, b), c)``
  as dict equality, which is why histogram sums are integers.
* **Prometheus exposition**: text format 0.0.4 shape — HELP/TYPE lines,
  cumulative ``_bucket{le=...}`` with a ``+Inf`` overflow, label escaping.
* **In-process service observability**: hot-path counters/spans/gauges move
  with traffic, trace ids land in success meta and refusal error blocks,
  divide-by-zero-safe empty reads, /metrics + deep /healthz over HTTP.
* **Sharded deployment**: the merged scrape equals the sum of per-worker
  registries, and a trace id survives the frame protocol end to end —
  including the SIGKILL-respawn path.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KMeans, diabetes_like
from repro.obs import (
    DEFAULT_BASE,
    DEFAULT_BUCKETS,
    DEFAULT_GROWTH,
    MetricsRegistry,
    SPANS,
    histogram_quantile,
    merge,
    merge_snapshots,
    new_trace_id,
    prometheus_text,
    snapshot_series,
    snapshot_value,
    trace_id_of,
)
from repro.obs.tracing import attach_trace
from repro.service import (
    ExplainRequest,
    ExplanationService,
    ServiceClient,
    ShardedService,
    make_server,
    shard_of,
)

# --------------------------------------------------------------------------- #
# histogram-quantile properties
# --------------------------------------------------------------------------- #


class TestQuantiles:
    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=50.0),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_monotone_in_q(self, values):
        m = MetricsRegistry()
        h = m.histogram("h_seconds", "h")
        for v in values:
            h.observe(v)
        (cell,) = h.series().values()
        buckets = cell[0]
        qs = [
            histogram_quantile(buckets, q, DEFAULT_BASE, DEFAULT_GROWTH)
            for q in (0.50, 0.99, 0.999)
        ]
        assert all(q is not None for q in qs)
        assert qs[0] <= qs[1] <= qs[2]

    def test_empty_histogram_quantile_is_none(self):
        buckets = [0] * DEFAULT_BUCKETS
        for q in (0.5, 0.99, 0.999):
            assert histogram_quantile(buckets, q, DEFAULT_BASE, DEFAULT_GROWTH) is None

    def test_quantile_brackets_known_distribution(self):
        m = MetricsRegistry()
        h = m.histogram("h_seconds", "h")
        for _ in range(99):
            h.observe(0.001)
        h.observe(1.0)
        assert 0.0005 < h.quantile(0.50) < 0.002
        assert 0.5 < h.quantile(0.999) < 2.0


# --------------------------------------------------------------------------- #
# snapshot merge algebra
# --------------------------------------------------------------------------- #


def _random_registry(counter_incs, gauge_sets, hist_obs):
    m = MetricsRegistry()
    c = m.counter("events_total", "e", ("kind",))
    g = m.gauge("depth", "d", ("queue",))
    h = m.histogram("lat_seconds", "l", ("cls",))
    for kind, by in counter_incs:
        c.inc(by, (kind,))
    for queue, value in gauge_sets:
        g.set(value, (queue,))
    for cls, v in hist_obs:
        h.observe(v, (cls,))
    return m.snapshot()


_kinds = st.sampled_from(["a", "b", "c"])
_snapshot_inputs = st.tuples(
    st.lists(st.tuples(_kinds, st.integers(1, 100)), max_size=20),
    st.lists(st.tuples(_kinds, st.floats(-10, 10)), max_size=10),
    st.lists(
        st.tuples(_kinds, st.floats(min_value=1e-5, max_value=100.0)),
        max_size=20,
    ),
)


class TestMergeAlgebra:
    @given(_snapshot_inputs, _snapshot_inputs, _snapshot_inputs)
    @settings(max_examples=50, deadline=None)
    def test_merge_associative(self, ia, ib, ic):
        a, b, c = (_random_registry(*i) for i in (ia, ib, ic))
        assert merge(a, merge(b, c)) == merge(merge(a, b), c)

    @given(_snapshot_inputs, _snapshot_inputs)
    @settings(max_examples=50, deadline=None)
    def test_merge_counts_are_sums(self, ia, ib):
        a, b = _random_registry(*ia), _random_registry(*ib)
        merged = merge_snapshots([a, b])
        for kind in ("a", "b", "c"):
            assert (snapshot_value(merged, "events_total", (kind,)) or 0) == (
                (snapshot_value(a, "events_total", (kind,)) or 0)
                + (snapshot_value(b, "events_total", (kind,)) or 0)
            )

    def test_merge_incompatible_schemas_rejected(self):
        m1 = MetricsRegistry()
        m1.counter("x_total", "x", ("a",))
        m2 = MetricsRegistry()
        m2.counter("x_total", "x", ("a", "b"))
        with pytest.raises(ValueError):
            merge(m1.snapshot(), m2.snapshot())


# --------------------------------------------------------------------------- #
# registry semantics + exposition
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_sharded_across_threads(self):
        m = MetricsRegistry()
        c = m.counter("n_total", "n")
        threads = [
            threading.Thread(
                target=lambda: [c.inc() for _ in range(500)], daemon=True
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000

    def test_family_type_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("thing_total", "t")
        with pytest.raises(ValueError):
            m.gauge("thing_total", "t")

    def test_disabled_registry_records_nothing(self):
        m = MetricsRegistry(enabled=False)
        c = m.counter("n_total", "n")
        h = m.histogram("h_seconds", "h")
        c.inc(5)
        h.observe(1.0)
        assert c.value() == 0
        assert snapshot_series(m.snapshot(), "h_seconds") == {}

    def test_prometheus_text_shape(self):
        m = MetricsRegistry()
        c = m.counter("req_total", 'requests with "quotes" and \\slashes', ("p",))
        c.inc(3, ('va"l\\ue',))
        h = m.histogram("lat_seconds", "latency")
        h.observe(0.01)
        text = prometheus_text(m.snapshot())
        assert "# TYPE req_total counter" in text
        assert 'req_total{p="va\\"l\\\\ue"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        # cumulative: every bucket line value is <= the +Inf one
        lines = [l for l in text.splitlines() if l.startswith("lat_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)

    def test_trace_attach_and_extract(self):
        tid = new_trace_id()
        ok = attach_trace({"status": "ok", "meta": {"cache": "hit"}}, tid)
        assert ok["meta"]["trace_id"] == tid
        assert trace_id_of(ok) == tid
        err = attach_trace({"status": "error", "error": {"reason": "x"}}, tid)
        assert err["error"]["trace_id"] == tid
        assert trace_id_of(err) == tid
        # copy-on-attach: the input envelope is never mutated
        original = {"status": "ok", "meta": {}}
        attach_trace(original, tid)
        assert "trace_id" not in original["meta"]
        assert trace_id_of({"status": "ok"}) is None


# --------------------------------------------------------------------------- #
# in-process service observability
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=900, n_groups=3, seed=7)


@pytest.fixture(scope="module")
def clustering(dataset):
    return KMeans(3).fit(dataset, rng=0)


class TestServiceObservability:
    def test_empty_cache_stats_have_no_hit_ratio(self):
        service = ExplanationService(auto_tenant_budget=1.0)
        try:
            assert service.cache.stats()["hit_ratio"] is None
            assert service.describe()["fitted_clusterings"] == {
                "entries": 0,
                "max_entries": 64,
            }
            assert service.describe()["latency"] == {}
        finally:
            service.stop()

    def test_hot_paths_instrumented(self, tmp_path, dataset, clustering):
        service = ExplanationService(ledger_dir=str(tmp_path))
        try:
            service.register_dataset("diabetes", dataset, clustering)
            service.create_tenant("alice", budget_limit=1.0)
            client = ServiceClient(service, tenant="alice", dataset="diabetes")
            first = client.explain(seed=0)
            assert first["meta"]["trace_id"]
            assert client.last_trace_id == first["meta"]["trace_id"]
            again = client.explain(seed=0)
            assert again["meta"]["cache"] == "hit"
            envelope = None
            for seed in range(1, 20):
                envelope = client.explain(seed=seed)
                if envelope["status"] == "refused":
                    break
            assert envelope["status"] == "refused"
            # satellite 3: the refusal's trace id is surfaced by the client
            assert envelope["error"]["trace_id"] == client.last_trace_id

            snap = service.metrics_snapshot()
            spans = {
                labels[0]: cell["count"]
                for labels, cell in snapshot_series(
                    snap, "repro_span_duration_seconds"
                ).items()
            }
            for span in ("cache-lookup", "engine-score",
                         "mechanism-release", "journal-fsync"):
                assert span in SPANS
                assert spans.get(span, 0) > 0, (span, spans)
            assert snapshot_value(
                snap, "repro_cache_events_total", ("explanation", "hit")
            ) == 1
            assert snapshot_value(
                snap, "repro_service_events_total", ("requests",)
            ) == service.describe()["stats"]["requests"]
            assert snapshot_value(
                snap, "repro_budget_refusals_total", ("alice", "diabetes")
            ) >= 1
            assert snapshot_value(
                snap, "repro_journal_records_total"
            ) == service.registry.journal_tails()["alice"]
            remaining = snapshot_series(snap, "repro_budget_remaining_epsilon")
            assert remaining[("alice", "diabetes")] == pytest.approx(0.1)

            health = service.health(deep=True)
            assert health["status"] == "ok"
            assert health["journal_tails"]["alice"] > 0
        finally:
            service.stop()

    def test_disabled_observability_identical_release_bytes(
        self, dataset, clustering
    ):
        def run(enabled):
            service = ExplanationService(
                auto_tenant_budget=8.0,
                metrics=MetricsRegistry(enabled=enabled),
            )
            try:
                service.register_dataset("diabetes", dataset, clustering)
                return [
                    service.explain(
                        ExplainRequest(tenant="t", dataset="diabetes", seed=s)
                    )["result"]
                    for s in range(3)
                ]
            finally:
                service.stop()

        on, off = run(True), run(False)
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_http_metrics_stats_and_deep_health(
        self, tmp_path, dataset, clustering
    ):
        service = ExplanationService(ledger_dir=str(tmp_path))
        service.register_dataset("diabetes", dataset, clustering)
        service.create_tenant("bob", budget_limit=2.0)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            body = json.dumps(
                {"tenant": "bob", "dataset": "diabetes", "seed": 1}
            ).encode()
            req = urllib.request.Request(
                f"{base}/v1/explain", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as resp:
                envelope = json.loads(resp.read())
            assert envelope["meta"]["trace_id"]

            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
            assert "repro_service_events_total" in text
            assert 'repro_span_duration_seconds_bucket{span="journal-fsync"' in text

            with urllib.request.urlopen(f"{base}/v1/stats") as resp:
                stats = json.loads(resp.read())
            assert snapshot_value(
                stats["metrics"], "repro_service_events_total", ("requests",)
            ) >= 1

            with urllib.request.urlopen(f"{base}/healthz?deep=1") as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"
            assert health["journal_tails"] == {"bob": 1}

            # a structured HTTP error carries a trace id too
            bad = urllib.request.Request(
                f"{base}/v1/explain", data=b"{not-json",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad)
            assert err.value.code == 400
            assert json.loads(err.value.read())["error"]["trace_id"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()


# --------------------------------------------------------------------------- #
# sharded deployment: merged scrapes + trace propagation over frames
# --------------------------------------------------------------------------- #


def _request(tenant, seed=0, **kw):
    return ExplainRequest(tenant=tenant, dataset="diabetes", seed=seed, **kw)


class TestShardedObservability:
    @pytest.fixture(scope="class")
    def deployment(self, tmp_path_factory, dataset, clustering):
        service = ShardedService(
            2,
            auto_tenant_budget=8.0,
            ledger_dir=str(tmp_path_factory.mktemp("ledgers")),
        )
        service.start()
        service.register_dataset("diabetes", dataset, clustering)
        yield service
        service.stop()

    def test_scrape_merges_worker_registries(self, deployment):
        # Tenants on both shards so both workers serve traffic.
        tenants = ["alice", "bob", "tenant-0", "tenant-3"]
        assert {shard_of(t, 2) for t in tenants} == {0, 1}
        for tenant in tenants:
            assert deployment.explain(_request(tenant))["status"] == "ok"

        merged = deployment.metrics_snapshot()
        workers = [
            deployment.supervisor.worker_metrics(i) for i in range(2)
        ]
        local = deployment.metrics.snapshot()
        # the scrape is exactly the sum of per-worker registries + local
        for labels in [("requests",), ("cache_misses",)]:
            assert snapshot_value(
                merged, "repro_service_events_total", labels
            ) == sum(
                snapshot_value(w, "repro_service_events_total", labels)
                for w in workers
            )
        assert all(
            snapshot_value(w, "repro_service_events_total", ("requests",)) > 0
            for w in workers
        )
        assert snapshot_value(merged, "repro_frames_total", ("read",)) >= (
            snapshot_value(local, "repro_frames_total", ("read",))
        )
        # frontend spans + worker-side spans coexist in one scrape
        spans = {
            labels[0]: cell["count"]
            for labels, cell in snapshot_series(
                merged, "repro_span_duration_seconds"
            ).items()
        }
        for span in ("frontend-queue", "frame-rtt",
                     "engine-score", "journal-fsync"):
            assert spans.get(span, 0) > 0, (span, spans)
        # and the whole thing renders as valid exposition text
        text = prometheus_text(merged)
        assert "# TYPE repro_span_duration_seconds histogram" in text

    def test_trace_id_propagates_through_frames(self, deployment):
        envelope = deployment.explain(
            _request("alice", seed=77).with_trace("tr-explicit-1234")
        )
        assert envelope["status"] == "ok"
        assert envelope["meta"]["trace_id"] == "tr-explicit-1234"
        # minted when absent
        other = deployment.explain(_request("alice", seed=78))
        assert other["meta"]["trace_id"]

    def test_deep_health_reports_workers(self, deployment):
        health = deployment.health(deep=True)
        assert health["sharded"] is True
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["alive"] is True
            assert worker["detail"]["status"] == "ok"

    def test_trace_survives_sigkill_respawn(
        self, dataset, clustering, tmp_path
    ):
        service = ShardedService(
            2, auto_tenant_budget=8.0, ledger_dir=str(tmp_path)
        )
        service.start()
        try:
            service.register_dataset("diabetes", dataset, clustering)
            assert service.explain(_request("alice"))["status"] == "ok"
            index = shard_of("alice", 2)
            os.kill(service.supervisor._procs[index].pid, signal.SIGKILL)
            # During the outage a structured 503 carries the caller's trace.
            deadline = time.monotonic() + 30
            saw_outage = False
            while time.monotonic() < deadline:
                out = service.explain(
                    _request("alice", seed=5).with_trace("tr-during-outage"),
                    timeout=5.0,
                )
                if out.get("code") == 503:
                    assert out["error"]["trace_id"] == "tr-during-outage"
                    saw_outage = True
                if out["status"] == "ok" and service.supervisor.restarts >= 1:
                    break
                time.sleep(0.05)
            assert service.supervisor.restarts >= 1
            # After respawn, explicit traces still round-trip the frames.
            out = None
            while time.monotonic() < deadline:
                out = service.explain(
                    _request("alice", seed=6).with_trace("tr-after-respawn"),
                    timeout=5.0,
                )
                if out["status"] == "ok":
                    break
                time.sleep(0.1)
            assert out["status"] == "ok", out
            assert out["meta"]["trace_id"] == "tr-after-respawn"
            snap = service.metrics_snapshot()
            assert snapshot_value(
                snap, "repro_worker_respawns_total", (str(index),)
            ) >= 1
            # a SIGKILL is fast enough that the outage window can be missed;
            # when it was seen, the 503 above proved the trace attach.
            del saw_outage
        finally:
            service.stop()
