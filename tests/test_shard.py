"""Sharded service tier: partitioning, transport, failover, byte identity.

The expensive fixture — a live multi-process deployment — is module-scoped
and shared across tests: worker spawn costs ~1 s per process, and the tier
is explicitly designed so read-only interactions (stats, ledgers, explains
against distinct tenants) do not interfere.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro import KMeans, diabetes_like
from repro.obs import snapshot_value
from repro.service import (
    ExplainRequest,
    ExplanationService,
    FrameError,
    FrameSocket,
    ServiceRegistry,
    ShardedService,
    make_server,
    read_frame,
    shard_of,
    write_frame,
)
from repro.service.cache import canonical_json
from repro.service.frontend import MAX_FRAME_ITEMS
from repro.service.transport import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame_async,
    write_frame_async,
)


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=900, n_groups=3, seed=7)


@pytest.fixture(scope="module")
def clustering(dataset):
    return KMeans(3).fit(dataset, rng=0)


@pytest.fixture(scope="module")
def deployment(dataset, clustering):
    """One shared 2-worker deployment (spawning is the expensive part)."""
    service = ShardedService(2, auto_tenant_budget=8.0)
    service.start()
    service.register_dataset("diabetes", dataset, clustering)
    yield service
    service.stop()


def _request(tenant, seed=0, **kw):
    return ExplainRequest(tenant=tenant, dataset="diabetes", seed=seed, **kw)


def _untraced(envelope):
    """The envelope minus its trace id — the only legitimately unique field.

    Trace ids are minted per request at the serving edge, so byte-identity
    across deployments holds for everything *except* them.
    """
    out = dict(envelope)
    for block in ("meta", "error"):
        if isinstance(out.get(block), dict):
            out[block] = {
                k: v for k, v in out[block].items() if k != "trace_id"
            }
    return out


# --------------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------------- #


class TestShardOf:
    def test_pinned_values(self):
        # Pinned against the BLAKE2b digest: these exact assignments are
        # the on-disk routing contract — ledgers written by a deployment
        # must be replayed by the same worker index forever.
        assert [shard_of("alice", n) for n in (2, 3, 4)] == [1, 1, 1]
        assert [shard_of("bob", n) for n in (2, 3, 4)] == [0, 1, 2]
        assert [shard_of("tenant-0", n) for n in (2, 3, 4)] == [0, 2, 2]

    def test_independent_of_hash_randomisation(self):
        # Python's str hash is salted per-process; shard_of must not be.
        out = set()
        for seed in ("0", "1", "12345"):
            r = subprocess.run(
                [sys.executable, "-c",
                 "from repro.service.shard import shard_of;"
                 "print(shard_of('alice', 4))"],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert r.returncode == 0, r.stderr
            out.add(r.stdout.strip())
        assert out == {"1"}

    def test_stable_under_fixed_count_rebalances_on_change(self):
        # Routing is a pure function of (tenant, n_shards): repeated calls
        # never move a tenant; only an explicit worker-count change (a
        # rebalance: stop + restart the deployment) reassigns anyone.
        tenants = [f"tenant-{i}" for i in range(200)]
        at_4 = {t: shard_of(t, 4) for t in tenants}
        assert all(shard_of(t, 4) == at_4[t] for t in tenants)
        at_5 = {t: shard_of(t, 5) for t in tenants}
        assert at_4 != at_5  # a count change is a real rebalance
        # and the load spread is sane: every shard owns someone
        for n in (2, 4, 5):
            assert {shard_of(t, n) for t in tenants} == set(range(n))

    def test_rejects_degenerate_count(self):
        with pytest.raises(ValueError):
            shard_of("alice", 0)


class TestRegistryPartition:
    def test_tenant_filter_scopes_reload(self, tmp_path):
        full = ServiceRegistry(ledger_dir=tmp_path)
        full.create_tenant("alice", 2.0)
        full.create_tenant("bob", 2.0)
        # alice -> shard 1, bob -> shard 0 (pinned above)
        shard0 = ServiceRegistry(
            ledger_dir=tmp_path, tenant_filter=lambda t: shard_of(t, 2) == 0
        )
        shard1 = ServiceRegistry(
            ledger_dir=tmp_path, tenant_filter=lambda t: shard_of(t, 2) == 1
        )
        assert [t.tenant_id for t in shard0.tenants()] == ["bob"]
        assert [t.tenant_id for t in shard1.tenants()] == ["alice"]


    def test_supervisor_refuses_a_derived_id_before_sharing(
        self, tmp_path, monkeypatch, dataset, clustering
    ):
        import repro.service.supervisor as supervisor_mod

        def share_stack(stack):
            raise AssertionError("a refused id must not share a stack")

        monkeypatch.setattr(supervisor_mod, "share_stack", share_stack)
        supervisor = supervisor_mod.ShardSupervisor(1, socket_dir=str(tmp_path))
        try:
            with pytest.raises(ValueError, match="::"):
                supervisor.register_dataset("raw::fit", dataset, clustering)
        finally:
            supervisor.stop()

# --------------------------------------------------------------------------- #
# transport framing
# --------------------------------------------------------------------------- #


class TestFraming:
    def test_roundtrip_and_clean_eof(self):
        a, b = socket.socketpair()
        payloads = [
            {"op": "ping", "id": 1},
            {"unicode": "héllo ☃", "nested": {"xs": list(range(50))}},
            {"big": "x" * 100_000},
        ]
        for p in payloads:
            write_frame(a, p)
        a.close()
        got = [read_frame(b) for _ in range(len(payloads))]
        assert got == payloads
        assert read_frame(b) is None  # clean EOF at a frame boundary
        b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])  # die mid-body
        a.close()
        with pytest.raises(FrameError):
            read_frame(b)
        b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(FrameError):
            read_frame(b)
        a.close()
        b.close()

    def test_async_roundtrip_matches_sync(self):
        a, b = socket.socketpair()
        payload = {"id": 7, "envelope": {"status": "ok", "weights": [0.5, 0.25]}}

        async def run():
            reader, writer = await asyncio.open_connection(sock=b)
            await write_frame_async(writer, payload)
            sync_side = read_frame(a)
            write_frame(a, payload)
            async_side = await read_frame_async(reader)
            writer.close()
            return sync_side, async_side

        sync_side, async_side = asyncio.run(run())
        a.close()
        assert sync_side == payload
        assert async_side == payload


# --------------------------------------------------------------------------- #
# live deployment: routing guard, identity, stats, http
# --------------------------------------------------------------------------- #


class TestDeployment:
    def test_explain_and_ledger_routing(self, deployment):
        out = deployment.explain(_request("alice", seed=0))
        assert out["status"] == "ok"
        ledger = deployment.ledger_describe("alice")
        assert ledger["ledgers"]["diabetes"]["spent"] == pytest.approx(0.3)

    def test_wrong_shard_guard(self, deployment):
        # alice -> worker 1; speak the frame protocol at worker 0 directly.
        sock = deployment.supervisor.connect(0)
        frames = FrameSocket(sock)
        frames.write(
            {"op": "explain", "id": 1,
             "request": {"tenant": "alice", "dataset": "diabetes"}}
        )
        reply = frames.read()
        frames.close()
        assert reply["id"] == 1
        assert reply["envelope"]["code"] == 421
        assert reply["envelope"]["error"]["reason"] == "wrong-shard"

    def test_pipeline_unsupported(self, deployment):
        envelope = deployment.pipeline(tenant="alice", dataset="diabetes")
        assert envelope["code"] == 501
        assert envelope["error"]["reason"] == "pipeline-unsupported"

    def test_latency_histograms_in_stats(self, deployment):
        deployment.explain(_request("alice", seed=1))
        stats = deployment.describe()
        assert stats["sharded"] is True and stats["n_workers"] == 2
        merged = {}
        for worker in stats["workers"]:
            for cls, block in (worker.get("latency") or {}).items():
                merged.setdefault(cls, []).append(block)
        assert "miss" in merged
        for block in merged["miss"]:
            assert block["count"] >= 1
            assert 0.0 < block["p50_s"] <= block["p99_s"]

    def test_http_routes_over_sharded_service(self, deployment):
        server = make_server(deployment, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            body = json.dumps(
                {"tenant": "http-tenant", "dataset": "diabetes", "seed": 5}
            ).encode()
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"{base}/v1/explain", data=body,
                    headers={"Content-Type": "application/json"},
                )
            ) as resp:
                envelope = json.loads(resp.read())
            assert envelope["status"] == "ok"
            with urllib.request.urlopen(f"{base}/v1/stats") as resp:
                stats = json.loads(resp.read())
            assert stats["n_workers"] == 2
            with urllib.request.urlopen(f"{base}/v1/datasets") as resp:
                listing = json.loads(resp.read())
            assert listing["datasets"][0]["dataset"] == "diabetes"
            with urllib.request.urlopen(f"{base}/v1/ledger/http-tenant") as resp:
                ledger = json.loads(resp.read())
            assert ledger["ledgers"]["diabetes"]["spent"] == pytest.approx(0.3)
            req = urllib.request.Request(
                f"{base}/v1/pipeline", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 501
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_byte_identical_across_worker_counts(
        self, deployment, dataset, clustering
    ):
        # Distinct (tenant, seed) pairs: no cross-tenant cache-key overlap,
        # so the *entire envelope* — result bytes, meta, charges — must
        # match between a 1-worker and a 2-worker deployment.
        requests = [
            _request(f"ident-{i}", seed=10 + i, n_candidates=2)
            for i in range(4)
        ]
        # Same-seed pair across tenants: the DP release (result block) is
        # deployment-independent, but cache/charge metadata legitimately
        # differs (one process dedups across tenants; shards cannot).
        shared = [_request("ident-0", seed=50), _request("ident-1", seed=50)]
        single = ShardedService(1, auto_tenant_budget=8.0)
        single.start()
        try:
            single.register_dataset("diabetes", dataset, clustering)
            ones = [single.explain(r) for r in requests]
            ones_shared = [single.explain(r) for r in shared]
        finally:
            single.stop()
        twos = [deployment.explain(r) for r in requests]
        twos_shared = [deployment.explain(r) for r in shared]
        for one, two in zip(ones, twos):
            assert canonical_json(_untraced(one)) == canonical_json(_untraced(two))
        for one, two in zip(ones_shared, twos_shared):
            assert canonical_json(one["result"]) == canonical_json(two["result"])

    def test_matches_in_process_service(self, deployment, dataset, clustering):
        inproc = ExplanationService(auto_tenant_budget=8.0)
        inproc.register_dataset("diabetes", dataset, clustering)
        request = _request("solo-tenant", seed=33)
        try:
            expected = inproc.explain(request)
        finally:
            inproc.stop()
        got = deployment.explain(request)
        assert canonical_json(_untraced(expected)) == canonical_json(_untraced(got))


# --------------------------------------------------------------------------- #
# frame policy: one frame per worker link per event-loop tick
# --------------------------------------------------------------------------- #


def _tenants_on(worker, n, prefix):
    names = (f"{prefix}-{i}" for i in range(1000))
    return [t for t in names if shard_of(t, 2) == worker][:n]


def _frames_written(deployment):
    snapshot = deployment.metrics.snapshot()
    return snapshot_value(snapshot, "repro_frames_total", ("written",)) or 0


def _one_tick(deployment, requests):
    """Submit every request in one event-loop tick; frames written + replies."""
    async def burst():
        return await asyncio.gather(
            *(deployment.frontend.explain(r) for r in requests)
        )

    before = _frames_written(deployment)
    envelopes = deployment._run(burst())
    return _frames_written(deployment) - before, envelopes


class TestFramePolicy:
    def test_one_frame_per_link_across_engine_keys(self, deployment):
        # Two engine keys (n_candidates differs) bound for one worker: the
        # front end does not group by key, so one tick is one frame.
        a, b = _tenants_on(1, 2, "frames-keys")
        requests = [_request(a, seed=1, n_candidates=2),
                    _request(b, seed=2, n_candidates=3)]
        assert requests[0].engine_key() != requests[1].engine_key()
        frames, envelopes = _one_tick(deployment, requests)
        assert frames == 1
        assert all(e["status"] == "ok" for e in envelopes)

    def test_backlog_past_the_cap_splits_into_frames(self, deployment):
        tenant, = _tenants_on(1, 1, "frames-cap")
        # Few distinct seeds: repeats are served without a second charge.
        requests = [_request(tenant, seed=i % 4)
                    for i in range(MAX_FRAME_ITEMS + 1)]
        frames, envelopes = _one_tick(deployment, requests)
        assert frames == 2
        assert all(e["status"] == "ok" for e in envelopes)

    def test_mixed_key_frame_releases_match_in_process(
        self, deployment, dataset, clustering
    ):
        tenants = _tenants_on(0, 3, "frames-bytes")
        requests = [
            _request(t, seed=60 + i, n_candidates=2 + i % 2)
            for i, t in enumerate(tenants * 2)
        ]
        inproc = ExplanationService(auto_tenant_budget=8.0)
        inproc.register_dataset("diabetes", dataset, clustering)
        try:
            expected = [inproc.explain(r) for r in requests]
        finally:
            inproc.stop()
        frames, got = _one_tick(deployment, requests)
        assert frames == 1
        for one, two in zip(expected, got):
            assert canonical_json(one["result"]) == canonical_json(two["result"])

    def test_timed_out_request_leaves_no_link_state(self, deployment):
        tenant, = _tenants_on(1, 1, "frames-timeout")
        frontend = deployment.frontend
        with pytest.raises(asyncio.TimeoutError):
            deployment._run(
                frontend.explain(_request(tenant, seed=3), timeout_s=1e-6)
            )
        rid = frontend._next_id
        link = frontend._links[shard_of(tenant, 2)]
        for book in (link.pending, link.enqueued, link.sent, link.traces):
            assert rid not in book


# --------------------------------------------------------------------------- #
# failover
# --------------------------------------------------------------------------- #


class TestFailover:
    def test_kill_mid_charge_replays_exact_ledger(
        self, tmp_path, dataset, clustering
    ):
        service = ShardedService(2, auto_tenant_budget=8.0,
                                 ledger_dir=str(tmp_path))
        service.start()
        try:
            service.register_dataset("diabetes", dataset, clustering)
            # Two charges against distinct datasets' worth of seeds so the
            # replayed ledger has real structure, not just one entry.
            for seed in (0, 1):
                out = service.explain(_request("alice", seed=seed))
                assert out["status"] == "ok"
            before = service.ledger_describe("alice")
            index = shard_of("alice", 2)
            os.kill(service.supervisor._procs[index].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while (service.supervisor.restarts < 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert service.supervisor.restarts == 1
            after = None
            while time.monotonic() < deadline:
                try:
                    after = service.ledger_describe("alice")
                    break
                except Exception:
                    time.sleep(0.1)
            # The journal fsyncs every charge before its noise is drawn, so
            # a SIGKILL'd worker replays to the exact in-memory ledger.
            assert after == before
            # The respawned worker replays registrations too: it serves.
            # The front end's data link reconnects independently of the
            # control channel polled above, so allow it the same deadline.
            out = None
            while time.monotonic() < deadline:
                out = service.explain(_request("alice", seed=2))
                if out["status"] == "ok":
                    break
                time.sleep(0.1)
            assert out["status"] == "ok", out
        finally:
            service.stop()

    def test_requests_during_outage_get_structured_503(
        self, dataset, clustering
    ):
        service = ShardedService(1, auto_tenant_budget=8.0)
        service.start()
        try:
            service.register_dataset("diabetes", dataset, clustering)
            assert service.explain(_request("alice"))["status"] == "ok"
            service.supervisor.respawn = False  # keep the worker down
            os.kill(service.supervisor._procs[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            envelope = None
            while time.monotonic() < deadline:
                envelope = service.explain(_request("alice", seed=9),
                                           timeout=5.0)
                if envelope.get("code") == 503:
                    break
                time.sleep(0.1)
            assert envelope["code"] == 503
            assert envelope["error"]["reason"] == "worker-restarting"
        finally:
            service.stop()
