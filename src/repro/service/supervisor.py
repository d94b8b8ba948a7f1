"""Shard supervisor: spawn, monitor, respawn, and replay worker processes.

The supervisor owns the deployment's fixed shape — ``n_workers`` processes,
one unix socket each — plus everything a worker cannot durably own itself:

* the **shared dataset segments**: datasets are materialised once in the
  supervisor process, packed via :func:`~repro.core.engine.shm.share_stack`
  and broadcast to workers as registration frames.  The supervisor keeps
  each :class:`~repro.core.engine.shm.SharedStack` owner object alive (and
  the frame, for respawn replay) until :meth:`stop` unlinks the segments;
* the **failover contract**: a monitor thread waits on process sentinels;
  when a worker dies it is respawned with the *same* ``WorkerConfig``, its
  registration frames are replayed, and — because every charge of a
  batch is fsync'd to its tenant journal *before* that batch's first draw
  — the fresh process reloads exactly the ledgers the dead one had
  committed.  Requests that
  were in flight on the dead worker are failed by the front end with a
  structured 503 (``worker-restarting``); their charges, if any, are in the
  journal and therefore correctly absent or present, never half-applied.

Workers are spawned with the ``spawn`` start method: the supervisor runs
threads (monitor, callers), and forking a threaded process inherits locks
in undefined states.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import threading
import time

from multiprocessing.connection import wait as sentinel_wait

from ..core.counts import ClusteredCounts
from ..core.engine.shm import share_stack
from ..obs.metrics import MetricsRegistry
from .registry import ServiceError, check_dataset_id
from .shard import WorkerConfig, registration_frame, worker_main
from .transport import FrameError, FrameSocket


#: How long a spawned worker has to bind its socket and answer a ping.
_READY_TIMEOUT_S = 60.0


class SupervisorError(RuntimeError):
    """Deployment-level failure: spawn, readiness, or control-channel loss."""


class _Control:
    """The supervisor's private request/reply channel to one worker.

    One lock serialises whole request/reply exchanges: the control channel
    is strictly synchronous (the supervisor never pipelines on it), which
    keeps respawn logic trivially race-free.
    """

    def __init__(self, frames: FrameSocket):
        self.frames = frames
        self.lock = threading.Lock()
        self._next_id = 0

    def request(self, frame: dict) -> dict:
        with self.lock:
            self._next_id += 1
            rid = self._next_id
            frame = dict(frame, id=rid)
            self.frames.write(frame)
            while True:
                reply = self.frames.read()
                if reply is None:
                    raise FrameError("control channel closed by worker")
                if reply.get("id") == rid:
                    return reply

    def close(self) -> None:
        self.frames.close()


class ShardSupervisor:
    """Spawn ``n_workers`` shard processes and keep them alive.

    ``n_workers`` is pinned for the supervisor's lifetime: tenant→worker
    assignment is ``shard_of(tenant, n_workers)``, so changing the count is
    an explicit rebalance (stop the deployment, start a new one with the
    new count — ledgers follow their tenants automatically because each
    worker replays the shared ledger directory filtered to its partition).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        ledger_dir: "str | None" = None,
        auto_tenant_budget: "float | None" = None,
        cache_entries: int = 256,
        service_threads: int = 2,
        socket_dir: "str | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.ledger_dir = ledger_dir
        self.auto_tenant_budget = auto_tenant_budget
        self.cache_entries = cache_entries
        self.service_threads = service_threads
        self.respawn = True  # cleared, a dead worker stays down
        self._ctx = multiprocessing.get_context("spawn")
        if socket_dir is None:
            self._socket_dir = tempfile.mkdtemp(prefix="repro-shards-")
            self._own_socket_dir = True
        else:
            os.makedirs(socket_dir, exist_ok=True)
            self._socket_dir = socket_dir
            self._own_socket_dir = False
        self._procs: "list[multiprocessing.process.BaseProcess | None]" = [
            None
        ] * n_workers
        self._controls: "list[_Control | None]" = [None] * n_workers
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: "threading.Thread | None" = None
        self._registrations: "list[dict]" = []  # frames, replayed on respawn
        self._shared: "list" = []  # SharedStack owners, kept mapped until stop()
        self._restart_listeners: "list" = []
        self.restarts = 0
        # Supervisor-process metrics: respawn counters plus the frame
        # counters of every control channel.  A front end sharing this
        # registry folds them into one scrape-side snapshot.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._respawns = self.metrics.counter(
            "repro_worker_respawns_total",
            "Successful shard-worker respawns after a process death.",
            ("worker",),
        )
        self._restart_counts = [0] * n_workers
        self._last_respawn: "list[float | None]" = [None] * n_workers

    # -- lifecycle -------------------------------------------------------- #

    def socket_path(self, index: int) -> str:
        return os.path.join(self._socket_dir, f"shard-{index}.sock")

    def _config(self, index: int) -> WorkerConfig:
        return WorkerConfig(
            index=index,
            n_shards=self.n_workers,
            socket_path=self.socket_path(index),
            ledger_dir=self.ledger_dir,
            cache_entries=self.cache_entries,
            auto_tenant_budget=self.auto_tenant_budget,
            service_threads=self.service_threads,
        )

    def start(self) -> "ShardSupervisor":
        for i in range(self.n_workers):
            self._spawn(i)
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for i in range(self.n_workers):
            self._controls[i] = self._connect_control(i, deadline)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, index: int) -> None:
        try:
            os.unlink(self.socket_path(index))
        except FileNotFoundError:
            pass
        proc = self._ctx.Process(
            target=worker_main,
            args=(self._config(index),),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        proc.start()
        self._procs[index] = proc

    def connect(self, index: int, timeout_s: float = 10.0) -> socket.socket:
        """A fresh data-path connection to worker ``index`` (front ends)."""
        deadline = time.monotonic() + timeout_s
        path = self.socket_path(index)
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                return sock
            except OSError:
                sock.close()
                if time.monotonic() >= deadline:
                    raise SupervisorError(
                        f"worker {index} not accepting on {path!r}"
                    )
                proc = self._procs[index]
                if proc is not None and not proc.is_alive() and self._stop.is_set():
                    raise SupervisorError(f"worker {index} is down")
                time.sleep(0.05)

    def _connect_control(self, index: int, deadline: float) -> _Control:
        control = _Control(
            FrameSocket(
                self.connect(
                    index, timeout_s=max(0.1, deadline - time.monotonic())
                ),
                metrics=self.metrics,
            )
        )
        reply = control.request({"op": "ping"})
        if not reply.get("ok") or reply.get("result", {}).get("index") != index:
            control.close()
            raise SupervisorError(f"worker {index} failed the readiness ping")
        return control

    # -- dataset registration --------------------------------------------- #

    def register_dataset(
        self, dataset_id: str, dataset, clustering=None, n_clusters=None
    ) -> dict:
        """Materialise once, share the stack, broadcast to every worker.

        Returns the registration frame (also the replay record).  The
        counts are built in the supervisor process — the only process that
        ever holds the rows — then only the packed stack tensors (schema ×
        clusters, independent of row count) cross into shared memory.  An
        id the registry would refuse is refused before anything is shared.
        """
        check_dataset_id(dataset_id)
        counts = (
            clustering
            if isinstance(clustering, ClusteredCounts)
            else ClusteredCounts(dataset, clustering, n_clusters)
        )
        counts.materialise()
        shared = share_stack(counts.by_cluster_stack())
        frame = registration_frame(dataset_id, dataset, counts, shared.handle)
        with self._lock:
            # Replace any previous registration of the same id in the
            # replay log (respawn must see only the latest version).
            self._registrations = [
                f for f in self._registrations if f["dataset"] != dataset_id
            ] + [frame]
            self._shared.append(shared)
        for i in range(self.n_workers):
            # repro-lint: disable=taint-error-envelope — the registration frame carries a shared-memory descriptor and public dataset metadata, not raw counts; a worker refusal interpolates only the public op name
            self._control_request(i, dict(frame))
        return frame

    def _replay_registrations(self, index: int) -> None:
        with self._lock:
            frames = list(self._registrations)
        for frame in frames:
            self._control_request(index, dict(frame))

    # -- control-plane requests ------------------------------------------- #

    def _control_request(self, index: int, frame: dict) -> dict:
        control = self._controls[index]
        if control is None:
            raise SupervisorError(f"worker {index} has no control channel")
        reply = control.request(frame)
        if not reply.get("ok"):
            envelope = reply.get("envelope") or {}
            error = envelope.get("error") or {}
            raise ServiceError(
                int(envelope.get("code", 500)),
                str(error.get("reason", "worker-error")),
                str(error.get("message", f"worker {index} refused {frame.get('op')!r}")),
            )
        return reply

    def worker_stats(self, index: int) -> dict:
        return self._control_request(index, {"op": "stats"})["result"]

    def worker_metrics(self, index: int) -> dict:
        """One worker's metrics-registry snapshot (merge input for scrapes)."""
        return self._control_request(index, {"op": "metrics"})["result"]

    def health(self, deep: bool = False) -> dict:
        """Deployment liveness: per-worker state, degraded if any slot is down.

        Shallow mode reads only supervisor-side process state (no worker
        round-trips); ``deep`` adds each live worker's own
        ``health(deep=True)`` body — journal tail lengths and registry
        counts, all cheap lock-guarded reads.
        """
        workers = []
        for i in range(self.n_workers):
            proc = self._procs[i]
            info = {
                "index": i,
                "alive": bool(proc is not None and proc.is_alive()),
                "pid": proc.pid if proc is not None else None,
                "restarts": self._restart_counts[i],
                "last_respawn_unix": self._last_respawn[i],
            }
            if deep and info["alive"]:
                try:
                    info["detail"] = self._control_request(
                        i, {"op": "health", "deep": True}
                    )["result"]
                except (ServiceError, SupervisorError, FrameError, OSError):
                    info["alive"] = False
            workers.append(info)
        return {
            "status": "ok" if all(w["alive"] for w in workers) else "degraded",
            "sharded": True,
            "n_workers": self.n_workers,
            "restarts": self.restarts,
            "workers": workers,
        }

    def describe(self) -> dict:
        """Deployment-wide view: per-worker stats + supervisor state."""
        workers = []
        for i in range(self.n_workers):
            try:
                workers.append(self.worker_stats(i))
            except (ServiceError, SupervisorError, FrameError, OSError):
                workers.append({"worker": {"index": i, "status": "restarting"}})
        return {
            "sharded": True,
            "n_workers": self.n_workers,
            "restarts": self.restarts,
            "datasets": self.dataset_listing(),
            "workers": workers,
        }

    def ledger(self, tenant_id: str) -> dict:
        """Route a ledger read to the tenant's owner worker."""
        from .shard import shard_of

        index = shard_of(tenant_id, self.n_workers)
        return self._control_request(
            index, {"op": "ledger", "tenant": tenant_id}
        )["result"]

    def dataset_listing(self) -> "list[dict]":
        with self._lock:
            frames = list(self._registrations)
        return [
            {
                "dataset": f["dataset"],
                "rows": f["n_rows"],
                "attributes": list(f["domains"].keys()),
                "n_clusters": f["handle"]["n_clusters"],
                "fingerprint": f["fingerprint"],
                "signature": f["signature"],
            }
            for f in frames
        ]

    # -- failover --------------------------------------------------------- #

    def on_worker_restart(self, callback) -> None:
        """Register ``callback(index)`` invoked after each successful respawn."""
        self._restart_listeners.append(callback)

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            procs = [p for p in self._procs if p is not None and p.is_alive()]
            sentinels = {p.sentinel: p for p in procs}
            if not sentinels:
                if self._stop.wait(0.1):
                    return
                continue
            ready = sentinel_wait(list(sentinels), timeout=0.25)
            if self._stop.is_set():
                return
            for sentinel in ready:
                proc = sentinels[sentinel]
                index = self._procs.index(proc)
                self._handle_death(index)

    def _handle_death(self, index: int) -> None:
        proc = self._procs[index]
        if proc is not None:
            proc.join(timeout=1.0)
        control = self._controls[index]
        self._controls[index] = None
        if control is not None:
            control.close()
        if not self.respawn or self._stop.is_set():
            return
        try:
            self._spawn(index)
            deadline = time.monotonic() + _READY_TIMEOUT_S
            self._controls[index] = self._connect_control(index, deadline)
            self._replay_registrations(index)
        except (SupervisorError, ServiceError, FrameError, OSError):
            # Leave the slot down; the next monitor pass will not see a
            # live sentinel, and callers get worker-restarting envelopes.
            return
        self.restarts += 1
        self._restart_counts[index] += 1
        # repro-lint: disable=monotonic-deadlines — wall-clock unix stamp exported as last_respawn_unix in healthz for humans; never enters deadline math (the ready deadline above uses time.monotonic())
        self._last_respawn[index] = time.time()
        self._respawns.inc(1, (str(index),))
        for callback in list(self._restart_listeners):
            try:
                callback(index)
            except Exception:  # noqa: BLE001 — listeners must not kill failover
                pass

    # -- shutdown --------------------------------------------------------- #

    def stop(self) -> None:
        """Graceful stop: shutdown frames, join, then release shared state.

        The shutdown frame makes each worker run ``service.stop()`` — the
        final queue drain — before its process exits; segments are
        unlinked only after every worker is gone, so no attach can race the
        unlink.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for i, control in enumerate(self._controls):
            if control is None:
                continue
            try:
                control.request({"op": "shutdown"})
            except (FrameError, OSError):
                pass
            control.close()
            self._controls[i] = None
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        with self._lock:
            shared, self._shared = self._shared, []
        for segment in shared:
            segment.close()
            segment.unlink()
        for i in range(self.n_workers):
            try:
                os.unlink(self.socket_path(i))
            except OSError:
                pass
        if self._own_socket_dir:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
