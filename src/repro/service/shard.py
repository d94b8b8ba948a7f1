"""Shard worker processes: tenant-partitioned explanation serving.

The multi-process tier partitions *tenants* across ``n_shards`` worker
processes by :func:`shard_of` — a stable content hash, so the owner of a
tenant is a pure function of ``(tenant_id, n_shards)`` and never depends on
interpreter hash randomisation, process identity, or arrival order.  Each
worker runs a full in-process :class:`~repro.service.service.ExplanationService`
for its partition: its tenants' privacy ledgers, journals, explanation
caches and coalescing queue live in that one process **exclusively** (the
per-``(tenant, dataset)`` ledger design already makes tenants
share-nothing), so there is no cross-process locking anywhere on the
serving path.  That coalescing queue is the tier's only coalescer: an
``explain_batch`` frame may mix engine keys, and the queue groups the
same-key requests it holds into one engine pass.

Datasets are *not* re-materialised per worker: the supervisor registers a
dataset once, packs its counts stack into a PR 6 shared-memory segment, and
ships each worker a registration frame carrying the size-independent
:class:`~repro.core.engine.shm.SharedStackHandle` plus the schema (names and
domain values — the only dataset surface histogram releases need).  Workers
attach zero-copy read-only views; the rows never cross a process boundary.

Wire protocol (see :mod:`repro.service.transport`): length-prefixed JSON
frames over a unix socket the worker binds.  Every request frame carries an
``id``; every reply echoes it, so replies may arrive out of order (the
worker answers each request from a future callback as it resolves).  Ops:

=================  =========================================================
``register``       attach a shared dataset (handle + schema + fingerprints)
``explain``        one explanation request → service envelope
``explain_batch``  many requests in one frame (one event-loop tick's worth)
``stats``          the worker's ``describe()`` + worker identity
``metrics``        the worker's metrics-registry snapshot (scrape merge input)
``health``         the worker's ``health(deep=...)`` body + worker identity
``ledger``         one tenant's ledger description
``ping``           liveness + identity probe
``shutdown``       graceful stop: drain the queue, then exit
=================  =========================================================

Request tracing rides the same frames: an ``explain`` request body may
carry a ``trace_id`` minted at the HTTP/front-end edge; the worker's
service attaches it to the reply envelope's meta/error block, so one id
follows a request across the process boundary and back.

Partition contract: a worker refuses requests for tenants it does not own
with a structured 421 (``wrong-shard``) envelope — routing bugs surface
loudly instead of silently splitting one tenant's ledger across two
processes.  Changing the worker count is a *rebalance*: it changes
``shard_of`` assignments, so it requires draining and restarting the
deployment (the supervisor pins ``n_shards`` for its lifetime); ledgers
follow their tenants because every worker replays the same journal
directory filtered to its own partition.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading

from dataclasses import dataclass

from ..core.engine.shm import SharedStackHandle, attach_counts
from ..dataset.schema import Schema
from .registry import DatasetEntry, ServiceError, ServiceRegistry
from .service import ExplainRequest, ExplanationService
from .transport import FrameError, FrameSocket


def shard_of(tenant_id: str, n_shards: int) -> int:
    """The worker index owning ``tenant_id`` in an ``n_shards`` deployment.

    A keyless BLAKE2b content hash: stable across processes, interpreter
    restarts and ``PYTHONHASHSEED`` — the property that lets a respawned
    worker, the front end, and the supervisor all agree on ownership
    without ever exchanging an assignment table.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    digest = hashlib.blake2b(tenant_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs (picklable primitives only)."""

    index: int
    n_shards: int
    socket_path: str
    ledger_dir: "str | None" = None
    cache_entries: int = 256
    auto_tenant_budget: "float | None" = None
    service_threads: int = 2


class SharedDatasetInfo:
    """The schema-bearing dataset descriptor rebuilt from a register frame.

    Quacks like the slice of :class:`~repro.dataset.table.Dataset` the
    service layer reads — ``schema``, ``__len__``, ``fingerprint()`` — with
    the fingerprint carried verbatim from the parent so cache keys match
    the in-process deployment byte-for-byte.
    """

    def __init__(self, schema: Schema, n_rows: int, fingerprint: str):
        self.schema = schema
        self._n_rows = int(n_rows)
        self._fingerprint = str(fingerprint)

    def __len__(self) -> int:
        return self._n_rows

    def fingerprint(self) -> str:
        return self._fingerprint


def registration_frame(dataset_id: str, dataset, counts, handle) -> dict:
    """The supervisor-side register frame for one shared dataset.

    ``counts`` is the parent's materialised ``ClusteredCounts`` (for the
    signature), ``handle`` the :class:`SharedStackHandle` of its packed
    stack.  Everything here is JSON: domains are small (binned categorical
    labels), and the heavy tensors travel through the segment the handle
    names.
    """
    return {
        "op": "register",
        "dataset": dataset_id,
        "fingerprint": dataset.fingerprint(),
        "signature": counts.signature(),
        "n_rows": len(dataset),
        "domains": {a.name: list(a.domain) for a in dataset.schema},
        "handle": {
            "segment": handle.segment,
            "names": list(handle.names),
            "domain_sizes": list(handle.domain_sizes),
            "n_clusters": handle.n_clusters,
            "nbytes": handle.nbytes,
        },
    }


def entry_from_frame(frame: dict) -> DatasetEntry:
    """Attach the frame's shared segment and build the registry entry."""
    h = frame["handle"]
    handle = SharedStackHandle(
        segment=str(h["segment"]),
        names=tuple(str(n) for n in h["names"]),
        domain_sizes=tuple(int(d) for d in h["domain_sizes"]),
        n_clusters=int(h["n_clusters"]),
        nbytes=int(h["nbytes"]),
    )
    schema = Schema.from_domains(
        {str(name): tuple(str(v) for v in dom) for name, dom in frame["domains"].items()}
    )
    info = SharedDatasetInfo(schema, frame["n_rows"], frame["fingerprint"])
    counts = attach_counts(handle, dataset=info)
    return DatasetEntry.from_shared(
        str(frame["dataset"]), info, counts, str(frame["signature"])
    )


class ShardWorker:
    """One worker process: a partition-scoped service behind a unix socket.

    Runs inside the spawned child (:func:`worker_main`).  The accept loop
    takes connections from the supervisor (control channel) and any number
    of front ends; each connection gets a reader thread, and replies are
    written from future callbacks under the connection's frame lock — so a
    slow engine pass never blocks the socket for the requests behind it.
    """

    def __init__(self, config: WorkerConfig):
        self.config = config
        registry = ServiceRegistry(
            ledger_dir=config.ledger_dir,
            tenant_filter=lambda t: shard_of(t, config.n_shards) == config.index,
        )
        self.service = ExplanationService(
            registry,
            cache_entries=config.cache_entries,
            auto_tenant_budget=config.auto_tenant_budget,
        )
        self._listener: "socket.socket | None" = None
        self._stop = threading.Event()
        self._conn_threads: "list[threading.Thread]" = []

    # -- lifecycle -------------------------------------------------------- #

    def serve(self) -> None:
        """Bind the socket and serve until :meth:`stop` (blocking)."""
        try:
            os.unlink(self.config.socket_path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.config.socket_path)
        listener.listen(64)
        listener.settimeout(0.2)  # so the accept loop notices stop()
        self._listener = listener
        self.service.start(self.config.service_threads)
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                t = threading.Thread(
                    target=self._serve_connection,
                    args=(FrameSocket(conn, metrics=self.service.metrics),),
                    name=f"shard-{self.config.index}-conn",
                    daemon=True,
                )
                t.start()
                self._conn_threads.append(t)
        finally:
            listener.close()
            # Drain *before* exit: stop() resolves every accepted future.
            self.service.stop()
            try:
                os.unlink(self.config.socket_path)
            except FileNotFoundError:
                pass

    def stop(self) -> None:
        self._stop.set()

    # -- connection handling ---------------------------------------------- #

    def _serve_connection(self, frames: FrameSocket) -> None:
        try:
            while True:
                frame = frames.read()
                if frame is None:
                    return  # peer closed cleanly
                self._dispatch(frames, frame)
        except (FrameError, OSError):
            return  # peer died; its in-flight futures die with it
        finally:
            frames.close()

    def _dispatch(self, frames: FrameSocket, frame: dict) -> None:
        op = frame.get("op")
        rid = frame.get("id")
        try:
            if op == "explain":
                self._handle_explain(frames, rid, frame.get("request"))
            elif op == "explain_batch":
                for item in frame.get("items", ()):
                    self._handle_explain(
                        frames, item.get("id"), item.get("request")
                    )
            elif op == "register":
                self._handle_register(frame)
                frames.write({"id": rid, "ok": True, "dataset": frame["dataset"]})
            elif op == "stats":
                body = self.service.describe()
                body["worker"] = self.identity()
                frames.write({"id": rid, "ok": True, "result": body})
            elif op == "metrics":
                frames.write(
                    {"id": rid, "ok": True, "result": self.service.metrics_snapshot()}
                )
            elif op == "health":
                body = self.service.health(deep=bool(frame.get("deep")))
                body["worker"] = self.identity()
                frames.write({"id": rid, "ok": True, "result": body})
            elif op == "ledger":
                tenant_id = str(frame["tenant"])
                self._check_owner(tenant_id)
                frames.write(
                    {
                        "id": rid,
                        "ok": True,
                        "result": self.service.ledger_describe(tenant_id),
                    }
                )
            elif op == "ping":
                frames.write({"id": rid, "ok": True, "result": self.identity()})
            elif op == "shutdown":
                frames.write({"id": rid, "ok": True})
                self.stop()
            else:
                raise ServiceError(400, "bad-frame", f"unknown op {op!r}")
        except ServiceError as exc:
            frames.write({"id": rid, "ok": False, "envelope": _error_envelope(exc)})
        except Exception as exc:  # noqa: BLE001 — a bad frame must not kill the worker
            frames.write(
                {
                    "id": rid,
                    "ok": False,
                    "envelope": _error_envelope(
                        ServiceError(500, "internal-error", type(exc).__name__)
                    ),
                }
            )

    def identity(self) -> dict:
        return {
            "index": self.config.index,
            "n_shards": self.config.n_shards,
            "pid": os.getpid(),
        }

    def _check_owner(self, tenant_id: str) -> None:
        owner = shard_of(tenant_id, self.config.n_shards)
        if owner != self.config.index:
            raise ServiceError(
                421,
                "wrong-shard",
                f"tenant {tenant_id!r} belongs to shard {owner}, "
                f"this is shard {self.config.index}",
            )

    def _handle_explain(self, frames: FrameSocket, rid, body) -> None:
        try:
            request = ExplainRequest.from_json(body)
            if isinstance(request.tenant, str) and request.tenant:
                self._check_owner(request.tenant)
        except ServiceError as exc:
            frames.write({"id": rid, "envelope": _error_envelope(exc)})
            return
        future = self.service.submit(request)

        def reply(fut) -> None:
            try:
                envelope = fut.result()
            except Exception as exc:  # noqa: BLE001 — resolve, never hang the peer
                # Redacted like the in-process path: type name only.
                envelope = _error_envelope(
                    ServiceError(500, "internal-error", type(exc).__name__)
                )
            try:
                frames.write({"id": rid, "envelope": envelope})
            except (FrameError, OSError):
                pass  # peer gone; nothing to deliver to

        future.add_done_callback(reply)

    def _handle_register(self, frame: dict) -> None:
        """Attach and register a shared dataset (idempotent on respawn replay).

        Registration goes through :meth:`ExplanationService.register_entry`,
        so a replacement that changes the (fingerprint, signature) release
        identity evicts the old version's cached releases, as in-process.
        """
        self.service.register_entry(entry_from_frame(frame))


def _error_envelope(exc: ServiceError) -> dict:
    return {
        "status": "error",
        "code": exc.code,
        "error": {"reason": exc.reason, "message": str(exc)},
    }


def worker_restarting_envelope(index: int) -> dict:
    """The structured 503 for requests caught by a worker crash/restart."""
    return {
        "status": "error",
        "code": 503,
        "error": {
            "reason": "worker-restarting",
            "message": (
                f"shard worker {index} is restarting; the request was not "
                "served (its charge, if any, is journal-durable) — retry"
            ),
            "worker": index,
        },
    }


def worker_main(config: WorkerConfig) -> None:
    """Spawn entry point: serve until the supervisor says stop."""
    worker = ShardWorker(config)
    worker.serve()
