"""Asyncio front end for the sharded tier, plus a blocking facade.

:class:`AsyncFrontend` is the data path: it holds one asyncio unix-socket
connection per shard worker, routes every request to its tenant's owner
(``shard_of``), and **batches per link, per event-loop tick** — every
request routed to one worker during the current tick goes out in one
``explain_batch`` frame when the loop runs the flush that the tick's first
request scheduled (or earlier, once :data:`MAX_FRAME_ITEMS` have
gathered).  Grouping by
engine key is the worker's job: its coalescing queue
(:meth:`~repro.service.queue.RequestQueue.take_batch`) turns same-key
requests into one batched engine pass, however they arrived.  Replies carry
the request id and may arrive in any order; a reader task per connection
matches them to futures.

Failover semantics (the front-end half of the supervisor's contract): when
a worker connection drops, every in-flight and still-buffered request for
that worker resolves *immediately* with a structured 503
(``worker-restarting``) envelope — callers never hang on a dead process —
and a reconnect loop re-establishes the connection once the supervisor has
respawned the worker.  Requests arriving while the link is down get the
same 503; the journal guarantees their tenants' ledgers are exact when the
worker returns.

:class:`ShardedService` wraps the front end and the supervisor behind the
blocking ``ExplanationService`` surface the HTTP layer consumes
(``explain`` / ``pipeline`` / ``describe`` / ``ledger_describe`` /
``dataset_listing`` / ``stop``), running the event loop on a background
thread.  ``/v1/pipeline`` is *not supported* sharded — the pipeline route
needs the raw rows for server-side clustering, and rows never leave the
supervisor — so it returns a structured 501.
"""

from __future__ import annotations

import asyncio
import threading
import time

from dataclasses import asdict

from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..obs.tracing import attach_trace, new_trace_id, span_histogram
from .service import ExplainRequest, PipelineRequest
from .shard import shard_of, worker_restarting_envelope
from .supervisor import ShardSupervisor
from .transport import FrameError, encode_frame, read_frame_async

#: Requests per ``explain_batch`` frame.  A link's outbox is flushed as
#: soon as it holds this many, so a tick's backlog for one worker beyond it
#: goes out as several frames; 64 request bodies stay far below
#: :data:`~repro.service.transport.MAX_FRAME_BYTES`.
MAX_FRAME_ITEMS = 64


class _Link:
    """One worker connection: reader task, pending futures, outbox.

    ``outbox`` holds the frame items gathered during the current tick; it
    is non-empty only while a flush is scheduled.
    ``enqueued``/``sent`` hold per-request ``time.monotonic()`` stamps
    (buffered → flushed-to-wire), ``traces`` the request's trace id — all
    keyed by request id and popped together on resolve or timeout, so the
    span bookkeeping can never outlive its future.
    """

    __slots__ = (
        "index",
        "reader",
        "writer",
        "alive",
        "pending",
        "outbox",
        "reader_task",
        "enqueued",
        "sent",
        "traces",
    )

    def __init__(self, index: int):
        self.index = index
        self.reader = None
        self.writer = None
        self.alive = False
        self.pending: "dict[int, asyncio.Future]" = {}
        self.outbox: "list[dict]" = []
        self.reader_task: "asyncio.Task | None" = None
        self.enqueued: "dict[int, float]" = {}
        self.sent: "dict[int, float]" = {}
        self.traces: "dict[int, str]" = {}


class AsyncFrontend:
    """The async data path over one :class:`ShardSupervisor` deployment."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        *,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.supervisor = supervisor
        self._links = [_Link(i) for i in range(supervisor.n_workers)]
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._closed = False
        self._next_id = 0
        self.batches_sent = 0
        self.requests_sent = 0
        # Default to the supervisor's registry so respawn counters, control
        # frame counters and front-end spans land in one snapshot.
        self.metrics = metrics if metrics is not None else supervisor.metrics
        self._spans = span_histogram(self.metrics)
        self._frames = self.metrics.counter(
            "repro_frames_total",
            "Frames read/written on shard-tier sockets by direction.",
            ("direction",),
        )
        self._batch_size = self.metrics.histogram(
            "repro_frontend_batch_size",
            "Requests per explain_batch frame sent to a worker.",
            base=1.0, growth=2.0, n_buckets=12,
        )

    # -- lifecycle -------------------------------------------------------- #

    async def start(self) -> "AsyncFrontend":
        self._loop = asyncio.get_running_loop()
        for link in self._links:
            await self._connect(link)
        # A respawn notification wakes the reconnect path early; the
        # reader's own reconnect loop is the fallback when the callback
        # beats the respawned socket.
        self.supervisor.on_worker_restart(self._notify_restart)
        return self

    async def _connect(self, link: _Link) -> None:
        reader, writer = await asyncio.open_unix_connection(
            self.supervisor.socket_path(link.index)
        )
        link.reader, link.writer = reader, writer
        link.alive = True
        link.reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(link)
        )

    def _notify_restart(self, index: int) -> None:
        # Called from the supervisor's monitor thread.
        loop = self._loop
        if loop is not None and not self._closed:
            loop.call_soon_threadsafe(lambda: None)  # nudge the loop awake

    async def close(self) -> None:
        self._closed = True
        for link in self._links:
            if link.reader_task is not None:
                link.reader_task.cancel()
            if link.writer is not None:
                link.writer.close()
            self._fail_link(link)
        for link in self._links:
            if link.reader_task is not None:
                try:
                    await link.reader_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                link.reader_task = None

    # -- data path -------------------------------------------------------- #

    async def explain(
        self, request: ExplainRequest, timeout_s: float = 60.0
    ) -> dict:
        """Route one request to its owner worker; resolve to the envelope.

        The trace id is minted here when the caller did not bring one —
        this is the sharded deployment's edge — and rides the request dict
        through the frame protocol; refusals produced *on this side* of
        the wire (worker down, link drop) carry the same id, so a 503 is
        as attributable as a served response.
        """
        if not request.trace_id:
            request = request.with_trace(new_trace_id())
        index = shard_of(request.tenant, self.supervisor.n_workers)
        link = self._links[index]
        if not link.alive:
            return attach_trace(
                worker_restarting_envelope(index), request.trace_id
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[dict]" = loop.create_future()
        self._next_id += 1
        rid = self._next_id
        link.pending[rid] = future
        link.enqueued[rid] = time.monotonic()
        link.traces[rid] = request.trace_id
        if not link.outbox:
            # First request for this link in the tick: the flush runs after
            # every callback already scheduled for this tick.
            loop.call_soon(self._flush, link)
        link.outbox.append({"id": rid, "request": asdict(request)})
        self.requests_sent += 1
        if len(link.outbox) >= MAX_FRAME_ITEMS:
            # A full frame goes out now, so the worker starts on it while
            # the rest of the tick's requests are still being routed.
            self._flush(link)
        try:
            return await asyncio.wait_for(future, timeout_s)
        finally:
            # No-ops after a resolve; drops the bookkeeping of a request
            # that timed out (asyncio.TimeoutError, which is not the
            # builtin TimeoutError before Python 3.11) or was cancelled.
            link.pending.pop(rid, None)
            link.enqueued.pop(rid, None)
            link.sent.pop(rid, None)
            link.traces.pop(rid, None)

    def _flush(self, link: _Link) -> None:
        outbox, link.outbox = link.outbox, []
        # Only requests still awaited go out: a dropped link has already
        # resolved its pending requests, and a caller that timed out before
        # this flush no longer wants an answer.
        items = [item for item in outbox if item["id"] in link.pending]
        if not items:
            return
        now = time.monotonic()
        for item in items:
            rid = item["id"]
            self._spans.observe(now - link.enqueued[rid], ("frontend-queue",))
            link.sent[rid] = now
        try:
            link.writer.write(
                encode_frame({"op": "explain_batch", "items": items})
            )
        except FrameError:  # unencodable frame: fail the link, not the loop
            self._drop_link(link)
            return
        self._batch_size.observe(len(items))
        self._frames.inc(1, ("written",))
        self.batches_sent += 1

    async def _read_loop(self, link: _Link) -> None:
        try:
            while True:
                frame = await read_frame_async(link.reader)
                if frame is None:
                    break
                self._frames.inc(1, ("read",))
                self._resolve(link, frame.get("id"), frame.get("envelope"))
        except (FrameError, OSError, ConnectionError, asyncio.CancelledError):
            pass
        self._drop_link(link)
        await self._reconnect(link)

    def _resolve(self, link: _Link, rid, envelope) -> None:
        future = link.pending.pop(rid, None)
        link.enqueued.pop(rid, None)
        t_sent = link.sent.pop(rid, None)
        trace = link.traces.pop(rid, None)
        if future is not None and not future.done():
            if t_sent is not None:
                self._spans.observe(time.monotonic() - t_sent, ("frame-rtt",))
            if trace is not None:
                envelope = attach_trace(envelope, trace)
            future.set_result(envelope)

    def _drop_link(self, link: _Link) -> None:
        """Connection lost: fail everything outstanding, mark dead."""
        if not link.alive:
            return
        link.alive = False
        if link.writer is not None:
            link.writer.close()
        self._fail_link(link)

    def _fail_link(self, link: _Link) -> None:
        envelope = worker_restarting_envelope(link.index)
        link.outbox = []
        for rid in list(link.pending):
            self._resolve(link, rid, dict(envelope))

    async def _reconnect(self, link: _Link) -> None:
        while not self._closed:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.supervisor.socket_path(link.index)
                )
            except OSError:
                await asyncio.sleep(0.1)
                continue
            link.reader, link.writer = reader, writer
            link.alive = True
            link.reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(link)
            )
            return

    # -- control reads ----------------------------------------------------- #

    def describe(self) -> dict:
        body = self.supervisor.describe()
        body["frontend"] = {
            "batches_sent": self.batches_sent,
            "requests_sent": self.requests_sent,
            "links_alive": sum(1 for link in self._links if link.alive),
        }
        return body

    def metrics_snapshot(self) -> dict:
        """Deployment-wide snapshot: this process's registry + every worker.

        Exact by construction — counters in the merged snapshot equal the
        sum of the per-worker registries (plus the front end's own) because
        the merge is plain integer addition over identical bucket
        geometries.  A worker that cannot be scraped (mid-respawn) is
        skipped; its journal-durable state reappears on the next scrape.
        """
        snapshots = [self.metrics.snapshot()]
        if self.supervisor.metrics is not self.metrics:
            snapshots.append(self.supervisor.metrics.snapshot())
        for i in range(self.supervisor.n_workers):
            try:
                snapshots.append(self.supervisor.worker_metrics(i))
            except Exception:  # noqa: BLE001 — a dead worker must not fail a scrape
                continue
        return merge_snapshots(snapshots)


class ShardedService:
    """Blocking facade: the ``ExplanationService`` surface, served by shards.

    Spawns the supervisor, runs an :class:`AsyncFrontend` on a background
    event-loop thread, and exposes the exact method set the HTTP handler
    and CLI consume — so ``python -m repro serve --workers N`` swaps the
    in-process service for the sharded tier without touching the routes.
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
        # One registry spans the facade, supervisor and front end; worker
        # registries live in their own processes and merge in at scrape.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.supervisor = ShardSupervisor(
            n_workers,
            ledger_dir=ledger_dir,
            auto_tenant_budget=auto_tenant_budget,
            cache_entries=cache_entries,
            service_threads=service_threads,
            socket_dir=socket_dir,
            metrics=self.metrics,
        )
        self.frontend = AsyncFrontend(self.supervisor, metrics=self.metrics)
        self._loop = asyncio.new_event_loop()
        self._loop_thread: "threading.Thread | None" = None
        self._started = False

    # -- lifecycle -------------------------------------------------------- #

    def start(self, workers: int | None = None) -> "ShardedService":
        """Spawn the deployment (``workers`` kept for signature parity)."""
        if self._started:
            return self
        self.supervisor.start()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="shard-frontend", daemon=True
        )
        self._loop_thread.start()
        self._run(self.frontend.start())
        self._started = True
        return self

    def stop(self) -> None:
        """Stop front end, then workers (each drains its queue)."""
        if self._loop_thread is not None:
            try:
                self._run(self.frontend.close())
            except RuntimeError:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        self.supervisor.stop()

    def _run(self, coro, timeout: "float | None" = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    # -- the service surface ---------------------------------------------- #

    def register_dataset(
        self, dataset_id: str, dataset, clustering=None, n_clusters=None
    ) -> dict:
        return self.supervisor.register_dataset(
            dataset_id, dataset, clustering, n_clusters
        )

    def explain(
        self,
        request: "ExplainRequest | None" = None,
        timeout: float = 60.0,
        **kwargs,
    ) -> dict:
        if request is None:
            request = ExplainRequest(**kwargs)
        # Validation parity with the in-process service: reject malformed
        # requests here (no budget anywhere was touched) instead of paying
        # a round trip to a worker that would reject them identically.
        request = request.validated()
        return self._run(
            self.frontend.explain(request, timeout_s=timeout),
            # The async side owns the timeout; leave headroom so the
            # worker-side 504 wins over a racing facade-side one.
            timeout=timeout + 5.0,
        )

    def pipeline(
        self,
        request: "PipelineRequest | None" = None,
        timeout: float = 60.0,
        **kwargs,
    ) -> dict:
        del timeout
        if request is None:
            request = PipelineRequest(**kwargs)
        if not request.trace_id:
            request = request.with_trace(new_trace_id())
        envelope = {
            "status": "error",
            "code": 501,
            "error": {
                "reason": "pipeline-unsupported",
                "message": (
                    "/v1/pipeline needs the raw rows for server-side "
                    "clustering; rows never leave the supervisor in a "
                    "sharded deployment. Fit the clustering before "
                    "registering, or run a single-process service."
                ),
            },
        }
        return attach_trace(envelope, request.trace_id)

    def describe(self) -> dict:
        return self.frontend.describe()

    def metrics_snapshot(self) -> dict:
        return self.frontend.metrics_snapshot()

    def health(self, deep: bool = False) -> dict:
        return self.supervisor.health(deep=deep)

    def ledger_describe(self, tenant_id: str) -> dict:
        return self.supervisor.ledger(tenant_id)

    def dataset_listing(self) -> "list[dict]":
        return self.supervisor.dataset_listing()

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
