"""Stdlib-only HTTP front end for the explanation service.

``python -m repro serve`` exposes an :class:`~repro.service.service.ExplanationService`
over ``http.server`` — no third-party web framework, matching the repo's
dependency-free constraint.  Endpoints:

* ``POST /v1/explain`` — JSON body per
  :meth:`~repro.service.service.ExplainRequest.from_json`; responds with the
  service envelope, HTTP status mirroring the envelope ``code`` (200 ok,
  429 budget-exhausted, 400/404 request errors).
* ``POST /v1/pipeline`` — JSON body per
  :meth:`~repro.service.service.PipelineRequest.from_json`: fits a DP
  clustering server-side (fit-once-cached) under the tenant's ledger, then
  explains it; same envelope plus a ``"pipeline"`` block.
* ``GET /v1/stats`` — service counters, cache stats, datasets, tenants,
  plus the metrics-registry snapshot (JSON twin of ``/metrics``).
* ``GET /v1/ledger/<tenant>`` — the tenant's per-dataset budget ledgers.
* ``GET /v1/datasets`` — registered datasets with fingerprints.
* ``GET /metrics`` — Prometheus text exposition; sharded deployments merge
  every worker's registry snapshot into one scrape.
* ``GET /healthz`` — liveness probe; ``?deep=1`` adds per-worker liveness,
  last-respawn times and per-tenant journal tail lengths (cheap reads only).

Request tracing: every POST body is assigned a ``trace_id`` here (the HTTP
edge) unless the caller supplied one; it comes back in the envelope's
``meta``/``error`` block — including structured 429/503/504 refusals — so
one id follows a request from the edge through the frame protocol to a
shard worker and back.

``ThreadingHTTPServer`` gives one handler thread per connection; handlers
just submit into the service, so concurrent posts still coalesce into
batched engine calls.

.. warning:: **No authentication — localhost demo scope only.**

   Tenant identity is entirely caller-asserted: whatever ``tenant`` string
   a ``POST /v1/explain`` body names is the ledger that gets charged, and
   ``GET /v1/ledger/<tenant>`` returns any tenant's spend history.  That is
   fine for the single-user demo this server exists for (it binds to
   ``127.0.0.1`` by default, and :func:`serve_forever` warns loudly on any
   non-loopback bind), but it means one client can drain another tenant's
   privacy budget or read their ledger.  Do **not** expose this server
   beyond loopback without putting real authentication in front of it —
   e.g. a reverse proxy mapping per-tenant API keys to the ``tenant``
   field, so callers can no longer choose their own identity.
"""

from __future__ import annotations

import ipaddress
import json

from concurrent.futures import TimeoutError as FuturesTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..obs.export import prometheus_text
from ..obs.tracing import attach_trace, new_trace_id
from .registry import ServiceError
from .service import ExplainRequest, PipelineRequest

MAX_BODY_BYTES = 1_000_000


class ServiceHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one service instance.

    ``service`` is anything exposing the handler surface — ``explain`` /
    ``pipeline`` / ``describe`` / ``ledger_describe`` / ``dataset_listing``
    / ``stop`` — i.e. an in-process
    :class:`~repro.service.service.ExplanationService` or the sharded
    :class:`~repro.service.frontend.ShardedService` facade; the routes are
    identical either way.

    ``daemon_threads`` keeps in-flight handler threads from pinning the
    process open after shutdown; ``allow_reuse_address`` (SO_REUSEADDR)
    lets a restarted server rebind its port while the previous socket
    lingers in TIME_WAIT — without it a quick stop/start cycle fails with
    ``EADDRINUSE`` for up to a minute.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service):
        super().__init__(address, ExplanationHandler)
        self.service = service


class ExplanationHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # -- plumbing -------------------------------------------------------- #

    def log_message(self, *args) -> None:  # pragma: no cover - quiet server
        pass

    def _send_json(self, code: int, body: dict) -> None:
        data = (json.dumps(body, indent=2) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_envelope(
        self, exc: ServiceError, trace_id: str = ""
    ) -> None:
        envelope = {
            "status": "error",
            "code": exc.code,
            "error": {"reason": exc.reason, "message": str(exc)},
        }
        self._send_json(exc.code, attach_trace(envelope, trace_id))

    # -- routes ----------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        parts = urlsplit(self.path)
        path = parts.path
        try:
            if path == "/healthz":
                deep = parse_qs(parts.query).get("deep", ["0"])[0] not in ("0", "")
                health = getattr(service, "health", None)
                body = health(deep=deep) if health is not None else {"status": "ok"}
                self._send_json(200, body)
            elif path == "/metrics":
                snapshot_of = getattr(service, "metrics_snapshot", None)
                if snapshot_of is None:
                    raise ServiceError(
                        404, "not-found", "this service exposes no metrics"
                    )
                self._send_text(
                    200,
                    prometheus_text(snapshot_of()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/v1/stats":
                body = service.describe()
                snapshot_of = getattr(service, "metrics_snapshot", None)
                if snapshot_of is not None:
                    body["metrics"] = snapshot_of()
                self._send_json(200, body)
            elif path == "/v1/datasets":
                self._send_json(200, {"datasets": service.dataset_listing()})
            elif path.startswith("/v1/ledger/"):
                # Tenant ids are arbitrary strings; the URL path carries
                # them percent-encoded ("a b" → /v1/ledger/a%20b).
                tenant_id = unquote(path[len("/v1/ledger/") :])
                self._send_json(200, service.ledger_describe(tenant_id))
            else:
                raise ServiceError(404, "not-found", f"no route for {self.path!r}")
        except ServiceError as exc:
            self._send_error_envelope(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        # Minted before parsing: even a 400 for unparsable JSON is traceable.
        trace_id = new_trace_id()
        try:
            if self.path not in ("/v1/explain", "/v1/pipeline"):
                raise ServiceError(404, "not-found", f"no route for {self.path!r}")
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ServiceError(400, "invalid-request", "missing JSON body")
            if length > MAX_BODY_BYTES:
                raise ServiceError(400, "invalid-request", "body too large")
            try:
                body = json.loads(self.rfile.read(length))
            except (ValueError, RecursionError) as exc:
                # Undecodable bytes and over-long integer literals raise
                # plain ValueError, too deep a nesting RecursionError.
                raise ServiceError(
                    400, "invalid-request", f"bad JSON: {exc}"
                ) from None
            if isinstance(body, dict):
                # Adopted only as a non-empty string; any other trace_id
                # stays in the body for admission to refuse.
                supplied = body.get("trace_id", "")
                if isinstance(supplied, str) and supplied:
                    trace_id = supplied
                elif supplied == "":
                    body = {**body, "trace_id": trace_id}
            try:
                if self.path == "/v1/pipeline":
                    envelope = service.pipeline(PipelineRequest.from_json(body))
                else:
                    envelope = service.explain(ExplainRequest.from_json(body))
            except FuturesTimeoutError:
                raise ServiceError(
                    504,
                    "timeout",
                    "the explanation did not complete in time; retry",
                ) from None
            self._send_json(envelope["code"], envelope)
        except ServiceError as exc:
            self._send_error_envelope(exc, trace_id)
        except Exception as exc:  # noqa: BLE001 — answer, never drop the link
            # Redacted like the service's own 500s: type name only.
            self._send_error_envelope(
                ServiceError(500, "internal-error", type(exc).__name__), trace_id
            )


def make_server(
    service, host: str = "127.0.0.1", port: int = 8080
) -> ServiceHTTPServer:
    """Bind (without serving) — ``port=0`` picks a free port for tests."""
    return ServiceHTTPServer((host, port), service)


def is_loopback_host(host: str) -> bool:
    """True when ``host`` can only be reached from this machine.

    Unrecognised names (including ``""``, which binds all interfaces) count
    as non-loopback, so the warning errs on the loud side.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def serve_forever(
    service, host: str = "127.0.0.1", port: int = 8080
) -> None:  # pragma: no cover - interactive entry point
    """Blocking serve loop for ``python -m repro serve``."""
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"explanation service listening on http://{bound_host}:{bound_port}")
    print(
        "  POST /v1/explain  /v1/pipeline   "
        "GET /v1/stats  /v1/ledger/<tenant>  /metrics  /healthz[?deep=1]"
    )
    if not is_loopback_host(host):
        print(
            f"WARNING: binding to {host!r} exposes the service beyond this "
            "machine, but tenant identity is caller-asserted (no "
            "authentication): any client can charge any tenant's privacy "
            "ledger or read it via /v1/ledger/<tenant>.  This server is a "
            "localhost demo; front it with real auth before remote use."
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        # Order matters: stop() first drains the queue — every accepted
        # request resolves — *while* handler threads can still write their
        # responses out.  Only then does the server stop accepting and
        # release the socket; closing the server first would race handler
        # threads against a service whose workers are already gone.
        service.stop()
        server.server_close()
