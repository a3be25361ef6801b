"""JSON-over-HTTP transport for :class:`repro.serve.AssertService`.

The in-process API (``submit`` -> ``Future`` -> ``SolveResponse``) is
the serving contract; this module puts a network edge in front of it
using nothing but the standard library (``http.server``), so the
reproduction runs as an actual service without growing a dependency.
Every route comes from the request-kind table
(:data:`repro.serve.codecs.KINDS`): each row's path takes ``POST`` and
``DELETE``, parses with the row's parser and maps statuses with its
code table, so the handler names no kind.  One handler class serves
this server and the fleet router alike (the router relays where this
server submits):

- ``POST /v1/solve``  — body :func:`request_to_json`; the response body
  for a solved request is **exactly** ``SolveResponse.to_json()``, so
  the bytes a client reads off the wire are identical to what the
  in-process API serializes (asserted by the test suite — the transport
  must not fork determinism).  Service statuses map onto HTTP codes:

  ================  ====  =========================================
  outcome           code  notes
  ================  ====  =========================================
  ``ok``            200
  ``compile_error`` 422   structured compiler diagnostics in body
  ``timeout``       504   ``deadline_ms`` lapsed (timer-enforced)
  ``cancelled``     409   client issued ``DELETE`` mid-flight
  queue full        429   ``Retry-After`` header (backpressure)
  malformed body    400   bad JSON / wrong types / unknown options
  oversized body    413   > ``HttpConfig.max_body_bytes``
  draining/closed   503   shutdown in progress
  ================  ====  =========================================

- ``POST /v1/eval`` — body :func:`eval_request_from_json`; runs a
  *registered* model (:meth:`AssertService.register_model`) over the
  submitted cases through the service's engine and store.  A 200 body is
  **exactly** ``EvalReport.to_json()`` (byte-identical to an in-process
  ``run_eval``); failures ride the shared error envelope with
  ``unknown_model`` -> 404, ``timeout`` -> 504, ``cancelled`` -> 409.
  Same queue, deadline, cancellation, and backpressure lifecycle as
  ``/v1/solve``.
- Every non-payload response (transport refusals included, and the
  fleet router's self-synthesized bodies) uses one structured error
  envelope: ``{"code": ..., "detail": ..., "status": ...}`` (see
  :mod:`repro.serve.codecs`).
- ``GET /healthz`` — liveness (``503`` + ``draining`` once shutdown
  starts).
- ``GET /metricsz`` — Prometheus text, the one counter surface: the
  HTTP edge and service registries (request outcomes, queue-depth and
  inflight gauges, batch and flush counters, result-cache and store
  counters) plus the engine provider counters, worker processes'
  included (:meth:`AssertService.counter_totals`).  ``GET /tracez`` —
  JSON, the recent and slowest request traces (see :mod:`repro.obs`;
  ``?limit=N`` / ``?slowest=N`` cap the lists); ``GET /covz`` — JSON, the retained
  per-design coverage reports (``?limit=N``; populated when the
  service runs with ``ServeConfig.coverage`` on).  Solve requests
  carry an optional ``X-Repro-Trace-Id`` header (``trace_id`` or
  ``trace_id/parent_span_id``): the server continues that trace, which
  is how a fleet-routed request stays one coherent trace across
  router and backend.
- ``DELETE /v1/solve/{request_id}`` (or ``/v1/eval/{request_id}``; the
  service keeps one ``request_id`` registry for both kinds) —
  client-initiated cancellation (:meth:`AssertService.cancel`): queued
  requests are dropped, in-batch ones abandoned.
- Connections are persistent HTTP/1.1: a client's next request reuses
  its connection, and each response leaves in one write (status line,
  headers and body together), so a keep-alive exchange never stalls on
  Nagle's algorithm against the peer's delayed ACK.
  ``repro_http_connections_total`` on ``/metricsz`` counts accepted
  connections, so operators can see the reuse.
- Graceful drain: :meth:`AssertHttpServer.close` stops accepting,
  resolves every accepted request via the service's own drain, closes
  the connections idle between requests, then joins the handler threads
  — in-flight clients get real responses, not resets.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.knobs import EXECUTION, configclass, knob
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.codecs import KINDS, WireKind, error_body
from repro.serve.service import (
    AssertService,
    ServiceClosed,
    ServiceOverloaded,
)

__all__ = ["AssertHttpServer", "HttpConfig"]

#: Prometheus content type for ``GET /metricsz``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often the accept loop checks for shutdown, which bounds how long
#: ``close()`` waits for it (the stdlib default is 0.5 s).
ACCEPT_POLL_S = 0.05


#: ``POST`` path -> its wire kind.
_POST_ROUTES: Dict[str, WireKind] = {kind.path: kind
                                     for kind in KINDS.values()}


def _cancel_id(path: str) -> Optional[str]:
    """The quoted request id of a ``DELETE <kind path>/{request_id}``,
    or ``None`` for any other path."""
    for kind_path in _POST_ROUTES:
        if path.startswith(kind_path + "/"):
            return path[len(kind_path) + 1:]
    return None


def _handler_label(command: str, path: str) -> str:
    """Low-cardinality route label for the per-request metrics."""
    path = path.partition("?")[0]
    if path in _POST_ROUTES:
        return _POST_ROUTES[path].name
    if command == "DELETE" and _cancel_id(path) is not None:
        return "cancel"
    if path in ("/healthz", "/metricsz", "/tracez", "/covz"):
        return path[1:]
    return "other"


def _query_int_params(query: str) -> Dict[str, int]:
    """Parse the diagnostic-endpoint query knobs (``limit``/``slowest``).

    Unknown parameters are ignored (lenient fan-out forwarding); a
    non-integer or negative value raises :class:`ValueError`, which the
    handler maps to a 400."""
    params: Dict[str, int] = {}
    for name, values in parse_qs(query, keep_blank_values=True).items():
        if name not in ("limit", "slowest"):
            continue
        value = values[-1]
        try:
            parsed = int(value)
        except ValueError:
            raise ValueError(
                f"{name} must be an integer, got {value!r}") from None
        if parsed < 0:
            raise ValueError(f"{name} must be >= 0, got {parsed}")
        params[name] = parsed
    return params


# -- server --------------------------------------------------------------------
# (the wire codecs live in repro.serve.codecs, shared with client + router)


@configclass
class HttpConfig:
    """Transport knobs (the service's own knobs live in ``ServeConfig``)."""

    host: str = knob("127.0.0.1", kind=str, role=EXECUTION)
    # 0 = ephemeral: read the bound port off the server
    port: int = knob(0, kind=int, ge=0, le=65535, role=EXECUTION)
    #: Bodies above this are refused with 413 before being read.
    max_body_bytes: int = knob(1 << 20, kind=int, ge=1, role=EXECUTION)
    #: Server-side cap on how long one handler waits for a response when
    #: the request carries no ``deadline_ms`` of its own.
    default_timeout_s: float = knob(300.0, kind=float, gt=0, role=EXECUTION)
    #: Backpressure hint sent in the 429 ``Retry-After`` header.
    retry_after_s: float = knob(1.0, kind=float, gt=0, role=EXECUTION)
    #: How long a drain waits for in-flight responses before answering
    #: the stragglers 503.  With ``manage_service=True`` the service's
    #: own (synchronous) drain resolves every future well inside this;
    #: the bound exists so a server fronting an externally-owned service
    #: that never resolves them cannot hang ``close()`` for
    #: ``default_timeout_s`` per handler.
    drain_grace_s: float = knob(30.0, kind=float, gt=0, role=EXECUTION)


class _DrainAbandoned(Exception):
    """Internal: a drain outlived its grace while this handler waited."""


class _Refusal(Exception):
    """A transport refusal a context raises instead of an answer: the
    handler sends it in the error envelope (``close`` also ends the
    connection)."""

    def __init__(self, code: int, detail: str, close: bool = False,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(detail)
        self.code = code
        self.close = close
        self.headers = headers


class _ThreadedHTTPServer(ThreadingMixIn, HTTPServer):
    """One thread per connection; non-daemon so ``server_close`` joins
    them — that join is what makes the drain graceful.

    It also knows which connections sit idle between requests, waiting
    for a keep-alive client's next request line: :meth:`close_idle`
    shuts their read side, so the join does not wait out the handler's
    idle timeout, while a connection mid-request finishes its answer."""

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    #: The socketserver default backlog of 5 drops SYNs under concurrent
    #: load (clients then stall a full retransmit timeout or fail);
    #: size it for a burst of every client connecting at once.
    request_queue_size = 128

    # Filled in by _HttpEdge._listen().
    ctx: "_HttpEdge"

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._conn_lock = threading.Lock()
        self._idle: Dict[socket.socket, bool] = {}
        self._closing_idle = False

    def track(self, conn: socket.socket, idle: bool) -> bool:
        """Record whether ``conn`` waits for a request line; ``False``
        means the drain has begun and an idle connection should close
        instead of waiting."""
        with self._conn_lock:
            if idle and self._closing_idle:
                return False
            self._idle[conn] = idle
            return True

    def untrack(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._idle.pop(conn, None)

    def close_idle(self) -> None:
        """Shut the read side of every idle connection (its handler reads
        EOF and exits) and refuse to go idle from now on."""
        with self._conn_lock:
            self._closing_idle = True
            for conn, idle in self._idle.items():
                if idle:
                    try:
                        conn.shutdown(socket.SHUT_RD)
                    except OSError:
                        pass  # already gone


class _Handler(BaseHTTPRequestHandler):
    """The one request handler of the HTTP edge, for a lone server and
    the fleet router alike.

    Its ``ctx`` (the server object it runs under) supplies only what
    differs between the two: ``answer_post`` (submit and await, or
    relay to a backend), ``cancel`` (local, or a fleet broadcast) and
    ``healthz``, besides ``span_name``, ``draining``,
    ``config.max_body_bytes`` and the diagnostic payloads.  Routing,
    refusals and parsing live here once, so any body the router
    synthesizes is the one a lone backend would send.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Socket-read timeout: bounds how long an idle keep-alive
    #: connection can stall the drain join.
    timeout = 15

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # no stderr spam; /metricsz is the observability surface

    # -- helpers -------------------------------------------------------------

    @property
    def ctx(self):
        return self.server.ctx

    def setup(self) -> None:
        super().setup()
        # The first request line is on its way: not idle yet.
        self.server.track(self.connection, idle=False)
        self.ctx.observe_connection()

    def handle(self) -> None:
        # The stdlib loop, except that waiting for the next request on a
        # kept-alive connection is registered as idle, and ends once the
        # server drains.
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection \
                and self.server.track(self.connection, idle=True):
            self.handle_one_request()

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.untrack(self.connection)

    def parse_request(self) -> bool:
        # Request-clock start: after the request line arrived, so idle
        # keep-alive wait never counts as handling time.
        self._obs_started = time.perf_counter()
        self.server.track(self.connection, idle=False)
        return super().parse_request()

    def _send_body(self, code: int, body: bytes,
                   headers: Optional[Dict[str, str]] = None,
                   content_type: str = "application/json") -> None:
        # Status line, headers and body leave in one write: a separate
        # body write on a keep-alive connection waits for the client's
        # delayed ACK of the header segment (Nagle's algorithm).
        self.log_request(code)
        lines = [f"{self.protocol_version} {code} "
                 f"{self.responses.get(code, ('',))[0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        lines.extend(f"{name}: {value}"
                     for name, value in (headers or {}).items())
        if self.close_connection:
            lines.append("Connection: close")
        lines.append("\r\n")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)
        self.ctx.observe_http(
            _handler_label(self.command, self.path), code,
            getattr(self, "_obs_started", None))

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(code, body)

    def _send_error_json(self, code: int, message: str,
                         headers: Optional[Dict[str, str]] = None,
                         status: str = "error") -> None:
        self._send_body(code, error_body(code, message, status=status),
                        headers)

    # -- routes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        kind = _POST_ROUTES.get(self.path)
        if kind is None:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        ctx = self.ctx
        if ctx.draining:
            self.close_connection = True
            self._send_error_json(503, "server is draining")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_error_json(400, "missing or invalid Content-Length")
            return
        if length > ctx.config.max_body_bytes:
            # Refused unread: closing the connection is the only way to
            # not choke on the rest of an oversized upload.
            self.close_connection = True
            self._send_error_json(
                413, f"body of {length} bytes exceeds the "
                     f"{ctx.config.max_body_bytes}-byte limit")
            return
        body = self.rfile.read(length)

        # The router parses too: malformed bodies get the identical 400
        # a lone instance would send, and well-formed ones yield the
        # content key the ring routes on.
        try:
            request = kind.parse(body)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        # One root span per request.  An incoming X-Repro-Trace-Id
        # (injected by the fleet router, or set by a client correlating
        # its own retries) continues that trace; an absent or malformed
        # header derives the same deterministic id the service would.
        # root=True: this span finalizes the trace's local fragment when
        # it ends.
        incoming_id, incoming_parent = obs_trace.parse_trace_header(
            self.headers.get(obs_trace.TRACE_HEADER, ""))
        trace_id = incoming_id or obs_trace.trace_id_for(
            request.cache_key(), request.request_id)
        with obs_trace.span(ctx.span_name, parent=incoming_parent,
                            trace_id=trace_id, root=True) as span:
            try:
                code, data, headers = ctx.answer_post(kind, request, body,
                                                      span)
            except _Refusal as refusal:
                if refusal.close:
                    self.close_connection = True
                self._send_error_json(refusal.code, str(refusal),
                                      refusal.headers)
                return
            if span is not None:
                span.attrs["code"] = code
            self._send_body(code, data, headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        ctx = self.ctx
        parsed = urlsplit(self.path)
        try:
            params = _query_int_params(parsed.query)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        route = parsed.path
        if route == "/healthz":
            if ctx.draining:
                self.close_connection = True
            self._send_json(*ctx.healthz())
        elif route == "/metricsz":
            self._send_body(200, ctx.metricsz().encode("utf-8"),
                            content_type=PROMETHEUS_CONTENT_TYPE)
        elif route == "/tracez":
            self._send_json(200, ctx.tracez(limit=params.get("limit"),
                                            slowest=params.get("slowest")))
        elif route == "/covz":
            self._send_json(200, ctx.covz(limit=params.get("limit")))
        else:
            self._send_error_json(404, f"no such endpoint: {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        # Cancellation is kind-agnostic service-side (one request_id
        # registry), so every kind's path routes to the same cancel.
        quoted = _cancel_id(self.path)
        if quoted is None:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        request_id = unquote(quoted)
        if not request_id:
            self._send_error_json(400, "missing request_id")
            return
        cancelled = self.ctx.cancel(request_id)
        self._send_json(200 if cancelled else 404,
                        {"request_id": request_id, "cancelled": cancelled})


class _HttpEdge:
    """The handler's ``ctx``: what a lone server and the fleet router
    share — the edge's HTTP metrics, its accept loop, its bound address
    and its drain flag.  Subclasses answer the requests
    (``answer_post``, ``cancel``, ``healthz`` and the diagnostic
    payloads)."""

    #: The root span of each request this edge answers.
    span_name = "http.server"

    def __init__(self, edge: str):
        self.draining = False
        self._httpd: Optional[_ThreadedHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.metrics = obs_metrics.MetricsRegistry()
        self._http_requests = self.metrics.counter_family(
            "repro_http_requests_total", "HTTP responses sent.",
            ("handler", "code"))
        self._http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "Request handling time, request line to body written.")
        self._http_connections = self.metrics.counter_family(
            "repro_http_connections_total", "HTTP connections accepted.",
            ("edge",)).labels(edge=edge)

    def _listen(self, handler: type, thread_name: str) -> None:
        """Bind ``config.host:config.port`` and start the accept loop."""
        self._httpd = _ThreadedHTTPServer(
            (self.config.host, self.config.port), handler)
        self._httpd.ctx = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(ACCEPT_POLL_S,),
            name=thread_name, daemon=True)
        self._thread.start()

    def _stop_accepting(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=30)

    def _release(self) -> None:
        """Close the connections idle between requests, then join the
        handler threads and release the socket."""
        if self._httpd is not None:
            self._httpd.close_idle()
            self._httpd.server_close()

    def observe_connection(self) -> None:
        """Called by the handler once per accepted connection."""
        self._http_connections.inc()

    def observe_http(self, handler: str, code: int,
                     started: Optional[float]) -> None:
        """Per-response bookkeeping, called by the handler on every send."""
        self._http_requests.labels(handler=handler, code=str(code)).inc()
        if started is not None:
            self._http_seconds.observe(time.perf_counter() - started)

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class AssertHttpServer(_HttpEdge):
    """A threaded HTTP front end over one :class:`AssertService`.

    Lifecycle::

        with AssertHttpServer(service) as server:
            print(server.url)          # http://127.0.0.1:<bound port>
            ...                        # clients talk to it
        # close(): drain accepted requests, answer in-flight clients,
        # then release sockets and threads.

    With ``manage_service=True`` (default) the server starts and closes
    the service with itself; pass ``False`` to front a service whose
    lifecycle someone else owns.
    """

    def __init__(self, service: AssertService,
                 config: Optional[HttpConfig] = None,
                 manage_service: bool = True):
        super().__init__(edge="server")
        self.service = service
        self.config = config or HttpConfig()
        self.config.validate()
        self.manage_service = manage_service
        self._drain_started: Optional[float] = None

    # -- what the handler asks of its server ------------------------------

    def answer_post(self, kind: WireKind, request, body: bytes,
                    span) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        """Submit ``request`` and await it: ``(code, body, headers)``.

        A transport refusal raises :class:`_Refusal` instead."""
        try:
            future = self.service.submit(request)
        except ServiceOverloaded as exc:
            retry_after = max(1, round(self.config.retry_after_s))
            raise _Refusal(429, str(exc),
                           headers={"Retry-After": str(retry_after)}) \
                from None
        except ServiceClosed:
            raise _Refusal(503, "service is closed", close=True) from None
        except ValueError as exc:  # submit re-validates; belt and braces
            raise _Refusal(400, str(exc)) from None

        try:
            response = self._await(future, request)
        except _DrainAbandoned:
            raise _Refusal(503, "server drained before the request was "
                                "served", close=True) from None
        except ServiceClosed:
            raise _Refusal(503, "service closed mid-request",
                           close=True) from None
        except Exception as exc:  # noqa: BLE001 - surface, don't hang
            raise _Refusal(500, f"{type(exc).__name__}: {exc}") from None
        if span is not None:
            span.attrs["status"] = response.status
        # A 200 body IS the in-process serialization (SolveResponse or
        # EvalReport.to_json()): byte-identical for the same content.
        code, data = kind.wire(response)
        return code, data, None

    def _await(self, future, request):
        """Wait for the future in slices, so a drain can reclaim
        handlers whose futures nobody will ever resolve (an
        externally-owned, never-started service) instead of hanging
        ``close()`` for the full wait budget."""
        wait_deadline = time.monotonic() + self.config.default_timeout_s
        while True:
            remaining = wait_deadline - time.monotonic()
            if remaining <= 0:
                # The *server's* wait budget, not the request's
                # deadline_ms (the deadline timer resolves those to
                # status="timeout" well before this).  The future stays
                # live: a late result is still cached for repeats.
                return request.reply(
                    "timeout", request.cache_key(),
                    f"server wait budget of "
                    f"{self.config.default_timeout_s}s exceeded")
            try:
                return future.result(timeout=min(0.25, remaining))
            except FutureTimeoutError:
                drained_for = self.drain_elapsed()
                if drained_for is not None \
                        and drained_for > self.config.drain_grace_s:
                    raise _DrainAbandoned() from None

    def cancel(self, request_id: str) -> int:
        """``DELETE``: cancel the service's requests tagged ``request_id``."""
        return self.service.cancel(request_id)

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        """``(code, payload)`` of ``GET /healthz``: liveness."""
        if self.draining:
            return 503, {"status": "draining"}
        return 200, {"status": "ok"}

    def metricsz(self) -> str:
        """The ``GET /metricsz`` exposition: this edge's HTTP metrics,
        the fronted service's registry, and the engine provider counters
        (compile cache, stores, solve profile, coverage) as the service's
        engine totals them."""
        return obs_metrics.render_prometheus(
            [self.metrics, self.service.metrics],
            providers=self.service.counter_totals())

    def tracez(self, limit: Optional[int] = None,
               slowest: Optional[int] = None) -> Dict[str, object]:
        """The ``GET /tracez`` payload: recent + slowest traces.

        ``limit`` / ``slowest`` cap the two lists (``?limit=N`` /
        ``?slowest=N`` on the endpoint) — retention is unchanged, only
        the payload shrinks."""
        snapshot = obs_trace.buffer().snapshot()
        snapshot["recent"] = snapshot["recent"][:limit]  # [:None] = all
        snapshot["slowest"] = snapshot["slowest"][:slowest]
        return snapshot

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The ``GET /covz`` payload: retained per-design coverage
        reports (``?limit=N`` caps how many designs are returned)."""
        return self.service.covz(limit=limit)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AssertHttpServer":
        if self._closed:
            raise ServiceClosed("http server is closed")
        if self._httpd is not None:
            return self
        if self.manage_service:
            self.service.start()
        self._listen(_Handler, "serve-http-accept")
        return self

    def close(self) -> None:
        """Graceful drain: stop accepting, answer what was accepted.

        Order matters — stop the accept loop first (no new work), then
        close the service (its own drain resolves every accepted future,
        so blocked handlers wake with real responses), then close the
        keep-alive connections idle between requests, and only then
        join the handler threads and release the socket."""
        if self._closed:
            return
        self._closed = True
        self.draining = True
        self._drain_started = time.monotonic()
        self._stop_accepting()
        if self.manage_service:
            self.service.close()
        self._release()

    def drain_elapsed(self) -> Optional[float]:
        """Seconds since the drain began, or ``None`` while serving."""
        if self._drain_started is None:
            return None
        return time.monotonic() - self._drain_started
