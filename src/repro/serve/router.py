"""Fleet serving: a consistent-hash router over N :class:`AssertHttpServer`
backends, speaking the exact wire protocol of :mod:`repro.serve.http`.

A single instance (PR 5/6) is fast; the router makes N of them behave
like one bigger instance without forking the protocol or the bytes:

- **Consistent-hash routing on the request content key.**  The ring
  hashes ``SolveRequest.cache_key()`` — the same digest the service
  dedups and caches on — so repeat designs land on the backend whose
  ``ResultCache`` already holds them.  The fleet's per-instance caches
  then compose into one aggregate cache ~N times the size, which is
  where the fleet's throughput win comes from even before multi-core
  compute scaling (gated by the ``fleet`` contract of
  ``benchmarks/gates.py``).
- **Health ejection with probed re-admission.**  A background probe
  hits every backend's ``/healthz``; failures eject the backend from
  *routing* but never from the *ring*, so when it is re-admitted the
  key->backend map — and therefore cache affinity — is exactly what it
  was before the blip.
- **429 spillover.**  A backend answering 429 (queue full) is healthy
  but busy: the router walks the key's ring order and offers the
  request to the next distinct backend.  Only if every backend refuses
  does the client see the final 429 (Retry-After relayed).  Spillover
  and connection-error failover are sound because responses are pure
  functions of the content key — re-executing a request elsewhere
  yields byte-identical bytes.
- **Fleet-wide ``/metricsz``.**  Every backend's series summed, plus
  the router's counters (per-backend ones as ``{node=}`` series); read
  ratios off a backend's own ``/metricsz``, found by the address its
  ``/healthz`` entry names next to its last error.
- **Graceful drain that propagates.**  ``close()`` stops accepting,
  lets in-flight forwards finish against still-live backends (handler
  threads are joined), and only then drains the backends themselves
  (when ``manage_backends=True``) — in-flight clients get real
  responses end to end.

The router is a pure execution layer: bodies it relays are the
backend's bytes verbatim, and bodies it must synthesize itself (400,
404, 413) come from the single-instance handler itself, so they stay
byte-identical too.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from bisect import bisect_right, insort
from hashlib import sha256
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import quote

from repro import cov
from repro.knobs import EXECUTION, configclass, knob
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.client import ConnectionPool, Exchange, _query_suffix
from repro.serve.codecs import WireKind
from repro.serve.http import AssertHttpServer, _Handler, _HttpEdge, _Refusal
from repro.serve.service import ServiceClosed

__all__ = [
    "FleetRouter",
    "HashRing",
    "RouterConfig",
]


# -- consistent-hash ring ------------------------------------------------------


class HashRing:
    """Consistent-hash ring with virtual nodes (sha256 points).

    Nodes and keys hash onto one 64-bit circle; a key is owned by the
    first node point clockwise of its own hash.  ``replicas`` virtual
    points per node keep the shares balanced, and adding or removing a
    node only moves the ~1/N of keys on the arcs it gains or cedes —
    every other key keeps its owner, which is what keeps fleet cache
    affinity stable as backends come and go (asserted by tests).
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64):
        if not isinstance(replicas, int) or isinstance(replicas, bool) \
                or replicas < 1:
            raise ValueError(f"replicas must be an integer >= 1, "
                             f"got {replicas!r}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(sha256(value.encode("utf-8")).digest()[:8],
                              "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            insort(self._points, (self._hash(f"{node}#{replica}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def candidates(self, key: str) -> Iterator[str]:
        """Every node exactly once, in ring order from ``key``'s point:
        the owner first, then the spillover/failover order."""
        if not self._points:
            return
        start = bisect_right(self._points, (self._hash(key), "\U0010ffff"))
        seen: set = set()
        total = len(self._points)
        for step in range(total):
            node = self._points[(start + step) % total][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def node_for(self, key: str) -> Optional[str]:
        """The owning node for ``key`` (``None`` on an empty ring)."""
        return next(self.candidates(key), None)


# -- config --------------------------------------------------------------------


@configclass
class RouterConfig:
    """Router knobs (per-backend knobs live in ``ServeConfig``/``HttpConfig``)."""

    host: str = knob("127.0.0.1", kind=str, role=EXECUTION)
    # 0 = ephemeral: read the bound port off the router
    port: int = knob(0, kind=int, ge=0, le=65535, role=EXECUTION)
    #: Bodies above this are refused with 413 before being read (same
    #: default as ``HttpConfig`` so router and backend agree).
    max_body_bytes: int = knob(1 << 20, kind=int, ge=1, role=EXECUTION)
    #: How long one forwarded solve may take before the router gives up
    #: on that backend and fails over to the next ring candidate.
    forward_timeout_s: float = knob(300.0, kind=float, gt=0, role=EXECUTION)
    #: Socket budget for ``/healthz`` probes and diagnostic fan-outs.
    probe_timeout_s: float = knob(2.0, kind=float, gt=0, role=EXECUTION)
    #: Background health-probe period.  Probes are also how ejected
    #: backends get re-admitted, so this bounds the re-admission lag.
    health_interval_s: float = knob(1.0, kind=float, gt=0, role=EXECUTION)
    #: Virtual points per backend on the hash ring.
    ring_replicas: int = knob(64, kind=int, ge=1, role=EXECUTION)


# -- backend slots -------------------------------------------------------------


class _BackendSlot:
    """One routed backend: its address, health, and counters."""

    __slots__ = ("server", "host", "port", "name", "healthy", "forwarded",
                 "ejections", "readmissions", "last_error")

    def __init__(self, host: str, port: int,
                 server: Optional[AssertHttpServer] = None,
                 name: Optional[str] = None):
        self.server = server
        self.host = host
        self.port = port
        self.name = name
        self.healthy = True
        self.forwarded = 0
        self.ejections = 0
        self.readmissions = 0
        self.last_error = ""

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def node(self) -> str:
        """Ring identity: the stable name when one was given (so the
        key->backend map survives a backend restarting on a new port),
        else the address."""
        return self.name or self.address


#: Anything the router can front: a (managed or external) server object,
#: a "host:port" string, or a (host, port) tuple.
BackendSpec = Union[AssertHttpServer, str, Tuple[str, int]]


def _resolve_backend(spec: BackendSpec,
                     name: Optional[str] = None) -> _BackendSlot:
    if isinstance(spec, AssertHttpServer):
        host, port = spec.address  # raises if the server never started
        return _BackendSlot(host, port, server=spec, name=name)
    if isinstance(spec, str):
        host, _, port_text = spec.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"backend address must look like "
                             f"'host:port', got {spec!r}")
        return _BackendSlot(host, int(port_text), name=name)
    if isinstance(spec, tuple) and len(spec) == 2:
        return _BackendSlot(str(spec[0]), int(spec[1]), name=name)
    raise TypeError(f"backend must be an AssertHttpServer, 'host:port' "
                    f"string, or (host, port) tuple, got {type(spec).__name__}")


# -- handler -------------------------------------------------------------------


class _RouterHandler(_Handler):
    """The single-instance handler under the router's own name: routing,
    refusals and parsing are the very code a lone backend runs, so any
    body the router synthesizes itself (400/404/413/503) is byte-identical
    to that backend's."""

    server_version = "repro-fleet/1"


# -- router --------------------------------------------------------------------


class FleetRouter(_HttpEdge):
    """A consistent-hash HTTP router over N solve backends.

    Lifecycle::

        router = FleetRouter(backends, RouterConfig())   # or make_fleet()
        with router as r:
            client = AssertClient.for_server(r)          # same protocol
            ...
        # close(): stop accepting, finish in-flight forwards, then
        # drain the backends themselves (when manage_backends=True).

    ``backends`` may be server objects, ``"host:port"`` strings, or
    ``(host, port)`` tuples.  With ``manage_backends=True`` the router
    starts and drains the server objects with itself; address-only
    backends are always externally owned.

    ``node_names`` (optional, one per backend) fixes each backend's
    identity on the hash ring.  Without names the ring hashes the
    backend's ``host:port``; with names the key->backend map is
    independent of which (possibly ephemeral) port a backend bound, so
    cache affinity survives a backend restarting on a new address —
    ``make_fleet()`` names its backends ``backend-0..N-1``.
    """

    def __init__(self, backends: Sequence[BackendSpec],
                 config: Optional[RouterConfig] = None,
                 manage_backends: bool = False,
                 node_names: Optional[Sequence[str]] = None):
        if not backends:
            raise ValueError("FleetRouter needs at least one backend")
        if node_names is not None:
            names = list(node_names)
            if len(names) != len(backends):
                raise ValueError(
                    f"node_names must match backends: {len(names)} names "
                    f"for {len(backends)} backends")
            if any(not isinstance(name, str) or not name for name in names):
                raise ValueError("node_names must be non-empty strings")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate node names: {names}")
            self._node_names: Optional[List[str]] = names
        else:
            self._node_names = None
        self.config = config or RouterConfig()
        self.config.validate()
        self.manage_backends = manage_backends
        self._backends: List[BackendSpec] = list(backends)
        self._slots: List[_BackendSlot] = []
        self._by_node: Dict[str, _BackendSlot] = {}
        self._ring: Optional[HashRing] = None
        self._lock = threading.Lock()
        self._routed = 0
        self._spillovers = 0
        self._failovers = 0
        self._no_backend = 0
        self._cancel_broadcasts = 0
        self._health_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Keep-alive backend connections shared by every router thread.
        self._pool = ConnectionPool()
        super().__init__(edge="router")
        self._forward_seconds = self.metrics.histogram(
            "repro_router_forward_seconds",
            "Solve-forward round trip to a backend (success or failure).")
        for name in ("routed", "spillovers", "failovers", "no_backend",
                     "cancel_broadcasts"):
            self.metrics.counter_callback(
                f"repro_router_{name}_total", f"Router {name} count.",
                (lambda attr: lambda: getattr(self, attr))(f"_{name}"))
        # Health-churn counters live on the slots and are summed here, so
        # operators see ejections/readmissions next to spillovers/
        # failovers on /metricsz.
        for name in ("ejections", "readmissions"):
            self.metrics.counter_callback(
                f"repro_router_{name}_total",
                f"Backend {name} across the fleet.",
                (lambda attr: lambda: self._slot_total(attr))(name))
        self.metrics.gauge_callback(
            "repro_router_backends_healthy", "Backends currently routed to.",
            lambda: self.health()[0])
        self.metrics.gauge_callback(
            "repro_router_backends_total", "Backends on the ring.",
            lambda: self.health()[1])
        self.metrics.callback_family(
            "repro_router_backend_healthy",
            "1 while the router routes to this backend, else 0.",
            ("node",), lambda: self._per_node("healthy"), kind="gauge")
        for name in ("forwarded", "ejections", "readmissions"):
            self.metrics.callback_family(
                f"repro_router_backend_{name}_total",
                f"Per-backend {name} count.", ("node",),
                (lambda attr: lambda: self._per_node(attr))(name))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetRouter":
        if self._closed:
            raise ServiceClosed("fleet router is closed")
        if self._httpd is not None:
            return self
        if self.manage_backends:
            for spec in self._backends:
                if isinstance(spec, AssertHttpServer):
                    spec.start()
        self._slots = [
            _resolve_backend(
                spec,
                self._node_names[i] if self._node_names else None)
            for i, spec in enumerate(self._backends)]
        addresses = [slot.address for slot in self._slots]
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate backend addresses: {addresses}")
        nodes = [slot.node for slot in self._slots]
        self._by_node = {slot.node: slot for slot in self._slots}
        self._ring = HashRing(nodes, replicas=self.config.ring_replicas)
        self.probe()  # address-only backends that are down start ejected
        self._listen(_RouterHandler, "fleet-router-accept")
        self._health_thread = threading.Thread(
            target=self._health_loop, name="fleet-router-health", daemon=True)
        self._health_thread.start()
        return self

    @property
    def backends(self) -> List[BackendSpec]:
        return list(self._backends)

    def close(self) -> None:
        """Graceful drain, propagated: stop accepting, close client
        connections idle between requests, let in-flight forwards finish
        against still-live backends (``server_close`` joins the
        non-daemon handler threads), then drain the backends themselves
        — so a client mid-solve gets its real response from the backend,
        through the router, before anything shuts down."""
        if self._closed:
            return
        self._closed = True
        self.draining = True
        self._stop.set()
        self._stop_accepting()
        self._release()  # joins in-flight handler threads
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
        self._pool.close()
        if self.manage_backends:
            for spec in self._backends:
                if isinstance(spec, AssertHttpServer):
                    spec.close()

    # -- health --------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            if self.draining:
                return
            self.probe()

    def probe(self) -> Tuple[int, int]:
        """One synchronous health round over every backend.

        Ejects backends whose ``/healthz`` fails, re-admits ones that
        answer again, and returns ``(healthy, total)``.  The background
        loop calls this every ``health_interval_s``; tests and drains
        can call it directly for a deterministic round."""
        for slot, exchange in self._fan_out("GET", "/healthz",
                                            "healthz probe"):
            if exchange is None:
                continue  # ejected by the fan-out
            if exchange[0] == 200:
                self._readmit(slot)
            else:
                self._eject(slot, f"healthz returned {exchange[0]}")
        return self.health()

    def health(self) -> Tuple[int, int]:
        """``(healthy, total)`` backend counts, from current state."""
        with self._lock:
            healthy = sum(1 for slot in self._slots if slot.healthy)
            return healthy, len(self._slots)

    def _slot_total(self, attr: str) -> int:
        with self._lock:
            return sum(getattr(slot, attr) for slot in self._slots)

    def _per_node(self, attr: str) -> Dict[Tuple[str], int]:
        with self._lock:
            return {(slot.node,): int(getattr(slot, attr))
                    for slot in self._slots}

    def node_status(self) -> Dict[str, Dict[str, str]]:
        """``/healthz``'s per-node ``address`` and ``last_error``."""
        with self._lock:
            return {slot.node: {"address": slot.address,
                                "last_error": slot.last_error}
                    for slot in self._slots}

    def _eject(self, slot: _BackendSlot, reason: str) -> None:
        with self._lock:
            slot.last_error = reason
            if slot.healthy:
                slot.healthy = False
                slot.ejections += 1

    def _readmit(self, slot: _BackendSlot) -> None:
        with self._lock:
            if not slot.healthy:
                slot.healthy = True
                slot.readmissions += 1
                slot.last_error = ""

    # -- what the handler asks of its server ------------------------------

    span_name = "fleet.route"

    def answer_post(self, kind: WireKind, request, body: bytes,
                    span) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        """Relay the body along its content key's ring order.

        The router roots (or continues) the request's trace; every
        forward injects X-Repro-Trace-Id, so the backend's server span —
        and everything under it — joins this trace."""
        routed = self.route_post(kind.path, request.cache_key(), body)
        if routed is None:
            raise _Refusal(503, "no healthy backends", close=True)
        status, headers, data = routed
        relay = ({"Retry-After": headers["retry-after"]}
                 if "retry-after" in headers else None)
        # The backend's bytes, verbatim: routing never re-serializes.
        return status, data, relay

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        """``(code, payload)`` of ``GET /healthz``: fleet shape, each
        backend's address and last error."""
        healthy, total = self.health()
        body = {"backends": {"healthy": healthy, "total": total},
                "nodes": self.node_status()}
        if self.draining:
            return 503, {"status": "draining", **body}
        if healthy == 0:
            return 503, {"status": "unavailable", **body}
        return 200, {"status": "ok", **body}

    # -- routing -------------------------------------------------------------

    def candidates_for(self, key: str) -> List[str]:
        """The full ring order for ``key`` — owner first, then the
        spillover order (health is applied at routing time, not here)."""
        if self._ring is None:
            raise RuntimeError("router not started")
        return list(self._ring.candidates(key))

    def _forward(self, slot: _BackendSlot, method: str, path: str,
                 body: Optional[bytes], timeout: float) -> Exchange:
        """One round trip to ``slot`` over a pooled keep-alive
        connection.  A pooled connection that went stale is retried on a
        fresh one inside the pool, so only a backend that refuses or
        drops a fresh connection raises here — and gets ejected."""
        headers = {"Content-Type": "application/json"} if body else {}
        # Trace continuation: when this forward happens inside a
        # request span (fleet.route / fleet.forward), tell the
        # backend the trace it belongs to.  Health and stats probes
        # run outside any span and stay headerless.
        trace_ctx = obs_trace.current()
        if trace_ctx is not None:
            headers[obs_trace.TRACE_HEADER] = \
                obs_trace.format_trace_header(trace_ctx)
        return self._pool.request(slot.host, slot.port, method, path, body,
                                  headers, timeout)

    def route_post(self, path: str, key: str,
                   body: bytes) -> Optional[Exchange]:
        """Forward one POST body along ``key``'s ring order.

        Works for both wire kinds (``/v1/solve`` and ``/v1/eval``) —
        the ring hashes the request's content key either way, so solve
        repeats find their owner's ``ResultCache`` and eval repeats find
        their owner's per-case store memo.  Healthy candidates are tried
        in ring order: the owner first, then spillover on 429 and
        failover on connection errors — both sound because responses are
        pure functions of the content key.  Returns the first non-429
        backend answer, the last 429 if every backend is saturated, or
        ``None`` when no healthy backend answered at all (mapped to
        503)."""
        last_overloaded: Optional[Exchange] = None
        for node in self.candidates_for(key):
            slot = self._by_node[node]
            if not slot.healthy:
                continue
            started = time.perf_counter()
            try:
                with obs_trace.span("fleet.forward",
                                    attrs={"node": slot.node}):
                    status, headers, data = self._forward(
                        slot, "POST", path, body,
                        self.config.forward_timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                # Dead or wedged: eject now (the probe re-admits after
                # recovery) and re-offer the request to the next node.
                self._forward_seconds.observe(time.perf_counter() - started)
                self._eject(slot, f"forward failed: {type(exc).__name__}")
                with self._lock:
                    self._failovers += 1
                continue
            self._forward_seconds.observe(time.perf_counter() - started)
            if status == 429:
                last_overloaded = (status, headers, data)
                with self._lock:
                    self._spillovers += 1
                continue
            with self._lock:
                self._routed += 1
                slot.forwarded += 1
            return status, headers, data
        if last_overloaded is not None:
            return last_overloaded
        with self._lock:
            self._no_backend += 1
        return None

    def cancel(self, request_id: str) -> int:
        """``DELETE`` fan-out: the router cannot recover the content key
        from a request id, so cancellation asks every backend and sums
        the ``cancelled`` counts (at most one backend holds the id).

        The id is quoted again for the forward: the handler unquoted it
        once, and a raw space or control character would make the
        forward itself fail and eject a healthy backend."""
        with self._lock:
            self._cancel_broadcasts += 1
        total = 0
        path = f"/v1/solve/{quote(request_id, safe='')}"
        for _, exchange in self._fan_out("DELETE", path, "cancel"):
            if exchange is not None and exchange[0] in (200, 404):
                try:
                    total += int(json.loads(exchange[2]).get("cancelled", 0))
                except (ValueError, TypeError):
                    pass
        return total

    def _fan_out(self, method: str, path: str, what: str
                 ) -> Iterator[Tuple[_BackendSlot, Optional[Exchange]]]:
        """The one backend fan-out (health probes, cancel broadcasts,
        diagnostics): ``method path`` on every backend in slot order,
        yielding ``(slot, exchange)``.  One error policy: a transport
        error ejects the backend (``"<what> failed: <error>"``) and
        yields ``None`` for it."""
        for slot in self._slots:
            try:
                exchange = self._forward(slot, method, path, None,
                                         self.config.probe_timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"{what} failed: {type(exc).__name__}")
                exchange = None
            yield slot, exchange

    # -- observability -------------------------------------------------------

    def _gather(self, path: str,
                text: bool = False) -> List[Tuple[_BackendSlot, object]]:
        """The diagnostic fan-out: ``GET path`` on every backend.

        Returns ``(slot, payload)`` per backend, in slot order.  The
        payload is the decoded body (``text`` gives the UTF-8 string,
        otherwise a JSON object), or ``None``: a non-200 or undecodable
        body is skipped like a backend the fan-out ejected."""
        endpoint = path.split("?", 1)[0].lstrip("/")
        gathered: List[Tuple[_BackendSlot, object]] = []
        for slot, exchange in self._fan_out("GET", path,
                                            f"{endpoint} probe"):
            payload = None
            if exchange is not None and exchange[0] == 200:
                try:
                    payload = (exchange[2].decode("utf-8") if text
                               else json.loads(exchange[2]))
                except ValueError:  # bad UTF-8 or bad JSON
                    pass
                if not (text or isinstance(payload, dict)):
                    payload = None
            gathered.append((slot, payload))
        return gathered

    def metricsz(self) -> str:
        """The fleet-wide ``GET /metricsz`` exposition.

        Every backend's own exposition is fetched and merged — samples
        with identical ``name{labels}`` sum, so counters and histogram
        buckets aggregate fleet-wide — then the router's registry is
        appended.  The router renders no provider section of its own:
        backends already expose theirs, and in the single-process
        ``make_fleet()`` shape those are one shared set of counters (so
        N co-located backends count shared state N times)."""
        texts = [text for _, text in self._gather("/metricsz", text=True)
                 if text is not None]
        texts.append(obs_metrics.render_prometheus([self.metrics]))
        return obs_metrics.merge_expositions(texts)

    def tracez(self, limit: Optional[int] = None,
               slowest: Optional[int] = None) -> Dict[str, object]:
        """The fleet-wide ``GET /tracez`` payload.

        Backend trace summaries merge with the router's own buffer by
        trace id (span-deduplicated), so a routed request — one trace
        spread across the router and a backend — reads as a single
        record with the router, HTTP, service, and solve spans.
        ``limit`` / ``slowest`` cap the merged lists and are forwarded
        to every backend, bounding the fan-out payloads too."""
        local = obs_trace.buffer().snapshot()
        recent = list(local["recent"])
        slow_records = list(local["slowest"])
        payloads = [payload for _, payload in self._gather(
            f"/tracez{_query_suffix(limit=limit, slowest=slowest)}")
            if payload is not None]
        for payload in payloads:
            for key, into in (("recent", recent), ("slowest", slow_records)):
                if isinstance(payload.get(key), list):  # else misshapen
                    into.extend(payload[key])
        merged_recent = obs_trace.merge_trace_records(recent)
        merged_slowest = obs_trace.merge_trace_records(slow_records)
        merged_slowest.sort(
            key=lambda r: -(obs_trace.duration_ms(r) or 0.0))
        return {
            "enabled": local["enabled"],
            "backends_reached": len(payloads),
            "recent": merged_recent[:limit],  # [:None] keeps them all
            "slowest": merged_slowest[:slowest],
        }

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The fleet-wide ``GET /covz`` payload.

        Every backend's retained per-design reports fold into one view —
        same design on several backends merges (counts add, covered bits
        max), so fleet-wide toggle/block/vacuity counters sum exactly
        once per backend.  ``limit`` caps the merged design list and is
        forwarded on the fan-out."""
        payloads = [payload for _, payload in self._gather(
            f"/covz{_query_suffix(limit=limit)}") if payload is not None]
        merged = cov.merge_covz_payloads(
            [cov.buffer().snapshot(), *payloads], limit=limit)
        merged["backends_reached"] = len(payloads)
        return merged
