"""Fleet router: ring stability, affinity, ejection, spillover, drain.

Covers the fleet-serving contract:

- consistent-hash stability — adding a backend moves only ~1/N keys,
  and removing it restores the exact original map (cache affinity
  survives fleet resizes);
- repeat designs land on one backend; ejection on failed ``/healthz``
  with probed re-admission — and the ring keeps the ejected node, so
  affinity is intact after the blip;
- 429 spillover walks the key's ring order, relaying the final 429
  (Retry-After included) only when every backend refuses;
- fleet ``/metricsz`` sums every backend's series and adds router
  counters, per-backend ones as ``{node=}`` series, while ``/healthz``
  names each backend's address and last error (``/statsz`` is gone);
- responses through the router are byte-identical to single-instance
  bodies, and a drain still answers in-flight clients end to end while
  closing idle keep-alive connections at once;
- a pooled backend connection that went stale is retried on a fresh
  one, never taken for a dead backend.

Stub backends (scripted healthz/solve/diagnostics) pin down router logic
deterministically; a real ``make_fleet`` fleet covers the wire contract
end to end.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from contextlib import ExitStack, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.api import PipelineConfig, make_fleet
from repro.obs import metrics as obs_metrics
from repro.serve import (
    AssertClient,
    AssertService,
    FleetRouter,
    HashRing,
    HttpConfig,
    RouterConfig,
    ServeConfig,
    ServiceClosed,
    SolveOptions,
    SolveRequest,
    request_to_json,
)
from repro.serve.client import ConnectionPool
from repro.serve.http import AssertHttpServer, _Handler
from repro.serve.router import _RouterHandler

MINI_SOURCE = """
module mini (
  input clk,
  input rst_n,
  input a,
  input b,
  output wire y
);
  assign y = a & b;
endmodule
"""

FAST = dict(bmc_depth=6, bmc_random_trials=8)


def fast_request(source: str, **overrides) -> SolveRequest:
    options = dict(FAST)
    options.update(overrides)
    return SolveRequest(source, SolveOptions(**options))


def variant(i: int) -> SolveRequest:
    """Distinct content keys from one template (comment changes hash)."""
    return fast_request(f"// variant {i}\n{MINI_SOURCE}")


# -- scripted stub backends ----------------------------------------------------

_SEQ = itertools.count()


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def setup(self):
        super().setup()
        self.server.stub.connections.append(self.connection)

    def _reply(self, code, payload, headers=None):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib naming
        stub = self.server.stub
        if self.path in stub.raw:
            code, body = stub.raw[self.path]
            self.send_response(code)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/healthz":
            ok = stub.health_code == 200
            self._reply(stub.health_code,
                        {"status": "ok" if ok else "unhealthy"})
        else:
            self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        stub = self.server.stub
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        stub.log.append((next(_SEQ), "POST"))
        if stub.solve_code == 429:
            self._reply(429, {"error": "queue full"}, {"Retry-After": "7"})
        else:
            self._reply(stub.solve_code, {"served_by": stub.name})

    def do_DELETE(self):  # noqa: N802 - stdlib naming
        stub = self.server.stub
        stub.log.append((next(_SEQ), "DELETE"))
        count = stub.cancelled
        self._reply(200 if count else 404,
                    {"request_id": "whatever", "cancelled": count})


class Stub:
    """One scripted backend: toggle health/solve behavior per test."""

    def __init__(self, name: str):
        self.name = name
        self.health_code = 200
        self.solve_code = 200
        self.cancelled = 0
        self.raw = {}  # GET path -> (code, raw body bytes), checked first
        self.log = []  # (global_seq, method) — cross-stub arrival order
        self.connections = []  # every accepted socket, for close()
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.httpd.daemon_threads = True
        self.httpd.stub = self
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        self._closed = False

    @property
    def node(self) -> str:
        return f"127.0.0.1:{self.httpd.server_address[1]}"

    def posts(self):
        return [entry for entry in self.log if entry[1] == "POST"]

    def close(self):
        """Die like a backend process would: the listener and every
        established (kept-alive) connection go away."""
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        for conn in self.connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed


@contextmanager
def stub_fleet(n: int = 3):
    """A started router over ``n`` scripted stubs (manual probes only)."""
    with ExitStack() as stack:
        stubs = [Stub(f"stub-{i}") for i in range(n)]
        for stub in stubs:
            stack.callback(stub.close)
        router = FleetRouter([stub.node for stub in stubs],
                             RouterConfig(health_interval_s=60.0,
                                          probe_timeout_s=5.0))
        router.start()
        stack.callback(router.close)
        yield router, {stub.node: stub for stub in stubs}


def router_counts(router) -> dict:
    """The router's own ``repro_router_<name>_total`` counters, read
    from its registry (no network calls)."""
    parsed = obs_metrics.parse_prometheus_text(router.metrics.render())
    return {name: parsed.value(f"repro_router_{name}_total")
            for name in ("routed", "spillovers", "failovers", "no_backend",
                         "ejections", "readmissions", "cancel_broadcasts")}


def backend_connections(backend: AssertHttpServer) -> float:
    """The connections a backend has accepted, read in process."""
    parsed = obs_metrics.parse_prometheus_text(backend.metricsz())
    return parsed.value("repro_http_connections_total", edge="server")


def owner_stub(router, stubs, key: str) -> Stub:
    return stubs[router.candidates_for(key)[0]]


def solve_body(request: SolveRequest) -> bytes:
    return request_to_json(request).encode("utf-8")


def post_solve(router, request: SolveRequest):
    client = AssertClient.for_server(router)
    return client._request("POST", "/v1/solve", solve_body(request))


# -- the ring ------------------------------------------------------------------


class TestHashRing:
    def test_owner_is_deterministic_and_candidates_cover_all(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        again = HashRing(["c:3", "a:1", "b:2"])  # insertion order moot
        for i in range(50):
            key = f"key-{i}"
            assert ring.node_for(key) == again.node_for(key)
            order = list(ring.candidates(key))
            assert sorted(order) == ["a:1", "b:2", "c:3"]
            assert order[0] == ring.node_for(key)

    def test_adding_node_moves_about_one_over_n_keys(self):
        nodes = ["a:1", "b:2", "c:3"]
        keys = [f"design-{i}" for i in range(400)]
        ring = HashRing(nodes)
        before = {key: ring.node_for(key) for key in keys}
        ring.add("d:4")
        after = {key: ring.node_for(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # ~1/4 of keys should move to the new node — nowhere else.
        assert 0.05 < len(moved) / len(keys) < 0.45
        assert all(after[key] == "d:4" for key in moved)
        # Removing it restores the exact original map: affinity survives
        # a backend coming and going.
        ring.remove("d:4")
        assert {key: ring.node_for(key) for key in keys} == before

    def test_shares_are_reasonably_balanced(self):
        ring = HashRing(["a:1", "b:2", "c:3"], replicas=64)
        owners = [ring.node_for(f"key-{i}") for i in range(600)]
        for node in ("a:1", "b:2", "c:3"):
            assert owners.count(node) >= 60  # >=10% each; ~33% expected

    def test_empty_ring_and_validation(self):
        assert HashRing().node_for("anything") is None
        with pytest.raises(ValueError):
            HashRing(replicas=0)
        ring = HashRing(["a:1"])
        ring.add("a:1")  # idempotent
        assert len(ring) == 1
        ring.remove("missing")  # harmless
        assert "a:1" in ring


class TestNodeNames:
    def test_named_ring_survives_backend_address_change(self):
        # With stable node names the ring hashes the name, not the
        # (ephemeral) address: a backend restarting on a new port keeps
        # exactly the keys it owned before.
        keys = [variant(i).cache_key() for i in range(20)]
        config = RouterConfig(health_interval_s=60.0, probe_timeout_s=5.0)
        with ExitStack() as stack:
            first, second = Stub("first"), Stub("second")
            stack.callback(first.close)
            stack.callback(second.close)
            router = FleetRouter([first.node, second.node], config,
                                 node_names=["left", "right"])
            router.start()
            owners = {key: router.candidates_for(key)[0] for key in keys}
            assert set(owners.values()) == {"left", "right"}
            # Requests reach the stub behind the name.
            request = variant(0)
            status, _, body = post_solve(router, request)
            assert status == 200
            expected = (first if owners[request.cache_key()] == "left"
                        else second)
            assert json.loads(body)["served_by"] == expected.name
            router.close()
            # "left" comes back on a brand-new ephemeral port...
            reborn = Stub("first-reborn")
            stack.callback(reborn.close)
            router = FleetRouter([reborn.node, second.node], config,
                                 node_names=["left", "right"])
            router.start()
            stack.callback(router.close)
            # ...and the key->node map is exactly what it was.
            assert {key: router.candidates_for(key)[0]
                    for key in keys} == owners

    def test_healthz_reports_name_and_address_separately(self):
        with ExitStack() as stack:
            stub = Stub("solo")
            stack.callback(stub.close)
            router = FleetRouter(
                [stub.node],
                RouterConfig(health_interval_s=60.0, probe_timeout_s=5.0),
                node_names=["backend-0"])
            router.start()
            stack.callback(router.close)
            health = AssertClient.for_server(router).healthz()
            assert health["backends"] == {"healthy": 1, "total": 1}
            assert health["nodes"] == {
                "backend-0": {"address": stub.node, "last_error": ""}}

    def test_node_names_validation(self):
        backends = ["127.0.0.1:9", "127.0.0.1:10"]
        with pytest.raises(ValueError):
            FleetRouter(backends, node_names=["only-one"])
        with pytest.raises(ValueError):
            FleetRouter(backends, node_names=["dup", "dup"])
        with pytest.raises(ValueError):
            FleetRouter(backends, node_names=["ok", ""])


# -- routing over stubs --------------------------------------------------------


class TestRoutingAffinity:
    def test_repeat_keys_land_on_one_backend(self):
        with stub_fleet() as (router, stubs):
            request = variant(0)
            owner = owner_stub(router, stubs, request.cache_key())
            for _ in range(5):
                status, _, body = post_solve(router, request)
                assert status == 200
                assert json.loads(body)["served_by"] == owner.name
            assert len(owner.posts()) == 5
            others = [s for s in stubs.values() if s is not owner]
            assert all(not s.posts() for s in others)
            assert router_counts(router)["routed"] == 5

    def test_distinct_keys_spread_over_backends(self):
        with stub_fleet() as (router, stubs):
            for i in range(12):
                status, _, _ = post_solve(router, variant(i))
                assert status == 200
            backends_hit = [s for s in stubs.values() if s.posts()]
            assert len(backends_hit) >= 2


class TestSpillover:
    def test_429_spills_to_next_ring_candidate_in_order(self):
        with stub_fleet() as (router, stubs):
            request = variant(1)
            order = router.candidates_for(request.cache_key())
            stubs[order[0]].solve_code = 429
            status, _, body = post_solve(router, request)
            assert status == 200
            assert json.loads(body)["served_by"] == stubs[order[1]].name
            # The owner was offered the request first, then the spill.
            first_seq = stubs[order[0]].posts()[0][0]
            second_seq = stubs[order[1]].posts()[0][0]
            assert first_seq < second_seq
            assert not stubs[order[2]].posts()
            assert router_counts(router)["spillovers"] == 1

    def test_all_backends_refusing_relays_the_final_429(self):
        with stub_fleet() as (router, stubs):
            for stub in stubs.values():
                stub.solve_code = 429
            status, headers, body = post_solve(router, variant(2))
            assert status == 429
            assert headers["retry-after"] == "7"  # backend's hint relayed
            assert json.loads(body)["error"] == "queue full"
            assert all(len(s.posts()) == 1 for s in stubs.values())
            assert router_counts(router)["spillovers"] == 3


class TestHealthEjection:
    def test_failed_healthz_ejects_and_probe_readmits(self):
        with stub_fleet() as (router, stubs):
            request = variant(3)
            order = router.candidates_for(request.cache_key())
            owner, backup = stubs[order[0]], stubs[order[1]]
            owner.health_code = 503
            assert router.probe() == (2, 3)
            status, _, body = post_solve(router, request)
            assert status == 200
            assert json.loads(body)["served_by"] == backup.name
            assert not owner.posts()  # ejected: never even offered
            # Recovery: probe re-admits, and because the ring never
            # dropped the node the very same key goes home again.
            owner.health_code = 200
            assert router.probe() == (3, 3)
            status, _, body = post_solve(router, request)
            assert json.loads(body)["served_by"] == owner.name
            stats = router_counts(router)
            assert stats["ejections"] == 1
            assert stats["readmissions"] == 1

    def test_connection_error_fails_over_mid_request(self):
        with stub_fleet() as (router, stubs):
            request = variant(4)
            order = router.candidates_for(request.cache_key())
            stubs[order[0]].close()  # dies without a failed probe first
            status, _, body = post_solve(router, request)
            assert status == 200
            assert json.loads(body)["served_by"] == stubs[order[1]].name
            assert router_counts(router)["failovers"] == 1
            assert router.health() == (2, 3)  # ejected on the spot

    def test_no_healthy_backends_maps_to_503(self):
        with stub_fleet(n=2) as (router, stubs):
            for stub in stubs.values():
                stub.health_code = 503
            router.probe()
            status, _, body = post_solve(router, variant(5))
            assert status == 503
            assert json.loads(body)["detail"] == "no healthy backends"
            client = AssertClient.for_server(router)
            health = client.healthz()
            assert health["http_status"] == 503
            assert health["status"] == "unavailable"
            assert health["backends"] == {"healthy": 0, "total": 2}


class TestStatszAggregation:
    """The sums fleet ``/statsz`` used to serve, read off the merged
    ``/metricsz`` instead; ``/statsz`` itself is a 404."""

    @staticmethod
    def exposition(i: int, store: bool) -> bytes:
        lines = [f"repro_service_submitted_total {10 + i}",
                 f"repro_service_solved_total {5 + i}",
                 f"repro_solve_profile_total_us {1000 * (i + 1)}"]
        if store:
            lines += [f"repro_service_store_hits {i}",
                      f"repro_service_store_total_bytes {100 * i}"]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_numeric_fields_sum_across_backends(self):
        with stub_fleet() as (router, stubs):
            for i, stub in enumerate(stubs.values()):
                stub.raw["/metricsz"] = (200, self.exposition(i, store=True))
            client = AssertClient.for_server(router)
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
            assert parsed.value("repro_service_submitted_total") == \
                10 + 11 + 12
            assert parsed.value("repro_service_solved_total") == 5 + 6 + 7
            assert parsed.value("repro_service_store_hits") == 0 + 1 + 2
            assert parsed.value("repro_service_store_total_bytes") == \
                0 + 100 + 200
            assert parsed.value("repro_solve_profile_total_us") == 6000
            assert parsed.value("repro_router_backends_total") == 3
            for node in stubs:
                assert parsed.value("repro_router_backend_healthy",
                                    node=node) == 1
                assert parsed.value("repro_router_backend_forwarded_total",
                                    node=node) == 0
            status, _, body = client._request("GET", "/statsz")
            assert status == 404
            assert json.loads(body)["detail"] == "no such endpoint: /statsz"

    def test_store_stays_none_when_no_backend_has_one(self):
        with stub_fleet(n=2) as (router, stubs):
            for i, stub in enumerate(stubs.values()):
                stub.raw["/metricsz"] = (200, self.exposition(i, store=False))
            parsed = obs_metrics.parse_prometheus_text(router.metricsz())
            assert parsed.value("repro_service_submitted_total") == 21
            assert not any(name.startswith("repro_service_store_")
                           for name, _ in parsed.samples)


class TestDiagnosticFanOut:
    """``/metricsz``, ``/tracez`` and ``/covz`` share one fan-out: a
    transport error ejects the backend, a non-200 or undecodable body is
    skipped, and neither escapes the handler — nor does a body that
    decodes but has the wrong shape."""

    GOOD = {
        "/metricsz": (200, b"repro_stub_total 2\n"),
        "/tracez": (200, b'{"recent": [], "slowest": []}'),
        "/covz": (200, b'{"designs": [], "dropped": 0, "recorded": 3, '
                       b'"retained": 0}'),
    }

    def test_bad_bodies_are_skipped_and_dead_backends_ejected(self):
        with stub_fleet(n=5) as (router, stubs):
            good, garbled, misshapen, failing, dead = stubs.values()
            good.raw.update(self.GOOD)
            # A 200 whose body does not decode: bad UTF-8, JSON that is
            # not an object.
            garbled.raw.update({
                "/metricsz": (200, b"\xff\xfe not utf-8"),
                "/tracez": (200, b"[1, 2]"),
                "/covz": (200, b'"a string"'),
            })
            # Objects of the wrong shape: records, design entries and
            # trace lists that are not objects or lists.
            misshapen.raw.update({
                "/metricsz": (200, b"repro_stub_total 1\n"),
                "/tracez": (200, b'{"recent": ["a", 1, null], '
                                 b'"slowest": {"not": "a list"}}'),
                "/covz": (200, b'{"designs": [1, "x", {"design": "d"}], '
                               b'"recorded": "many", "dropped": 0}'),
            })
            failing.raw.update({path: (500, b'{"recent": []}')
                                for path in ("/metricsz", "/tracez",
                                             "/covz")})
            dead.close()

            client = AssertClient.for_server(router)
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
            assert parsed.value("repro_stub_total") == 2 + 1
            # Only the transport error ejects.
            assert [parsed.value("repro_router_backend_healthy", node=node)
                    for node in stubs] == [1, 1, 1, 1, 0]
            nodes = client.healthz()["nodes"]
            assert nodes[dead.node]["last_error"].startswith(
                "metricsz probe failed")
            assert nodes[dead.node]["address"] == dead.node
            assert all(nodes[stub.node]["last_error"] == ""
                       for stub in (good, garbled, misshapen, failing))

            tracez = client.tracez()
            assert tracez["backends_reached"] == 2
            assert {"enabled", "recent", "slowest"} <= set(tracez)
            covz = client.covz()
            assert covz["backends_reached"] == 2
            assert covz["recorded"] >= 3

    def test_non_numeric_trace_timings_read_as_absent(self):
        trace_id = "c" * 32
        with stub_fleet(n=2) as (router, stubs):
            good, odd = stubs.values()
            good.raw.update(self.GOOD)
            odd.raw["/tracez"] = (200, json.dumps({
                "recent": [{"trace_id": trace_id, "duration_ms": "x",
                            "spans": [{"span_id": "s1",
                                       "offset_ms": "soon"}]}],
                "slowest": [{"trace_id": trace_id, "duration_ms": "x"},
                            {"trace_id": "d" * 32, "duration_ms": 3.0}],
            }).encode())
            tracez = AssertClient.for_server(router).tracez()
        assert tracez["backends_reached"] == 2
        (recent,) = [r for r in tracez["recent"]
                     if r["trace_id"] == trace_id]
        assert "duration_ms" not in recent
        assert recent["spans"] == [{"span_id": "s1"}]
        assert [r["trace_id"] for r in tracez["slowest"]
                if r["trace_id"] in (trace_id, "d" * 32)] == \
            ["d" * 32, trace_id]


class TestHostileOptions:
    @pytest.mark.parametrize("options", [
        '{"hallucination_rate": "x"}',
        '{"hallucination_rate": true}',
        '{"mine_hints": "no"}',
    ])
    def test_router_answers_400_without_forwarding(self, options):
        with stub_fleet() as (router, stubs):
            client = AssertClient.for_server(router)
            body = ('{"design_source": "module m; endmodule", "options": '
                    + options + "}").encode()
            status, _, data = client._request("POST", "/v1/solve", body)
            assert status == 400
            envelope = json.loads(data)
            assert envelope["code"] == 400
            assert envelope["status"] == "error"
            assert not any(stub.posts() for stub in stubs.values())


class TestCancelBroadcast:
    def test_delete_fans_out_and_sums(self):
        with stub_fleet() as (router, stubs):
            holder = next(iter(stubs.values()))
            holder.cancelled = 1
            client = AssertClient.for_server(router)
            assert client.cancel("some-request") == 1
            # Every backend was asked — the router cannot know the holder.
            assert all(any(m == "DELETE" for _, m in s.log)
                       for s in stubs.values())

    def test_unknown_request_id_is_404(self):
        with stub_fleet() as (router, _):
            client = AssertClient.for_server(router)
            status, _, body = client._request(
                "DELETE", "/v1/solve/never-seen")
            assert status == 404
            assert json.loads(body)["cancelled"] == 0


# -- a real fleet over real backends -------------------------------------------


@contextmanager
def real_fleet(n_backends: int = 2, **serve_overrides):
    serve_overrides.setdefault("batch_window_ms", 5.0)
    router = make_fleet(n_backends, ServeConfig(**serve_overrides))
    router.start()
    try:
        yield router, AssertClient.for_server(router)
    finally:
        router.close()


class TestRealFleet:
    def test_bodies_byte_identical_to_single_instance(self):
        # The acceptance criterion: routing is invisible in the bytes.
        with real_fleet() as (router, client):
            for i in range(3):
                request = variant(i)
                status, _, via_router = client._request(
                    "POST", "/v1/solve", solve_body(request))
                assert status == 200
                with AssertService(ServeConfig()) as single:
                    direct = single.solve(request, timeout=60)
                assert via_router == direct.to_json().encode("utf-8")

    def test_error_bodies_byte_identical_too(self):
        with real_fleet(n_backends=1) as (router, client):
            backend = router.backends[0]
            direct_client = AssertClient.for_server(backend)
            bad = b'{"garbage": true}'
            via_router = client._request("POST", "/v1/solve", bad)
            direct = direct_client._request("POST", "/v1/solve", bad)
            assert via_router[0] == direct[0] == 400
            assert via_router[2] == direct[2]

    def test_cache_affinity_across_repeats(self):
        with real_fleet() as (router, client):
            requests = [variant(i) for i in range(3)]
            for _ in range(3):
                for request in requests:
                    assert client.solve(request).status in ("ok",
                                                            "compile_error")
            agg = obs_metrics.parse_prometheus_text(client.metricsz())
            # Each unique design was solved exactly once fleet-wide:
            # repeats all hit the owning backend's cache.
            assert agg.value("repro_service_solved_total") == 3
            assert agg.value("repro_service_cache_hits_total") == 6
            assert agg.value("repro_router_routed_total") == 9
            assert sum(agg.value("repro_router_backend_forwarded_total",
                                 node=node)
                       for node in router.candidates_for("any")) == 9

    def test_drain_answers_inflight_clients(self):
        with real_fleet() as (router, client):
            handle = client.submit(fast_request(MINI_SOURCE))
            backends = router.backends
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stats = [b.service.stats() for b in backends]
                if any(s.inflight + s.queue_depth > 0 for s in stats):
                    break
                time.sleep(0.002)
            router.close()  # propagated drain: backend answers first
            response = handle.result(timeout=10)
            assert response.ok

    def test_healthz_reports_fleet_shape(self):
        with real_fleet(n_backends=3) as (_, client):
            payload = client.healthz()
            assert payload["status"] == "ok"
            assert payload["backends"] == {"healthy": 3, "total": 3}

    def test_close_is_idempotent_and_restart_refused(self):
        router = make_fleet(1, ServeConfig())
        router.start()
        router.close()
        router.close()
        from repro.serve import ServiceClosed

        with pytest.raises(ServiceClosed):
            router.start()


class TestKeepAliveEdge:
    def test_stale_backend_connection_is_not_an_ejection(self, monkeypatch):
        # Backends drop connections idle for 0.2 s while the client's
        # connection to the router stays up, so the router's pooled
        # forward connection is stale by the second solve.
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        monkeypatch.setattr(_RouterHandler, "timeout", 15)
        stale = []
        real_exchange = ConnectionPool._exchange

        def spying_exchange(*args, **kwargs):
            try:
                return real_exchange(*args, **kwargs)
            except ConnectionError as exc:
                stale.append(exc)
                raise

        monkeypatch.setattr(ConnectionPool, "_exchange",
                            staticmethod(spying_exchange))
        router = make_fleet(1, ServeConfig(batch_window_ms=5.0),
                            RouterConfig(health_interval_s=60))
        router.start()  # its probe opens the first backend connection
        try:
            client = AssertClient.for_server(router)
            backend = router.backends[0]
            assert client.solve(variant(0)).ok
            time.sleep(0.6)
            assert client.solve(variant(1)).ok
            stats = router_counts(router)
            assert (stats["ejections"], stats["failovers"]) == (0, 0)
            assert router.health() == (1, 1)
            # At least the second forward found its connection stale;
            # each stale one was replaced by exactly one fresh connection
            # (on top of the one router.start() probed with).
            assert len(stale) >= 1
            parsed = obs_metrics.parse_prometheus_text(backend.metricsz())
            assert parsed.value("repro_http_connections_total",
                                edge="server") == 1 + len(stale)
        finally:
            router.close()

    def test_router_counts_client_connections(self):
        with real_fleet(n_backends=2) as (router, client):
            for i in range(5):
                assert client.solve(variant(i)).ok
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
        assert parsed.value("repro_http_connections_total",
                            edge="router") == 1

    def test_close_with_an_idle_keepalive_client_is_prompt(self):
        backend = AssertHttpServer(AssertService(ServeConfig())).start()
        router = FleetRouter([backend]).start()
        try:
            client = AssertClient.for_server(router)
            assert client.solve(fast_request(MINI_SOURCE)).ok  # now idle
            started = time.monotonic()
            router.close()
            assert time.monotonic() - started < 1.0
        finally:
            backend.close()

    def test_close_bounds_a_forward_the_backend_never_answers(
            self, monkeypatch):
        # The backend fronts a service that was never started, so the
        # forwarded POST parks there for good: close() must cut the
        # forward off after the drain grace and answer its client 503,
        # not wait out forward_timeout_s.
        grace = 0.5
        monkeypatch.setattr("repro.serve.router.DRAIN_GRACE_S", grace)
        service = AssertService(ServeConfig())  # never started
        backend = AssertHttpServer(service, HttpConfig(drain_grace_s=grace),
                                   manage_service=False).start()
        router = FleetRouter([backend]).start()
        try:
            handle = AssertClient.for_server(router).submit(
                fast_request(MINI_SOURCE))
            deadline = time.monotonic() + 5
            while service.stats().inflight < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            assert service.stats().inflight == 1
            opened = backend_connections(backend)
            started = time.monotonic()
            router.close()
            assert time.monotonic() - started < grace + 5
            with pytest.raises(ServiceClosed, match="drained"):
                handle.result(timeout=5)  # ServiceClosed is the 503
            assert router.health() == (1, 1)  # cut off, not ejected
            # The cut-off forward is not retried on a fresh connection.
            time.sleep(0.2)
            assert backend_connections(backend) == opened
        finally:
            router.close()
            backend.close()
            service.close()

    def test_drain_answers_inflight_next_to_an_idle_connection(self):
        with real_fleet(n_backends=1, batch_window_ms=300) \
                as (router, client):
            assert client.healthz()["status"] == "ok"  # kept alive, idle
            backend = router.backends[0]
            handle = AssertClient.for_server(router).submit(
                fast_request(MINI_SOURCE))
            deadline = time.monotonic() + 5
            while backend.service.stats().inflight < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            assert backend.service.stats().inflight == 1
            started = time.monotonic()
            router.close()
            elapsed = time.monotonic() - started
            assert handle.result(timeout=10).ok
            assert elapsed < 5.0


class TestLauncherGlue:
    def test_serve_fleet_carries_overrides(self):
        router = PipelineConfig().serve_fleet(n_backends=2, max_batch=4)
        try:
            assert len(router.backends) == 2
            for backend in router.backends:
                assert backend.service.config.max_batch == 4
        finally:
            router.close()

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            make_fleet(n_backends=0)
        with pytest.raises(ValueError):
            make_fleet(router=RouterConfig(port=70000))
        with pytest.raises(ValueError):
            make_fleet(router=RouterConfig(health_interval_s=0))
        with pytest.raises(ValueError):
            make_fleet(router=RouterConfig(ring_replicas=0))

    def test_router_requires_backends_and_unique_addresses(self):
        with pytest.raises(ValueError):
            FleetRouter([])
        router = FleetRouter(["127.0.0.1:9", "127.0.0.1:9"])
        with pytest.raises(ValueError):
            router.start()

    def test_router_config_validation(self):
        for bad in (dict(port=-1), dict(max_body_bytes=0),
                    dict(forward_timeout_s=0), dict(ring_replicas=0),
                    dict(health_interval_s=-2.0)):
            with pytest.raises(ValueError):
                RouterConfig(**bad).validate()
