"""HTTP transport: server, client, status mapping, lifecycle over the wire.

Covers the transport contract:

- every ``SolveResponse`` status maps to its HTTP code (200/422/504/409)
  and every transport refusal to its own (400/413/429/503);
- the response body for a solved request is byte-identical to the
  in-process ``SolveResponse.to_json()`` for the same content hash —
  the transport must not fork determinism;
- backpressure surfaces as 429 with a ``Retry-After`` header;
- ``DELETE /v1/solve/{request_id}`` cancels queued work, and a client
  handle's ``cancel()`` round-trips it;
- graceful drain: a server closed mid-request still answers the
  in-flight client before releasing its sockets, and closes keep-alive
  connections idle between requests instead of waiting them out;
- keep-alive: sequential calls reuse one connection, concurrent callers
  hold one each, every response leaves in one write, and a pooled
  connection the server closed is retried transparently.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    HttpConfig,
    ServeConfig,
    ServiceOverloaded,
    SolveOptions,
    SolveRequest,
    request_from_json,
    request_to_json,
    response_from_json,
)
from repro.serve.http import _Handler
from repro.verilog.compile import default_compile_cache

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


@contextmanager
def http_server(http_config: HttpConfig = None, **serve_overrides):
    """A started server + aimed client over a fresh service."""
    service = AssertService(ServeConfig(**serve_overrides))
    server = AssertHttpServer(service, http_config or HttpConfig())
    server.start()
    try:
        yield server, AssertClient.for_server(server)
    finally:
        server.close()


def connections_accepted(server: AssertHttpServer) -> float:
    """The server's accepted-connection counter, read in process (a
    request over the wire would open or reuse one itself)."""
    parsed = obs_metrics.parse_prometheus_text(server.metricsz())
    return parsed.value("repro_http_connections_total", edge="server")


@pytest.fixture(scope="module")
def shared():
    """One server shared by the read-mostly tests."""
    with http_server() as (server, client):
        yield server, client


class TestSolveRoundTrip:
    def test_ok_response_parses(self, shared):
        _, client = shared
        response = client.solve(fast_request(MINI_SOURCE))
        assert response.ok
        assert response.proposals
        scores = [p.score for p in response.proposals]
        assert scores == sorted(scores, reverse=True)

    def test_http_body_byte_identical_to_in_process(self, shared):
        # The acceptance criterion: for one request content hash, the
        # bytes on the wire ARE the in-process serialization.
        server, client = shared
        request = fast_request(MINI_SOURCE)
        status, _, body = client._request(
            "POST", "/v1/solve", request_to_json(request).encode("utf-8"))
        assert status == 200
        in_process = server.service.solve(request, timeout=60)
        assert body == in_process.to_json().encode("utf-8")
        # And the client's parse round-trips to the same bytes.
        assert response_from_json(body.decode()).to_json().encode() == body

    def test_compile_error_maps_to_422(self, shared):
        server, client = shared
        status, _, body = client._request(
            "POST", "/v1/solve",
            request_to_json(SolveRequest("utter garbage ;;;")).encode())
        assert status == 422
        response = response_from_json(body.decode())
        assert response.status == "compile_error"
        assert response.error  # compiler diagnostics travel the wire
        # 422 bodies are byte-deterministic too.
        in_process = server.service.solve(
            SolveRequest("utter garbage ;;;"), timeout=60)
        assert body == in_process.to_json().encode("utf-8")

    def test_solve_returns_structured_compile_error(self, shared):
        _, client = shared
        response = client.solve("module broken (")
        assert response.status == "compile_error"
        assert not response.ok


class TestMalformedRequests:
    @pytest.mark.parametrize("body", [
        b"{not json",
        b"[1, 2, 3]",
        b'"just a string"',
        b'{"options": {}}',                              # no design_source
        b'{"design_source": 42}',                        # wrong type
        b'{"design_source": ""}',                        # empty
        b'{"design_source": "module m; endmodule", "surprise": 1}',
        b'{"design_source": "module m; endmodule", '
        b'"options": {"unknown_knob": 1}}',
        b'{"design_source": "module m; endmodule", '
        b'"options": {"hallucination_rate": 2.0}}',      # fails validate()
        b'{"design_source": "module m; endmodule", '
        b'"options": {"hints": [["short"]]}}',           # malformed hint
    ])
    def test_maps_to_400(self, shared, body):
        _, client = shared
        status, _, data = client._request("POST", "/v1/solve", body)
        assert status == 400
        assert b"error" in data

    @pytest.mark.parametrize("options,field", [
        ('{"hallucination_rate": "x"}', "hallucination_rate"),
        ('{"hallucination_rate": true}', "hallucination_rate"),
        ('{"mine_hints": "no"}', "mine_hints"),
        ('{"bmc_depth": 6.0}', "bmc_depth"),
        ('{"deadline_ms": false}', "deadline_ms"),
    ])
    def test_hostile_option_types_get_400_envelope(self, shared, options,
                                                   field):
        # A wrongly-typed option is a structured 400 naming the knob: not
        # a dropped connection (a TypeError in validation) and not an
        # accepted request whose content key forks on a bool or a string.
        _, client = shared
        body = ('{"design_source": "module m; endmodule", "options": '
                + options + "}").encode()
        status, _, data = client._request("POST", "/v1/solve", body)
        assert status == 400
        envelope = json.loads(data)
        assert envelope["code"] == 400 and envelope["status"] == "error"
        assert field in envelope["detail"]
        # The same connection keeps serving.
        assert client.solve(fast_request(MINI_SOURCE)).ok

    @pytest.mark.parametrize("options,field", [
        ('{"bmc_depth": 1000000}', "bmc_depth"),
        ('{"bmc_random_trials": 1000000}', "bmc_random_trials"),
        ('{"max_proposals": 1000000}', "max_proposals"),
    ])
    def test_over_bound_budget_gets_400_envelope(self, shared, options,
                                                 field):
        # A budget past its admission bound is refused exactly like a
        # mistyped option: a structured 400 naming the knob, before any
        # work is queued, and the connection keeps serving unchanged.
        server, client = shared
        request = fast_request(MINI_SOURCE)
        before = client._request("POST", "/v1/solve",
                                 request_to_json(request).encode())
        submitted = server.service.stats().submitted
        body = ('{"design_source": "module m; endmodule", "options": '
                + options + "}").encode()
        status, _, data = client._request("POST", "/v1/solve", body)
        assert status == 400
        envelope = json.loads(data)
        assert envelope["code"] == 400 and envelope["status"] == "error"
        assert field in envelope["detail"]
        assert server.service.stats().submitted == submitted
        after = client._request("POST", "/v1/solve",
                                request_to_json(request).encode())
        assert after[0] == before[0] == 200
        assert after[2] == before[2]  # byte-identical

    def test_client_raises_value_error_on_400(self, shared):
        _, client = shared
        with pytest.raises(ValueError, match="400"):
            client.solve(SolveRequest(MINI_SOURCE,
                                      SolveOptions(hallucination_rate=2.0)))

    def test_unknown_endpoints_404(self, shared):
        _, client = shared
        for method, path in (("GET", "/nope"), ("POST", "/v1/other"),
                             ("DELETE", "/v1/unknown/x")):
            status, _, _ = client._request(method, path)
            assert status == 404

    @pytest.mark.parametrize("length", ["-5", "-1", "nonsense", ""])
    def test_bad_content_length_maps_to_400(self, shared, length):
        # A negative or unparsable Content-Length must be a structured
        # 400, never a handler crash or a read-until-timeout stall.
        import http.client

        _, client = shared
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/solve")
            conn.putheader("Content-Type", "application/json")
            if length:
                conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()

    def test_oversized_body_maps_to_413(self):
        with http_server(HttpConfig(max_body_bytes=256)) as (_, client):
            request = fast_request(MINI_SOURCE)  # well over 256 bytes
            status, _, _ = client._request(
                "POST", "/v1/solve", request_to_json(request).encode())
            assert status == 413
            with pytest.raises(ValueError, match="413"):
                client.solve(request)


class TestDeadlineOverHttp:
    def test_expired_request_maps_to_504_before_any_flush(self):
        # Window so long only the deadline timer can resolve the
        # request (a batcher that has seen no arrival gap holds the
        # whole window): the 504 proves timer-driven expiry works end to
        # end.
        with http_server(max_batch=64, batch_window_ms=30_000) \
                as (server, client):
            status, _, body = client._request(
                "POST", "/v1/solve",
                request_to_json(
                    fast_request(MINI_SOURCE, deadline_ms=40.0)).encode())
            assert status == 504
            response = response_from_json(body.decode())
            assert response.status == "timeout"
            assert server.service.stats().batches == 0
            assert server.service.stats().timeouts == 1


class TestBackpressureOverHttp:
    def test_queue_full_maps_to_429_and_delete_frees_it(self):
        # The service is never started (manage_service=False), so its
        # 1-slot queue cannot drain: the first request parks, the
        # second must bounce with 429 + Retry-After.
        service = AssertService(ServeConfig(max_queue=1))
        server = AssertHttpServer(service, HttpConfig(),
                                  manage_service=False)
        server.start()
        client = AssertClient.for_server(server)
        try:
            handle = client.submit(SolveRequest(
                MINI_SOURCE, SolveOptions(**FAST), request_id="stuck"))
            deadline = time.monotonic() + 5
            while service.stats().queue_depth < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            assert service.stats().queue_depth == 1

            status, headers, _ = client._request(
                "POST", "/v1/solve",
                request_to_json(fast_request(MINI_SOURCE)).encode())
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            with pytest.raises(ServiceOverloaded):
                client.solve(fast_request(MINI_SOURCE))

            # Client-initiated cancellation frees the parked request:
            # its in-flight POST resolves to 409/cancelled.
            assert handle.cancel() == 1
            response = handle.result(timeout=5)
            assert response.status == "cancelled"
            assert service.stats().cancelled == 1
            assert handle.cancel() == 0  # nothing left under that tag
        finally:
            server.close()
            service.close()

    def test_delete_unknown_request_id_404(self, shared):
        _, client = shared
        status, _, body = client._request("DELETE", "/v1/solve/never-seen")
        assert status == 404
        assert b'"cancelled": 0' in body
        assert client.cancel("never-seen") == 0


class TestOperatorEndpoints:
    def test_healthz(self, shared):
        _, client = shared
        payload = client.healthz()
        assert payload["http_status"] == 200
        assert payload["status"] == "ok"

    def test_metricsz_exposes_gauges_and_store(self, shared):
        _, client = shared
        client.solve(fast_request(MINI_SOURCE))
        parsed = obs_metrics.parse_prometheus_text(client.metricsz())
        for name in ("repro_service_inflight", "repro_service_queue_depth",
                     "repro_service_queue_capacity",
                     "repro_service_cancelled_total",
                     "repro_service_timeouts_total",
                     "repro_service_cache_hits_total"):
            assert parsed.value(name) is not None, name
        assert parsed.value("repro_service_submitted_total") >= 1
        # No configured store, so no store series.
        assert parsed.value("repro_service_store_entries") is None

    def test_statsz_is_gone(self, shared):
        _, client = shared
        status, _, body = client._request("GET", "/statsz")
        assert status == 404
        assert json.loads(body) == {
            "code": 404, "detail": "no such endpoint: /statsz",
            "status": "error"}


#: Every numeric ``ServiceStats`` field ``/statsz`` used to carry, and
#: the ``/metricsz`` series that carries it now (``None``: a ratio of
#: rendered counters, derivable by any scraper, so off the wire).
STATSZ_SERIES = {
    **{name: (f"repro_service_{name}_total", {}) for name in (
        "submitted", "completed", "rejected", "errors", "solved",
        "deduped", "compile_errors", "timeouts", "cancelled", "evals",
        "eval_cases", "eval_memo_hits", "cache_hits", "cache_misses",
        "cache_store_hits", "batches", "batched_requests")},
    "cache_entries": ("repro_service_cache_entries", {}),
    "store_entries": ("repro_service_store_entries", {}),
    "max_batch": ("repro_service_batch_max", {}),
    "flush_size": ("repro_service_batch_flushes_total", {"reason": "size"}),
    "flush_timeout": ("repro_service_batch_flushes_total",
                      {"reason": "timeout"}),
    "flush_drain": ("repro_service_batch_flushes_total",
                    {"reason": "drain"}),
    "flush_idle": ("repro_service_batch_flushes_total", {"reason": "idle"}),
    "queue_depth": ("repro_service_queue_depth", {}),
    "queue_capacity": ("repro_service_queue_capacity", {}),
    "inflight": ("repro_service_inflight", {}),
    "n_workers": ("repro_service_workers", {}),
    "mean_batch": None,
    "cache_hit_rate": None,
}


def provider_counts(parsed) -> dict:
    """``{series: value}`` of the engine provider section."""
    return {name: value for (name, labels), value in parsed.samples.items()
            if name.startswith(("repro_compile_cache_", "repro_coverage_",
                                "repro_solve_profile_", "repro_engine_"))}


class TestOneMetricsSurface:
    """``/metricsz`` carries every number ``/statsz`` did, and counts
    worker-side work by the engine's one rule."""

    def test_every_old_statsz_field_has_a_series(self, tmp_path):
        from dataclasses import fields

        from repro.serve import ServiceStats
        from repro.store import StoreConfig

        numeric = {f.name for f in fields(ServiceStats) if f.type != "str"}
        assert set(STATSZ_SERIES) == numeric
        with http_server(store=StoreConfig(path=tmp_path),
                         coverage=True) as (server, client):
            for source in (MINI_SOURCE, MINI_SOURCE, "module broken("):
                client.solve(fast_request(source))
        # Read after the drain: store writes trail the responses.
        parsed = obs_metrics.parse_prometheus_text(server.metricsz())
        stats = server.service.stats()
        store = server.service._store.counters()
        totals = server.service.counter_totals()
        for field, series in STATSZ_SERIES.items():
            if series is not None:
                name, labels = series
                assert parsed.value(name, **labels) == \
                    getattr(stats, field), field
        assert stats.solved == 2 and stats.cache_hits == 1
        for key in ("hits", "misses", "writes", "evictions", "corrupt"):
            assert parsed.value(f"repro_service_store_{key}") == store[key]
        for provider in ("solve_profile", "coverage"):
            for key, value in totals[provider].items():
                assert parsed.value(f"repro_{provider}_{key}") == value

    def test_provider_counts_match_across_backends(self):
        # One request stream through a serial and a 2-worker process
        # service: the provider section counts the same work either way
        # (worker deltas added under the pool, nothing counted twice).
        # Clearing the compile cache before each service makes both
        # start from the same cache state.
        sources = [f"// design {i}\n{MINI_SOURCE}" for i in (0, 1, 2, 0, 1)]
        counted = {}
        for backend, workers in (("serial", 1), ("process", 2)):
            default_compile_cache().clear()
            with http_server(backend=backend, n_workers=workers,
                             coverage=True) as (server, client):
                before = provider_counts(
                    obs_metrics.parse_prometheus_text(client.metricsz()))
                for source in sources:
                    assert client.solve(fast_request(source)).ok
                after = provider_counts(
                    obs_metrics.parse_prometheus_text(client.metricsz()))
                assert server.service.stats().solved == 3
            assert not any(name.startswith("repro_engine_") for name in after)
            counted[backend] = {name: value - before.get(name, 0)
                                for name, value in after.items()}
        serial, pooled = counted["serial"], counted["process"]
        for prefix in ("repro_compile_cache_", "repro_coverage_"):
            series = {k: v for k, v in serial.items() if k.startswith(prefix)}
            assert series, prefix
            assert series == {k: v for k, v in pooled.items()
                              if k.startswith(prefix)}
        assert serial["repro_compile_cache_misses"] > 0
        assert serial["repro_coverage_reports_total"] == 3
        profile = {k for k, v in serial.items()
                   if k.startswith("repro_solve_profile_") and v > 0}
        assert profile and profile == {
            k for k, v in pooled.items()
            if k.startswith("repro_solve_profile_") and v > 0}


class TestLifecycle:
    def test_graceful_drain_answers_inflight_requests(self):
        service = AssertService(ServeConfig(batch_window_ms=5))
        server = AssertHttpServer(service, HttpConfig()).start()
        client = AssertClient.for_server(server)
        handle = client.submit(fast_request(MINI_SOURCE))
        deadline = time.monotonic() + 5
        while service.stats().inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        server.close()  # drain: in-flight work is answered, not reset
        response = handle.result(timeout=10)
        assert response.ok
        # ...and afterwards the socket is really gone.
        with pytest.raises(OSError):
            client.healthz()

    def test_drain_grace_bounds_close_on_unmanaged_service(self):
        # manage_service=False and a service that will never resolve the
        # parked request: close() must reclaim the blocked handler after
        # drain_grace_s (503 to that client) instead of hanging until
        # the server's full wait budget.
        service = AssertService(ServeConfig())  # never started
        server = AssertHttpServer(
            service, HttpConfig(default_timeout_s=120, drain_grace_s=0.5),
            manage_service=False)
        server.start()
        client = AssertClient.for_server(server)
        handle = client.submit(fast_request(MINI_SOURCE))
        deadline = time.monotonic() + 5
        while service.stats().inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 30  # bounded, not 120s
        from repro.serve import ServiceClosed

        with pytest.raises(ServiceClosed, match="drained"):
            handle.result(timeout=5)
        service.close()

    def test_close_with_an_idle_keepalive_client_is_prompt(self):
        server = AssertHttpServer(AssertService(ServeConfig())).start()
        client = AssertClient.for_server(server)
        assert client.solve(fast_request(MINI_SOURCE)).ok  # now idle
        started = time.monotonic()
        server.close()
        # Not the handler's 15 s idle timeout.
        assert time.monotonic() - started < 1.0

    def test_drain_answers_inflight_next_to_an_idle_connection(self):
        service = AssertService(ServeConfig())
        # Hold the request in its batch's flush until 300 ms into the
        # drain, so the drain starts with it still in flight.
        release = threading.Event()
        flush = service._flush

        def gated_flush(batch, reason):
            release.wait(10)
            flush(batch, reason)

        service._flush = gated_flush  # the batcher binds it at start()
        server = AssertHttpServer(service, HttpConfig()).start()
        idle = AssertClient.for_server(server)
        assert idle.healthz()["status"] == "ok"  # kept alive, then idle
        handle = AssertClient.for_server(server).submit(
            fast_request(MINI_SOURCE))
        deadline = time.monotonic() + 5
        while service.stats().inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert service.stats().inflight == 1  # held in the gated flush
        started = time.monotonic()
        threading.Timer(0.3, release.set).start()
        server.close()
        elapsed = time.monotonic() - started
        response = handle.result(timeout=10)
        assert response.ok  # the real 200, not a reset or a 503
        assert elapsed < 5.0

    def test_close_is_idempotent(self):
        service = AssertService(ServeConfig())
        server = AssertHttpServer(service, HttpConfig()).start()
        server.close()
        server.close()

    def test_pipeline_config_serve_http(self):
        from repro.core.api import PipelineConfig

        server = PipelineConfig(n_workers=2, seed=7).serve_http(
            max_batch=4)
        assert server.service.config.n_workers == 2
        assert server.service.config.seed == 7
        assert server.service.config.max_batch == 4
        try:
            server.start()
            assert AssertClient.for_server(server).healthz()["status"] == "ok"
        finally:
            server.close()


class TestKeepAlive:
    def test_sequential_solves_share_one_connection(self):
        with http_server() as (server, client):
            assert connections_accepted(server) == 0
            responses = [client.solve(fast_request(MINI_SOURCE))
                         for _ in range(20)]
            assert all(r.ok for r in responses)
            assert connections_accepted(server) == 1
            # ...and the counter is on the wire too, over that connection.
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
            assert parsed.value("repro_http_connections_total",
                                edge="server") == 1

    def test_each_response_is_one_write(self, monkeypatch):
        writes = []

        class CountingWriter:
            def __init__(self, raw):
                self._raw = raw

            def write(self, data):
                writes.append(bytes(data))
                return self._raw.write(data)

            def __getattr__(self, name):
                return getattr(self._raw, name)

        real_setup = _Handler.setup

        def setup(handler):
            real_setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", setup)
        with http_server() as (_, client):
            exchanges = [
                client._request("POST", "/v1/solve", request_to_json(
                    fast_request(MINI_SOURCE)).encode()),
                client._request("POST", "/v1/solve", request_to_json(
                    fast_request("module broken (")).encode()),
                client._request("POST", "/v1/solve", b"{not json"),
                client._request("GET", "/healthz"),
                client._request("GET", "/metricsz"),
                client._request("GET", "/tracez"),
                client._request("GET", "/nowhere"),
                client._request("DELETE", "/v1/solve/unknown"),
            ]
        assert [status for status, _, _ in exchanges] == [
            200, 422, 400, 200, 200, 200, 404, 404]
        assert len(writes) == len(exchanges)
        for write, (status, _, body) in zip(writes, exchanges):
            head, _, sent = write.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert f"Content-Length: {len(body)}".encode() in head
            assert sent == body

    def test_client_retries_a_connection_the_server_closed(
            self, monkeypatch):
        # The server drops a connection idle for 0.2 s: the client's
        # pooled one goes stale between the two solves.
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with http_server() as (server, client):
            first = client.solve(fast_request(MINI_SOURCE))
            time.sleep(0.6)
            second = client.solve(fast_request(MINI_SOURCE))
            assert connections_accepted(server) == 2
        assert first.ok and second.to_json() == first.to_json()

    def test_fresh_connection_errors_are_not_retried(self):
        with http_server() as (server, client):
            assert client.healthz()["status"] == "ok"
        # The server is gone: the stale pooled connection is retried
        # once, and the refused fresh connection surfaces.
        with pytest.raises(ConnectionRefusedError):
            client.healthz()

    def test_concurrent_callers_hold_distinct_connections(self):
        # Three threads inside a request at once need three connections;
        # afterwards a short-lived thread takes one of them over.
        with http_server(max_batch=3, batch_window_ms=5000) \
                as (server, client):
            requests = [fast_request(f"// {i}\n{MINI_SOURCE}")
                        for i in range(3)]
            threads = [threading.Thread(target=client.solve, args=(r,))
                       for r in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert server.service.stats().solved == 3
            assert connections_accepted(server) == 3
            handle = client.submit(requests[0])
            assert handle.result(timeout=60).ok
            assert connections_accepted(server) == 3
            client.close()


class TestWireCodecs:
    def test_request_round_trip(self):
        request = SolveRequest(
            MINI_SOURCE,
            SolveOptions(hints=(("n", "y == 1", None, 0, "msg"),),
                         mine_hints=False, max_proposals=3,
                         hallucination_rate=0.25, bmc_depth=7,
                         bmc_random_trials=9, deadline_ms=1500.0),
            request_id="abc")
        decoded = request_from_json(request_to_json(request).encode())
        assert decoded == request
        assert decoded.cache_key() == request.cache_key()

    def test_decoded_defaults_match_python_defaults(self):
        decoded = request_from_json(
            b'{"design_source": "module m; endmodule"}')
        assert decoded.options == SolveOptions()
        assert decoded.request_id == ""
