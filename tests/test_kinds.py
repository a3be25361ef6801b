"""The request-kind table: one lifecycle for every wire kind.

``repro.serve.codecs.KINDS`` declares each wire kind (``solve`` and
``eval``) once; the service, the HTTP handler (server and router alike)
and the client dispatch on it.  These tests run the lifecycle that both
kinds share once per row:

- the kind's HTTP codes are the documented ones;
- a queued request whose deadline lapses resolves to the kind's own
  ``timeout`` response type;
- cancellation, in process and by ``DELETE <kind path>/{id}`` on a
  server and on the router, resolves to ``cancelled`` and maps to 409;
- the server's wait budget answers 504;
- identical waiters in one batch compute once and count as deduped.

Plus two regressions: router cancels forward ids that need quoting
without ejecting backends, and the table reaches the codec functions
through the module's names (so a rebinding, like perfbench's layer
tracer, sees every call).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.baselines.engine import make_baseline
from repro.eval import EvalConfig
from repro.serve import (
    KINDS,
    AssertClient,
    AssertHttpServer,
    AssertService,
    EvalRequest,
    FleetRouter,
    HttpConfig,
    RouterConfig,
    ServeConfig,
    SolveOptions,
    SolveRequest,
    codecs,
)
from repro.serve.codecs import error_detail

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
MODEL_NAME = "GPT-4"


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


@pytest.fixture
def make_request(kind, small_bundle):
    """``make_request(request_id="", deadline_ms=None)`` of ``kind``."""
    cases = small_bundle.sva_eval_machine

    def make(request_id: str = "", deadline_ms=None):
        if kind.name == "solve":
            return SolveRequest(
                MINI_SOURCE, SolveOptions(**FAST, deadline_ms=deadline_ms),
                request_id=request_id)
        return EvalRequest(
            MODEL_NAME, cases,
            EvalConfig(n_samples=4, seed=11, deadline_ms=deadline_ms),
            request_id=request_id)

    return make


def make_service(**overrides) -> AssertService:
    service = AssertService(ServeConfig(**overrides))
    service.register_model(MODEL_NAME, make_baseline(MODEL_NAME, seed=0))
    return service


def wait_until(predicate, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


@contextmanager
def parked_server(n_backends: int = 1, routed: bool = False, **http):
    """Started HTTP edges over services that are never started, so an
    accepted request stays queued until it is cancelled or expires.
    Yields ``(client, services)``; the client talks to the router when
    ``routed``, else to the lone server."""
    services = [make_service() for _ in range(n_backends)]
    servers = [AssertHttpServer(service, HttpConfig(**http),
                                manage_service=False)
               for service in services]
    edge = (FleetRouter(servers, RouterConfig(), manage_backends=True,
                        node_names=[f"backend-{i}"
                                    for i in range(n_backends)])
            if routed else servers[0])
    edge.start()
    client = AssertClient.for_server(edge)
    try:
        yield client, services
    finally:
        client.close()
        # Services first: their drain answers any request still parked,
        # so no handler (the router's forwards included) outlives close.
        for service in services:
            service.close()
        edge.close()


def queued(services) -> int:
    return sum(service.stats().queue_depth for service in services)


class TestTable:
    def test_codes_are_the_documented_ones(self):
        assert KINDS["solve"].http_codes == {
            "ok": 200, "compile_error": 422, "timeout": 504,
            "cancelled": 409}
        assert KINDS["eval"].http_codes == {
            "ok": 200, "unknown_model": 404, "timeout": 504,
            "cancelled": 409}

    def test_rows_name_their_paths_and_types(self, kind):
        assert kind.path == f"/v1/{kind.name}"
        assert kind.response_type.__name__ == \
            kind.request_type.__name__.replace("Request", "Response")

    def test_every_solve_status_carries_its_own_json(self):
        # Solve bodies are SolveResponse.to_json() whatever the status.
        response_type = KINDS["solve"].response_type
        for status, code in KINDS["solve"].http_codes.items():
            response = response_type(status, "key", error="why")
            assert KINDS["solve"].wire(response) == (
                code, response.to_json().encode("utf-8"))

    def test_unknown_status_is_a_500(self, kind):
        response = kind.response_type("bogus", "key", error="why")
        assert kind.wire(response)[0] == 500


class TestLifecycle:
    def test_queued_expiry_returns_the_kinds_timeout(self, kind,
                                                     make_request):
        service = make_service()  # never started: only the timer resolves
        try:
            future = service.submit(make_request(deadline_ms=40.0))
            response = future.result(timeout=5)
            assert type(response) is kind.response_type
            assert response.status == "timeout"
            assert kind.wire(response)[0] == 504
            assert service.stats().timeouts == 1
        finally:
            service.close()

    def test_in_process_cancel(self, kind, make_request):
        service = make_service()
        try:
            request = make_request(request_id="job-1")
            future = service.submit(request)
            assert service.cancel("job-1") == 1
            response = future.result(timeout=5)
            assert type(response) is kind.response_type
            assert response.status == "cancelled"
            assert response.request_key == request.cache_key()
            assert kind.wire(response)[0] == 409
            assert service.stats().cancelled == 1
        finally:
            service.close()

    @pytest.mark.parametrize("routed", [False, True],
                             ids=["server", "router"])
    def test_delete_on_the_kinds_path_maps_to_409(self, kind, make_request,
                                                  routed):
        with parked_server(n_backends=2 if routed else 1,
                           routed=routed) as (client, services), \
                ThreadPoolExecutor(1) as pool:
            body = kind.encode(make_request(request_id="job-1"))
            posted = pool.submit(client._request, "POST", kind.path,
                                 body.encode("utf-8"))
            wait_until(lambda: queued(services) == 1)
            status, _, data = client._request("DELETE",
                                              f"{kind.path}/job-1")
            assert status == 200
            assert b'"cancelled": 1' in data
            status, _, data = posted.result(timeout=10)
            assert status == 409
            assert error_detail(data)[1] == "cancelled"

    def test_server_wait_budget_gives_504(self, kind, make_request):
        with parked_server(default_timeout_s=0.3) as (client, _):
            status, _, data = client._request(
                "POST", kind.path, kind.encode(make_request()).encode())
        assert status == 504
        detail, service_status = error_detail(data)
        assert service_status == "timeout"
        assert "wait budget" in detail

    def test_dedup_counts_extra_waiters(self, kind, make_request):
        service = make_service()
        try:
            # Queued before start(): the first batch takes all three.
            futures = [service.submit(make_request(request_id=f"r{i}"))
                       for i in range(3)]
            service.start()
            bodies = {kind.wire(future.result(timeout=60))[1]
                      for future in futures}
            assert len(bodies) == 1
            stats = service.stats()
            assert stats.deduped == 2
            assert stats.solved + stats.evals == 1
        finally:
            service.close()


class TestRouterCancelIds:
    @pytest.mark.parametrize("request_id", ["a b", "a%41", "x/y"])
    def test_cancel_reaches_the_holder_and_ejects_nobody(self, request_id):
        with parked_server(n_backends=2, routed=True) as (client, services):
            handle = client.submit(SolveRequest(
                MINI_SOURCE, SolveOptions(**FAST), request_id=request_id))
            wait_until(lambda: queued(services) == 1)
            assert client.cancel(request_id) == 1
            assert handle.result(timeout=10).status == "cancelled"
            health = client.healthz()
            assert health["backends"] == {"healthy": 2, "total": 2}
            assert all(node["last_error"] == ""
                       for node in health["nodes"].values())


def test_table_reaches_codecs_through_module_names(monkeypatch):
    # perfbench's tracer rebinds module attributes only, so a row that
    # captured a codec function would hide its calls from traced runs.
    calls = {"request_from_json": 0, "response_from_json": 0}
    for name in calls:
        original = getattr(codecs, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(codecs, name, counting)
    with AssertHttpServer(AssertService(ServeConfig())) as server:
        client = AssertClient.for_server(server)
        response = client.solve(SolveRequest(MINI_SOURCE,
                                             SolveOptions(**FAST)))
        client.close()
    assert response.ok
    assert calls == {"request_from_json": 1, "response_from_json": 1}
