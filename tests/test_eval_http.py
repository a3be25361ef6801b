"""POST /v1/eval: wire bodies, status mapping, routing affinity.

The eval endpoint's transport contract mirrors ``/v1/solve``'s:

- a 200 body is byte-identical to the in-process
  ``EvalReport.to_json()`` for the same request — the wire must not
  fork determinism;
- every non-``ok`` service status maps to its HTTP code
  (404 unknown model, 504 timeout, 409 cancelled) through the one
  shared error envelope ``{"code", "detail", "status"}``;
- the router keys eval requests on their content, so identical
  requests always land on the same backend and re-use its memo.
"""

from __future__ import annotations

import http.client
import json
from contextlib import contextmanager

import pytest

from repro.baselines.engine import make_baseline
from repro.eval import EvalConfig, run_eval
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    EvalFailed,
    EvalRequest,
    EvalResponse,
    FleetRouter,
    HttpConfig,
    RouterConfig,
    ServeConfig,
    eval_request_from_json,
    eval_request_to_json,
)
from repro.serve.codecs import KINDS, error_body
from repro.store import MemoryStore, StoreConfig

MODEL_NAME = "GPT-4"
CONFIG = EvalConfig(n_samples=4, seed=11)


@contextmanager
def eval_server(**serve_overrides):
    """A started server + client over a service with one registered
    model and a memory-backed artifact store."""
    settings = dict(store=StoreConfig())
    settings.update(serve_overrides)
    service = AssertService(ServeConfig(**settings))
    service.register_model(MODEL_NAME, make_baseline(MODEL_NAME, seed=0))
    server = AssertHttpServer(service, HttpConfig(port=0))
    server.start()
    try:
        yield server, AssertClient.for_server(server)
    finally:
        server.close()


def raw_post(host, port, path, body):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def machine_cases(small_bundle):
    return small_bundle.sva_eval_machine


class TestEvalWire:
    def test_200_body_is_in_process_bytes(self, machine_cases):
        reference = run_eval(make_baseline(MODEL_NAME, seed=0),
                             machine_cases, config=CONFIG,
                             store=MemoryStore())
        with eval_server() as (server, _):
            request = EvalRequest(MODEL_NAME, machine_cases, config=CONFIG)
            status, body = raw_post(*server.address, "/v1/eval",
                                    eval_request_to_json(request)
                                    .encode("utf-8"))
        assert status == 200
        assert body == reference.to_json().encode("utf-8")

    def test_client_report_round_trips_wire_bytes(self, machine_cases):
        with eval_server() as (_, client):
            report = client.eval(
                EvalRequest(MODEL_NAME, machine_cases, config=CONFIG))
            again = client.eval(
                EvalRequest(MODEL_NAME, machine_cases, config=CONFIG))
        assert again.to_json() == report.to_json()
        assert report.model_name == MODEL_NAME

    def test_repeat_request_hits_backend_memo(self, machine_cases):
        with eval_server() as (server, client):
            request = EvalRequest(MODEL_NAME, machine_cases, config=CONFIG)
            client.eval(request)
            client.eval(
                EvalRequest(MODEL_NAME, machine_cases, config=CONFIG))
            stats = server.service.stats().to_dict()
        assert stats["evals"] == 2
        assert stats["eval_memo_hits"] == len(machine_cases)

    def test_unknown_model_maps_to_404(self, machine_cases):
        with eval_server() as (_, client):
            with pytest.raises(EvalFailed) as excinfo:
                client.eval(EvalRequest("GPT-17", machine_cases,
                                        config=CONFIG))
        assert excinfo.value.code == 404
        assert excinfo.value.status == "unknown_model"
        assert "GPT-17" in excinfo.value.detail

    def test_unknown_model_envelope_shape(self, machine_cases):
        with eval_server() as (server, _):
            request = EvalRequest("GPT-17", machine_cases, config=CONFIG)
            status, body = raw_post(*server.address, "/v1/eval",
                                    eval_request_to_json(request)
                                    .encode("utf-8"))
        assert status == 404
        payload = json.loads(body)
        assert sorted(payload) == ["code", "detail", "status"]
        assert payload["status"] == "unknown_model"
        assert payload["code"] == 404

    @pytest.mark.parametrize("body", [
        b"not json",
        b'{"bogus": 1}',
        b'{"model": "GPT-4", "cases": []}',
        b'{"model": "", "cases": [], "config": {}}',
        b'{"model": "GPT-4", "cases": [], "config": {"n_samples": 0}}',
    ])
    def test_malformed_request_maps_to_400(self, body):
        with eval_server() as (server, _):
            status, data = raw_post(*server.address, "/v1/eval", body)
        assert status == 400
        payload = json.loads(data)
        assert sorted(payload) == ["code", "detail", "status"]
        assert payload["status"] == "error"

    def test_request_codec_round_trip(self, machine_cases):
        request = EvalRequest(MODEL_NAME, machine_cases, config=CONFIG,
                              request_id="req-1")
        restored = eval_request_from_json(eval_request_to_json(request))
        assert restored.model == request.model
        assert restored.request_id == "req-1"
        assert restored.config == request.config
        assert restored.cache_key() == request.cache_key()


class TestEvalResponseWire:
    def test_ok_maps_to_report_bytes(self, machine_cases):
        report = run_eval(make_baseline(MODEL_NAME, seed=0),
                          machine_cases, config=CONFIG)
        code, body = KINDS["eval"].wire(
            EvalResponse("ok", "key", report=report))
        assert code == 200
        assert body == report.to_json().encode("utf-8")

    @pytest.mark.parametrize("status", ["unknown_model", "timeout",
                                        "cancelled"])
    def test_failures_carry_status_tag(self, status):
        code, body = KINDS["eval"].wire(
            EvalResponse(status, "key", error="boom"))
        assert code == KINDS["eval"].http_codes[status]
        assert body == error_body(code, "boom", status=status)
        payload = json.loads(body)
        assert payload["status"] == status
        assert payload["detail"] == "boom"


class TestRouterAffinity:
    def test_identical_eval_requests_stick_to_one_backend(self,
                                                          machine_cases):
        backends = []
        for _ in range(3):
            service = AssertService(ServeConfig(store=StoreConfig()))
            service.register_model(MODEL_NAME,
                                   make_baseline(MODEL_NAME, seed=0))
            backends.append(AssertHttpServer(service, HttpConfig(port=0)))
        router = FleetRouter(
            backends, RouterConfig(port=0), manage_backends=True,
            node_names=[f"backend-{i}" for i in range(3)])
        router.start()
        try:
            client = AssertClient(port=router.port)
            request_json = eval_request_to_json(
                EvalRequest(MODEL_NAME, machine_cases, config=CONFIG))
            bodies = set()
            for _ in range(3):
                report = client.eval(
                    EvalRequest(MODEL_NAME, machine_cases, config=CONFIG))
                bodies.add(report.to_json())
            assert len(bodies) == 1
            counts = [b.service.stats().to_dict()["evals"]
                      for b in backends]
            assert sorted(counts) == [0, 0, 3]
            hits = sum(b.service.stats().to_dict()["eval_memo_hits"]
                       for b in backends)
            assert hits == 2 * len(machine_cases)
            # And the routed bytes match a direct hit on that backend.
            owner = backends[counts.index(3)]
            direct_status, direct_body = raw_post(
                *owner.address, "/v1/eval", request_json.encode("utf-8"))
            routed_status, routed_body = raw_post(
                "127.0.0.1", router.port, "/v1/eval",
                request_json.encode("utf-8"))
            assert direct_status == routed_status == 200
            assert direct_body == routed_body
            assert routed_body.decode("utf-8") == bodies.pop()
        finally:
            router.close()

    def test_router_maps_unknown_model_envelope(self, machine_cases):
        service = AssertService(ServeConfig(store=StoreConfig()))
        router = FleetRouter(
            [AssertHttpServer(service, HttpConfig(port=0))],
            RouterConfig(port=0), manage_backends=True,
            node_names=["backend-0"])
        router.start()
        try:
            client = AssertClient(port=router.port)
            with pytest.raises(EvalFailed) as excinfo:
                client.eval(EvalRequest("GPT-17", machine_cases,
                                        config=CONFIG))
        finally:
            router.close()
        assert excinfo.value.code == 404
        assert excinfo.value.status == "unknown_model"
