#!/usr/bin/env python
"""Quickstart: the assertion service as a live HTTP endpoint.

``examples/quickstart_serve.py`` drives the in-process serving API;
this walkthrough puts the network edge in front of it — start a real
localhost server, round-trip a design through ``POST /v1/solve`` with
the stdlib client, cancel a request mid-flight, and read the operator
endpoints (``/healthz``, ``/metricsz``) — then shut down gracefully.

Everything is standard library: the same requests work from ``curl``::

    curl -s localhost:<port>/v1/solve -d '{"design_source": "..."}'
    curl -s localhost:<port>/metricsz      # Prometheus text

Run:  PYTHONPATH=src python examples/quickstart_http.py
"""

from repro import PipelineConfig
from repro.obs.metrics import parse_prometheus_text
from repro.serve import (
    AssertClient,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
)

RAW_DESIGN = """
module byte_gate (
  input clk,
  input rst_n,
  input [7:0] data,
  input en,
  output wire [7:0] gated,
  output wire any_bit
);
  assign gated = en ? data : 8'd0;
  assign any_bit = |gated;
endmodule
"""


def metricsz(client: AssertClient):
    """The server's ``/metricsz`` exposition, parsed."""
    return parse_prometheus_text(client.metricsz())


def main() -> None:
    # 1. One line from a batch reproduction setup to a network service:
    #    port=0 binds an ephemeral port, read it off the server.
    server = PipelineConfig(n_workers=4).serve_http(port=0, max_batch=16)
    with server:
        client = AssertClient.for_server(server)
        print(f"serving on {server.url}")
        print(f"healthz: {client.healthz()}")

        # 2. A full round trip: the response body on the wire is
        #    byte-identical to the in-process SolveResponse.to_json().
        response = client.solve(SolveRequest(RAW_DESIGN, SolveOptions()))
        print("\nscored proposals over HTTP:")
        for proposal in response.proposals:
            print(f"  {proposal.score:5.2f}  {proposal.name}  "
                  f"[{proposal.origin}]")

        # 3. Real traffic: a deterministic request stream with repeats,
        #    submitted concurrently through background handles — plus
        #    one more request queued behind them that we abandon.
        requests = build_workload(WorkloadSpec(n_requests=12,
                                               unique_designs=3, seed=7))
        handles = [client.submit(request) for request in requests]

        # 4. Client-initiated cancellation: while the service chews on
        #    the burst, DELETE /v1/solve/{id} drops the straggler from
        #    the queue; its pending POST resolves to 409/cancelled.
        doomed = client.submit(SolveRequest(
            RAW_DESIGN.replace("byte_gate", "byte_gate_v2"),
            SolveOptions()))
        while metricsz(client).value("repro_service_submitted_total") < 14:
            pass  # wait for the straggler's POST to land server-side
        cancelled = doomed.cancel()

        statuses = [handle.result(timeout=120).status for handle in handles]
        print(f"\n{len(statuses)} concurrent requests: "
              f"{statuses.count('ok')} ok")
        print(f"cancel() matched {cancelled} pending request(s); "
              f"status={doomed.result(timeout=10).status!r}")

        # 5. Malformed input maps to structured HTTP errors, not crashes:
        #    bad Verilog -> 422 with compiler diagnostics in the body.
        broken = client.solve("module oops (")
        print(f"malformed design -> status={broken.status!r}")

        # 6. The operator's view: saturation gauges (queue depth,
        #    inflight) next to the batching/cache/cancellation counters.
        parsed = metricsz(client)

        def value(name: str) -> int:
            return int(parsed.value(f"repro_service_{name}"))

        print(f"\n/metricsz: {value('submitted_total')} submitted, "
              f"{value('solved_total')} solved, "
              f"{value('deduped_total')} deduped, "
              f"{value('cache_hits_total')} cache hits, "
              f"{value('cancelled_total')} cancelled, "
              f"inflight {value('inflight')}, "
              f"queue {value('queue_depth')}/{value('queue_capacity')}")
    # 7. close() drained gracefully: accepted requests were answered
    #    before the socket was released.
    print("\nserver drained and closed ✓")


if __name__ == "__main__":
    main()
