#!/usr/bin/env python
"""Quickstart: scale the HTTP service out to a routed fleet.

``examples/quickstart_http.py`` runs one live server; this walkthrough
runs three behind a :class:`repro.serve.FleetRouter` — one ``with``
block brings up the whole fleet, a burst of repeat-heavy traffic shows
consistent-hash cache affinity at work (fleet-wide, each unique design
is solved about once), and the drain propagates router -> backends.

The router speaks the exact single-instance wire protocol, so the same
client — or ``curl`` — talks to a fleet without knowing it is one::

    curl -s localhost:<port>/v1/solve -d '{"design_source": "..."}'
    curl -s localhost:<port>/metricsz      # fleet-wide, Prometheus text

Run:  PYTHONPATH=src python examples/quickstart_fleet.py
"""

from repro import PipelineConfig
from repro.obs.metrics import parse_prometheus_text
from repro.serve import AssertClient, WorkloadSpec, build_workload


def metricsz(client: AssertClient):
    """A server's or the router's ``/metricsz`` exposition, parsed."""
    return parse_prometheus_text(client.metricsz())


def main() -> None:
    # 1. One line from a single server to a fleet: three identical
    #    backends (stable ring names backend-0..2, each on an ephemeral
    #    port) behind one router socket.
    router = PipelineConfig().serve_fleet(n_backends=3, max_batch=8)
    with router:
        client = AssertClient.for_server(router)
        print(f"fleet routing on {router.url}")
        print(f"healthz: {client.healthz()}")

        # 2. A repeat-heavy burst, submitted concurrently.  The ring
        #    hashes each request's content key, so every repeat of a
        #    design lands on the backend whose cache already holds it.
        requests = build_workload(WorkloadSpec(n_requests=24,
                                               unique_designs=6, seed=11))
        handles = [client.submit(request) for request in requests]
        statuses = [handle.result(timeout=300).status for handle in handles]
        print(f"\n{len(statuses)} routed requests: "
              f"{statuses.count('ok')} ok")

        # 3. Cache affinity, per backend: each backend solves only its
        #    share of the 6 unique designs; repeats of those keys come
        #    home to it and are served without recomputing — from its
        #    result cache, or deduped onto a solve already in flight.
        #    The router's /healthz names each backend's address, and
        #    each backend's own /metricsz has its numbers.
        fleet = metricsz(client)
        print("\nper-backend view:")
        for node, status in client.healthz()["nodes"].items():
            host, _, port = status["address"].rpartition(":")
            own = metricsz(AssertClient(host=host, port=int(port)))
            solved = int(own.value("repro_service_solved_total"))
            reused = int(own.value("repro_service_cache_hits_total")
                         + own.value("repro_service_deduped_total"))
            total = solved + reused
            rate = reused / total if total else 0.0
            forwarded = int(fleet.value(
                "repro_router_backend_forwarded_total", node=node))
            print(f"  {node} ({status['address']}): "
                  f"{forwarded} requests, {solved} solved, "
                  f"{reused} served without recompute "
                  f"({rate:.0%} reuse rate)")

        # 4. The router's /metricsz merges every backend's series (same
        #    name and labels sum): ~6 solves for 24 requests is the
        #    aggregate-cache win — one instance with the same
        #    per-instance cache would recompute evictions.
        def total(name: str) -> int:
            return int(fleet.value(name))

        print(f"\nfleet /metricsz: "
              f"{total('repro_service_submitted_total')} submitted, "
              f"{total('repro_service_solved_total')} solved fleet-wide, "
              f"{total('repro_service_cache_hits_total')} cache hits, "
              f"{total('repro_service_deduped_total')} deduped in flight")
        print(f"router counters: {total('repro_router_routed_total')} "
              f"routed, {total('repro_router_spillovers_total')} "
              f"spillovers, {total('repro_router_backends_healthy')}/"
              f"{total('repro_router_backends_total')} healthy")
    # 5. close() drained in order: the router stopped accepting,
    #    finished in-flight forwards, then drained each backend.
    print("\nfleet drained and closed ✓")


if __name__ == "__main__":
    main()
