#!/usr/bin/env python
"""Quickstart: serving assertion generation as an online service.

The batch pipeline (see ``examples/quickstart.py``) regenerates whole
datasets; this walkthrough drives the *serving* layer instead — submit
concurrent designs, read scored SVA proposals back, and inspect the
``ServiceStats`` counters that show micro-batching and result caching
at work.

Run:  PYTHONPATH=src python examples/quickstart_serve.py
"""

from repro.serve import (
    AssertService,
    ServeConfig,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
)

# A raw design with no metadata: the service mines candidate invariants
# from its structure and validates them with the bounded checker.
HINTLESS_DESIGN = """
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


def main() -> None:
    # 1. A deterministic stream of 16 requests over 4 unique corpus
    #    designs — repeats included, the shape real traffic has.  Each
    #    request carries the design's template hints for the oracle.
    requests = build_workload(WorkloadSpec(n_requests=16, unique_designs=4,
                                           seed=7))

    config = ServeConfig(
        n_workers=4,          # engine worker pool ("auto" clamps to CPUs)
        max_queue=64,         # beyond this, submit() raises ServiceOverloaded
        max_batch=16,         # flush when a batch gathers this many
        batch_window_ms=10,   # upper bound on a miss's wait: a batch
                              # stays open only while arrivals keep
                              # coming closer together than this, and
                              # flushes at once ("idle") when nothing
                              # more is due; a cache hit never waits,
                              # it resolves inside submit()
        result_cache=True)    # content-hash LRU over finished responses

    with AssertService(config) as service:
        # 2. Submit everything up front: in-flight requests coalesce
        #    into batches, duplicates are solved once per batch, and
        #    repeats of finished work come straight from the cache.
        futures = [service.submit(request) for request in requests]
        responses = [future.result(timeout=120) for future in futures]

        print("first response's scored proposals:")
        for proposal in responses[0].proposals:
            print(f"  {proposal.score:5.2f}  {proposal.name}  "
                  f"[{proposal.origin}]")

        # 3. A hint-less raw design: proposals are mined structurally,
        #    then validated exactly like oracle output.
        mined = service.solve(SolveRequest(HINTLESS_DESIGN, SolveOptions()))
        print("\nmined proposals for the raw design:")
        for proposal in mined.proposals:
            print(f"  {proposal.score:5.2f}  {proposal.name}  "
                  f"[{proposal.origin}]")

        # 4. Malformed input is a structured response, not a crash.
        broken = service.solve("module oops (")
        print(f"\nmalformed request -> status={broken.status!r}")

        # 5. The operator's view: queue, batches, dedup and cache wins.
        stats = service.stats()
        print(f"\nServiceStats: {stats.submitted} submitted, "
              f"{stats.solved} actually solved, "
              f"{stats.deduped} deduped in-batch, "
              f"{stats.cache_hits} cache hits "
              f"({stats.cache_hit_rate:.0%} hit rate), "
              f"mean batch {stats.mean_batch:.1f} "
              f"(size flushes: {stats.flush_size}, "
              f"timeout flushes: {stats.flush_timeout}, "
              f"idle flushes: {stats.flush_idle})")

    # 6. Identical requests produce byte-identical responses — that is
    #    what makes the result cache sound.
    repeat_key = requests[0].cache_key()
    twins = [r for req, r in zip(requests, responses)
             if req.cache_key() == repeat_key]
    assert all(t.to_json() == twins[0].to_json() for t in twins)
    print("\ndeterminism check: all repeat responses byte-identical ✓")


if __name__ == "__main__":
    main()
