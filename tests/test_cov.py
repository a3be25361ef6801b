"""Coverage & assertion-quality telemetry.

The contract under test, layer by layer:

- **Tier identity** — a :class:`CoverageSink` fed by the interpreter and
  one fed by a compiled program emit *byte-identical* reports, over
  every corpus family, on golden and bug-injected designs, for both
  ``bounded_check`` and ``bounded_check_batch``.
- **Purity** — coverage is an execution knob: it never changes verdicts,
  response proposals, content keys or bundle fingerprints, and
  coverage-off responses serialize to exactly the pre-coverage bytes.
- **Semantics** — toggle counting is known-bits-only and never spans
  stimulus boundaries; block "fired" means a target signal changed;
  vacuous implication passes are counted apart from real ones.
- **Aggregation** — reports merge (counts add, covered bits max),
  worker-pool runs land in ``bundle.stats["coverage"]``, ``/covz``
  retains per-design reports with bounded LRU eviction, and the fleet
  router's merge counts every backend's report exactly once.
"""

from __future__ import annotations

import json
import random

import pytest
from tiers import TIERS, on_tier

from repro import cov
from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.engine.rng import derive_rng
from repro.obs import metrics as obs_metrics
from repro.oracles.sva import SvaOracle
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    ServeConfig,
    SolveOptions,
    SolveRequest,
)
from repro.serve.service import SolveResponse
from repro.sim.values import FourState
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.verilog.compile import compile_source

FAMILIES = sorted(TEMPLATE_FAMILIES)

FAST_BMC = dict(depth=6, random_trials=4)


def _bmc(coverage: bool = True) -> BmcConfig:
    return BmcConfig(coverage=coverage, **FAST_BMC)


def _on_tiers(check, design):
    """The coverage reports of ``check`` on each tier, dumped."""
    reports = []
    for tier in TIERS:
        with on_tier(tier):
            reports.append(_dump(check(design, _bmc()).coverage))
    return reports


def _dump(report) -> str:
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module", params=FAMILIES)
def family_design(request):
    """One asserted design per corpus family: the golden source, the
    oracle's SVA blocks that compile into it (the proposals
    ``validate_svas`` would keep) and the combined design."""
    seed = CorpusGenerator(seed=77).generate_one(family=request.param)
    oracle = SvaOracle(derive_rng(77, "test_cov", request.param))
    blocks = [block for proposal in oracle.propose(seed)
              if compile_with_sva(seed.source, proposal.blocks()).ok
              for block in proposal.blocks()]
    result = compile_with_sva(seed.source, blocks)
    assert result.ok, result.failure_summary()
    assert result.design.assertions, request.param
    return request.param, seed, result.design, blocks


# -- tier identity -------------------------------------------------------------


class TestTierIdentity:
    def test_bounded_check_coverage_byte_identical(self, family_design):
        family, seed, design, _ = family_design
        compiled, interp = _on_tiers(bounded_check, design)
        assert compiled != "null" or not design.assertions
        assert compiled == interp, family

    def test_bounded_check_batch_coverage_byte_identical(self, family_design):
        family, seed, design, _ = family_design
        compiled, interp = _on_tiers(bounded_check_batch, design)
        assert compiled == interp, family

    def test_mutated_design_coverage_identical(self, family_design):
        """Bug-injected designs (FAIL verdicts, early exits) must agree
        too — early termination points are tier-identical by contract."""
        family, seed, design, blocks = family_design
        record = BugInjector(random.Random(5)).inject(seed.source, seed.name)
        assert record is not None, f"no mutation applies to {family}"
        buggy = compile_with_sva(record.buggy_source, blocks)
        assert buggy.ok, (family, buggy.failure_summary())
        assert buggy.design.assertions, family
        compiled, interp = _on_tiers(bounded_check, buggy.design)
        assert compiled == interp, family
        compiled, interp = _on_tiers(bounded_check_batch, buggy.design)
        assert compiled == interp, family

    def test_coverage_never_changes_verdicts(self, family_design):
        family, seed, design, _ = family_design
        plain = bounded_check(design, _bmc(coverage=False))
        covered = bounded_check(design, _bmc(coverage=True))
        assert plain.coverage is None
        assert (plain.failed, plain.stimuli_tried, plain.sim_error) == \
            (covered.failed, covered.stimuli_tried, covered.sim_error), family


# -- sink semantics ------------------------------------------------------------


def _sink_for(source: str):
    compiled = compile_source(source)
    assert compiled.ok, compiled.failure_summary()
    return cov.CoverageSink.for_design(compiled.design), compiled.design


TOGGLE_SOURCE = """
module tiny (
  input clk,
  input rst_n,
  input [3:0] d,
  output reg [3:0] q
);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= d;
  end
endmodule
"""


class TestSinkSemantics:
    def test_toggles_count_rise_and_fall_separately(self):
        sink, design = _sink_for(TOGGLE_SOURCE)
        env = {name: FourState(design.symbols[name].width)
               for name in design.symbols}
        snapshots = [env,
                     dict(env, q=FourState(4, 0b0101)),   # two rises on q
                     dict(env, q=FourState(4, 0b0100))]   # one fall on q
        sink.begin_run(snapshots)
        report = sink.report()
        q = report["signals"]["q"]
        assert q["rise_bits"] == 2
        assert q["fall_bits"] == 1
        assert q["covered_bits"] == 1  # only bit 0 rose AND fell
        assert report["toggle_events"] == 3

    def test_unknown_bits_never_toggle(self):
        sink, design = _sink_for(TOGGLE_SOURCE)
        env = {name: FourState(design.symbols[name].width)
               for name in design.symbols}
        # q goes 0 -> X: no known transition on any bit.
        sink.begin_run([env, dict(env, q=FourState(4, 0, 0b1111))])
        assert sink.report()["toggle_events"] == 0

    def test_toggles_never_span_runs(self):
        sink, design = _sink_for(TOGGLE_SOURCE)
        zeros = {name: FourState(design.symbols[name].width)
                 for name in design.symbols}
        ones = dict(zeros, q=FourState(4, 0b1111))
        sink.begin_run([ones])
        sink.begin_run([zeros])  # first snapshot of a new run: no toggle
        report = sink.report()
        assert report["toggle_events"] == 0
        assert report["runs"] == 2
        assert report["cycles"] == 2

    def test_block_fires_on_target_change(self):
        sink, design = _sink_for(TOGGLE_SOURCE)
        env = {name: FourState(design.symbols[name].width)
               for name in design.symbols}
        snapshots = [env, dict(env)]  # nothing changed: no fire
        sink.begin_run(snapshots)
        assert sink.report()["blocks"] == {"seq[0]": 0}
        # The run keeps growing after a mid-run report: the sink resumes
        # from the last processed snapshot.
        snapshots.append(dict(env, q=FourState(4, 1)))
        report = sink.report()
        assert report["blocks"] == {"seq[0]": 1}
        assert report["blocks_fired"] == 1
        assert report["block_pct"] == 1.0

    def test_report_keys_are_sorted_for_byte_identity(self, family_design):
        family, seed, design, _ = family_design
        report = bounded_check(design, _bmc()).coverage
        assert report is not None, f"{family} produced no assertions"
        assert json.dumps(report) == json.dumps(report, sort_keys=True)


# -- vacuity -------------------------------------------------------------------

#: The consequent only matters when the antecedent fired; driving req=0
#: makes every pass vacuous.
VACUOUS_SOURCE = """
module vac (
  input clk,
  input rst_n,
  input req,
  output reg ack
);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) ack <= 1'b0;
    else ack <= req;
  end
  property req_ack;
    @(posedge clk) disable iff (!rst_n) req |-> ##1 ack;
  endproperty
  req_ack_assertion: assert property (req_ack) else $error("no ack");
endmodule
"""


class TestVacuity:
    def test_quality_counters_split_real_and_vacuous(self):
        design = compile_source(VACUOUS_SOURCE).design
        result = bounded_check(design, _bmc())
        counters = result.coverage["assertions"]["req_ack_assertion"]
        assert counters["fails"] == 0
        assert counters["vacuous"] > 0          # req=0 cycles
        assert counters["real_passes"] > 0      # req=1 cycles
        assert counters["activations"] == counters["real_passes"]

    def test_quality_identical_across_tiers_and_drivers(self):
        design = compile_source(VACUOUS_SOURCE).design
        reports = (_on_tiers(bounded_check, design)
                   + _on_tiers(bounded_check_batch, design))
        quality = [json.loads(r)["assertions"] for r in reports]
        assert all(q == quality[0] for q in quality)

    def test_failing_assertion_counts_fails(self, accu_buggy_source):
        design = compile_source(accu_buggy_source).design
        result = bounded_check(design, BmcConfig(depth=8, random_trials=8,
                                                 coverage=True))
        assert result.failed
        counters = result.coverage["assertions"]["valid_out_check_assertion"]
        assert counters["fails"] >= 1


# -- merging and retention -----------------------------------------------------


class TestMerge:
    def test_counts_add_and_bits_max(self):
        design = compile_source(VACUOUS_SOURCE).design
        a = bounded_check(design, _bmc()).coverage
        assert a["cycles"] > 0
        merged = cov.merge_reports([a, a])
        assert merged["cycles"] == 2 * a["cycles"]
        assert merged["runs"] == 2 * a["runs"]
        assert merged["toggle_events"] == 2 * a["toggle_events"]
        for name, stats in merged["signals"].items():
            assert stats["covered_bits"] == a["signals"][name]["covered_bits"]
        assert merged["toggle_pct"] == a["toggle_pct"]

    def test_empty_and_single(self):
        assert cov.merge_reports([]) == {}
        sink, _ = _sink_for(TOGGLE_SOURCE)
        report = sink.report()
        assert cov.merge_reports([report]) == report

    def test_buffer_lru_eviction_and_limit(self):
        buffer = cov.CoverageBuffer(max_designs=2)
        for name in ("a", "b", "c"):
            sink, _ = _sink_for(TOGGLE_SOURCE)
            report = sink.report()
            report["design"] = name
            buffer.record(report)
        snap = buffer.snapshot()
        assert [d["design"] for d in snap["designs"]] == ["c", "b"]
        assert snap["dropped"] == 1
        assert snap["recorded"] == 3
        assert len(buffer.snapshot(limit=1)["designs"]) == 1
        buffer.clear()
        assert buffer.snapshot()["retained"] == 0

    def test_buffer_merges_repeat_designs(self):
        buffer = cov.CoverageBuffer()
        sink, _ = _sink_for(TOGGLE_SOURCE)
        report = sink.report()
        report["cycles"] = 5
        buffer.record(report)
        buffer.record(dict(report))
        snap = buffer.snapshot()
        assert snap["retained"] == 1
        assert snap["designs"][0]["cycles"] == 10

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            cov.CoverageBuffer(max_designs=0)

    def test_merge_covz_payloads_counts_once(self):
        sink, _ = _sink_for(TOGGLE_SOURCE)
        report = sink.report()
        report["cycles"] = 7
        one = {"designs": [report], "recorded": 1, "dropped": 0,
               "retained": 1}
        other = {"designs": [dict(report)], "recorded": 2, "dropped": 1,
                 "retained": 1}
        merged = cov.merge_covz_payloads([one, other])
        assert merged["recorded"] == 3
        assert merged["dropped"] == 1
        assert merged["retained"] == 1
        assert merged["designs"][0]["cycles"] == 14


# -- pipeline aggregation ------------------------------------------------------


class TestPipelineAggregation:
    COMMON = dict(n_designs=4, bugs_per_design=2, seed=41,
                  bmc_depth=6, bmc_random_trials=6)

    def test_stats_carry_coverage_and_digest_is_unchanged(self):
        off = run_pipeline(DatagenConfig(**self.COMMON))
        on = run_pipeline(DatagenConfig(coverage=True, **self.COMMON))
        assert on.fingerprint() == off.fingerprint()
        assert "coverage" in on.stats
        assert on.stats["coverage"]["reports_total"] > 0
        assert on.stats["coverage"]["toggles_total"] > 0
        assert on.stats["coverage"]["vacuous_total"] >= 0
        # Off-runs report zero collection activity for the run itself.
        assert off.stats["coverage"]["reports_total"] == 0

    def test_process_pool_totals_match_serial(self):
        serial = run_pipeline(DatagenConfig(coverage=True, **self.COMMON))
        pooled = run_pipeline(DatagenConfig(coverage=True, n_workers=2,
                                            backend="process", **self.COMMON))
        assert pooled.fingerprint() == serial.fingerprint()
        assert pooled.stats["coverage"] == serial.stats["coverage"]


# -- serve layer ---------------------------------------------------------------


def _serve_config(**overrides) -> ServeConfig:
    config = dict(n_workers=1, backend="serial", result_cache=False)
    config.update(overrides)
    return ServeConfig(**config)


class TestServeCoverage:
    @pytest.fixture(scope="class")
    def corpus(self):
        generator = CorpusGenerator(seed=19)
        return [generator.generate_one(family=f)
                for f in ("counter", "alu", "handshake")]

    def _solve_all(self, config, seeds):
        with AssertService(config) as service:
            return [service.solve(SolveRequest(
                s.source, SolveOptions.for_design(s, bmc_depth=6,
                                                  bmc_random_trials=6)))
                    for s in seeds]

    def test_coverage_off_bytes_unchanged(self, corpus):
        off = self._solve_all(_serve_config(), corpus)
        on = self._solve_all(_serve_config(coverage=True), corpus)
        for r_off, r_on in zip(off, on):
            assert "coverage" not in json.loads(r_off.to_json())
            stripped = json.loads(r_on.to_json())
            stripped.pop("coverage", None)
            assert json.dumps(stripped, sort_keys=True) == r_off.to_json()

    def test_coverage_identical_across_sim_modes(self, corpus):
        compiled = self._solve_all(_serve_config(coverage=True), corpus)
        with on_tier("interp"):
            interp = self._solve_all(_serve_config(coverage=True), corpus)
        assert [r.to_json() for r in compiled] == \
            [r.to_json() for r in interp]

    def test_vacuity_penalized_scores_bounded_by_score(self, corpus):
        for response in self._solve_all(_serve_config(coverage=True), corpus):
            scores = response.coverage["scores"]
            structural = {p.name: p.score for p in response.proposals}
            assert set(scores) == set(structural)
            for name, value in scores.items():
                assert 0.0 <= value <= structural[name]

    def test_response_codec_roundtrips_coverage(self):
        from repro.serve.codecs import response_from_json

        response = SolveResponse("ok", "k" * 8, coverage={"report": {},
                                                          "scores": {}})
        parsed = response_from_json(response.to_json())
        assert parsed.to_json() == response.to_json()
        plain = SolveResponse("ok", "k" * 8)
        assert response_from_json(plain.to_json()).coverage is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(coverage="yes")
        with pytest.raises(ValueError):
            DatagenConfig(coverage=1)


class TestHttpCovz:
    @pytest.fixture(scope="class")
    def server(self):
        with AssertHttpServer(
                AssertService(_serve_config(coverage=True))) as server:
            seed = CorpusGenerator(seed=23).generate_one(family="counter")
            client = AssertClient.for_server(server)
            client.solve(SolveRequest(
                seed.source, SolveOptions.for_design(
                    seed, bmc_depth=6, bmc_random_trials=6)))
            yield server

    def test_covz_retains_solved_designs(self, server):
        payload = AssertClient.for_server(server).covz()
        assert payload["retained"] == 1
        assert payload["recorded"] >= 1
        report = payload["designs"][0]
        assert report["cycles"] > 0
        assert 0.0 <= report["toggle_pct"] <= 1.0

    def test_covz_limit_param(self, server):
        client = AssertClient.for_server(server)
        assert client.covz(limit=0)["designs"] == []
        assert len(client.covz(limit=5)["designs"]) == 1

    def test_tracez_limit_params(self, server):
        payload = AssertClient.for_server(server).tracez(limit=0, slowest=0)
        assert payload["recent"] == []
        assert payload["slowest"] == []

    def test_bad_query_param_is_400(self, server):
        client = AssertClient.for_server(server)
        status, _, data = client._request("GET", "/covz?limit=nope")
        assert status == 400
        assert "limit" in data.decode("utf-8")
        status, _, _ = client._request("GET", "/tracez?slowest=-1")
        assert status == 400

    def test_metricsz_exposes_coverage_counters(self, server):
        parsed = obs_metrics.parse_prometheus_text(
            AssertClient.for_server(server).metricsz())
        assert parsed.value("repro_coverage_reports_total") >= 1
        assert parsed.value("repro_coverage_toggles_total") > 0


class TestFleetCovz:
    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.core.api import make_fleet

        router = make_fleet(3, _serve_config(coverage=True))
        with router:
            generator = CorpusGenerator(seed=29)
            client = AssertClient(host=router.address[0], port=router.port)
            responses = [client.solve(SolveRequest(
                s.source, SolveOptions.for_design(
                    s, bmc_depth=6, bmc_random_trials=6)))
                for s in (generator.generate_one(family=f)
                          for f in ("counter", "alu", "shift_register"))]
            yield router, client, responses

    def test_covz_merges_without_double_count(self, fleet):
        router, client, responses = fleet
        payload = client.covz()
        assert payload["backends_reached"] == 3
        assert payload["recorded"] == len(responses)
        want = sum(r.coverage["report"]["toggle_events"] for r in responses)
        got = sum(d["toggle_events"] for d in payload["designs"])
        assert got == want

    def test_router_covz_is_the_merge_of_its_backends(self, fleet):
        # The router solves nothing, so its /covz is exactly the merge
        # of its backends' payloads, in ring-slot order.
        router, client, _ = fleet
        merged = cov.merge_covz_payloads(
            [json.loads(json.dumps(server.service.covz()))
             for server in router.backends])
        merged["backends_reached"] = len(router.backends)
        assert client.covz() == merged

    def test_router_metricsz_counts_ejections_once(self, fleet):
        router, client, _ = fleet
        # The fleet exposition merges every backend's text with the
        # router's registry: the router's own series must come out once.
        parsed = obs_metrics.parse_prometheus_text(client.metricsz())
        own = obs_metrics.parse_prometheus_text(router.metrics.render())
        for name in ("repro_router_ejections_total",
                     "repro_router_readmissions_total"):
            assert own.value(name) is not None
            assert parsed.value(name) == own.value(name)

    def test_router_forwards_limit_on_fan_out(self, fleet):
        router, client, _ = fleet
        assert client.covz(limit=0)["designs"] == []
        assert len(client.covz(limit=1)["designs"]) == 1
