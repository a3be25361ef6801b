"""Differential fuzz: the compiled tier vs the AST interpreter.

The interpreter is the reference oracle (reached through
:func:`repro.sva.reference.reference_tier`), so every observable
artifact — traces, BMC verdicts, dataset bundle fingerprints, serve
responses — must be byte-identical between the two tiers.  This suite
checks that contract over *every* corpus template family, on golden and
mutated designs, serially and across a process pool, and that the
lowering is total: inputs the frontend accepts never escape as an
exception, however hostile.
"""

from __future__ import annotations

import random

import pytest
from tiers import TIERS, on_tier

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.engine.rng import derive_rng
from repro.oracles.sva import SvaOracle
from repro.serve import AssertService, ServeConfig, SolveOptions, SolveRequest
from repro.sim import compiled as compiled_mod
from repro.sim.compiled import CompiledSimulator, make_simulator
from repro.sim.simulator import Simulator
from repro.sim.stimulus import reset_sequence, toggle_sequence
from repro.sva import bmc, monitor
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.sva.monitor import _prop_program as monitor_prop_program
from repro.sva.reference import reference_tier
from repro.verilog.compile import compile_source
from repro.verilog.parser import MAX_NESTING

FAMILIES = sorted(TEMPLATE_FAMILIES)

#: Small search budget: verdict equivalence is the point, not coverage.
FAST_BMC = dict(depth=6, random_trials=4)


def _verdicts(check, design, key):
    """``key`` of ``check``'s result on each tier."""
    results = []
    for tier in TIERS:
        with on_tier(tier):
            results.append(key(check(design, BmcConfig(**FAST_BMC))))
    return results


@pytest.fixture(scope="module", params=FAMILIES)
def family_design(request):
    """One asserted design per corpus family: the golden source, the
    oracle's SVA blocks that compile into it (the proposals
    ``validate_svas`` would keep) and the combined design."""
    seed = CorpusGenerator(seed=77).generate_one(family=request.param)
    oracle = SvaOracle(derive_rng(77, "test_compiled", request.param))
    blocks = [block for proposal in oracle.propose(seed)
              if compile_with_sva(seed.source, proposal.blocks()).ok
              for block in proposal.blocks()]
    result = compile_with_sva(seed.source, blocks)
    assert result.ok, result.failure_summary()
    assert result.design.assertions, request.param
    return request.param, seed, result.design, blocks


class TestTraceEquivalence:
    def test_traces_identical(self, family_design):
        family, seed, design, _ = family_design
        sim_c = make_simulator(design)
        sim_i = Simulator(design)
        for stimulus in (toggle_sequence(design, 12, 0, 2),
                         toggle_sequence(design, 12, 1, 2),
                         reset_sequence(design, 12, random.Random(3), 2)):
            tc = sim_c.run(stimulus)
            ti = sim_i.run(stimulus)
            assert tc.signal_names == ti.signal_names, family
            assert tc.snapshots == ti.snapshots, family
            assert tc.inputs_applied == ti.inputs_applied, family


def _check_key(result):
    return (result.failed, result.stimuli_tried, result.sim_error,
            [f.log_line() for f in result.failures])


def _batch_key(result):
    return (result.failed_labels, result.error_labels,
            result.stimuli_tried, result.design_error)


class TestVerdictEquivalence:
    def test_bounded_check_identical(self, family_design):
        family, seed, design, _ = family_design
        compiled, interp = _verdicts(bounded_check, design, _check_key)
        assert compiled == interp, family

    def test_bounded_check_batch_identical(self, family_design):
        family, seed, design, _ = family_design
        compiled, interp = _verdicts(bounded_check_batch, design, _batch_key)
        assert compiled == interp, family

    def test_mutated_design_verdicts_identical(self, family_design):
        """Injected bugs produce counterexamples: FAIL verdicts must agree
        (including the failing cycle embedded in every log line)."""
        family, seed, design, blocks = family_design
        record = BugInjector(random.Random(5)).inject(seed.source, seed.name)
        assert record is not None, f"no mutation applies to {family}"
        buggy = compile_with_sva(record.buggy_source, blocks)
        assert buggy.ok, (family, buggy.failure_summary())
        assert buggy.design.assertions, family
        compiled, interp = _verdicts(bounded_check, buggy.design, _check_key)
        assert compiled == interp, family
        compiled, interp = _verdicts(bounded_check_batch, buggy.design,
                                     _batch_key)
        assert compiled == interp, family


class TestPipelineFingerprint:
    COMMON = dict(n_designs=6, bugs_per_design=2, seed=31,
                  bmc_depth=6, bmc_random_trials=6)

    def test_bundle_fingerprint_identical_serial(self):
        with on_tier("interp"):
            interp = run_pipeline(DatagenConfig(**self.COMMON))
        compiled = run_pipeline(DatagenConfig(**self.COMMON))
        assert interp.fingerprint() == compiled.fingerprint()

    def test_bundle_fingerprint_identical_process_pool(self):
        serial = run_pipeline(DatagenConfig(**self.COMMON))
        pooled = run_pipeline(DatagenConfig(n_workers=2, backend="process",
                                            **self.COMMON))
        assert serial.fingerprint() == pooled.fingerprint()


class TestServeEquivalence:
    def test_responses_byte_identical_across_modes(self):
        seeds = CorpusGenerator(seed=13).generate(3)
        requests = [SolveRequest(s.source,
                                 SolveOptions.for_design(
                                     s, bmc_depth=6, bmc_random_trials=6))
                    for s in seeds]
        bodies = {}
        for tier in TIERS:
            config = ServeConfig(result_cache=False)
            with on_tier(tier), AssertService(config) as service:
                futures = [service.submit(r) for r in requests]
                bodies[tier] = [f.result(timeout=120).to_json()
                                for f in futures]
        assert bodies["compiled"] == bodies["interp"]


def _module(body: str) -> str:
    return ("module m (input clk, input rst_n, input a, input [3:0] b);\n"
            "  reg q; wire y;\n"
            f"  {body}\n"
            "endmodule\n")


#: Constructs that crashed a whole batch before the lowering was total.
TERNARIES_250 = _module("assign y = " + "a ? " * 250 + "a" + " : a" * 250
                        + ";")
SUM_600 = _module("assign y = " + " + ".join(["a"] * 600) + ";")
ARGUMENTLESS = ("$rose()", "$past()", "$countones() == 0")


class TestTotality:
    """Whatever the frontend accepts, both tiers run; whatever it rejects
    is a structured answer.  No input escapes as an exception."""

    def test_hostile_batchmates_leave_an_ordinary_request_alone(
            self, accu_source):
        hints = tuple((f"hostile_{i}", consequent, None, 0, "")
                      for i, consequent in enumerate(ARGUMENTLESS))
        hostile = [SolveRequest(accu_source, SolveOptions(hints=hints)),
                   SolveRequest(TERNARIES_250), SolveRequest(SUM_600)]
        ordinary = SolveRequest(accu_source)
        config = ServeConfig(result_cache=False, batch_window_ms=500.0)
        with AssertService(config) as service:
            alone = service.submit(ordinary).result(timeout=120)
        with AssertService(config) as service:
            futures = [service.submit(r) for r in hostile + [ordinary]]
            responses = [f.result(timeout=120) for f in futures]
            assert service.stats().batches == 1
        *answers, batched = responses
        assert batched.to_json() == alone.to_json()
        assert batched.status == "ok" and batched.proposals
        hinted, ternaries, sums = answers
        assert (hinted.status, hinted.proposals, hinted.rejected) == \
            ("ok", (), len(ARGUMENTLESS))
        for response in (ternaries, sums):
            assert response.status == "compile_error"
            assert "nesting deeper than" in response.error

    @pytest.mark.parametrize("call", ARGUMENTLESS + ("$onehot()",
                                                     "$signed()"))
    def test_argumentless_system_functions_do_not_compile(self, call):
        for text in (f"assert property (@(posedge clk) a |-> {call});",
                     f"assign y = {call};", f"wire w = {call};"):
            result = compile_source(_module(text), use_cache=False)
            assert [(d.line, d.message) for d in result.errors()] == [
                (3, f"system function {call.split('(')[0]} needs an "
                    f"argument")], text

    @pytest.mark.parametrize("target", ["P", "P[0]", "{q, P}"])
    def test_assignments_to_parameters_do_not_compile(self, target):
        source = _module(f"parameter P = 1;\n  always @(posedge clk) "
                         f"{target} <= 1'b1;")
        result = compile_source(source, use_cache=False)
        assert [d.message for d in result.errors()] == \
            ["assignment to parameter 'P'"]

    def test_deepest_accepted_nesting_runs_on_both_tiers(self):
        """At the nesting bound the generated functions still compile
        (under Python's indentation limit) and agree with the
        interpreters, RTL and properties alike."""
        ifs = (MAX_NESTING - 4) // 2
        ternaries = MAX_NESTING - 4 - ifs
        pasts = MAX_NESTING - 5
        body = ("always @(posedge clk) " + "if (a) " * ifs + "q <= "
                + "b[0] ? " * ternaries + "a" + " : b[1]" * ternaries + ";\n"
                + "  deep_assertion: assert property (@(posedge clk) "
                + "$past(" * pasts + "q" + ")" * pasts + " == q);")
        result = compile_source(_module(body), use_cache=False)
        assert result.ok, result.failure_summary()
        design = result.design
        assert isinstance(make_simulator(design), CompiledSimulator)
        compiled, interp = _verdicts(bounded_check_batch, design, _batch_key)
        assert compiled == interp
        compiled, interp = _verdicts(bounded_check, design, _check_key)
        assert compiled == interp


class TestReferenceTier:
    def test_hook_runs_the_interpreters_and_restores_production(
            self, accu_source):
        design = compile_source(accu_source).design
        before = compiled_mod.sim_program_counters()
        with reference_tier():
            assert bmc.make_simulator is Simulator
            bounded_check_batch(design, BmcConfig(coverage=True, **FAST_BMC))
        after = compiled_mod.sim_program_counters()
        for key in ("programs_compiled", "program_cache_hits"):
            assert after[key] == before[key], key
        assert bmc.make_simulator is compiled_mod.make_simulator
        assert monitor._prop_program is monitor_prop_program
