"""Differential fuzz: the compiled tier vs the AST interpreter.

``sim_mode`` is a pure execution knob, so every observable artifact —
traces, BMC verdicts, dataset bundle fingerprints, serve responses —
must be byte-identical between the two tiers.  This suite checks that
contract over *every* corpus template family, on golden and mutated
designs, serially and across a process pool.
"""

from __future__ import annotations

import random

import pytest

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.engine.rng import derive_rng
from repro.oracles.sva import SvaOracle
from repro.serve import AssertService, ServeConfig, SolveOptions, SolveRequest
from repro.sim import compiled as compiled_mod
from repro.sim.compiled import (
    SIM_MODES,
    CompiledSimulator,
    UnsupportedDesign,
    make_simulator,
)
from repro.sim.simulator import Simulator
from repro.sim.stimulus import reset_sequence, toggle_sequence
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.verilog.compile import compile_source

FAMILIES = sorted(TEMPLATE_FAMILIES)

#: Small search budget: verdict equivalence is the point, not coverage.
FAST_BMC = dict(depth=6, random_trials=4)


def _bmc(sim_mode: str) -> BmcConfig:
    return BmcConfig(sim_mode=sim_mode, **FAST_BMC)


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
        sim_c = make_simulator(design, "compiled")
        sim_i = make_simulator(design, "interp")
        assert isinstance(sim_i, Simulator)
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
        assert _check_key(bounded_check(design, _bmc("compiled"))) == \
            _check_key(bounded_check(design, _bmc("interp"))), family

    def test_bounded_check_batch_identical(self, family_design):
        family, seed, design, _ = family_design
        assert _batch_key(bounded_check_batch(design, _bmc("compiled"))) == \
            _batch_key(bounded_check_batch(design, _bmc("interp"))), family

    def test_mutated_design_verdicts_identical(self, family_design):
        """Injected bugs produce counterexamples: FAIL verdicts must agree
        (including the failing cycle embedded in every log line)."""
        family, seed, design, blocks = family_design
        record = BugInjector(random.Random(5)).inject(seed.source, seed.name)
        assert record is not None, f"no mutation applies to {family}"
        buggy = compile_with_sva(record.buggy_source, blocks)
        assert buggy.ok, (family, buggy.failure_summary())
        assert buggy.design.assertions, family
        assert _check_key(bounded_check(buggy.design, _bmc("compiled"))) == \
            _check_key(bounded_check(buggy.design, _bmc("interp"))), family
        assert _batch_key(
            bounded_check_batch(buggy.design, _bmc("compiled"))) == \
            _batch_key(
                bounded_check_batch(buggy.design, _bmc("interp"))), family


class TestPipelineFingerprint:
    COMMON = dict(n_designs=6, bugs_per_design=2, seed=31,
                  bmc_depth=6, bmc_random_trials=6)

    def test_bundle_fingerprint_identical_serial(self):
        interp = run_pipeline(DatagenConfig(sim_mode="interp", **self.COMMON))
        compiled = run_pipeline(DatagenConfig(sim_mode="compiled",
                                              **self.COMMON))
        assert interp.fingerprint() == compiled.fingerprint()

    def test_bundle_fingerprint_identical_process_pool(self):
        serial = run_pipeline(DatagenConfig(sim_mode="compiled",
                                            **self.COMMON))
        pooled = run_pipeline(DatagenConfig(sim_mode="compiled", n_workers=2,
                                            backend="process", **self.COMMON))
        assert serial.fingerprint() == pooled.fingerprint()


class TestServeEquivalence:
    def test_responses_byte_identical_across_modes(self):
        seeds = CorpusGenerator(seed=13).generate(3)
        requests = [SolveRequest(s.source,
                                 SolveOptions.for_design(
                                     s, bmc_depth=6, bmc_random_trials=6))
                    for s in seeds]
        bodies = {}
        for mode in SIM_MODES:
            config = ServeConfig(sim_mode=mode, result_cache=False)
            with AssertService(config) as service:
                futures = [service.submit(r) for r in requests]
                bodies[mode] = [f.result(timeout=120).to_json()
                                for f in futures]
        assert bodies["compiled"] == bodies["interp"]


class TestFallback:
    def test_unsupported_design_falls_back_to_interpreter(self, monkeypatch):
        def refuse(design):
            raise UnsupportedDesign("forced by test")

        monkeypatch.setattr(compiled_mod, "compile_program", refuse)
        seed = CorpusGenerator(seed=9).generate_one()
        design = compile_source(seed.source).design
        simulator = make_simulator(design, "compiled")
        assert isinstance(simulator, Simulator)
        assert not isinstance(simulator, CompiledSimulator)
        # The knob itself is validated.
        with pytest.raises(ValueError):
            make_simulator(design, "jit")

    def test_modes_registry(self):
        assert set(SIM_MODES) == {"compiled", "interp"}
