"""The knob table: pinned bytes, roles that hold, parsers that never crash.

- Golden bytes, recorded before the config classes moved onto
  :mod:`repro.knobs`: the digests, canonical strings, content keys and
  request bodies derived from the knob table must not move, because
  request keys appear in response bodies and store keys must keep
  hitting.
- One walker over every config class: each field is a declared knob, and
  changing an ``execution`` knob leaves every derived key and the
  produced bytes (fingerprint, response, report, verdict) unchanged,
  while changing a ``semantic`` knob changes the keys that cover it.
- A property: arbitrary JSON values for every option and config key make
  the wire parsers return or raise ``ValueError``, nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import knobs
from repro.baselines.engine import make_baseline
from repro.core.api import PipelineConfig
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.eval import EvalConfig, run_eval
from repro.knobs import EXECUTION, REPORT, ROLES, SEMANTIC
from repro.serve import (
    AssertService,
    EvalRequest,
    HttpConfig,
    RouterConfig,
    ServeConfig,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
)
from repro.serve.codecs import (
    eval_request_from_json,
    eval_request_to_json,
    request_from_json,
    request_to_json,
)
from repro.store import StoreConfig
from repro.sva.bmc import BmcConfig, bounded_check
from repro.verilog.compile import compile_source

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

HINTS = (("h", "a == b", None, 0, "m"), ("g", "c", "d", 2, "n"))
FAMILIES = ("sync_fifo", "counter")
WEIGHTS = {"sync_fifo": 2.0, "counter": 0.5}


def roles_of(cls) -> dict:
    """``{field name: role}`` in declaration order."""
    return cls.__knobs__.roles


def small_eval_cases(bundle, n=2):
    return bundle.sva_eval_machine[:n]


# -- golden bytes --------------------------------------------------------------


class TestGoldenBytes:
    """Values recorded from the hand-written digests and codecs."""

    def test_default_digests(self):
        assert DatagenConfig().semantic_digest() == \
            "fb0a4b5093c418063d231d786a7accca0716c33c0bcde2194ef9d06f0778143a"
        assert EvalConfig().semantic_digest() == \
            "c62cd7c42efc575e950bad570e25fa9829f078e68b2436c613824a4cb0b2ecd6"

    def test_default_canonicals_and_cache_key(self):
        assert SolveOptions().canonical() == (
            '{"bmc_depth": 10, "bmc_random_trials": 24, '
            '"hallucination_rate": 0.0, "hints": [], "max_proposals": 8, '
            '"mine_hints": true}')
        assert EvalConfig().canonical() == (
            '{"k_values": [1, 5], "n_samples": 20, "seed": 123, '
            '"semantic_check": false}')
        assert PipelineConfig().cache_key() == \
            (80, 4, 2025, 20, True, True, None, None)

    def test_non_default_datagen_and_pipeline(self):
        config = DatagenConfig(
            n_designs=7, bugs_per_design=2, seed=5, break_rate=0.0,
            hallucination_rate=1, train_fraction=0.5, bmc_depth=6,
            bmc_random_trials=0, template_families=FAMILIES,
            family_weights=WEIGHTS, n_workers=3, coverage=True)
        assert config.semantic_digest() == \
            "ca15759b45959a3e662433b83d3406e67c6cce4dbea90259c2c4aaa1564ffd4b"
        pipeline = PipelineConfig(
            n_designs=9, bugs_per_design=2, seed=3, n_samples=4,
            include_human=False, include_baselines=False,
            template_families=FAMILIES, family_weights=WEIGHTS, n_workers=2)
        assert pipeline.cache_key() == (
            9, 2, 3, 4, False, False, ("sync_fifo", "counter"),
            (("counter", 0.5), ("sync_fifo", 2.0)))

    def test_non_default_eval_config(self):
        config = EvalConfig(n_samples=3, seed=0, k_values=(1, 2, 3),
                            semantic_check=True, deadline_ms=5.0)
        assert config.semantic_digest() == \
            "0c4270e2ac4454f68983c00d104ab87a05827729061914b89d339aa98ca2b0ed"
        assert config.canonical() == (
            '{"k_values": [1, 2, 3], "n_samples": 3, "seed": 0, '
            '"semantic_check": true}')

    def test_solve_options_keys_and_bodies(self):
        # ``0`` stays ``0`` (an int hallucination rate is not coerced).
        options = SolveOptions(hints=HINTS, mine_hints=False,
                               max_proposals=3, hallucination_rate=0,
                               bmc_depth=4, bmc_random_trials=0,
                               deadline_ms=100)
        assert options.canonical() == (
            '{"bmc_depth": 4, "bmc_random_trials": 0, '
            '"hallucination_rate": 0, "hints": [["h", "a == b", null, 0, '
            '"m"], ["g", "c", "d", 2, "n"]], "max_proposals": 3, '
            '"mine_hints": false}')
        request = SolveRequest("module m; endmodule", options,
                               request_id="r1")
        assert request.cache_key() == \
            "ec9546e1ae4977afb5c0fe5f6d243072eddcf26d1d558ed1c1562c4dbb128def"
        assert request_to_json(request) == (
            '{"design_source": "module m; endmodule", "options": '
            '{"bmc_depth": 4, "bmc_random_trials": 0, "deadline_ms": 100, '
            '"hallucination_rate": 0, "hints": [["h", "a == b", null, 0, '
            '"m"], ["g", "c", "d", 2, "n"]], "max_proposals": 3, '
            '"mine_hints": false}, "request_id": "r1"}')
        assert request_to_json(SolveRequest("module m; endmodule")) == (
            '{"design_source": "module m; endmodule", "options": '
            '{"bmc_depth": 10, "bmc_random_trials": 24, "deadline_ms": null, '
            '"hallucination_rate": 0.0, "hints": [], "max_proposals": 8, '
            '"mine_hints": true}, "request_id": ""}')

    @pytest.mark.parametrize("config,body_sha,key", [
        (EvalConfig(),
         "ac9aa25b1c6e2cf9eb6c838a9a6b1869e3e3818b239001a9e90b641dce54a6f3",
         "c072ff176f2230b4156c90a0f0ff69e81b29e0b38d7283d13bcdb2c0b4486848"),
        (EvalConfig(n_samples=3, seed=0, k_values=(1, 2, 3),
                    semantic_check=True, deadline_ms=5.0),
         "ad64f5c363f1e586f2ac1b0a651001681685c1fa827f7ceb46c2de9d5e2b43d0",
         "47aed4342df4e2373aaf66965c0a28df39fad9edbf919ca18856f6e4e66f167c"),
    ])
    def test_eval_request_bodies(self, small_bundle, config, body_sha, key):
        cases = small_eval_cases(small_bundle)
        body = eval_request_to_json(
            EvalRequest("GPT-4", cases, config, request_id="r1"))
        assert hashlib.sha256(body.encode()).hexdigest() == body_sha
        assert EvalRequest("GPT-4", cases, config).cache_key() == key


# -- the walker ----------------------------------------------------------------

#: Every config class built on the knob table.
CONFIG_CLASSES = (DatagenConfig, PipelineConfig, ServeConfig,
                  SolveOptions, EvalConfig, StoreConfig, HttpConfig,
                  RouterConfig, WorkloadSpec, BmcConfig)

#: One valid non-default value per knob.  A knob missing here fails
#: ``test_every_knob_has_an_alternative``: a new knob needs a role and
#: this walker's coverage before it ships.
ALTERNATIVES = {
    DatagenConfig: dict(
        n_designs=5, bugs_per_design=2, seed=9, break_rate=0.5,
        hallucination_rate=0.0, train_fraction=0.5, bmc_depth=6,
        bmc_random_trials=8, n_workers=2, backend="serial",
        coverage=True, template_families=FAMILIES,
        family_weights={"counter": 2.0}, store=StoreConfig(max_bytes=4096)),
    PipelineConfig: dict(
        n_designs=5, bugs_per_design=2, seed=9, n_samples=4,
        include_human=False, include_baselines=False, n_workers=2,
        backend="serial",
        template_families=FAMILIES, family_weights={"counter": 2.0},
        store=StoreConfig(max_bytes=4096)),
    ServeConfig: dict(
        n_workers=2, backend="serial", max_queue=8, max_batch=2,
        batch_window_ms=0.0, result_cache=False, cache_entries=4,
        coverage=True, seed=7,
        store=StoreConfig(max_bytes=4096)),
    SolveOptions: dict(hints=HINTS, mine_hints=False, max_proposals=2,
                       hallucination_rate=0.5, bmc_depth=4,
                       bmc_random_trials=2, deadline_ms=60_000.0),
    EvalConfig: dict(n_samples=3, seed=1, k_values=(1, 2),
                     semantic_check=True, deadline_ms=60_000.0),
    StoreConfig: dict(path="/nonexistent/store", max_bytes=1024),
    HttpConfig: dict(host="localhost", port=8080, max_body_bytes=64,
                     default_timeout_s=5.0, retry_after_s=2.0,
                     drain_grace_s=1.0),
    RouterConfig: dict(host="localhost", port=8080, max_body_bytes=64,
                       forward_timeout_s=5.0, probe_timeout_s=1.0,
                       health_interval_s=0.5, ring_replicas=8),
    WorkloadSpec: dict(n_requests=5, unique_designs=2, seed=9,
                       families=FAMILIES, hallucination_rate=0.5,
                       bmc_depth=4, bmc_random_trials=2),
    BmcConfig: dict(depth=4, random_trials=2, exhaustive_bits=4,
                    reset_cycles=1, seed=9, coverage=True),
}

#: The keys each class derives, with the roles each one must cover.
DERIVED = {
    DatagenConfig: [(DatagenConfig.semantic_digest, (SEMANTIC,))],
    PipelineConfig: [(PipelineConfig.cache_key, (SEMANTIC,))],
    SolveOptions: [(SolveOptions.canonical, (SEMANTIC,))],
    EvalConfig: [(EvalConfig.canonical, (SEMANTIC, REPORT)),
                 (EvalConfig.semantic_digest, (SEMANTIC,))],
}

KNOB_CASES = [(cls, name) for cls in CONFIG_CLASSES
              for name in roles_of(cls)]


def _ids(case):
    cls, name = case
    return f"{cls.__name__}.{name}"


def _with(cls, name):
    """The default instance, and one differing in ``name`` only."""
    return cls(), cls(**{name: ALTERNATIVES[cls][name]})


class TestKnobTable:
    def test_every_knob_has_an_alternative(self):
        for cls in CONFIG_CLASSES:
            declared = {f.name for f in dataclasses.fields(cls)}
            assert set(roles_of(cls)) == declared
            assert set(ALTERNATIVES[cls]) == declared, cls.__name__
            assert set(roles_of(cls).values()) <= set(ROLES)

    def test_only_k_values_is_a_report_knob(self):
        reports = [(cls.__name__, name) for cls, name in KNOB_CASES
                   if roles_of(cls)[name] == REPORT]
        assert reports == [("EvalConfig", "k_values")]

    @pytest.mark.parametrize("case", KNOB_CASES, ids=_ids)
    def test_derived_keys_follow_roles(self, case):
        cls, name = case
        role = roles_of(cls)[name]
        default, changed = _with(cls, name)
        assert getattr(changed, name) != getattr(default, name)
        derived = DERIVED.get(cls, []) + [(knobs.digest, (SEMANTIC,))]
        for derive, covered in derived:
            moved = derive(default) != derive(changed)
            assert moved == (role in covered), (derive, name, role)

    @pytest.mark.parametrize("case", KNOB_CASES, ids=_ids)
    def test_type_and_range_violations_name_the_knob(self, case):
        cls, name = case
        with pytest.raises(ValueError, match=name):
            cls(**{name: object()}).validate()


class TestRetiredKnobs:
    """``DatagenConfig.sva_validation`` is retired: no field, yet every
    key still carries its last default, ``"batched"``."""

    NAME, LAST = "sva_validation", "batched"

    def test_constructing_with_it_raises(self):
        with pytest.raises(TypeError):
            DatagenConfig(**{self.NAME: self.LAST})

    def test_canonical_and_digest_carry_its_value(self):
        config = DatagenConfig()
        data = json.loads(knobs.canonical(config))
        assert data[self.NAME] == self.LAST
        data["repro_version"] = repro.__version__

        def sha(payload):
            return hashlib.sha256(json.dumps(
                payload, sort_keys=True).encode("utf-8")).hexdigest()

        assert knobs.digest(config) == sha(data)
        del data[self.NAME]
        assert knobs.digest(config) != sha(data)

    def test_from_wire_accepts_only_its_last_default(self):
        body = knobs.wire(DatagenConfig())
        assert self.NAME not in body
        config = knobs.from_wire(DatagenConfig,
                                 {**body, self.NAME: self.LAST}, "config")
        assert config == DatagenConfig()
        with pytest.raises(ValueError, match=self.NAME):
            knobs.from_wire(DatagenConfig,
                            {**body, self.NAME: "per_proposal"}, "config")


class TestExecutionKnobsKeepBytes:
    """The produced bytes, not just the keys, ignore execution knobs."""

    SMALL = dict(n_designs=3, bugs_per_design=1, seed=11, bmc_depth=4,
                 bmc_random_trials=4)

    def test_datagen_fingerprint(self):
        baseline = run_pipeline(DatagenConfig(**self.SMALL)).fingerprint()
        for name, role in roles_of(DatagenConfig).items():
            if role != EXECUTION:
                continue
            value = ALTERNATIVES[DatagenConfig][name]
            bundle = run_pipeline(DatagenConfig(**self.SMALL, **{name: value}))
            assert bundle.fingerprint() == baseline, name

    def test_pipeline_execution_knobs_keep_the_datagen_digest(self):
        digest = PipelineConfig().datagen().semantic_digest()
        for name, role in roles_of(PipelineConfig).items():
            if role == EXECUTION:
                _, changed = _with(PipelineConfig, name)
                assert changed.datagen().semantic_digest() == digest, name

    @staticmethod
    def _solve(config: ServeConfig, options: SolveOptions) -> dict:
        request = SolveRequest(MINI_SOURCE, options)
        with AssertService(config) as service:
            payload = json.loads(service.solve(request, timeout=120).to_json())
        # The coverage knob adds a telemetry block and nothing else.
        payload.pop("coverage", None)
        return payload

    def test_serve_responses(self):
        options = SolveOptions(bmc_depth=6, bmc_random_trials=8)
        baseline = self._solve(ServeConfig(), options)
        for name, role in roles_of(ServeConfig).items():
            if role != EXECUTION:
                continue
            _, config = _with(ServeConfig, name)
            assert self._solve(config, options) == baseline, name
        for name, role in roles_of(SolveOptions).items():
            if role != EXECUTION:
                continue
            changed = dataclasses.replace(
                options, **{name: ALTERNATIVES[SolveOptions][name]})
            assert self._solve(ServeConfig(), changed) == baseline, name

    def test_eval_reports(self, small_bundle):
        cases = small_eval_cases(small_bundle, n=3)
        model = make_baseline("GPT-4", seed=0)
        base = EvalConfig(n_samples=3, seed=2)
        baseline = run_eval(model, cases, config=base).to_json()
        for name, role in roles_of(EvalConfig).items():
            if role != EXECUTION:
                continue
            changed = dataclasses.replace(
                base, **{name: ALTERNATIVES[EvalConfig][name]})
            assert run_eval(model, cases, config=changed).to_json() == \
                baseline, name

    def test_bmc_verdicts(self, accu_buggy_source):
        design = compile_source(accu_buggy_source).design

        def verdict(config):
            result = bounded_check(design, config)
            return (result.failed, result.stimuli_tried, result.sim_error,
                    [(f.label, f.start_cycle, f.fail_cycle)
                     for f in result.failures])

        base = BmcConfig(depth=10, random_trials=24)
        baseline = verdict(base)
        assert baseline[0]  # a counterexample to agree on
        for name, role in roles_of(BmcConfig).items():
            if role == EXECUTION:
                changed = dataclasses.replace(
                    base, **{name: ALTERNATIVES[BmcConfig][name]})
                assert verdict(changed) == baseline, name

    def test_workload_knobs_all_pick_requests(self):
        base = WorkloadSpec(n_requests=12, unique_designs=6, seed=3)
        keys = [r.cache_key() for r in build_workload(base)]
        for name in roles_of(WorkloadSpec):
            changed = dataclasses.replace(
                base, **{name: ALTERNATIVES[WorkloadSpec][name]})
            assert [r.cache_key() for r in build_workload(changed)] != \
                keys, name


# -- the wire parsers never crash ----------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


def _knob_blocks(cls):
    return st.dictionaries(st.sampled_from(sorted(roles_of(cls))),
                           JSON_VALUES, max_size=len(roles_of(cls)))


class TestWireParsersProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(options=_knob_blocks(SolveOptions))
    def test_solve_parser_returns_or_raises_value_error(self, options):
        body = json.dumps({"design_source": "module m; endmodule",
                           "options": options})
        try:
            request = request_from_json(body.encode())
        except ValueError:
            return
        # Whatever parses also keys and round-trips.
        again = request_from_json(request_to_json(request).encode())
        assert again.cache_key() == request.cache_key()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_eval_parser_returns_or_raises_value_error(self, small_bundle,
                                                       data):
        config = data.draw(_knob_blocks(EvalConfig))
        cases = json.loads(eval_request_to_json(EvalRequest(
            "GPT-4", small_eval_cases(small_bundle, n=1))))["cases"]
        body = json.dumps({"model": "GPT-4", "config": config,
                           "cases": cases})
        try:
            request = eval_request_from_json(body.encode())
        except ValueError:
            return
        again = eval_request_from_json(eval_request_to_json(request).encode())
        assert again.cache_key() == request.cache_key()


def _configs(cls):
    """``cls`` with any subset of its knobs moved to their alternatives."""
    return st.fixed_dictionaries({}, optional={
        name: st.just(value) for name, value in ALTERNATIVES[cls].items()
    }).map(lambda changed: cls(**changed))


def _through_json(body: dict) -> dict:
    """A wire block as a JSON body carries it; a nested config object
    (``store``) is not JSON and rides as it is."""
    nested = {name: value for name, value in body.items()
              if hasattr(value, "__knobs__")}
    plain = {name: value for name, value in body.items()
             if name not in nested}
    return {**json.loads(json.dumps(plain)), **nested}


class TestWireRoundTrip:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_from_wire_of_wire_is_identity(self, cls, data):
        config = data.draw(_configs(cls))
        again = knobs.from_wire(cls, _through_json(knobs.wire(config)),
                                cls.__name__)
        assert again == config
        assert knobs.digest(again) == knobs.digest(config)
