"""Prefix-shared simulation: walker runs replay exactly what fresh runs do.

A :class:`repro.sim.runloop.ExhaustiveWalker` runs the exhaustive
stimulus set by code on one simulator, replaying the longest input
prefix an earlier code already simulated and running each prefix's
clock edge once.  Replay must be invisible: per stimulus the same
snapshots, applied inputs and post-run state as a fresh simulator, on
both execution tiers.  Where simulation errors surface is pinned in
``test_sva.py``.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from tiers import TIERS, simulator_on

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.sim.compiled import CompiledSimulator, make_simulator
from repro.sim.runloop import ExhaustiveWalker
from repro.sim.stimulus import enumerate_exhaustive
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.verilog.compile import compile_source

FAMILIES = sorted(TEMPLATE_FAMILIES)

# Two 1-bit free inputs (base 4): a cycle's digit splits across inputs.
TWO_BIT = """
module two_bit (input clk, input rst_n, input a, input b,
                output reg [2:0] acc, output wire hit);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) acc <= 3'd0;
    else if (a) acc <= acc + {2'b0, b} + 3'd1;
    else if (b) acc <= {acc[1:0], acc[2]};
  end
  assign hit = acc == 3'd5;
endmodule
"""


def _post_state(simulator):
    """The simulator's complete state after a run, tier-independent."""
    if isinstance(simulator, CompiledSimulator):
        return list(zip(simulator.program.names, simulator.values))
    return dict(simulator.env)


def _fresh_run(design, tier, stimulus):
    simulator = simulator_on(design, tier)
    trace = simulator.run(stimulus)
    return trace, _post_state(simulator)


def _counter_design():
    return compile_source(
        CorpusGenerator(seed=77).generate_one(family="counter").source).design


def _codes(walker):
    """Every code of a small set (at most 4 free bits at depth 3), else
    the increasing codes whose every digit is 0, 1 or ``base - 1``."""
    if walker.count <= 4096:
        return range(walker.count)
    digits = sorted({0, 1, walker.base - 1})
    return sorted(sum(d * walker.base ** t for t, d in enumerate(ds))
                  for ds in product(digits, repeat=walker.depth))


def _walk_equals_fresh(design, tier, depth, reset_cycles, codes, where):
    """Run ``codes`` in order through one walker; every run must equal a
    fresh one, replay every prefix an earlier code ran, and list the
    node of each snapshot."""
    simulator = simulator_on(design, tier)
    walker = ExhaustiveWalker(design.free_inputs(), depth, reset_cycles)
    seen = set()  # every input prefix an earlier code ran
    for code in codes:
        for trace in walker.run_iter(simulator, code):
            pass
        stimulus = walker.stimulus(code)
        expected, post = _fresh_run(design, tier, stimulus)
        at = where + (code,)
        assert trace.snapshots == expected.snapshots, at
        assert trace.inputs_applied == expected.inputs_applied, at
        assert _post_state(simulator) == post, at
        keys = ([None] * stimulus.reset_cycles
                + [tuple(v.items()) for v in stimulus.vectors])
        prefixes = [tuple(keys[:n]) for n in range(1, len(keys) + 1)]
        assert trace.shared == sum(p in seen for p in prefixes), at
        assert [n.snapshot for n in trace.nodes] == trace.snapshots, at
        seen.update(prefixes)
    return walker


@pytest.fixture(scope="module", params=FAMILIES)
def family_designs(request):
    """A family's golden design and its first compiling mutant."""
    seed = CorpusGenerator(seed=77).generate_one(family=request.param)
    golden = compile_source(seed.source)
    assert golden.ok, golden.failure_summary()
    designs = [golden.design]
    records = BugInjector(random.Random(5)).inject_many(seed.source, 8,
                                                         seed.name)
    for record in records:
        buggy = compile_source(record.buggy_source)
        if buggy.ok:
            designs.append(buggy.design)
            break
    return request.param, designs


class TestTrieEquivalence:
    """Walker runs against fresh runs, code by code."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_trie_runs_equal_fresh_runs(self, family_designs, tier):
        family, designs = family_designs
        for design in designs:
            walker = ExhaustiveWalker(design.free_inputs(), 3, 2)
            _walk_equals_fresh(design, tier, 3, 2, _codes(walker),
                               (family, design.name))

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("reset_cycles", [0, 2])
    def test_two_bit_design(self, tier, reset_cycles):
        """Base 4, with and without reset cycles: at ``reset_cycles=0``
        the root's children have no reset parent to replay."""
        design = compile_source(TWO_BIT).design
        walker = _walk_equals_fresh(design, tier, 3, reset_cycles,
                                    range(64), ("two_bit",))
        assert walker.base == 4
        assert sum(map(len, walker.table)) == reset_cycles + 4 + 16 + 64

    @pytest.mark.parametrize("tier", TIERS)
    def test_abandoned_run_then_shared_prefix(self, family_designs,
                                              tier):
        """The batch driver may abandon a run mid-stimulus: the node it
        stopped at has no saved post-edge state, so a later code through
        that node must load it and run its tick."""
        family, designs = family_designs
        design = designs[0]
        simulator = simulator_on(design, tier)
        walker = ExhaustiveWalker(design.free_inputs(), 3, 2)
        cycles = walker.run_iter(simulator, 0)
        for _ in range(4):  # the trace, both reset cycles, cycle 0
            next(cycles)
        cycles.close()
        assert walker.table[2][0].saved is None, family
        base = walker.base
        # Diverge below the abandoned node, pass through it, then reach
        # past it where the abandoned run built nothing.  A design with
        # no free inputs has one code: it runs again from scratch.
        for code in ([1, base, base * base] if base > 1 else [0]):
            for trace in walker.run_iter(simulator, code):
                pass
            expected, post = _fresh_run(design, tier,
                                        walker.stimulus(code))
            assert trace.snapshots == expected.snapshots, (family, code)
            assert trace.inputs_applied == expected.inputs_applied, family
            assert _post_state(simulator) == post, (family, code)

    def test_exhaustive_trie_holds_one_node_per_prefix(self):
        design = _counter_design()
        simulator = make_simulator(design)
        walker = ExhaustiveWalker(design.free_inputs(), 4, 2)
        for code in range(walker.count):
            for _ in walker.run_iter(simulator, code):
                pass
        # Two shared reset nodes, then 2 + 4 + 8 + 16 input prefixes.
        assert sum(map(len, walker.table)) == 2 + 30
        # Every saved post-edge state was freed after its last child.
        assert all(node.saved is None
                   for level in walker.table for node in level.values())


class TestWalkerOrder:
    @pytest.mark.parametrize("design", [_counter_design(),
                                        compile_source(TWO_BIT).design],
                             ids=["one_bit", "two_bit"])
    def test_stimulus_of_code_is_enumeration_order(self, design):
        walker = ExhaustiveWalker(design.free_inputs(), 3, 2)
        reference = list(enumerate_exhaustive(design, 3, 2))
        assert walker.count == len(reference)
        for code, stimulus in enumerate(reference):
            assert walker.stimulus(code).vectors == stimulus.vectors, code
            assert walker.stimulus(code).reset_cycles == 2


@pytest.mark.parametrize("check", [bounded_check, bounded_check_batch])
def test_exhaustive_check_runs_one_edge_per_prefix(check, monkeypatch):
    """A depth-4 check of a 1-bit design ticks once per node: 2 reset
    nodes and 2 + 4 + 8 + 16 input prefixes (a trie walk that re-ran a
    node's edge for every child ticked 47 times)."""
    source = CorpusGenerator(seed=77).generate_one(family="counter").source
    design = compile_with_sva(source, [
        "property always_true;\n  @(posedge clk) 1'b1;\nendproperty",
        "always_true_assertion: assert property (always_true);"]).design
    ticks = [0]
    tick = CompiledSimulator.tick

    def counting_tick(self):
        ticks[0] += 1
        tick(self)
    monkeypatch.setattr(CompiledSimulator, "tick", counting_tick)
    result = check(design, BmcConfig(depth=4))
    assert result.stimuli_tried == 16
    assert ticks[0] == 32
