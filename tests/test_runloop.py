"""Prefix-shared simulation: trie runs replay exactly what fresh runs do.

A :class:`repro.sim.runloop.PrefixTrie` lets one simulator replay the
longest input prefix an earlier stimulus already simulated.  Replay must
be invisible: per stimulus the same snapshots, applied inputs and
post-run state as a fresh simulator, on both execution tiers.  Where
simulation errors surface is pinned in ``test_sva.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.sim.compiled import SIM_MODES, CompiledSimulator, make_simulator
from repro.sim.runloop import PrefixTrie
from repro.sim.stimulus import Stimulus, constant_sequence, enumerate_exhaustive
from repro.sva.bmc import BmcConfig, _candidate_stimuli
from repro.verilog.compile import compile_source

FAMILIES = sorted(TEMPLATE_FAMILIES)


def _post_state(simulator):
    """The simulator's complete state after a run, tier-independent."""
    if isinstance(simulator, CompiledSimulator):
        return list(zip(simulator.program.names, simulator.values))
    return dict(simulator.env)


def _fresh_run(design, sim_mode, stimulus):
    simulator = make_simulator(design, sim_mode)
    trace = simulator.run(stimulus)
    return trace, _post_state(simulator)


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
    @pytest.mark.parametrize("sim_mode", SIM_MODES)
    def test_trie_runs_equal_fresh_runs(self, family_designs, sim_mode):
        family, designs = family_designs
        for design in designs:
            stimuli, _ = _candidate_stimuli(design, BmcConfig(depth=3))
            simulator = make_simulator(design, sim_mode)
            trie = PrefixTrie()
            seen = set()  # every input prefix an earlier stimulus ran
            for index, stimulus in enumerate(stimuli):
                for trace in simulator.run_iter(stimulus, trie=trie):
                    pass
                expected, post = _fresh_run(design, sim_mode, stimulus)
                where = (family, design.name, index)
                assert trace.snapshots == expected.snapshots, where
                assert trace.inputs_applied == expected.inputs_applied, where
                assert _post_state(simulator) == post, where
                keys = ([None] * stimulus.reset_cycles
                        + [tuple(v.items()) for v in stimulus.vectors])
                prefixes = [tuple(keys[:n]) for n in range(1, len(keys) + 1)]
                assert trace.shared == sum(p in seen for p in prefixes), where
                assert [n.snapshot for n in trace.nodes] == trace.snapshots
                seen.update(prefixes)

    @pytest.mark.parametrize("sim_mode", SIM_MODES)
    def test_abandoned_run_then_shared_prefix(self, family_designs,
                                              sim_mode):
        """The batch driver abandons a run mid-stimulus; a later stimulus
        through that prefix must still run the abandoned node's tick."""
        family, designs = family_designs
        design = designs[0]
        zeros = constant_sequence(design, 3, 0)
        ones = constant_sequence(design, 3, 1)
        forked = Stimulus(zeros.vectors[:1] + ones.vectors[1:])
        simulator = make_simulator(design, sim_mode)
        trie = PrefixTrie()
        cycles = simulator.run_iter(zeros, trie=trie)
        for _ in range(4):  # the trace, both reset cycles, cycle 0
            next(cycles)
        cycles.close()
        # Diverge after the abandoned node, extend its other branch,
        # then replay a complete stimulus (only its trailing tick runs).
        for stimulus in (forked, zeros, zeros):
            for trace in simulator.run_iter(stimulus, trie=trie):
                pass
            expected, post = _fresh_run(design, sim_mode, stimulus)
            assert trace.snapshots == expected.snapshots, family
            assert trace.inputs_applied == expected.inputs_applied, family
            assert _post_state(simulator) == post, family

    def test_exhaustive_trie_holds_one_node_per_prefix(self):
        source = CorpusGenerator(seed=77).generate_one(family="counter").source
        design = compile_source(source).design
        simulator = make_simulator(design, "compiled")
        trie = PrefixTrie()
        for stimulus in enumerate_exhaustive(design, 4, 2):
            for _ in simulator.run_iter(stimulus, trie=trie):
                pass

        def count(node):
            return sum(1 + count(child) for child in node.children.values())

        # Two shared reset nodes, then 2 + 4 + 8 + 16 input prefixes.
        assert count(trie) == 2 + 30
