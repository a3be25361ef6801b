"""The one stimulus run loop behind both simulation tiers.

:class:`RunLoop` drives a stimulus cycle by cycle over four per-tier
primitives — ``_start`` (the reset-time state), ``_cycle`` (drive one
cycle's inputs and settle, returning the fresh snapshot and applied
inputs), ``tick`` (one clock edge) and ``_load`` (restore a snapshot) —
so :class:`repro.sim.simulator.Simulator` and
:class:`repro.sim.compiled.CompiledSimulator` share one loop.

An optional, caller-owned :class:`PrefixTrie` lets a family of stimuli
share simulation work: each node stands for one distinct input prefix
and holds that cycle's settled snapshot and applied inputs.  A run
replays its longest already-simulated prefix from the trie and simulates
only the new suffix; its trace records how many leading snapshots were
replayed (``shared``) and the node of every snapshot (``nodes``).
Replay is exact: a node exists only once its settle succeeded and gains
children only once its tick succeeded, so an error surfaces on the same
stimulus and cycle as in a fresh run, and after every run the simulator
holds the same post-tick state.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional

from repro.sim.stimulus import Stimulus
from repro.sim.trace import Trace


class PrefixTrie:
    """A node per distinct input prefix; a fresh instance is the root.

    ``children`` maps one cycle's input key (``None`` for a reset cycle,
    else the vector's items) to the next node.  Snapshots and input
    dicts are shared by every trace that replays the node, so consumers
    must treat them as read-only.  One trie serves one simulator.
    ``memo`` belongs to the trie's consumers, which record there counts
    over the node's path for later runs that replay it: the SVA monitor
    its quality counts (keyed by plan index), a coverage sink its toggle
    and block counts (keyed by the sink).
    """

    __slots__ = ("snapshot", "inputs", "children", "memo")

    def __init__(self, snapshot: Optional[dict] = None,
                 inputs: Optional[Dict[str, int]] = None):
        self.snapshot = snapshot
        self.inputs = inputs
        self.children: Dict[object, "PrefixTrie"] = {}
        self.memo: Optional[dict] = None


class RunLoop:
    """``run_iter``/``run`` over the subclass's cycle primitives.

    Subclasses also provide ``trace_names`` (the default trace signal
    list) and ``cov`` (an optional :class:`repro.cov.CoverageSink`).
    """

    def run_iter(self, stimulus: Stimulus,
                 trace_signals: Optional[List[str]] = None,
                 trie: Optional[PrefixTrie] = None) -> Iterator[Trace]:
        """Simulate ``stimulus`` lazily, one cycle per yield.

        Yields the (shared, growing) :class:`Trace` once before any
        cycle — so callers can hold the trace object — and then once
        after each appended snapshot: ``reset_cycles`` cycles with the
        reset active, then one per stimulus vector.  Each cycle drives
        the inputs, settles combinational logic and snapshots (the SVA
        preponed view: exactly what the registers read at the coming
        edge); the clock edge follows the yield.  Abandoning the
        generator mid-run is safe; the BMC batch driver uses this to
        stop simulating a stimulus the moment every assertion already
        has a verdict.

        With a ``trie`` the run replays the longest prefix an earlier
        run of the same trie already simulated — appending its shared
        snapshots without re-simulating them — and extends the trie with
        the new suffix.  Snapshots, errors and the post-run state are
        those of a run without one; the trace also counts the replayed
        snapshots in ``shared`` (up to date at every yield: only leading
        snapshots replay, since a new node has no children) and lists
        each snapshot's node in ``nodes``.
        """
        trace = Trace(trace_signals or self.trace_names)
        # Append through the lists directly: ``_cycle`` builds fresh
        # dicts, so Trace.append's defensive copy would only duplicate
        # them (the single hottest allocation of a run).
        snapshots = trace.snapshots
        inputs_applied = trace.inputs_applied
        cov = self.cov
        if cov is not None:
            # Lazy hand-off: the sink walks the grown snapshot list at
            # the next begin_run()/report() — nothing per cycle here.
            cov.begin_run(snapshots, trace)
        self._start()
        yield trace
        steps = chain(repeat(None, stimulus.reset_cycles), stimulus.vectors)
        if trie is None:
            for vector in steps:
                snapshot, inputs = self._cycle(vector)
                snapshots.append(snapshot)
                inputs_applied.append(inputs)
                yield trace
                self.tick()
            return
        # ``held`` is the node whose settled state the simulator holds
        # (the root: the reset-time state); replayed nodes are not loaded.
        node = held = trie
        nodes = trace.nodes
        for vector in steps:
            key = None if vector is None else tuple(vector.items())
            child = node.children.get(key)
            if child is None:
                if node is not trie:
                    if held is not node:
                        self._load(node.snapshot)
                    self.tick()
                snapshot, inputs = self._cycle(vector)
                child = node.children[key] = PrefixTrie(snapshot, inputs)
                held = child
            else:
                trace.shared += 1
            nodes.append(child)
            snapshots.append(child.snapshot)
            inputs_applied.append(child.inputs)
            yield trace
            node = child
        if node is not trie:
            # The trailing edge: post-run state and tick errors as usual.
            if held is not node:
                self._load(node.snapshot)
            self.tick()

    def run(self, stimulus: Stimulus,
            trace_signals: Optional[List[str]] = None) -> Trace:
        """Run the full stimulus and return the trace.

        The trace includes ``reset_cycles`` cycles with the reset active
        followed by one snapshot per stimulus vector.
        """
        trace = None
        for trace in self.run_iter(stimulus, trace_signals):
            pass
        return trace
