"""The one stimulus run loop behind both simulation tiers.

:class:`RunLoop` drives a stimulus cycle by cycle over six per-tier
primitives — ``_start`` (the reset-time state), ``_cycle`` (drive one
cycle's inputs and settle, returning the fresh snapshot and applied
inputs), ``tick`` (one clock edge), ``_load`` (restore a snapshot) and
``_save``/``_restore`` (copy out, and put back, the simulator's whole
state) — so :class:`repro.sim.simulator.Simulator` and
:class:`repro.sim.compiled.CompiledSimulator` share one loop.

:class:`ExhaustiveWalker` runs the exhaustive stimulus set of
:func:`repro.sim.stimulus.enumerate_exhaustive` by *code*: stimulus
``c`` drives digit ``t`` of ``c`` in base ``2 ** free_input_bits`` at
input cycle ``t``.  Each distinct input prefix is one
:class:`PrefixNode` holding that cycle's settled snapshot and applied
inputs, keyed by its position and the code modulo ``base ** inputs``.
Codes run in increasing order, so the prefix a run replays is
arithmetic (an earlier code built the ``k``-input prefix exactly when
``c >= base ** k``): a run appends its replayed snapshots in one step,
records their count (``trace.shared``) and every snapshot's node
(``trace.nodes``), and simulates only the new suffix.  Each node's
clock edge runs once: the post-edge state its first child computed is
saved for the other children and freed after the last.  Replay is
exact: a node exists only once its settle succeeded, a leaf still runs
its trailing edge, and a node whose run was abandoned before its edge
is loaded and ticked by the next run through it, so an error surfaces
on the same stimulus and cycle as in a fresh run, and after every run
the simulator holds the same post-edge state.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional, Sequence

from repro.sim.stimulus import Stimulus
from repro.sim.trace import Trace


class RunLoop:
    """``run_iter``/``run`` over the subclass's cycle primitives.

    Subclasses also provide ``trace_names`` (the default trace signal
    list) and ``cov`` (an optional :class:`repro.cov.CoverageSink`).
    """

    def run_iter(self, stimulus: Stimulus,
                 trace_signals: Optional[List[str]] = None) -> Iterator[Trace]:
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
        for vector in chain(repeat(None, stimulus.reset_cycles),
                            stimulus.vectors):
            snapshot, inputs = self._cycle(vector)
            snapshots.append(snapshot)
            inputs_applied.append(inputs)
            yield trace
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


class PrefixNode:
    """One distinct input prefix of an exhaustive walk.

    ``snapshot`` and ``inputs`` are the settled snapshot and applied
    inputs of the prefix's last cycle, shared by every trace that
    replays the node, so consumers must treat them as read-only.
    ``saved`` is the simulator state after the node's clock edge, kept
    from its first child until its last.  ``memo`` belongs to the walk's
    consumers, which record there counts over the node's path for later
    runs that replay it: the SVA monitor its quality counts (keyed by
    plan index), a coverage sink its toggle and block counts (keyed by
    the sink).
    """

    __slots__ = ("snapshot", "inputs", "saved", "memo")

    def __init__(self, snapshot: dict, inputs: Dict[str, int]):
        self.snapshot = snapshot
        self.inputs = inputs
        self.saved = None
        self.memo: Optional[dict] = None


class ExhaustiveWalker:
    """Runs code ``c`` of ``enumerate_exhaustive(design, depth,
    reset_cycles)`` on one simulator, sharing every simulated prefix.

    ``inputs`` are the design's free input symbols, in
    ``Design.free_inputs()`` order.  ``table[p]`` maps ``c % base **
    inputs(p)`` to the node at trace position ``p`` (``inputs(p)`` is
    the number of input cycles up to and including ``p``; 0 for a reset
    cycle).  One walker serves one simulator, for one increasing run of
    codes; a run may be abandoned mid-stimulus.
    """

    def __init__(self, inputs: Sequence, depth: int, reset_cycles: int):
        self._fields = tuple((sym.name, sym.width) for sym in inputs)
        self._bits = sum(width for _, width in self._fields)
        self.base = base = 1 << self._bits
        self.depth = depth
        self.reset_cycles = reset_cycles
        #: Number of codes (stimuli) in the set.
        self.count = base ** depth
        #: Per position, the code's divisor for that cycle's digit and
        #: the modulus that keys its node.
        self._divs = [1] * reset_cycles + [base ** t for t in range(depth)]
        self._mods = [1] * reset_cycles + [base ** (t + 1)
                                           for t in range(depth)]
        self.table: List[Dict[int, PrefixNode]] = [
            {} for _ in range(reset_cycles + depth)]
        #: digit -> its input vector, built on first use.
        self._vectors: Dict[int, Dict[str, int]] = {}

    def _vector(self, digit: int) -> Dict[str, int]:
        """The input vector of one cycle digit (first input lowest)."""
        vector = self._vectors.get(digit)
        if vector is None:
            vector = self._vectors[digit] = {}
            for name, width in self._fields:
                vector[name] = digit & ((1 << width) - 1)
                digit >>= width
        return vector

    def stimulus(self, code: int) -> Stimulus:
        """Code ``code`` as a :class:`Stimulus` (fresh vector dicts)."""
        vectors = []
        for _ in range(self.depth):
            vectors.append(dict(self._vector(code % self.base)))
            code //= self.base
        return Stimulus(vectors, self.reset_cycles)

    def _replayed(self, code: int) -> int:
        """Leading positions of ``code`` an earlier run simulated."""
        if not code:
            return 0
        shared = self.reset_cycles + (code.bit_length() - 1) // self._bits
        # In the increasing order every such node exists; a run
        # abandoned mid-stimulus may have stopped short of some.
        table = self.table
        mods = self._mods
        while shared and code % mods[shared - 1] not in table[shared - 1]:
            shared -= 1
        return shared

    def _edge(self, simulator, node: PrefixNode, position: int, code: int,
              held: bool) -> None:
        """Leave ``simulator`` in ``node``'s post-edge state, on the way
        to the child at ``position + 1`` that ``code`` takes.

        ``held``: the simulator holds the node's settled state.  The
        edge runs once per node; its state is saved unless this child
        is the node's last, and freed when the last child restores it.
        """
        child = position + 1
        last = (child < self.reset_cycles
                or code // self._divs[child] % self.base == self.base - 1)
        saved = node.saved
        if saved is not None:
            simulator._restore(saved)
            if last:
                node.saved = None
            return
        if not held:
            simulator._load(node.snapshot)
        simulator.tick()
        if not last:
            node.saved = simulator._save()

    def run_iter(self, simulator, code: int) -> Iterator[Trace]:
        """Run code ``code`` on ``simulator``, one yield per simulated
        cycle.

        Yields the :class:`Trace` once before any simulated cycle — with
        the replayed prefix already appended and counted in
        ``trace.shared`` — and then once after each cycle it simulates;
        the clock edge follows the yield, as in
        :meth:`RunLoop.run_iter`, and snapshots, errors and the post-run
        state are those of ``simulator.run(self.stimulus(code))``.
        """
        trace = Trace(simulator.trace_names)
        snapshots = trace.snapshots
        inputs_applied = trace.inputs_applied
        cov = simulator.cov
        if cov is not None:
            cov.begin_run(snapshots, trace)
        table = self.table
        mods = self._mods
        shared = self._replayed(code)
        nodes = trace.nodes = [table[p][code % mods[p]]
                               for p in range(shared)]
        if shared:
            trace.shared = shared
            snapshots.extend([node.snapshot for node in nodes])
            inputs_applied.extend([node.inputs for node in nodes])
            self._edge(simulator, nodes[-1], shared - 1, code, held=False)
        else:
            simulator._start()
        yield trace
        reset_cycles = self.reset_cycles
        divs = self._divs
        base = self.base
        last = len(table) - 1
        for position in range(shared, last + 1):
            vector = (None if position < reset_cycles
                      else self._vector(code // divs[position] % base))
            snapshot, inputs = simulator._cycle(vector)
            node = table[position][code % mods[position]] = PrefixNode(
                snapshot, inputs)
            nodes.append(node)
            snapshots.append(snapshot)
            inputs_applied.append(inputs)
            yield trace
            if position < last:
                self._edge(simulator, node, position, code, held=True)
            else:
                # The leaf's trailing edge: post-run state and tick
                # errors as in a fresh run.
                simulator.tick()
