"""Stimulus construction for simulation and bounded model checking.

A :class:`Stimulus` is a reset protocol plus a per-cycle list of input
vectors (``name -> int``).  Helpers build the directed patterns the BMC
engine mixes with random search.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from repro.verilog.elaborator import Design


class Stimulus:
    """Input program: ``vectors[t]`` drives the free inputs at cycle ``t``.

    Clock toggling is implicit (one entry == one clock cycle); reset signals
    are driven by the protocol fields, not by the vectors.
    """

    def __init__(self, vectors: List[Dict[str, int]], reset_cycles: int = 2):
        self.vectors = vectors
        self.reset_cycles = reset_cycles

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, index: int) -> Dict[str, int]:
        return self.vectors[index]

    def extended(self, extra: List[Dict[str, int]]) -> "Stimulus":
        return Stimulus(self.vectors + extra, self.reset_cycles)


def reset_values(design: Design, active: bool) -> Dict[str, int]:
    """Reset signal levels.  Active-low names (``rst_n`` etc.) are detected
    by suffix; everything else is treated active-high."""
    values = {}
    for name in design.resets:
        low_active = name.endswith("_n") or name.endswith("_b") or "n" == name[-1:]
        if active:
            values[name] = 0 if low_active else 1
        else:
            values[name] = 1 if low_active else 0
    return values


def reset_sequence(design: Design, depth: int, rng: Optional[random.Random] = None,
                   reset_cycles: int = 2) -> Stimulus:
    """Random stimulus of ``depth`` post-reset cycles."""
    rng = rng or random.Random(0)
    inputs = design.free_inputs()
    vectors = []
    for _ in range(depth):
        vector = {}
        for sym in inputs:
            vector[sym.name] = rng.getrandbits(sym.width)
        vectors.append(vector)
    return Stimulus(vectors, reset_cycles)


def constant_sequence(design: Design, depth: int, value_bit: int,
                      reset_cycles: int = 2) -> Stimulus:
    """All inputs held at all-zeros (value_bit=0) or all-ones (=1)."""
    inputs = design.free_inputs()
    vectors = []
    for _ in range(depth):
        vector = {}
        for sym in inputs:
            vector[sym.name] = ((1 << sym.width) - 1) if value_bit else 0
        vectors.append(vector)
    return Stimulus(vectors, reset_cycles)


def toggle_sequence(design: Design, depth: int, phase: int = 0,
                    reset_cycles: int = 2) -> Stimulus:
    """Inputs alternate all-ones / all-zeros each cycle."""
    inputs = design.free_inputs()
    vectors = []
    for t in range(depth):
        bit = (t + phase) & 1
        vector = {}
        for sym in inputs:
            vector[sym.name] = ((1 << sym.width) - 1) if bit else 0
        vectors.append(vector)
    return Stimulus(vectors, reset_cycles)


def walking_ones_sequence(design: Design, depth: int,
                          reset_cycles: int = 2) -> Stimulus:
    """A walking-1 over the concatenated input space, one bit per cycle."""
    inputs = design.free_inputs()
    total_bits = sum(s.width for s in inputs)
    vectors = []
    for t in range(depth):
        position = t % max(total_bits, 1)
        vector = {}
        offset = 0
        for sym in inputs:
            local = position - offset
            vector[sym.name] = (1 << local) if 0 <= local < sym.width else 0
            offset += sym.width
        vectors.append(vector)
    return Stimulus(vectors, reset_cycles)


def enumerate_exhaustive(design: Design, depth: int,
                         reset_cycles: int = 2) -> Iterator[Stimulus]:
    """All input sequences of length ``depth`` (caller bounds the size).

    Yields ``2 ** (total_bits * depth)`` stimuli; the BMC engine only calls
    this when that count is below its exhaustive threshold.  The order is
    load-bearing: cycle 0's inputs change fastest (the stimulus index's
    low bits), and since :func:`repro.sva.bmc.bounded_check` stops at the
    first failing stimulus, this order decides which counterexample it
    reports.  :class:`repro.sim.runloop.ExhaustiveWalker` runs the same
    set by stimulus index (its *code*); this generator is its reference.
    """
    inputs = design.free_inputs()
    total_bits = sum(s.width for s in inputs)
    combos = 1 << (total_bits * depth)
    for code in range(combos):
        vectors = []
        remaining = code
        for _ in range(depth):
            vector = {}
            for sym in inputs:
                vector[sym.name] = remaining & ((1 << sym.width) - 1)
                remaining >>= sym.width
            vectors.append(vector)
        yield Stimulus(vectors, reset_cycles)
