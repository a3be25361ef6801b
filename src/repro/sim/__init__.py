"""Cycle-based RTL simulation substrate.

This package executes elaborated designs (:class:`repro.verilog.elaborator.Design`)
one clock cycle at a time, with Verilog scheduling semantics reduced to the
cycle-accurate core that synthesizable RTL needs:

- non-blocking assignments in clocked blocks read pre-edge values and commit
  together after the edge;
- continuous assignments and combinational blocks settle to a fixed point
  after every commit;
- values are 4-state (:class:`repro.sim.values.FourState`), with X produced
  by uninitialized registers and propagated pessimistically.

Asynchronous resets are exercised level-style: the stimulus holds the reset
active for whole cycles, which on a cycle-based engine is equivalent to the
event-driven behaviour for the reset protocols our corpus uses (documented
substitution: we do not model sub-cycle glitches).
"""

from repro.sim.compiled import (
    CompiledProgram,
    CompiledSimulator,
    compile_program,
    make_simulator,
)
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.stimulus import Stimulus, reset_sequence
from repro.sim.trace import Trace
from repro.sim.values import FourState

__all__ = [
    "Simulator",
    "SimulationError",
    "CompiledProgram",
    "CompiledSimulator",
    "compile_program",
    "make_simulator",
    "Stimulus",
    "reset_sequence",
    "Trace",
    "FourState",
]
