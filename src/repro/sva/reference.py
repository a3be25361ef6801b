"""The reference tier: bounded checks on the interpreters.

Production runs the code :mod:`repro.sim.compiled` and
:mod:`repro.sva.monitor` generate.  The AST interpreter
(:class:`~repro.sim.simulator.Simulator`) and the property interpreter
(:class:`~repro.sva.monitor.PropertyChecker`) are its reference oracle,
and :func:`reference_tier` is the one way to run a check on them: it
swaps the driver's simulator factory and the monitor's program factory
(one :class:`PropertyChecker` per stimulus trace, what the interpreted
monitor always cost).  The swap is process-wide — every thread, and the
workers a process pool forks inside it — and meant for tests and gates.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.simulator import Simulator
from repro.sva import bmc, monitor


class _InterpretedProperties:
    """The interpreter behind the monitor's generated-function interface
    (see :class:`repro.sva.monitor._PropProgram`), for one check."""

    def __init__(self, design):
        self.design = design
        self._checker = None

    def _on(self, snapshots) -> monitor.PropertyChecker:
        """The checker of the trace whose snapshot list is ``snapshots``."""
        checker = self._checker
        if checker is None or checker.trace is not snapshots:
            checker = self._checker = monitor.PropertyChecker(
                self.design, snapshots)
        return checker

    def prop_fn(self, prop):
        return lambda snapshots, cycle: self._on(snapshots).eval_prop(
            prop, cycle)

    def disabled_fn(self, expr):
        return lambda snapshots, cycle: not self._on(snapshots)._eval_bool(
            expr, cycle).is_false()


@contextmanager
def reference_tier():
    """Run every bounded check in this block on the interpreters."""
    saved = bmc.make_simulator, monitor._prop_program
    bmc.make_simulator = Simulator
    monitor._prop_program = _InterpretedProperties
    try:
        yield
    finally:
        bmc.make_simulator, monitor._prop_program = saved
