"""SystemVerilog Assertion checking (substitute for SymbiYosys).

Two checking layers over the same property subset:

- :mod:`repro.sva.monitor` — runtime checking of properties over a
  simulation trace, cycle by cycle as it grows
  (:class:`repro.sva.monitor.IncrementalChecker`; its failure records are
  the logs a verification engineer would read).
- :mod:`repro.sva.bmc` — bounded model checking: searches the stimulus
  space (exhaustive when small, directed + random otherwise) for a
  counterexample trace (the "formal" role the paper fills with SymbiYosys).
  One driver serves both of the pipeline's questions:
  :func:`bounded_check` stops at the first failing stimulus and keeps its
  trace and log; :func:`repro.sva.bmc.bounded_check_batch` scores every
  assertion label of a design independently in one shared run.

:mod:`repro.sva.mine` additionally mines candidate invariants from a
design's continuous assignments, so the serving layer can propose
assertions for raw sources that carry no template hints.

The property subset is the temporal layer parsed by
:mod:`repro.verilog.parser`: boolean expressions (including ``$past``,
``$rose``, ``$fell``, ``$stable``), ``##N`` / ``##[m:n]`` delays,
``|->`` / ``|=>`` implication, ``not``, with ``@(posedge clk)`` clocking and
``disable iff``.
"""

from repro.sva.bmc import BmcConfig, BmcResult, bounded_check
from repro.sva.mine import mine_invariant_hints
from repro.sva.monitor import AssertionFailure

__all__ = [
    "AssertionFailure",
    "BmcConfig",
    "BmcResult",
    "bounded_check",
    "mine_invariant_hints",
]
