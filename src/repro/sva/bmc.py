"""Bounded model checking — the SymbiYosys substitute.

The datagen pipeline asks two questions of the checker:

1. *SVA validity*: does the assertion hold on the golden design within the
   bound?  (Used to discard hallucinated assertions.)
2. *Bug effectiveness*: does the buggy design violate the assertion, and
   with what counterexample log?  (Used to build the SVA-Bug dataset and
   the failure logs that become model input.)

Strategy: exhaustive stimulus enumeration when the input space is small
enough (``total_input_bits * depth <= exhaustive_bits``), run by code
through a :class:`repro.sim.runloop.ExhaustiveWalker` (each distinct
input prefix settled once and its clock edge run once), else a
deterministic portfolio of directed patterns (constants, toggling, walking
ones) plus seeded random search.  Bounded, like any BMC: ``proven`` is
never claimed, only "no counterexample within the bound" — which is also
all the paper's pipeline needs.
"""

from __future__ import annotations

import random
from functools import partial
from time import perf_counter
from typing import Iterable, List, Optional, Tuple

from repro.cov import CoverageSink, accumulate_totals
from repro.engine import metrics
from repro.knobs import EXECUTION, SEMANTIC, configclass, knob
from repro.sim.compiled import SIM_MODES, make_simulator
from repro.sim.eval import EvalError
from repro.sim.runloop import ExhaustiveWalker
from repro.sim.simulator import SimulationError
from repro.sim.stimulus import (
    Stimulus,
    constant_sequence,
    reset_sequence,
    toggle_sequence,
    walking_ones_sequence,
)
from repro.sim.trace import Trace
from repro.sva.monitor import AssertionFailure, IncrementalChecker
from repro.verilog.elaborator import Design


@configclass
class BmcConfig:
    """Search budget for :func:`bounded_check`.

    ``sim_mode`` selects the execution tier (``"compiled"`` programs or
    the ``"interp"`` AST walker — see :mod:`repro.sim.compiled`); it is
    an execution knob, not a semantic one, and must never change any
    verdict.  ``coverage`` attaches a :class:`repro.cov.CoverageSink` to
    the run — also a pure execution knob: verdicts are unchanged, the
    result just additionally carries a coverage report.
    """

    depth: int = knob(12, kind=int, ge=1, role=SEMANTIC)
    random_trials: int = knob(64, kind=int, ge=0, role=SEMANTIC)
    exhaustive_bits: int = knob(12, kind=int, ge=0, role=SEMANTIC)
    reset_cycles: int = knob(2, kind=int, ge=0, role=SEMANTIC)
    seed: int = knob(2025, kind=int, role=SEMANTIC)
    sim_mode: str = knob("compiled", kind=str, choices=SIM_MODES,
                         role=EXECUTION)
    coverage: bool = knob(False, kind=bool, role=EXECUTION)


class BmcResult:
    """Outcome of a bounded check.

    ``failed`` is True when a counterexample was found; ``failures`` holds
    the monitor records from the failing trace, ``trace`` the trace itself
    and ``stimulus`` the input program that produced it.  ``coverage`` is
    the plain-dict (picklable) coverage report when the config asked for
    collection, else ``None``.
    """

    def __init__(self):
        self.failed = False
        self.failures: List[AssertionFailure] = []
        self.trace: Optional[Trace] = None
        self.stimulus: Optional[Stimulus] = None
        self.stimuli_tried = 0
        self.sim_error: Optional[str] = None
        self.coverage: Optional[dict] = None

    @property
    def passed_bound(self) -> bool:
        """No counterexample within the search budget (not a proof)."""
        return not self.failed and self.sim_error is None

    def log_text(self, max_lines: int = 4) -> str:
        """The assertion-failure log as it appears in dataset entries."""
        lines = [f.log_line() for f in self.failures[:max_lines]]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        if self.sim_error:
            return f"BmcResult(sim_error={self.sim_error!r})"
        state = "FAIL" if self.failed else "pass(bound)"
        return f"BmcResult({state}, tried={self.stimuli_tried})"


class BmcBatchResult:
    """Per-assertion outcome of one bounded check over a shared design.

    ``failed_labels`` holds assertion labels with a counterexample within
    the bound, ``error_labels`` maps labels whose property the monitor
    could not evaluate (hallucinated constructs) to the error text, and
    ``design_error`` reports an RTL-level simulation failure that voids
    every assertion alike.
    """

    __slots__ = ("failed_labels", "error_labels", "stimuli_tried",
                 "design_error", "coverage")

    def __init__(self):
        self.failed_labels: set = set()
        self.error_labels: dict = {}
        self.stimuli_tried = 0
        self.design_error: Optional[str] = None
        self.coverage: Optional[dict] = None

    def rejects(self, label: str) -> bool:
        """Would an individual bounded check have rejected this label?"""
        return (self.design_error is not None
                or label in self.failed_labels
                or label in self.error_labels)

    def __repr__(self) -> str:  # pragma: no cover
        if self.design_error:
            return f"BmcBatchResult(design_error={self.design_error!r})"
        return (f"BmcBatchResult({len(self.failed_labels)} failed, "
                f"{len(self.error_labels)} errored, "
                f"tried={self.stimuli_tried})")


def _stimulus_portfolio(design: Design, config: BmcConfig) -> Iterable[Stimulus]:
    """Directed patterns first (cheap, catch most corpus bugs), then random."""
    yield constant_sequence(design, config.depth, 1, config.reset_cycles)
    yield constant_sequence(design, config.depth, 0, config.reset_cycles)
    yield toggle_sequence(design, config.depth, 0, config.reset_cycles)
    yield toggle_sequence(design, config.depth, 1, config.reset_cycles)
    yield walking_ones_sequence(design, config.depth, config.reset_cycles)
    rng = random.Random(config.seed)
    for _ in range(config.random_trials):
        yield reset_sequence(design, config.depth, rng, config.reset_cycles)


def _candidate_stimuli(design: Design, config: BmcConfig
                       ) -> Tuple[Iterable, Optional[ExhaustiveWalker]]:
    """The candidate selection of the bounded-check driver.

    The exhaustive-bits decision lives only here, so both driver modes
    draw the exact same stimuli.  An exhaustive set is the codes of a
    fresh :class:`ExhaustiveWalker`, in the order of
    :func:`repro.sim.stimulus.enumerate_exhaustive`: its stimuli share
    long input prefixes, so each distinct prefix is simulated once.
    The directed + random portfolio is plain :class:`Stimulus` objects
    and no walker — its prefixes do not repeat, and keeping their paths
    alive would only feed the garbage collector.
    """
    inputs = design.free_inputs()
    if sum(s.width for s in inputs) * config.depth <= config.exhaustive_bits:
        walker = ExhaustiveWalker(inputs, config.depth, config.reset_cycles)
        return range(walker.count), walker
    return _stimulus_portfolio(design, config), None


def _drive(design: Design, config: BmcConfig,
           result: "BmcResult | BmcBatchResult",
           first_failure: bool) -> None:
    """The one bounded-check driver: fills ``result`` in place.

    One simulator and one :class:`IncrementalChecker` serve every
    candidate stimulus.  An exhaustive set runs by code through the
    walker :func:`_candidate_stimuli` hands over (freed when the check
    returns), so every distinct input prefix simulates once, and a
    :class:`Stimulus` is built only for a reported counterexample; the
    portfolio's stimuli run plainly.  The driver owns the
    ``simulate``/``monitor``/``bmc`` timers and the coverage sink.  An
    RTL-level simulation error voids every assertion alike
    (``sim_error`` / ``design_error``).

    ``first_failure=False`` (a :class:`BmcBatchResult`) scores every
    label independently: the checker advances after each simulated
    cycle, and simulation stops — mid-stimulus if need be — once every
    label has a verdict.  ``first_failure=True`` (a :class:`BmcResult`)
    simulates each stimulus to completion, scans it once in full, and
    stops at the first stimulus with a failure or a property
    ``EvalError``.

    The monitor relies on these stop rules to skip the windows a trace
    replayed from the walker (see :class:`IncrementalChecker`): a label
    is dropped only at its first failure or ``EvalError``, and a
    stimulus is abandoned only once every label it monitors has
    resolved.  So every walker node was created by a stimulus that
    evaluated, for every label still pending, each window ending at
    that node — and, the check having gone on, none of them failed or
    raised.  Every stimulus of a check has the same length, so a tail
    window means the same thing on every trace.
    """
    if not design.assertions:
        return
    start = perf_counter()
    sim_seconds = 0.0
    monitor_seconds = 0.0
    sink = CoverageSink.for_design(design) if config.coverage else None
    checker = None
    try:
        candidates, walker = _candidate_stimuli(design, config)
        simulator = make_simulator(design, config.sim_mode)
        run_iter = (simulator.run_iter if walker is None
                    else partial(walker.run_iter, simulator))
        if sink is not None:
            simulator.cov = sink
        checker = IncrementalChecker(design, config.reset_cycles + 1,
                                     compiled=config.sim_mode == "compiled",
                                     quality=config.coverage,
                                     exhaustive=first_failure)
        labels = {assertion.label for assertion in design.assertions}
        resolved: set = set()
        for candidate in candidates:
            result.stimuli_tried += 1
            cycles = run_iter(candidate)
            t0 = perf_counter()
            try:
                trace = next(cycles)
                checker.start(trace, resolved)
                for _ in cycles:
                    if first_failure:
                        continue  # scanned once, complete, in finalize()
                    t1 = perf_counter()
                    sim_seconds += t1 - t0
                    checker.advance()
                    t0 = perf_counter()
                    monitor_seconds += t0 - t1
                    if checker.all_resolved():
                        break  # every pending label has a verdict
                else:
                    t1 = perf_counter()
                    sim_seconds += t1 - t0
                    checker.finalize()
                    t0 = perf_counter()
                    monitor_seconds += t0 - t1
            except (SimulationError, EvalError) as exc:
                # An RTL-level error voids every assertion alike.  In
                # first-failure mode so does a property the monitor cannot
                # evaluate (hallucinated SVAs): a rejection, not a crash.
                if first_failure:
                    result.sim_error = str(exc)
                else:
                    result.design_error = str(exc)
                return
            if first_failure:
                if checker.failures:
                    result.failed = True
                    result.failures = checker.failures
                    result.trace = trace
                    result.stimulus = (candidate if walker is None
                                       else walker.stimulus(candidate))
                    return
                continue
            result.failed_labels |= checker.failed
            result.error_labels.update(checker.errors)
            resolved = result.failed_labels.union(result.error_labels)
            if resolved >= labels:
                break  # every assertion resolved; no verdict can change
    finally:
        if sink is not None:
            result.coverage = sink.report(
                checker.quality_report() if checker is not None else None)
            accumulate_totals(result.coverage)
        metrics.add_time("simulate", sim_seconds)
        metrics.add_time("monitor", monitor_seconds)
        metrics.add_time("bmc", perf_counter() - start)


def bounded_check(design: Design, config: Optional[BmcConfig] = None) -> BmcResult:
    """Search for an assertion counterexample within the budget.

    Stops at the first stimulus whose complete trace fails an assertion;
    ``failures`` lists every failure on that trace, ordered by assertion
    declaration, then by start cycle.  A simulation error, or a property
    the monitor cannot evaluate, sets ``sim_error`` instead.
    """
    result = BmcResult()
    _drive(design, config or BmcConfig(), result, first_failure=True)
    return result


def bounded_check_batch(design: Design,
                        config: Optional[BmcConfig] = None) -> BmcBatchResult:
    """One portfolio run scoring every assertion independently.

    Equivalent to running :func:`bounded_check` once per assertion on a
    design carrying only that assertion: the stimulus portfolio depends
    only on the design's free inputs (assertions add none), traces are
    identical, and the monitor evaluates each assertion in isolation — so
    ``rejects(label)`` reproduces the individual ``not passed_bound``
    verdict while simulating the shared RTL once instead of N times.

    SVA monitors are evaluated per cycle as the trace grows; a label
    resolves at its first definitive event (failure or property
    ``EvalError``) in start-cycle order, and simulation stops —
    mid-stimulus if need be — the moment every label has a verdict.
    """
    result = BmcBatchResult()
    _drive(design, config or BmcConfig(), result, first_failure=False)
    return result
