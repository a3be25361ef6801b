"""Runtime assertion checking over simulation traces.

Semantics (finite-trace, weak): an obligation that runs past the end of the
trace is *undetermined* and does not fail — mirroring how a simulator only
reports failures it actually observed, while the BMC driver picks trace
depths long enough for obligations to resolve.

Evaluation is 3-valued: a consequent that samples X neither passes nor
fails by value; we treat "not definitely true" as a failure only when all
sampled bits are known.  Reset periods are excluded the standard way via
``disable iff``.
"""

from __future__ import annotations

import threading
import weakref
from time import perf_counter
from typing import List, Optional

from repro.cov.collector import QUALITY_KEYS
from repro.engine import metrics
from repro.sim.compiled import _code, _Emitter
from repro.sim.eval import EvalError, Evaluator
from repro.sim.trace import Trace
from repro.sim.values import FourState
from repro.verilog import ast
from repro.verilog.elaborator import Design


class AssertionFailure:
    """One observed assertion failure."""

    __slots__ = ("module", "label", "property_name", "start_cycle", "fail_cycle",
                 "message")

    def __init__(self, module: str, label: str, property_name: str,
                 start_cycle: int, fail_cycle: int, message: str):
        self.module = module
        self.label = label
        self.property_name = property_name
        self.start_cycle = start_cycle
        self.fail_cycle = fail_cycle
        self.message = message

    def log_line(self) -> str:
        """The log format our datasets carry (modelled on simulator output)."""
        text = (f"failed assertion {self.module}.{self.label} "
                f"at cycle {self.fail_cycle}")
        if self.message:
            text += f": {self.message}"
        return text

    def __repr__(self) -> str:  # pragma: no cover
        return f"AssertionFailure({self.log_line()!r})"


class _TraceEnv:
    """Evaluator environment bound to one trace cycle, with temporal
    system-function support.

    Environments (and their evaluators) are memoized per cycle in a
    registry shared across the whole property check, so the per-cycle /
    per-property loops construct each :class:`Evaluator` once instead of
    once per visit.  An env only holds its cycle *index* — it reads the
    trace lazily, so memoized envs stay valid while a trace is still
    being appended to (the incremental checker relies on this).
    """

    def __init__(self, trace: Trace, cycle: int, params, registry=None):
        self.trace = trace
        self.cycle = cycle
        self.params = params
        self._registry = registry if registry is not None else {}
        self._registry[cycle] = self
        self._evaluator: "Evaluator | None" = None

    def evaluator(self) -> Evaluator:
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = Evaluator(self._lookup, self.params,
                                  sys_hook=self._sys_hook)
            self._evaluator = evaluator
        return evaluator

    def _lookup(self, name: str) -> FourState:
        try:
            return self.trace[self.cycle][name]
        except KeyError:
            raise EvalError(f"no such signal '{name}' in trace") from None

    def _at(self, cycle: int) -> "_TraceEnv":
        env = self._registry.get(cycle)
        if env is None:
            env = _TraceEnv(self.trace, cycle, self.params, self._registry)
        return env

    def _sys_hook(self, name: str, args) -> FourState:
        if name == "$past":
            depth = 1
            if len(args) > 1:
                folded = args[1]
                if isinstance(folded, ast.Number):
                    depth = folded.value
            past_cycle = self.cycle - depth
            if past_cycle < 0:
                return FourState.unknown(1)
            return self._at(past_cycle).evaluator().eval(args[0])
        if name in ("$rose", "$fell", "$stable"):
            if self.cycle == 0:
                return FourState.unknown(1)
            now = self.evaluator().eval(args[0])
            before = self._at(self.cycle - 1).evaluator().eval(args[0])
            if name == "$stable":
                return now.case_eq(before)
            now_bit, before_bit = now.bit(0), before.bit(0)
            if now_bit.has_x or before_bit.has_x:
                return FourState.unknown(1)
            if name == "$rose":
                return FourState.from_bool(before_bit.value == 0 and now_bit.value == 1)
            return FourState.from_bool(before_bit.value == 1 and now_bit.value == 0)
        raise EvalError(f"system function {name} unsupported in properties")


# 3-valued property verdicts.
TRUE = "true"
FALSE = "false"
UNDET = "undetermined"   # obligation ran past the end of the trace / X

_TEMPORAL = ("$past", "$rose", "$fell", "$stable")


class _PropEmitter(_Emitter):
    """Trace-backed variant of the compiled tier's emitter.

    Emits every operator as :class:`repro.sim.compiled._Emitter` does;
    only the environment differs: a signal read is
    ``trace.snapshots[cycle][name]`` (``S[k][name]``, or ``e[name]`` with
    ``e = S[c]`` hoisted for the function's own cycle ``c``), and the
    temporal system functions (``$past``/``$rose``/``$fell``/``$stable``)
    emit their argument again against a shifted cycle local, mirroring
    :meth:`_TraceEnv._sys_hook` verdict for verdict.
    """

    def __init__(self, design: Design):
        super().__init__(design)
        self.fn.ns.update(TRUE=TRUE, FALSE=FALSE, UNDET=UNDET)
        self.cycle = "c"
        #: Whether a read of cycle ``c`` was emitted (``e`` is needed).
        self.hoist = False

    def _ident(self, expr: ast.Ident):
        name = expr.name
        if name in self.params:
            return self._param(name)
        slot = self.slots[name]
        if self.cycle == "c":
            self.hoist = True
            return f"e[{name!r}]", self.widths[slot], False
        return f"S[{self.cycle}][{name!r}]", self.widths[slot], False

    def _at(self, cycle: str, arg: ast.Expr) -> str:
        """``arg`` emitted at ``cycle``, as a name."""
        outer, self.cycle = self.cycle, cycle
        try:
            return self.name(self.expr(arg)[0])
        finally:
            self.cycle = outer

    def _syscall(self, expr: ast.SysCall, mark: int):
        name = expr.name
        if name not in _TEMPORAL:
            if name in self._SYS_VALUE:
                return self._value_syscall(expr, mark)
            return self.raise_(
                EvalError, f"system function {name} unsupported in properties")
        arg = expr.args[0]
        fn = self.fn
        out = f"t{fn.temps}"
        fn.temps += 1
        cycle = self.cycle
        if name == "$past":
            depth = 1
            if len(expr.args) > 1 and isinstance(expr.args[1], ast.Number):
                depth = expr.args[1].value
            past = self.temp(f"{cycle} - {self.const(depth)}")
            inner = self.open(f"if {past} < 0:")
            self.line(f"{out} = _X1")
            self.close(inner)
            inner = self.open("else:")
            self.line(f"{out} = {self._at(past, arg)}")
            self.close(inner)
            return out, None, False
        inner = self.open(f"if {cycle} == 0:")
        self.line(f"{out} = _X1")
        self.close(inner)
        inner = self.open("else:")
        now = self._at(cycle, arg)
        before = self._at(self.temp(f"{cycle} - 1"), arg)
        if name == "$stable":
            self.line(f"{out} = _T if {now}.value == {before}.value and "
                      f"{now}.xmask == {before}.xmask else _F")
        else:
            rose = name == "$rose"
            edge = (f"not {before}.value & 1 and {now}.value & 1" if rose
                    else f"{before}.value & 1 and not {now}.value & 1")
            self.line(f"{out} = _X1 if ({now}.xmask | {before}.xmask) & 1 "
                      f"else (_T if {edge} else _F)")
        self.close(inner)
        return out, 1, False

    def function(self, checks: str = "") -> str:
        """The header and prologue of ``_f(S, c)`` around the lines so far:
        ``checks`` (a bounds check) first, then ``e = S[c]`` if needed."""
        fn = self.fn
        prologue = [(1, line) for line in checks.splitlines()]
        if self.hoist:
            prologue.append((1, "e = S[c]"))
        fn.lines[:0] = prologue
        exec(_code(fn.text("def _f(S, c):")), fn.ns)
        return fn.ns["_f"]


_BOUND = "if c >= len(S): return UNDET, c"


class _PropProgram:
    """Per-design cache of generated property functions.

    :meth:`disabled_fn` emits a ``disable iff`` condition;
    :meth:`prop_fn` emits one function per property node
    (delay windows, implications, negations) that calls its children's
    functions, ``fn(snapshots, cycle) -> (verdict, resolving_cycle)``,
    mirroring :meth:`PropertyChecker.eval_prop` case for case.  Caches
    are keyed by node identity: property ASTs are owned by the
    (immutable, shared) design, so ids are stable for the design's
    lifetime.  Emission plus ``compile()`` is timed as the
    ``compile_program`` phase, like the RTL program's.
    """

    __slots__ = ("_design", "_fns")

    def __init__(self, design: Design):
        # Weak, like CompiledProgram's: the cache is keyed by the design.
        self._design = weakref.ref(design)
        self._fns: dict = {}

    def _get(self, kind: str, node, build):
        key = (kind, id(node))
        fn = self._fns.get(key)
        if fn is None:
            if kind == "prop":
                # Children first, so that each build is timed once.
                for child in node.children():
                    if isinstance(child, ast.PropExpr):
                        self.prop_fn(child)
            start = perf_counter()
            fn = self._fns[key] = build(node)
            metrics.add_time("compile_program", perf_counter() - start)
        return fn

    def disabled_fn(self, expr: ast.Expr):
        """``fn(snapshots, cycle)``: truthy unless ``expr`` is definitely
        false there (a ``disable iff`` condition)."""
        return self._get("disable", expr, self._emit_disabled)

    def prop_fn(self, prop: ast.PropExpr):
        """``fn(snapshots, cycle) -> (verdict, at)``."""
        return self._get("prop", prop, self._emit_prop)

    def _emit_disabled(self, expr: ast.Expr):
        em = _PropEmitter(self._design())
        value = em.name(em.expr(expr)[0])
        em.line(f"return {value}.value or {value}.xmask")
        return em.function()

    def _child(self, em: _PropEmitter, prop: ast.PropExpr) -> str:
        return em.const(self.prop_fn(prop))

    def _emit_prop(self, prop: ast.PropExpr):
        em = _PropEmitter(self._design())
        if isinstance(prop, ast.PropBool):
            value = em.name(em.expr(prop.expr)[0])
            em.line(f"return (TRUE if {value}.value else (FALSE if not "
                    f"{value}.xmask else UNDET)), c")
            return em.function(_BOUND)
        if isinstance(prop, ast.PropNot):
            operand = self._child(em, prop.operand)
            em.line(f"r, a = {operand}(S, c)")
            em.line("return (FALSE if r == TRUE else (TRUE if r == FALSE "
                    "else UNDET)), a")
            return em.function(_BOUND)
        if isinstance(prop, ast.PropDelay):
            rhs = self._child(em, prop.rhs)
            lo, hi = prop.lo, prop.hi
            if prop.lhs is not None:
                lhs = self._child(em, prop.lhs)
                em.line(f"r, a = {lhs}(S, c)")
                em.line("if r != TRUE: return r, a")
                em.line("base = a")
            else:
                em.line("base = c")  # leading ##N counts from `c`
            em.line("u = False")
            loop = em.open(f"for k in range(base + {lo}, base + {hi + 1}):")
            em.line("if k >= n: u = True; continue")
            em.line(f"r, a = {rhs}(S, k)")
            em.line("if r == TRUE: return TRUE, a")
            em.line("if r == UNDET: u = True")
            em.close(loop)
            em.line("if u: return UNDET, n - 1")
            em.line(f"return FALSE, min(base + {hi}, n - 1)")
            return em.function("n = len(S)\nif c >= n: return UNDET, c")
        if isinstance(prop, ast.PropImplication):
            antecedent = self._child(em, prop.antecedent)
            consequent = self._child(em, prop.consequent)
            em.line(f"r, m = {antecedent}(S, c)")
            em.line("if r == FALSE: return TRUE, c  # vacuous pass")
            em.line("if r == UNDET: return UNDET, m")
            em.line(f"return {consequent}(S, m{'' if prop.overlapped else ' + 1'})")
            return em.function(_BOUND)
        # eval_prop bounds-checks before dispatching, so a node past the
        # end of the trace is UNDET even when unknown.
        em.raise_(TypeError,
                  f"cannot evaluate property node {type(prop).__name__}")
        return em.function(_BOUND)


_PROP_LOCK = threading.Lock()
_PROP_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _prop_program(design: Design) -> _PropProgram:
    with _PROP_LOCK:
        program = _PROP_PROGRAMS.get(design)
        if program is None:
            program = _PropProgram(design)
            _PROP_PROGRAMS[design] = program
        return program


def _bool_verdict(value: FourState) -> str:
    if value.is_true():
        return TRUE
    if value.is_false():
        return FALSE
    return UNDET


class PropertyChecker:
    """Interprets properties over one trace (a :class:`Trace` or its
    snapshot list): the reference oracle of the generated property
    functions, which give the same verdicts and the same ``EvalError``
    messages.  :func:`repro.sva.reference.reference_tier` runs the
    monitor on it.
    """

    def __init__(self, design: Design, trace: Trace):
        self.design = design
        self.trace = trace
        self._envs: dict = {}

    def _env(self, cycle: int) -> _TraceEnv:
        env = self._envs.get(cycle)
        if env is None:
            env = _TraceEnv(self.trace, cycle, self.design.params, self._envs)
        return env

    def _eval_bool(self, expr: ast.Expr, cycle: int) -> FourState:
        """Truth value of ``expr`` at ``cycle`` (1-bit, 3-valued)."""
        return self._env(cycle).evaluator().eval_bool(expr)

    def eval_prop(self, prop: ast.PropExpr, cycle: int) -> "tuple[str, int]":
        """Returns (verdict, resolving_cycle)."""
        if cycle >= len(self.trace):
            return UNDET, cycle
        if isinstance(prop, ast.PropBool):
            return _bool_verdict(self._eval_bool(prop.expr, cycle)), cycle
        if isinstance(prop, ast.PropNot):
            verdict, at = self.eval_prop(prop.operand, cycle)
            if verdict == TRUE:
                return FALSE, at
            if verdict == FALSE:
                return TRUE, at
            return UNDET, at
        if isinstance(prop, ast.PropDelay):
            return self._eval_delay(prop, cycle)
        if isinstance(prop, ast.PropImplication):
            return self._eval_implication(prop, cycle)
        raise TypeError(f"cannot evaluate property node {type(prop).__name__}")

    def _eval_delay(self, prop: ast.PropDelay, cycle: int) -> "tuple[str, int]":
        if prop.lhs is not None:
            verdict, at = self.eval_prop(prop.lhs, cycle)
            if verdict != TRUE:
                return verdict, at
            base = at
        else:
            base = cycle - 1  # leading ##N counts from the current cycle
        # Existential over the delay window: the sequence matches if the rhs
        # holds at any offset in [lo, hi].
        saw_undet = False
        for offset in range(prop.lo, prop.hi + 1):
            target = base + offset if prop.lhs is not None else cycle + offset
            if target >= len(self.trace):
                saw_undet = True
                continue
            verdict, at = self.eval_prop(prop.rhs, target)
            if verdict == TRUE:
                return TRUE, at
            if verdict == UNDET:
                saw_undet = True
        if saw_undet:
            return UNDET, len(self.trace) - 1
        last = base + prop.hi if prop.lhs is not None else cycle + prop.hi
        return FALSE, min(last, len(self.trace) - 1)

    def _eval_implication(self, prop: ast.PropImplication,
                          cycle: int) -> "tuple[str, int]":
        verdict, match_end = self.eval_prop(prop.antecedent, cycle)
        if verdict == FALSE:
            return TRUE, cycle  # vacuous pass
        if verdict == UNDET:
            return UNDET, match_end
        start = match_end if prop.overlapped else match_end + 1
        return self.eval_prop(prop.consequent, start)


def property_lookahead(prop: ast.PropExpr) -> int:
    """Static bound on how far past its start cycle a property can sample.

    Evaluating ``prop`` at start cycle ``c`` touches only trace cycles
    ``<= c + property_lookahead(prop)`` (temporal functions like ``$past``
    sample backwards, which never leaves the bound).  Once a trace holds
    more than ``c + lookahead`` cycles, the verdict *and* resolving cycle
    at ``c`` equal the post-hoc full-trace evaluation — no UNDET from
    running off the end of the trace can occur, and no later snapshot is
    consulted.  This is what lets the incremental checker emit final
    verdicts while the simulation is still running.
    """
    if isinstance(prop, ast.PropNot):
        return property_lookahead(prop.operand)
    if isinstance(prop, ast.PropDelay):
        ahead = prop.hi + property_lookahead(prop.rhs)
        if prop.lhs is not None:
            ahead += property_lookahead(prop.lhs)
        return ahead
    if isinstance(prop, ast.PropImplication):
        ahead = (property_lookahead(prop.antecedent)
                 + property_lookahead(prop.consequent))
        if not prop.overlapped:
            ahead += 1
        return ahead
    # PropBool — and unknown nodes, for which eval_prop raises regardless
    # of trace length, so any bound is correct.
    return 0


# Quality counts packed one counter per 64-bit field, in QUALITY_KEYS
# order, so that counts add as one int: per label over a check, and per
# plan along a walker path (see IncrementalChecker).
_FIELD_BITS = 64
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_ACTIVATION, _VACUOUS, _REAL, _FAILS = (
    1 << (_FIELD_BITS * i) for i in range(len(QUALITY_KEYS)))
_PASS = _ACTIVATION | _REAL
_FAIL = _ACTIVATION | _FAILS


class IncrementalChecker:
    """The SVA monitor scan behind every bounded check.

    Built once per check: each assertion's generated functions (see
    :class:`_PropProgram`) and lookahead (see :func:`property_lookahead`)
    are resolved here, not once per stimulus.  :meth:`start` binds each
    new stimulus's trace, which may still be growing.

    By default every label is scored independently (the batch driver's
    mode).  After each simulated cycle :meth:`advance` evaluates every
    start cycle whose lookahead window is now complete, so verdicts are
    available — and simulation can stop — as early as possible;
    :meth:`finalize` evaluates the remaining tail start cycles once the
    trace is complete.  A label *resolves* at its first definitive event
    in start-cycle order: an assertion failure (into ``failed``) or an
    ``EvalError`` from the property (into ``errors``).

    ``exhaustive=True`` is the post-hoc check of one complete trace
    (:func:`repro.sva.bmc.bounded_check`): :meth:`finalize` scans every
    start cycle of every assertion in declaration order and records
    every failure into ``failures``; a property ``EvalError`` propagates
    and leaves the later assertions unscanned and uncounted.

    With ``quality=True`` every scanned start cycle is counted once, per
    label, into :meth:`quality_report`: a TRUE implication whose
    antecedent was FALSE is a *vacuous* pass, any other TRUE a *real*
    pass, a FALSE a fail (always with an activation, since only a TRUE
    antecedent can fail); UNDET counts nothing.

    A trace whose first ``trace.shared`` snapshots were replayed by a
    :class:`repro.sim.runloop.ExhaustiveWalker` skips every window that
    ends below ``shared``: the window end of start cycle ``c`` is ``c +
    lookahead``, or the last cycle for a tail window.  The driver's stop
    rules (see :func:`repro.sva.bmc._drive`) guarantee that an earlier
    stimulus of the same check, through the same walker prefix, already
    evaluated that window over identical snapshots while its label was
    pending, and that it neither failed nor raised.  Each evaluated
    window records on the walker node where it ends (``memo``, keyed by
    plan) the plan's quality counts over every window of the path that
    ends there, so a scan that skips adds them with one lookup, and
    counts are those of a scan of every window.
    """

    def __init__(self, design: Design, skip_cycles: int,
                 quality: bool = False, exhaustive: bool = False):
        self.design = design
        self.skip_cycles = skip_cycles
        self.quality = quality
        self.exhaustive = exhaustive
        self.trace: Optional[Trace] = None
        self.failed: set = set()
        self.errors: dict = {}
        self.failures: List[AssertionFailure] = []
        self._pending: list = []
        #: label -> packed quality counts, once a plan of it is scanned.
        self._counts: dict = {}
        # (assertion, lookahead, body_fn, disable_fn, quality,
        #  antecedent, ant_fn, fast, index) per assertion; the functions
        # take (snapshots, cycle).  ``fast`` is ``(ant_fn, cons_fn,
        # overlapped)`` for implication bodies whose antecedent is a
        # plain boolean: there ``match_end == cycle``, so the scan can
        # evaluate the antecedent once and then only the consequent —
        # instead of the whole implication plus a second antecedent pass
        # for vacuity classification.  ``index`` keys the plan's counts
        # in walker-node memos.
        program = _prop_program(design)
        self._plans = []
        for index, assertion in enumerate(design.assertions):
            body = assertion.prop.body
            disable = assertion.prop.disable
            body_fn = program.prop_fn(body)
            disable_fn = (program.disabled_fn(disable)
                          if disable is not None else None)
            antecedent = ant_fn = fast = None
            if quality and isinstance(body, ast.PropImplication):
                antecedent = body.antecedent
                ant_fn = program.prop_fn(antecedent)
                if isinstance(antecedent, ast.PropBool):
                    fast = (ant_fn, program.prop_fn(body.consequent),
                            body.overlapped)
            self._plans.append(
                (assertion, property_lookahead(body), body_fn, disable_fn,
                 quality, antecedent, ant_fn, fast, index))

    def start(self, trace: Trace, resolved=()) -> None:
        """Monitor a new stimulus's ``trace`` from its first cycle.

        Assertions whose label is in ``resolved`` (verdicts from earlier
        stimuli) are dropped for the rest of the check.
        """
        if resolved:
            self._plans = [plan for plan in self._plans
                           if plan[0].label not in resolved]
        self.trace = trace
        self.failed = set()
        self.errors = {}
        self.failures = []
        # [plan, next start cycle, packed counts of the windows before
        # it on this trace]
        self._pending = [[plan, self.skip_cycles, 0] for plan in self._plans]
        if not self.exhaustive:
            self._register(self._plans)

    def all_resolved(self) -> bool:
        return not self._pending

    def advance(self) -> None:
        """Evaluate every start cycle with a complete lookahead window."""
        length = len(self.trace.snapshots)
        if not self._pending or length <= self.trace.shared:
            return  # nothing pending, or every window so far replayed
        self._pending = [
            entry for entry in self._pending
            if not self._scan(entry, length - 1 - entry[0][1])]

    def finalize(self) -> None:
        """Trace complete: evaluate the remaining start cycles."""
        limit = len(self.trace.snapshots) - 1
        if self.exhaustive:
            for entry in self._pending:
                self._register((entry[0],))
                self._scan(entry, limit)
            self._pending = []
            return
        self._pending = [entry for entry in self._pending
                         if not self._scan(entry, limit)]

    def _register(self, plans) -> None:
        """Enter the plans' labels into the quality report."""
        if self.quality:
            for plan in plans:
                self._counts.setdefault(plan[0].label, 0)

    def quality_report(self) -> dict:
        """Label -> quality counters of every start cycle scanned."""
        report = {}
        for label, packed in self._counts.items():
            counters = report[label] = {}
            for key in QUALITY_KEYS:
                counters[key] = packed & _FIELD_MASK
                packed >>= _FIELD_BITS
        return report

    def _scan(self, entry, limit: int) -> bool:
        """Evaluate start cycles up to ``limit``; True when resolved."""
        plan, cycle, counted_before = entry
        (assertion, lookahead, body_fn, disable_fn,
         quality, antecedent, ant_fn, fast, index) = plan
        prop = assertion.prop
        trace = self.trace
        snapshots = trace.snapshots
        nodes = trace.nodes
        last = len(snapshots) - 1
        shared = trace.shared
        counted = counted_before
        if shared:
            # Windows ending below ``shared`` were settled by an earlier
            # stimulus: skip them, taking their counts from the memo of
            # the last one's end node.
            stop = (limit + 1 if shared > last
                    else min(shared - lookahead, limit + 1))
            if cycle < stop:
                if quality:
                    counted = nodes[min(stop - 1 + lookahead, last)].memo[index]
                cycle = stop
        if fast is not None:
            ant_bool_fn, cons_fn, overlapped = fast
        try:
            while cycle <= limit:
                if disable_fn is not None and disable_fn(snapshots, cycle):
                    verdict = UNDET
                elif fast is not None:
                    # Mirrors the implication with a PropBool antecedent,
                    # whose match_end is cycle (cycle <= limit <
                    # len(trace), so it never reads UNDET for bounds).
                    ant, _ = ant_bool_fn(snapshots, cycle)
                    if ant == TRUE:
                        verdict, at = cons_fn(
                            snapshots, cycle if overlapped else cycle + 1)
                        if verdict == TRUE:
                            counted += _PASS
                        elif verdict == FALSE:
                            counted += _FAIL
                    elif ant == FALSE:
                        verdict = TRUE
                        counted += _VACUOUS
                    else:
                        verdict = UNDET
                else:
                    verdict, at = body_fn(snapshots, cycle)
                    if quality and verdict != UNDET:
                        if antecedent is None:
                            counted += _PASS if verdict == TRUE else _FAIL
                        else:
                            ant, _ = ant_fn(snapshots, cycle)
                            if ant == TRUE:
                                counted += _ACTIVATION
                            if verdict == TRUE:
                                counted += _VACUOUS if ant == FALSE else _REAL
                            else:
                                counted += _FAILS
                if quality and nodes:
                    end = cycle + lookahead  # the window's last cycle
                    node = nodes[end if end < last else last]
                    if node.memo is None:
                        node.memo = {}
                    node.memo[index] = counted
                if verdict == FALSE:
                    self.failed.add(assertion.label)
                    self.failures.append(AssertionFailure(
                        self.design.name, assertion.label, prop.name,
                        cycle, at, assertion.message))
                    if not self.exhaustive:
                        return True
                cycle += 1
        except EvalError as exc:
            if self.exhaustive:
                raise
            self.errors[assertion.label] = str(exc)
            return True
        finally:
            if counted != counted_before:
                self._counts[assertion.label] += counted - counted_before
        entry[1] = cycle
        entry[2] = counted
        return False
