"""The cycle-based simulator.

Execution model per clock cycle:

1. drive inputs (free inputs from the stimulus vector, resets from the
   reset protocol);
2. evaluate every sequential ``always`` block against the *pre-edge*
   environment, collecting non-blocking updates;
3. commit the updates together (classic two-phase NBA semantics);
4. settle combinational logic (continuous assigns + ``always @(*)``) to a
   fixed point;
5. snapshot the environment into the trace.

Uninitialized registers start as X; a proper reset protocol (held active
for ``reset_cycles`` full cycles) drives them to known values, exactly the
discipline the corpus designs follow.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.eval import EvalError, Evaluator
from repro.sim.runloop import RunLoop
from repro.sim.stimulus import reset_values
from repro.sim.values import FourState
from repro.verilog import ast
from repro.verilog.elaborator import Design

_MAX_SETTLE_ITERATIONS = 50


class SimulationError(Exception):
    """Raised for runtime problems (combinational loops, missing drivers)."""


class Simulator(RunLoop):
    """Executes one elaborated design against a stimulus."""

    def __init__(self, design: Design):
        self.design = design
        self.env: Dict[str, FourState] = {}
        self.trace_names = sorted(design.symbols)
        self._reset_active = reset_values(design, active=True)
        self._reset_inactive = reset_values(design, active=False)
        self._zeros = {s.name: 0 for s in design.free_inputs()}
        #: Optional :class:`repro.cov.CoverageSink`; when attached, every
        #: appended snapshot is also observed for coverage.  Off-path
        #: cost: one None check per cycle.
        self.cov = None
        self._reset_env()

    # -- environment -----------------------------------------------------

    def _reset_env(self) -> None:
        self.env = {}
        for sym in self.design.symbols.values():
            if sym.init is not None:
                value = Evaluator(self._lookup, self.design.params).eval(sym.init)
                self.env[sym.name] = value.resize(sym.width)
            else:
                self.env[sym.name] = FourState.unknown(sym.width)
        for block in self.design.initial_blocks:
            updates: Dict[str, FourState] = {}
            self._exec_stmt(block.body, self.env, updates, blocking_env=self.env)
            self.env.update(updates)

    def _lookup(self, name: str) -> FourState:
        try:
            return self.env[name]
        except KeyError:
            raise EvalError(f"no such signal '{name}'") from None

    def _drive(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            sym = self.design.symbols.get(name)
            if sym is None:
                raise SimulationError(f"cannot drive unknown input '{name}'")
            self.env[name] = FourState(sym.width, value)

    # -- statement execution ------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt, read_env: Dict[str, FourState],
                   nba_updates: Dict[str, FourState],
                   blocking_env: Dict[str, FourState]) -> None:
        """Execute ``stmt``.

        Reads resolve against ``blocking_env`` (which starts as a copy of the
        pre-edge environment and absorbs blocking writes); non-blocking
        writes go to ``nba_updates`` for a later commit.
        """
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self._exec_stmt(child, read_env, nba_updates, blocking_env)
        elif isinstance(stmt, ast.Assignment):
            evaluator = Evaluator(lambda n: self._env_get(blocking_env, n),
                                  self.design.params)
            value = evaluator.eval(stmt.value)
            if stmt.blocking:
                self._write_target(stmt.target, value, blocking_env, evaluator)
            else:
                self._write_target(stmt.target, value, nba_updates, evaluator,
                                   base_env=blocking_env)
        elif isinstance(stmt, ast.If):
            evaluator = Evaluator(lambda n: self._env_get(blocking_env, n),
                                  self.design.params)
            cond = evaluator.eval(stmt.cond)
            if cond.is_true():
                self._exec_stmt(stmt.then, read_env, nba_updates, blocking_env)
            elif stmt.other is not None and cond.is_false():
                self._exec_stmt(stmt.other, read_env, nba_updates, blocking_env)
            elif cond.has_x:
                # Unknown condition: conservatively X-out every target of
                # both branches.
                self._poison_targets(stmt.then, nba_updates, blocking_env)
                if stmt.other is not None:
                    self._poison_targets(stmt.other, nba_updates, blocking_env)
        elif isinstance(stmt, ast.Case):
            self._exec_case(stmt, read_env, nba_updates, blocking_env)
        elif isinstance(stmt, ast.SysTaskCall):
            pass  # $display/$finish are inert in the cycle engine.
        else:
            raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_case(self, stmt: ast.Case, read_env, nba_updates, blocking_env) -> None:
        evaluator = Evaluator(lambda n: self._env_get(blocking_env, n),
                              self.design.params)
        subject = evaluator.eval(stmt.subject)
        default_item = None
        for item in stmt.items:
            if item.is_default:
                default_item = item
                continue
            for label in item.labels:
                label_value = evaluator.eval(label)
                if stmt.kind in ("casez", "casex"):
                    # Treat x bits in the label as wildcards.
                    care = ~label_value.xmask
                    width = max(subject.width, label_value.width)
                    if subject.has_x:
                        continue
                    if ((subject.value ^ label_value.value)
                            & care & ((1 << width) - 1)) == 0:
                        self._exec_stmt(item.body, read_env, nba_updates,
                                        blocking_env)
                        return
                else:
                    match = subject.eq(label_value)
                    if match.is_true():
                        self._exec_stmt(item.body, read_env, nba_updates,
                                        blocking_env)
                        return
        if default_item is not None:
            self._exec_stmt(default_item.body, read_env, nba_updates, blocking_env)

    def _poison_targets(self, stmt: ast.Stmt, nba_updates, blocking_env) -> None:
        from repro.verilog.elaborator import _walk_stmts
        for inner in _walk_stmts(stmt):
            if isinstance(inner, ast.Assignment):
                for name in _target_name_list(inner.target):
                    sym = self.design.symbols.get(name)
                    if sym is not None:
                        nba_updates[name] = FourState.unknown(sym.width)

    def _env_get(self, env: Dict[str, FourState], name: str) -> FourState:
        if name in env:
            return env[name]
        if name in self.env:
            return self.env[name]
        raise EvalError(f"no such signal '{name}'")

    def _write_target(self, target: ast.Expr, value: FourState,
                      sink: Dict[str, FourState], evaluator: Evaluator,
                      base_env: Optional[Dict[str, FourState]] = None) -> None:
        if isinstance(target, ast.Ident):
            sym = self.design.symbols.get(target.name)
            if sym is None:
                raise SimulationError(f"write to unknown signal '{target.name}'")
            sink[target.name] = value.resize(sym.width)
        elif isinstance(target, ast.BitSelect):
            name = _base_name(target)
            sym = self.design.symbols[name]
            index = evaluator.eval(target.index)
            current = sink.get(name)
            if current is None:
                source = base_env if base_env is not None else sink
                current = self._env_get(source, name)
            if index.has_x:
                sink[name] = FourState.unknown(sym.width)
            else:
                sink[name] = current.replace_slice(index.value, index.value,
                                                   value.resize(1))
        elif isinstance(target, ast.PartSelect):
            name = _base_name(target)
            sym = self.design.symbols[name]
            msb = evaluator.eval(target.msb)
            lsb = evaluator.eval(target.lsb)
            current = sink.get(name)
            if current is None:
                source = base_env if base_env is not None else sink
                current = self._env_get(source, name)
            if msb.has_x or lsb.has_x:
                sink[name] = FourState.unknown(sym.width)
            else:
                span = abs(msb.value - lsb.value) + 1
                sink[name] = current.replace_slice(msb.value, lsb.value,
                                                   value.resize(span))
        elif isinstance(target, ast.Concat):
            # {a, b} = value : split from the high end.
            offset = value.width
            for part in target.parts:
                width = self._target_width(part)
                offset -= width
                part_value = value.slice(min(offset + width - 1, value.width - 1),
                                         max(offset, 0))
                self._write_target(part, part_value.resize(width), sink,
                                   evaluator, base_env)
        else:
            raise SimulationError(
                f"unsupported assignment target {type(target).__name__}")

    def _target_width(self, target: ast.Expr) -> int:
        if isinstance(target, ast.Ident):
            return self.design.symbols[target.name].width
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            msb = Evaluator(self._lookup, self.design.params).eval(target.msb)
            lsb = Evaluator(self._lookup, self.design.params).eval(target.lsb)
            return abs(msb.value - lsb.value) + 1
        if isinstance(target, ast.Concat):
            return sum(self._target_width(p) for p in target.parts)
        raise SimulationError("bad assignment target")

    # -- combinational settling ------------------------------------------------

    def settle(self) -> None:
        for iteration in range(_MAX_SETTLE_ITERATIONS):
            changed = False
            evaluator = Evaluator(self._lookup, self.design.params)
            for item in self.design.assigns:
                value = evaluator.eval(item.value)
                changed |= self._commit_comb(item.target, value, evaluator)
            for block in self.design.comb_blocks:
                scratch = dict(self.env)
                updates: Dict[str, FourState] = {}
                self._exec_stmt(block.body, self.env, updates, blocking_env=scratch)
                # In comb blocks both '=' and '<=' behave combinationally.
                for name, value in updates.items():
                    scratch[name] = value
                for name in self._block_targets(block):
                    if name in scratch and scratch[name] != self.env.get(name):
                        self.env[name] = scratch[name]
                        changed = True
            if not changed:
                return
        raise SimulationError(
            f"combinational logic failed to settle within "
            f"{_MAX_SETTLE_ITERATIONS} iterations (loop?)")

    def _commit_comb(self, target: ast.Expr, value: FourState,
                     evaluator: Evaluator) -> bool:
        scratch: Dict[str, FourState] = {}
        self._write_target(target, value, scratch, evaluator, base_env=self.env)
        changed = False
        for name, new_value in scratch.items():
            if self.env.get(name) != new_value:
                self.env[name] = new_value
                changed = True
        return changed

    def _block_targets(self, block: ast.AlwaysBlock) -> List[str]:
        from repro.verilog.elaborator import _walk_stmts
        names: List[str] = []
        for stmt in _walk_stmts(block.body):
            if isinstance(stmt, ast.Assignment):
                names.extend(_target_name_list(stmt.target))
        return names

    # -- cycle engine --------------------------------------------------------------

    def tick(self) -> None:
        """One clock edge: evaluate sequential blocks, commit, settle."""
        nba_updates: Dict[str, FourState] = {}
        for block in self.design.seq_blocks:
            scratch = dict(self.env)
            self._exec_stmt(block.body, self.env, nba_updates, blocking_env=scratch)
            # Blocking writes inside clocked blocks also commit at the edge.
            for name, value in scratch.items():
                if self.env.get(name) != value and name not in nba_updates:
                    sym = self.design.symbols.get(name)
                    if sym is not None and sym.is_state:
                        nba_updates[name] = value
        self.env.update(nba_updates)
        self.settle()

    # -- run-loop primitives (see repro.sim.runloop) ----------------------

    def _start(self) -> None:
        self._reset_env()

    def _cycle(self, vector: Optional[Dict[str, int]]):
        """Drive one cycle's inputs (``None``: a reset cycle) and settle."""
        if vector is None:
            self._drive(self._zeros)
            self._drive(self._reset_active)
            inputs = {**self._zeros, **self._reset_active}
        else:
            self._drive(vector)
            self._drive(self._reset_inactive)
            inputs = {**vector, **self._reset_inactive}
        self.settle()
        return dict(self.env), inputs

    def _load(self, snapshot: Dict[str, FourState]) -> None:
        self.env = dict(snapshot)

    def _save(self) -> Dict[str, FourState]:
        return dict(self.env)

    def _restore(self, state: Dict[str, FourState]) -> None:
        self.env = dict(state)


def _base_name(target: ast.Expr) -> str:
    while isinstance(target, (ast.BitSelect, ast.PartSelect)):
        target = target.base
    if isinstance(target, ast.Ident):
        return target.name
    raise SimulationError("assignment target base is not an identifier")


def _target_name_list(target: ast.Expr) -> List[str]:
    if isinstance(target, ast.Ident):
        return [target.name]
    if isinstance(target, (ast.BitSelect, ast.PartSelect)):
        return _target_name_list(target.base)
    if isinstance(target, ast.Concat):
        names: List[str] = []
        for part in target.parts:
            names.extend(_target_name_list(part))
        return names
    return []
