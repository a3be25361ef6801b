"""Stage 2 — key components generation and validation.

For every compiled design:

1. The SVA oracle (Claude-3.5 surrogate) proposes assertions; each one is
   inserted into the *golden* design and compiled, and the compiling ones
   share one batched bounded check (:func:`validate_svas`, verdicts equal
   to the one-check-per-proposal reference it falls back to).  Proposals
   that fail either step are hallucinations and are dropped.
2. The bug injector proposes mutations; mutants that fail compilation are
   dropped (the paper "employed the compiler again to identify and
   eliminate syntax errors introduced during the random bug generation").
3. Each surviving bug is checked against the validated SVAs.  If an
   assertion fires, the case becomes an SVA-Bug candidate (with its logs
   and Direct/Indirect classification); otherwise it becomes a Verilog-Bug
   entry — a real functional bug the available assertions failed to cover.

Each design is an independent :func:`stage2_unit` task: the SVA oracle and
bug injector get fresh RNG streams derived from
``(global_seed, module_name, "stage2")``, so designs can be processed on
any worker in any order and still merge into the exact serial result.
This stage dominates pipeline wall time (it owns the bounded checker), so
it benefits most from the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bugs.classify import classify_relation
from repro.bugs.injector import BugInjector
from repro.cov import merge_reports
from repro.corpus.meta import DesignSeed
from repro.datagen.records import SvaBugEntry, VerilogBugEntry
from repro.datagen.stage1 import unit_ids
from repro.engine import ExecutionEngine, StageContext
from repro.oracles.spec import write_spec
from repro.oracles.sva import SvaOracle, SvaProposal
from repro.store import unit_memo_key
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.verilog import ast
from repro.verilog.compile import compile_source
from repro.verilog.writer import write_module

STAGE_NAME = "stage2"

@dataclass
class Stage2Result:
    sva_bug_entries: List[SvaBugEntry] = field(default_factory=list)
    verilog_bug_entries: List[VerilogBugEntry] = field(default_factory=list)
    rejected_svas: int = 0
    accepted_svas: int = 0
    rejected_bugs_syntax: int = 0
    sim_error_count: int = 0

    def merge_from(self, other: "Stage2Result") -> None:
        """Accumulate another (per-design) result into this one."""
        self.sva_bug_entries.extend(other.sva_bug_entries)
        self.verilog_bug_entries.extend(other.verilog_bug_entries)
        self.rejected_svas += other.rejected_svas
        self.accepted_svas += other.accepted_svas
        self.rejected_bugs_syntax += other.rejected_bugs_syntax
        self.sim_error_count += other.sim_error_count


@dataclass
class Stage2Task:
    """One per-design work unit (picklable for the process backend)."""

    seed: DesignSeed
    ctx: StageContext
    bugs_per_design: int
    hallucination_rate: float
    bmc: BmcConfig


def _validate_svas_per_proposal(seed: DesignSeed,
                                proposals: List[SvaProposal],
                                bmc: BmcConfig,
                                coverage_out: Optional[dict] = None
                                ) -> "tuple[List[SvaProposal], int]":
    """Reference validation: one full bounded check per proposal."""
    valid: List[SvaProposal] = []
    rejected = 0
    reports = []
    for proposal in proposals:
        combined = compile_with_sva(seed.source, proposal.blocks())
        if not combined.ok:
            rejected += 1
            continue
        check = bounded_check(combined.design, bmc)
        if check.coverage:
            reports.append(check.coverage)
        if not check.passed_bound:
            rejected += 1
            continue
        valid.append(proposal)
    if coverage_out is not None and reports:
        coverage_out.update(merge_reports(reports))
    return valid, rejected


def _assertion_label(proposal: SvaProposal) -> str:
    # SvaHint.assertion_source labels the assertion "<name>_assertion".
    return f"{proposal.name}_assertion"


def validate_svas(seed: DesignSeed, proposals: List[SvaProposal],
                  bmc: BmcConfig, coverage_out: Optional[dict] = None
                  ) -> "tuple[List[SvaProposal], int]":
    """Keep proposals that compile into and hold on the golden design.

    Non-compiling proposals are filtered individually (cheap), then all
    survivors are scored with one shared bounded check — verdicts are
    identical to :func:`_validate_svas_per_proposal` (asserted by the
    test suite) at a fraction of the simulation cost.  Falls back to that
    reference whenever per-label attribution would be ambiguous.

    With ``bmc.coverage`` on, ``coverage_out`` (a dict) receives the
    coverage report the validating checks already produced — callers get
    telemetry without re-running a single simulation.
    """
    golden = compile_source(seed.source) if len(proposals) > 1 else None
    if golden is None or not golden.ok or (golden.design is not None
                                           and golden.design.assertions):
        # One proposal, or pre-existing assertions that would mix with
        # proposal labels.
        return _validate_svas_per_proposal(seed, proposals, bmc,
                                           coverage_out)

    compiling: List[SvaProposal] = []
    rejected = 0
    for proposal in proposals:
        if compile_with_sva(seed.source, proposal.blocks()).ok:
            compiling.append(proposal)
        else:
            rejected += 1
    if not compiling:
        return [], rejected
    blocks: List[str] = []
    for proposal in compiling:
        blocks.extend(proposal.blocks())
    combined = compile_with_sva(seed.source, blocks)
    # Individually-valid proposals that clash when combined (no labels),
    # or label drift (which would silently accept failing proposals),
    # make the attribution ambiguous: use the reference path.
    labels = ({a.label for a in combined.design.assertions}
              if combined.ok else set())
    if any(_assertion_label(p) not in labels for p in compiling):
        valid, more_rejected = _validate_svas_per_proposal(
            seed, compiling, bmc, coverage_out)
        return valid, rejected + more_rejected
    batch = bounded_check_batch(combined.design, bmc)
    if coverage_out is not None and batch.coverage:
        coverage_out.update(batch.coverage)
    valid = [proposal for proposal in compiling
             if not batch.rejects(_assertion_label(proposal))]
    return valid, rejected + (len(compiling) - len(valid))


def process_design(seed: DesignSeed, sva_oracle: SvaOracle,
                   injector: BugInjector, bugs_per_design: int,
                   bmc: BmcConfig) -> Stage2Result:
    """Run Stage 2 for one design.

    Input contract: ``seed.source`` compiles (Stage 1 only forwards
    compiling designs through ``Stage1Result.compiled``).
    """
    result = Stage2Result()
    spec = write_spec(seed.source, seed.meta)

    proposals = sva_oracle.propose(seed)
    valid_svas, rejected = validate_svas(seed, proposals, bmc)
    result.rejected_svas += rejected
    result.accepted_svas += len(valid_svas)
    if not valid_svas:
        return result
    sva_blocks: List[str] = []
    for proposal in valid_svas:
        sva_blocks.extend(proposal.blocks())

    records = injector.inject_many(seed.source, bugs_per_design, seed.name)
    for record in records:
        buggy_check = compile_source(record.buggy_source)
        if not buggy_check.ok:
            result.rejected_bugs_syntax += 1
            continue
        combined = compile_with_sva(record.buggy_source, sva_blocks)
        if not combined.ok:
            result.rejected_bugs_syntax += 1
            continue
        check = bounded_check(combined.design, bmc)
        if check.sim_error is not None:
            result.sim_error_count += 1
            continue
        if check.failed:
            module = combined.module
            buggy_with_sva = write_module(module)
            # Recompute the golden line inside the SVA-carrying source: SVA
            # insertion appends after the RTL, so RTL line numbers are
            # unchanged — assert that invariant instead of trusting it.
            buggy_lines = buggy_with_sva.splitlines()
            if buggy_lines[record.line - 1].strip() != record.buggy_line:
                result.sim_error_count += 1
                continue
            labels = sorted({f.label for f in check.failures})
            signals = _failing_assertion_signals(module, labels)
            relation = classify_relation(buggy_check.module, record.line,
                                         signals)
            result.sva_bug_entries.append(SvaBugEntry(
                record=record, spec=spec,
                buggy_source_with_sva=buggy_with_sva,
                logs=check.log_text(), failing_labels=labels,
                relation=relation, assertion_signals=signals))
        else:
            result.verilog_bug_entries.append(VerilogBugEntry(record, spec))
    return result


def stage2_unit(task: Stage2Task) -> Stage2Result:
    """Pure per-design Stage-2 work with unit-derived oracle/injector RNGs."""
    sva_oracle = SvaOracle(task.ctx.rng("sva"),
                           hallucination_rate=task.hallucination_rate)
    injector = BugInjector(task.ctx.rng("bugs"))
    return process_design(task.seed, sva_oracle, injector,
                          task.bugs_per_design, task.bmc)


def _failing_assertion_signals(module: ast.Module,
                               labels: List[str]) -> List[str]:
    """Union of identifiers in the failing assertions' property bodies."""
    from repro.bugs.classify import assertion_expr_signals
    signals: List[str] = []
    for label in labels:
        for name in assertion_expr_signals(module, label):
            if name not in signals:
                signals.append(name)
    return signals


def run_stage2(seeds: List[DesignSeed], seed: int = 0,
               bugs_per_design: int = 4,
               hallucination_rate: float = 0.15,
               bmc: Optional[BmcConfig] = None,
               engine: Optional[ExecutionEngine] = None) -> Stage2Result:
    """Run Stage 2 over a list of compiled designs.

    ``seed`` is the stage's global seed; each design's streams derive from
    it plus the module name, so output is identical across ``engine``
    backends (default: a serial one).
    """
    engine = engine or ExecutionEngine()
    bmc = bmc or BmcConfig(depth=10, random_trials=24)
    tasks = [Stage2Task(seed=design,
                        ctx=StageContext(seed, STAGE_NAME, unit_id),
                        bugs_per_design=bugs_per_design,
                        hallucination_rate=hallucination_rate,
                        bmc=bmc)
             for design, unit_id in zip(seeds, unit_ids(seeds))]
    unit_results = engine.map(
        stage2_unit, tasks, stage=STAGE_NAME,
        memo_key=lambda task: unit_memo_key(
            task.ctx.stage_name, task.ctx.unit_id, engine.memo_context,
            task.ctx.global_seed))
    result = Stage2Result()
    for unit_result in unit_results:
        result.merge_from(unit_result)
    return result
