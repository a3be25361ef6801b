"""Stage 1 — filtering, syntax checking, and the Verilog-PT dataset.

The paper filters its raw corpus (incomplete modules, logic-free stubs,
duplicates), syntax-checks the rest with Icarus, has GPT-4 write specs, and
keeps *non-compiling* code — paired with a failure analysis — in the
Verilog-PT pretraining set.

Offline we reconstruct the same flow: the raw stream mixes golden template
instances with junk samples (so the filters do real work) and
syntax-broken variants (so the compiler check and failure analyses do real
work).

Execution is decomposed for the execution engine: a cheap serial
pre-pass (:func:`prepare_stage1`) mixes junk, shuffles, filters and
deduplicates (dedup needs corpus-wide state), then the expensive
per-design work (compile, spec, break-sibling) runs as independent
:func:`stage1_unit` tasks whose RNG streams derive from
``(global_seed, module_name, "stage1")`` — so a parallel run is
byte-identical to a serial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.corpus.meta import DesignSeed
from repro.corpus.syntax_breaker import break_syntax
from repro.datagen.records import VerilogPTEntry
from repro.engine import ExecutionEngine, StageContext, derive_rng
from repro.oracles.spec import analyze_compile_failure, write_spec
from repro.store import unit_memo_key
from repro.verilog.compile import compile_source

STAGE_NAME = "stage1"

#: Junk samples mixed into the raw stream per golden seed, so the
#: filters have something to remove.
JUNK_RATE = 0.1

# Junk families the paper's filters remove before the compiler even runs.
_JUNK_SAMPLES = [
    # (1) incomplete: lacks module/endmodule.
    "assign y = a & b;\n",
    "  wire t;\n  assign t = 1'b0;\n",
    # (2) no functional logic: initialisation/assignment only.
    "module stub_init ();\n  reg r;\n  initial\n    r = 1'b0;\nendmodule\n",
    "module stub_empty ();\nendmodule\n",
]


def is_filtered_out(source: str) -> Optional[str]:
    """Apply the paper's three filter criteria.  Returns the reason or None.

    Criteria: (1) incomplete code lacking module/endmodule; (2) code with
    no functional logic (only initialisation/assignments to constants);
    (3) duplicates are handled by the caller (needs corpus-wide state).
    """
    if "module" not in source or "endmodule" not in source:
        return "incomplete"
    body = source.split(";", 1)[-1]
    has_logic = any(kw in body for kw in ("always", "assign", "case", "if"))
    if not has_logic:
        return "no_functional_logic"
    if "assign" in body and "always" not in body:
        # Only constant assignments (no identifier on any RHS) count as
        # logic-free.
        import re
        rhs_ids = re.findall(r"=\s*([A-Za-z_][\w]*)", body)
        if not rhs_ids:
            return "no_functional_logic"
    return None


@dataclass
class Stage1Result:
    """Outputs of Stage 1."""

    compiled: List[DesignSeed] = field(default_factory=list)
    pt_entries: List[VerilogPTEntry] = field(default_factory=list)
    filtered_count: int = 0
    duplicate_count: int = 0
    failed_compile_count: int = 0


@dataclass
class Stage1Task:
    """One per-design work unit (picklable for the process backend)."""

    seed: DesignSeed
    ctx: StageContext
    break_rate: float


@dataclass
class Stage1UnitResult:
    """Per-design output, merged in stream order by :func:`merge_stage1`."""

    seed: DesignSeed
    pt_entries: List[VerilogPTEntry]
    compiled: bool
    failed_compile_count: int


def prepare_stage1(seeds: List[DesignSeed], stream_rng: random.Random
                   ) -> Tuple[List[DesignSeed], int, int]:
    """Serial pre-pass: junk mixing, shuffle, filters, dedup.

    Returns ``(survivors, filtered_count, duplicate_count)``; survivors
    keep the shuffled stream order, which the merge step preserves.
    """
    junk_budget = int(len(seeds) * JUNK_RATE) + 1
    raw_stream: List[Tuple[Optional[DesignSeed], str]] = \
        [(seed, seed.source) for seed in seeds]
    for i in range(junk_budget):
        raw_stream.append((None, _JUNK_SAMPLES[i % len(_JUNK_SAMPLES)]))
    stream_rng.shuffle(raw_stream)

    survivors: List[DesignSeed] = []
    filtered = 0
    duplicates = 0
    seen_sources = set()
    for seed, source in raw_stream:
        if is_filtered_out(source) is not None:
            filtered += 1
            continue
        if source in seen_sources:
            duplicates += 1
            continue
        seen_sources.add(source)
        if seed is not None:
            survivors.append(seed)
        else:  # pragma: no cover - junk never passes the filters
            filtered += 1
    return survivors, filtered, duplicates


def unit_ids(seeds: List[DesignSeed]) -> List[str]:
    """Stable per-design unit ids: the module name, disambiguated when two
    distinct designs drew the same (random-uid) name — otherwise they
    would replay identical derived RNG streams."""
    counts: dict = {}
    ids: List[str] = []
    for seed in seeds:
        occurrence = counts.get(seed.name, 0)
        counts[seed.name] = occurrence + 1
        ids.append(seed.name if occurrence == 0
                   else f"{seed.name}#{occurrence}")
    return ids


def stage1_unit(task: Stage1Task) -> Stage1UnitResult:
    """Pure per-design Stage-1 work: compile + spec (+ broken sibling)."""
    seed = task.seed
    entries: List[VerilogPTEntry] = []
    failed = 0

    compile_result = compile_source(seed.source)
    if not compile_result.ok:
        entries.append(VerilogPTEntry(
            seed.source, write_spec(seed.source, seed.meta),
            analyze_compile_failure(seed.source), compiles=False))
        return Stage1UnitResult(seed, entries, compiled=False,
                                failed_compile_count=1)

    # Clean code + spec also contributes structural insight to PT.
    entries.append(VerilogPTEntry(
        seed.source, write_spec(seed.source, seed.meta), compiles=True))

    # A fraction of samples get a syntax-broken sibling, standing in for
    # the paper's naturally-occurring non-compiling corpus code.
    break_rng = task.ctx.rng("break")
    if break_rng.random() < task.break_rate:
        broken = break_syntax(seed.source, break_rng)
        if broken is not None:
            kind, broken_source = broken
            check = compile_source(broken_source)
            if not check.ok:
                failed += 1
                entries.append(VerilogPTEntry(
                    broken_source,
                    write_spec(broken_source, seed.meta),
                    analyze_compile_failure(broken_source),
                    compiles=False, break_kind=kind))
    return Stage1UnitResult(seed, entries, compiled=True,
                            failed_compile_count=failed)


def merge_stage1(unit_results: List[Stage1UnitResult], filtered_count: int,
                 duplicate_count: int) -> Stage1Result:
    """Deterministic order-preserving merge of per-design results."""
    result = Stage1Result(filtered_count=filtered_count,
                          duplicate_count=duplicate_count)
    for unit in unit_results:
        if unit.compiled:
            result.compiled.append(unit.seed)
        result.pt_entries.extend(unit.pt_entries)
        result.failed_compile_count += unit.failed_compile_count
    return result


def run_stage1(seeds: List[DesignSeed], seed: int = 0,
               break_rate: float = 0.25,
               engine: Optional[ExecutionEngine] = None) -> Stage1Result:
    """Run the filter -> syntax-check -> spec/analysis flow.

    ``break_rate`` of the golden seeds get a syntax-broken sibling (feeding
    the failure-analysis path).  ``seed`` is the stage's global seed;
    per-design streams derive from it, never shared, so any ``engine``
    backend (default: a serial one) yields identical output.
    """
    engine = engine or ExecutionEngine()
    stream_rng = derive_rng(seed, STAGE_NAME, "stream")
    survivors, filtered, duplicates = prepare_stage1(seeds, stream_rng)
    tasks = [Stage1Task(seed=design,
                        ctx=StageContext(seed, STAGE_NAME, unit_id),
                        break_rate=break_rate)
             for design, unit_id in zip(survivors, unit_ids(survivors))]
    unit_results = engine.map(
        stage1_unit, tasks, stage=STAGE_NAME,
        memo_key=lambda task: unit_memo_key(
            task.ctx.stage_name, task.ctx.unit_id, engine.memo_context,
            task.ctx.global_seed))
    return merge_stage1(unit_results, filtered, duplicates)
