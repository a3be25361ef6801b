"""Stage 3 — CoT generation and validation.

The CoT oracle writes a reasoning chain for each training SVA-Bug entry;
a validation script compares the chain's conclusion with the golden
solution.  Entries with a correct chain keep it (and their question gains
the 'step by step' marker); entries with a wrong chain keep only the plain
buggy-line/fix answer — matching the paper's two entry forms.

Each entry is an independent :func:`stage3_unit` task whose oracle RNG
derives from ``(global_seed, module_name, "stage3")`` plus the entry's
per-design ordinal, so chains are attached identically whether entries
are processed serially or across a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bugs.injector import BugRecord
from repro.datagen.records import SvaBugEntry
from repro.engine import ExecutionEngine, StageContext
from repro.oracles.cot import CotOracle
from repro.store import unit_memo_key

STAGE_NAME = "stage3"


@dataclass
class Stage3Result:
    entries: List[SvaBugEntry] = field(default_factory=list)
    generated: int = 0
    validated: int = 0

    @property
    def validity_rate(self) -> float:
        if not self.generated:
            return 0.0
        return self.validated / self.generated


@dataclass
class Stage3Task:
    """One per-entry work unit: just the fields the oracle reads."""

    record: BugRecord
    logs: str
    assertion_signals: List[str]
    ctx: StageContext
    ordinal: int  # per-design ordinal, keeps sibling entries' streams apart


def stage3_unit(task: Stage3Task) -> Tuple[Optional[str], bool]:
    """Generate one chain; return (text, validated-against-golden)."""
    oracle = CotOracle(task.ctx.rng(f"cot#{task.ordinal}"))
    proposal = oracle.generate(task.record, task.logs,
                               task.assertion_signals)
    return proposal.text, proposal.is_correct_for(task.record)


def run_stage3(entries: List[SvaBugEntry], seed: int = 0,
               engine: Optional[ExecutionEngine] = None) -> Stage3Result:
    """Attach validated CoTs to training entries (in place) and report the
    observed validity rate (paper: 74.55%).

    Per-entry streams are derived from ``seed``, so any ``engine``
    backend (default: a serial one) yields identical output.
    """
    engine = engine or ExecutionEngine()
    result = Stage3Result()
    ordinals: Dict[str, int] = {}
    tasks: List[Stage3Task] = []
    for entry in entries:
        name = entry.record.design_name
        ordinal = ordinals.get(name, 0)
        ordinals[name] = ordinal + 1
        tasks.append(Stage3Task(
            record=entry.record, logs=entry.logs,
            assertion_signals=entry.assertion_signals,
            ctx=StageContext(seed, STAGE_NAME, name), ordinal=ordinal))
    # Sibling entries of one design share a ctx.unit_id; the ordinal
    # keeps their memo keys (like their RNG streams) apart.
    outcomes = engine.map(
        stage3_unit, tasks, stage=STAGE_NAME,
        memo_key=lambda task: unit_memo_key(
            task.ctx.stage_name, task.ctx.unit_id, engine.memo_context,
            task.ctx.global_seed, task.ordinal))
    for entry, (text, validated) in zip(entries, outcomes):
        result.generated += 1
        if validated:
            entry.cot = text
            result.validated += 1
        else:
            entry.cot = None
        result.entries.append(entry)
    return result
