"""The AssertSolver model: PT -> SFT -> DPO -> sampling inference.

Usage mirrors the paper's phases::

    model = AssertSolver(seed=0)
    model.pretrain(bundle.verilog_pt)                       # PT
    model.train_sft(bundle.sva_bug_train, bundle.verilog_bug)  # SFT
    model.train_dpo(bundle.sva_bug_train)                   # DPO
    responses = model.generate(problem, n=20)               # inference

``generate`` returns n JSON-serialisable responses, each with the candidate
buggy line, the suggested fix and a CoT — the output contract of the
paper's Fig. 2 (III).
"""

from __future__ import annotations

import json
import random
from typing import Iterable, List, Optional

import numpy as np

from repro.datagen.records import SvaBugEntry, VerilogBugEntry, VerilogPTEntry
from repro.model.candidates import CandidateSpace, RepairCandidate, enumerate_repairs
from repro.model.dpo import (calibrate_margin, mine_challenging,
                             sample_indices, train_dpo)
from repro.model.features import CaseContext
from repro.model.ngram_lm import NgramLM
from repro.model.sft import TrainExample, train_sft


class Problem:
    """An inference input: exactly the question fields of the benchmark."""

    __slots__ = ("spec", "source", "logs")

    def __init__(self, spec: str, source: str, logs: str):
        self.spec = spec
        self.source = source
        self.logs = logs

    @classmethod
    def from_entry(cls, entry: SvaBugEntry) -> "Problem":
        return cls(entry.spec, entry.buggy_source_with_sva, entry.logs)


class SolverResponse:
    """One model response in the paper's JSON contract."""

    __slots__ = ("line", "buggy_line", "fix", "cot")

    def __init__(self, line: int, buggy_line: str, fix: str, cot: str = ""):
        self.line = line
        self.buggy_line = buggy_line
        self.fix = fix
        self.cot = cot

    def to_json(self) -> str:
        return json.dumps({
            "buggy_line_number": self.line,
            "buggy_line": self.buggy_line,
            "suggested_fix": self.fix,
            "chain_of_thought": self.cot,
        })

    @classmethod
    def from_json(cls, text: str) -> "SolverResponse":
        payload = json.loads(text)
        return cls(int(payload["buggy_line_number"]), payload["buggy_line"],
                   payload["suggested_fix"],
                   payload.get("chain_of_thought", ""))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SolverResponse(line={self.line}, fix={self.fix!r})"


class AssertSolver:
    """Trainable surrogate model.

    Three checkpoints are reachable from one instance:

    - fresh instance         -> the *base model* (uniform policy, no PT);
    - after pretrain+sft     -> the *SFT model*;
    - after train_dpo        -> *AssertSolver* proper.

    ``clone_checkpoint`` snapshots the current stage so the Table III
    ablation can hold all three.
    """

    def __init__(self, seed: int = 0, temperature: float = 0.2,
                 name: str = "AssertSolver"):
        self.seed = seed
        self.temperature = temperature
        self.name = name
        self.lm: Optional[NgramLM] = None
        self.weights: Optional[np.ndarray] = None
        self.sft_stats = None
        self.n_challenging = 0
        self.margin_scale = 1.0
        self._train_examples: List[TrainExample] = []

    # -- training ------------------------------------------------------------

    def pretrain(self, pt_entries: Iterable[VerilogPTEntry]) -> None:
        """PT stage: fit the n-gram LM on the Verilog-PT dataset."""
        lm = NgramLM()
        lm.train_texts(entry.text() for entry in pt_entries)
        self.lm = lm

    def _example_for_entry(self, entry: SvaBugEntry,
                           weight: float = 1.0) -> Optional[TrainExample]:
        context = CaseContext(entry.buggy_source_with_sva, entry.spec,
                              entry.logs, self.lm)
        space = enumerate_repairs(entry.buggy_source_with_sva,
                                  module=context.module)
        gold = space.golden_index(entry.record.line, entry.record.fixed_line)
        if gold is None:
            return None
        return TrainExample(context.matrix(space.candidates), gold,
                            weight=weight, tag=entry.record.design_name)

    def _example_for_verilog_bug(self, entry: VerilogBugEntry,
                                 weight: float = 0.3
                                 ) -> Optional[TrainExample]:
        context = CaseContext(entry.record.buggy_source, entry.spec, logs="",
                              lm=self.lm)
        space = enumerate_repairs(entry.record.buggy_source,
                                  module=context.module)
        gold = space.golden_index(entry.record.line, entry.record.fixed_line)
        if gold is None:
            return None
        return TrainExample(context.matrix(space.candidates), gold,
                            weight=weight, tag=entry.record.design_name)

    def train_sft(self, sva_bug_entries: Iterable[SvaBugEntry],
                  verilog_bug_entries: Iterable[VerilogBugEntry] = (),
                  epochs: int = 12, lr: float = 0.5) -> None:
        """SFT stage on SVA-Bug (primary) + Verilog-Bug (auxiliary)."""
        examples: List[TrainExample] = []
        for entry in sva_bug_entries:
            example = self._example_for_entry(entry)
            if example is not None:
                examples.append(example)
        for entry in verilog_bug_entries:
            example = self._example_for_verilog_bug(entry)
            if example is not None:
                examples.append(example)
        self._train_examples = examples
        self.weights, self.sft_stats = train_sft(
            examples, epochs=epochs, lr=lr, seed=self.seed)

    def train_dpo(self, sva_bug_entries: Optional[Iterable[SvaBugEntry]] = None,
                  beta: float = 0.1, n_samples: int = 20,
                  epochs: int = 4, lr: float = 0.05) -> None:
        """DPO stage: mine challenging cases from the SFT policy and
        preference-optimise against them."""
        if self.weights is None:
            raise RuntimeError("train_sft must run before train_dpo")
        examples = self._train_examples
        if sva_bug_entries is not None:
            fresh = []
            for entry in sva_bug_entries:
                example = self._example_for_entry(entry)
                if example is not None:
                    fresh.append(example)
            if fresh:
                examples = fresh
        sva_examples = [e for e in examples if e.weight >= 1.0]
        triples = mine_challenging(sva_examples, self.weights,
                                   temperature=self.temperature,
                                   n_samples=n_samples, seed=self.seed + 7)
        self.n_challenging = len(triples)
        self.weights = train_dpo(triples, self.weights, beta=beta, lr=lr,
                                 epochs=epochs, seed=self.seed + 8)
        self.weights, self.margin_scale = calibrate_margin(
            sva_examples, self.weights, temperature=self.temperature)

    def clone_checkpoint(self, name: str) -> "AssertSolver":
        """Snapshot the current stage under a new name."""
        clone = AssertSolver(self.seed, self.temperature, name)
        clone.lm = self.lm
        clone.weights = None if self.weights is None else self.weights.copy()
        clone.sft_stats = self.sft_stats
        clone.n_challenging = self.n_challenging
        clone.margin_scale = self.margin_scale
        return clone

    # -- inference -------------------------------------------------------------

    def _score(self, problem: Problem
               ) -> "tuple[CandidateSpace, CaseContext, np.ndarray]":
        # enumerate_repairs mutates and reverts the module in place, so it
        # gets the context's fresh parse, never a shared CompileCache AST.
        context = CaseContext(problem.source, problem.spec, problem.logs,
                              self.lm)
        space = enumerate_repairs(problem.source, module=context.module)
        if self.weights is None:
            # The base checkpoint's logits are zeros whatever the features.
            logits = np.zeros(len(space))
        else:
            logits = context.matrix(space.candidates) @ self.weights
        return space, context, logits

    def generate(self, problem: Problem, n: int = 20,
                 rng: Optional[random.Random] = None,
                 temperature: Optional[float] = None) -> List[SolverResponse]:
        """Draw ``n`` temperature samples (the paper's n = 20, T = 0.2).

        ``temperature`` overrides the model default — best-of-n workflows
        that re-verify each sample mechanically (see examples/) want a
        higher exploration temperature than the paper's scoring runs.
        """
        rng = rng or random.Random(self.seed + 99)
        space, context, logits = self._score(problem)
        if not len(space):
            return [SolverResponse(0, "", "", "no repair candidates found")
                    for _ in range(n)]
        use_t = self.temperature if temperature is None else temperature
        indices = sample_indices(logits, use_t, n, rng)
        return [self._response(space.candidates[i], context) for i in indices]

    def solve(self, problem: Problem) -> SolverResponse:
        """Greedy single answer (argmax candidate)."""
        space, context, logits = self._score(problem)
        if not len(space):
            return SolverResponse(0, "", "", "no repair candidates found")
        best = int(np.argmax(logits))
        return self._response(space.candidates[best], context)

    def _response(self, candidate: RepairCandidate,
                  context: CaseContext) -> SolverResponse:
        cot = self._chain_of_thought(candidate, context)
        return SolverResponse(candidate.line, candidate.old_line,
                              candidate.new_line, cot)

    def _chain_of_thought(self, candidate: RepairCandidate,
                          context: CaseContext) -> str:
        labels = ", ".join(context.labels) or "an assertion"
        cone = ", ".join(sorted(context.cone)[:6]) or "the output signals"
        return (f"Step 1: The logs show {labels} failing. "
                f"Step 2: Its value depends on {cone}. "
                f"Step 3: Line {candidate.line} ('{candidate.old_line}') "
                f"drives that cone and deviates from the specification. "
                f"Step 4: Applying '{'; '.join(candidate.descriptions[:1])}' "
                f"restores the intended behaviour: '{candidate.new_line}'.")
