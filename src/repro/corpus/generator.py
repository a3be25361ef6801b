"""Seeded corpus generation as engine work units.

``CorpusGenerator`` samples template instances, canonicalizes their source
through the writer (so every line-number annotation downstream is stable)
and verifies each golden design compiles.  It deliberately over-samples
the wide families a little so all five code-length bins of the paper's
Table II are populated.

Every design is an independent work unit: its RNG stream derives from
``(global_seed, "corpus", design_id, "template")`` via
:func:`repro.engine.derive_seed`, never from a shared sequential stream —
so :meth:`CorpusGenerator.generate` can fan out across an
:class:`repro.engine.ExecutionEngine` worker pool and stay byte-identical
to a serial run, making the corpus a parallel stage of the datagen
pipeline instead of a serial pre-pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.meta import DesignSeed
from repro.corpus.registry import TEMPLATE_FAMILIES, make_instance
from repro.engine.executor import ExecutionEngine
from repro.engine.rng import derive_seed
from repro.store import unit_memo_key
from repro.verilog.compile import compile_source
from repro.verilog.writer import write_module

STAGE_NAME = "corpus"

#: Default sampling weights: wide families weighted up to populate the
#: long code-length bins.  Families absent here weigh 1.0.
DEFAULT_FAMILY_WEIGHTS = {
    "register_file": 2.0,
    "mux_tree": 2.0,
    "pipeline": 2.0,
    "multichannel": 1.5,
}


class CorpusGenerationError(Exception):
    """Raised when a template produced an invalid golden design."""


def resolve_families(families: Optional[Sequence[str]] = None,
                     weights: Optional[Dict[str, float]] = None,
                     ) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    """Validate a family selection against the registry.

    Returns ``(names, weights)`` aligned tuples.  ``families=None`` means
    every registered family; an explicitly empty selection is an error.
    Raises ``ValueError`` naming the first unregistered family (an
    unknown name would otherwise silently contribute zero designs),
    duplicate selection, or weight that is not a finite number > 0.
    ``weights`` overrides :data:`DEFAULT_FAMILY_WEIGHTS` per family and
    may only name selected families.
    """
    if families is None:
        names = tuple(sorted(TEMPLATE_FAMILIES))
    else:
        names = tuple(families)
        if not names:
            raise ValueError(
                "template family selection is empty; pass None to sample "
                "from every registered family")
    for name in names:
        if name not in TEMPLATE_FAMILIES:
            raise ValueError(
                f"unknown template family {name!r}; known: "
                f"{', '.join(sorted(TEMPLATE_FAMILIES))}")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate template family selection: {dupes}")
    weights = dict(weights or {})
    for name, weight in weights.items():
        if name not in TEMPLATE_FAMILIES:
            raise ValueError(
                f"family_weights names unknown template family {name!r}")
        if name not in names:
            raise ValueError(
                f"family_weights names unselected family {name!r} "
                f"(selected: {', '.join(names)})")
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
                or not (math.isfinite(weight) and weight > 0):
            raise ValueError(
                f"family weight for {name!r} must be a finite number > 0, "
                f"got {weight!r}")
    resolved = tuple(
        float(weights.get(name, DEFAULT_FAMILY_WEIGHTS.get(name, 1.0)))
        for name in names)
    return names, resolved


@dataclass(frozen=True)
class CorpusTask:
    """One per-design generation unit (picklable for the process backend).

    ``design_id`` is the unit's stable identity in the derived-seed
    namespace: two tasks with the same id replay the same stream no
    matter which worker runs them, or in which order.
    """

    global_seed: int
    design_id: str
    families: Tuple[str, ...]
    weights: Tuple[float, ...]
    family: Optional[str] = None  # forced family (skips sampling)


def corpus_unit(task: CorpusTask) -> DesignSeed:
    """Pure per-design work: sample family, instantiate, compile, canonicalize."""
    rng = random.Random(derive_seed(task.global_seed, STAGE_NAME,
                                    task.design_id, "template"))
    family = task.family
    if family is None:
        family = rng.choices(list(task.families),
                             weights=list(task.weights))[0]
    seed = make_instance(family, rng)
    result = compile_source(seed.source)
    if not result.ok:
        raise CorpusGenerationError(
            f"template {family!r} produced invalid source for "
            f"{seed.name}:\n{result.failure_summary()}")
    canonical = write_module(result.module)
    return DesignSeed(seed.name, canonical, seed.meta)


class CorpusGenerator:
    """Deterministic stream of canonical golden designs.

    ``families`` restricts sampling to a subset of the registry and
    ``weights`` overrides per-family sampling weights; both are validated
    eagerly (see :func:`resolve_families`).  Designs are numbered
    ``design_000000, design_000001, ...`` — the number is the unit id the
    per-design seed derives from, so a batch :meth:`generate` and a
    one-at-a-time :meth:`generate_one` walk produce identical designs.
    """

    def __init__(self, seed: int = 0,
                 families: Optional[Sequence[str]] = None,
                 weights: Optional[Dict[str, float]] = None):
        self.seed = seed
        self.families, self.weights = resolve_families(families, weights)
        self._next_index = 0

    def _task(self, index: int, family: Optional[str] = None) -> CorpusTask:
        return CorpusTask(global_seed=self.seed,
                          design_id=f"design_{index:06d}",
                          families=self.families, weights=self.weights,
                          family=family)

    def generate_one(self, family: Optional[str] = None) -> DesignSeed:
        """One canonical, compile-checked design."""
        task = self._task(self._next_index, family)
        self._next_index += 1
        return corpus_unit(task)

    def generate(self, count: int,
                 engine: Optional[ExecutionEngine] = None
                 ) -> List[DesignSeed]:
        """``count`` designs, fanned out over ``engine`` (default: a
        serial one).

        Any :class:`repro.engine.ExecutionEngine` backend returns the
        exact designs of a serial run: each task's stream derives only
        from its ``design_id`` and ``engine.map`` preserves input order.
        """
        engine = engine or ExecutionEngine()
        start = self._next_index
        self._next_index += count
        tasks = [self._task(index) for index in range(start, start + count)]
        return engine.map(
            corpus_unit, tasks, stage=STAGE_NAME,
            memo_key=lambda task: unit_memo_key(
                STAGE_NAME, task.design_id, engine.memo_context,
                task.global_seed))
