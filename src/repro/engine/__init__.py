"""The stage execution engine.

Decomposes pipeline work into per-unit tasks with independently derived
RNG streams, runs them over serial/process backends, and merges results
deterministically (parallel output is byte-identical to serial).

- :mod:`repro.engine.rng` — SHA-256 seed derivation and ``StageContext``;
- :mod:`repro.engine.executor` — ordered ``map`` over worker pools;
- :mod:`repro.engine.metrics` — worker-side counter aggregation.
"""

from repro.engine.executor import BACKENDS, ExecutionEngine, available_cpus
from repro.engine.rng import StageContext, derive_rng, derive_seed

__all__ = [
    "BACKENDS",
    "ExecutionEngine",
    "StageContext",
    "available_cpus",
    "derive_rng",
    "derive_seed",
]
