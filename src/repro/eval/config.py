"""EvalConfig: the validated knob block for one evaluation run.

The :class:`DatagenConfig` / :class:`ServeConfig` idiom applied to the
eval layer: a frozen :func:`repro.knobs.configclass` that fails fast on
malformed knobs (unknown keyword arguments raise ``TypeError`` from the
dataclass constructor itself) and renders a :meth:`semantic_digest`
over exactly the ``semantic`` knobs, the ones that change per-case
results.

``k_values`` is the one ``report`` knob: it enters the request key
(:meth:`canonical`) but not the digest.  The memoized artifact is the
per-case ``(n, c)`` outcome, and the k-vector only changes how those
outcomes aggregate into a report — re-running with a different k-vector
must hit every stored outcome, not recompute them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import knobs
from repro.knobs import EXECUTION, REPORT, SEMANTIC, configclass, knob


@configclass(frozen=True)
class EvalConfig:
    """Result-changing knobs for :func:`repro.eval.run_eval`.

    ``n_samples`` / ``seed`` parameterize the per-case sampling:
    ``n_samples`` responses per case from an RNG derived per ``(seed,
    case_id)``; ``semantic_check`` additionally accepts a textually-wrong
    repair when patching it into the design passes the bounded checker
    (the paper compares text only, so the default is off); ``k_values``
    selects which pass@k columns the report carries.
    """

    n_samples: int = knob(20, kind=int, ge=1, role=SEMANTIC)
    seed: int = knob(123, kind=int, role=SEMANTIC)
    k_values: Tuple[int, ...] = knob((1, 5), kind=tuple, items=int, ge=1,
                                     role=REPORT)
    semantic_check: bool = knob(False, kind=bool, role=SEMANTIC)
    #: Wall-clock budget when the config rides a service-side
    #: :class:`repro.serve.EvalRequest`; a QoS knob like
    #: ``SolveOptions.deadline_ms``, excluded from both
    #: :meth:`canonical` and :meth:`semantic_digest`.
    deadline_ms: Optional[float] = knob(None, kind=float, gt=0,
                                        optional=True, role=EXECUTION,
                                        compare=False)

    def __post_init__(self):
        if isinstance(self.k_values, list):
            object.__setattr__(self, "k_values", tuple(self.k_values))
        self.validate()

    def _check(self) -> None:
        if not self.k_values or list(self.k_values) != sorted(
                set(self.k_values)):
            raise ValueError(f"k_values must be non-empty and strictly "
                             f"increasing, got {self.k_values!r}")

    def canonical(self) -> str:
        """Stable text rendering of the semantic and report knobs, hashed
        into eval request content keys (``deadline_ms`` changes when a
        report is worth delivering, never what the report is)."""
        return knobs.canonical(self, (SEMANTIC, REPORT))

    def semantic_digest(self) -> str:
        """Digest of exactly the per-case-result-changing (``semantic``)
        knobs and the package version, so stored outcomes never survive
        a release whose scoring may have evolved.  ``k_values`` stays out
        (it is aggregation, not scoring — see the module docstring)."""
        return knobs.digest(self)
