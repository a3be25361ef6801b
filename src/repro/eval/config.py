"""EvalConfig: the validated knob block for one evaluation run.

The :class:`DatagenConfig` / :class:`ServeConfig` idiom applied to the
eval layer: a frozen dataclass that fails fast on malformed knobs
(unknown keyword arguments raise ``TypeError`` from the dataclass
constructor itself) and renders a :meth:`semantic_digest` over exactly
the fields that change per-case results.

``k_values`` is deliberately *not* part of the digest: the memoized
artifact is the per-case ``(n, c)`` outcome, and the k-vector only
changes how those outcomes aggregate into a report — re-running with a
different k-vector must hit every stored outcome, not recompute them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class EvalConfig:
    """Result-changing knobs for :func:`repro.eval.run_eval`.

    ``n_samples`` / ``seed`` parameterize the per-case sampling:
    ``n_samples`` responses per case from an RNG derived per ``(seed,
    case_id)``; ``semantic_check`` additionally accepts a textually-wrong
    repair when patching it into the design passes the bounded checker
    (the paper compares text only, so the default is off); ``k_values``
    selects which pass@k columns the report carries.
    """

    n_samples: int = 20
    seed: int = 123
    k_values: Tuple[int, ...] = (1, 5)
    semantic_check: bool = False
    #: Wall-clock budget when the config rides a service-side
    #: :class:`repro.serve.EvalRequest`; a QoS knob like
    #: ``SolveOptions.deadline_ms``, excluded from both
    #: :meth:`canonical` and :meth:`semantic_digest`.
    deadline_ms: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        if isinstance(self.k_values, list):
            object.__setattr__(self, "k_values", tuple(self.k_values))
        self.validate()

    def validate(self) -> None:
        for name, minimum in (("n_samples", 1), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or (minimum is not None and value < minimum):
                bound = f" >= {minimum}" if minimum is not None else ""
                raise ValueError(
                    f"{name} must be an integer{bound}, got {value!r}")
        if not isinstance(self.k_values, tuple) or not self.k_values:
            raise ValueError(
                f"k_values must be a non-empty tuple of integers, "
                f"got {self.k_values!r}")
        for k in self.k_values:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(
                    f"k_values entries must be integers >= 1, got {k!r}")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError(
                f"k_values must be strictly increasing, got {self.k_values!r}")
        if not isinstance(self.semantic_check, bool):
            raise ValueError(
                f"semantic_check must be a bool, got {self.semantic_check!r}")
        if self.deadline_ms is not None \
                and (not isinstance(self.deadline_ms, (int, float))
                     or isinstance(self.deadline_ms, bool)
                     or self.deadline_ms <= 0):
            raise ValueError(f"deadline_ms must be a number > 0 or None, "
                             f"got {self.deadline_ms!r}")

    def canonical(self) -> str:
        """Stable text rendering, hashed into eval request content keys.

        Excludes ``deadline_ms`` for the same reason
        :meth:`SolveOptions.canonical` does: the deadline changes when a
        report is worth delivering, never what the report is."""
        return json.dumps({
            "n_samples": self.n_samples,
            "seed": self.seed,
            "k_values": list(self.k_values),
            "semantic_check": self.semantic_check,
        }, sort_keys=True)

    def semantic_digest(self) -> str:
        """Digest of exactly the per-case-result-changing fields.

        Follows :meth:`DatagenConfig.semantic_digest`: the package
        version is folded in so stored outcomes never survive a release
        whose scoring may have evolved.  ``k_values`` stays out (it is
        aggregation, not scoring — see the module docstring), as does
        ``deadline_ms`` (pure QoS)."""
        import repro

        payload = {
            "repro_version": repro.__version__,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "semantic_check": self.semantic_check,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
