"""EvalReport: the canonical, deterministic rendering of one evaluation.

Everything the paper's tables and figures need from a run — aggregate
pass@k for the config's k-vector, per-origin and per-bucket splits, the
c-histogram, and the per-case ``(case_id, n, c)`` outcomes — in one
payload whose :meth:`to_json` is byte-deterministic: two runs that score
the same cases the same way serialize identically, whether the outcomes
were computed cold, replayed from the store, or carried over the wire.

This is the only place pass@k is aggregated: :func:`run_eval` builds the
report straight from its per-case outcomes, and the Table III/IV and
Fig. 3-5 renderers read the report's accessors.

Volatile attributes (the model digest, memoization stats) ride on the
object for callers but are excluded from the payload — a warm re-run
must reproduce the cold bytes even though its memo counters differ.

Empty splits are *omitted*, not rendered as ``0.0``: a benchmark with no
human-origin cases has no ``origins["human"]`` entry at all, and
:meth:`EvalReport.pass_at_origin` answers ``None`` for it, so "no data"
can never be misread as "all failed".
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional

from repro.eval.passk import aggregate_pass_at_k

__all__ = ["EvalReport"]

#: Payload schema tag; bump with the eval/v1 store namespace.
REPORT_SCHEMA = "eval/v1"


class EvalReport:
    """A canonical payload plus volatile run context.

    Build one with :meth:`from_result` (in-process runs) or
    :meth:`from_json` (off the wire); both produce objects whose
    :meth:`to_json` bytes agree.
    """

    __slots__ = ("_payload", "model_digest", "stats")

    def __init__(self, payload: Dict[str, object], model_digest: str = "",
                 stats: Optional[Dict[str, int]] = None):
        self._payload = payload
        self.model_digest = model_digest
        self.stats = stats or {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_result(cls, model_name: str, outcomes, config) -> "EvalReport":
        """Render one run's result, its per-case ``outcomes``
        (:class:`repro.eval.runner.CaseOutcome`), under ``config``."""
        from repro.eval.buckets import bug_type_buckets, length_buckets

        ks = list(config.k_values)

        def split(subset) -> Dict[str, object]:
            counts = [(o.n, o.c) for o in subset]
            return {"n_cases": len(subset),
                    "pass_at": {str(k): aggregate_pass_at_k(counts, k)
                                for k in ks}}

        origins: Dict[str, object] = {}
        for origin in ("machine", "human"):
            subset = [o for o in outcomes if o.case.origin == origin]
            if subset:  # omitted, never 0.0
                origins[origin] = split(subset)
        buckets = {
            axis: {label: split(subset) for label, subset in grouped.items()
                   if subset}  # empty buckets are omitted too
            for axis, grouped in (("bug_type", bug_type_buckets(outcomes)),
                                  ("length", length_buckets(outcomes)))}
        histogram = Counter(o.c for o in outcomes)
        payload = {
            "schema": REPORT_SCHEMA,
            "model": model_name,
            "n_samples": config.n_samples,
            "seed": config.seed,
            "semantic_check": config.semantic_check,
            "k_values": ks,
            "n_cases": len(outcomes),
            "pass_at": split(outcomes)["pass_at"],
            "origins": origins,
            "buckets": buckets,
            "histogram": {str(c): count
                          for c, count in sorted(histogram.items())},
            "cases": [[o.case.case_id, o.n, o.c] for o in outcomes],
        }
        return cls(payload)

    @classmethod
    def from_json(cls, text) -> "EvalReport":
        """Rebuild a report from a transported body.

        Re-serializing reproduces the input byte for byte (the payload
        is stored canonically), which is how clients and tests verify
        the transport never forked determinism."""
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"report must be a JSON object, "
                             f"got {type(payload).__name__}")
        if payload.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"unsupported report schema: "
                             f"{payload.get('schema')!r}")
        return cls(payload)

    # -- canonical serialization ---------------------------------------------

    def to_json(self) -> str:
        """Deterministic bytes: the ``POST /v1/eval`` 200 body is exactly
        this string, and a warm re-run reproduces a cold run's output."""
        return json.dumps(self._payload, sort_keys=True)

    def to_dict(self) -> Dict[str, object]:
        return json.loads(self.to_json())  # a private copy

    # -- accessors ------------------------------------------------------------

    @property
    def model_name(self) -> str:
        return self._payload["model"]

    @property
    def n_samples(self) -> int:
        return self._payload["n_samples"]

    @property
    def n_cases(self) -> int:
        return self._payload["n_cases"]

    @property
    def k_values(self) -> List[int]:
        return list(self._payload["k_values"])

    def pass_at(self, k: int) -> float:
        try:
            return self._payload["pass_at"][str(k)]
        except KeyError:
            raise KeyError(
                f"k={k} is not in this report's k_values "
                f"{self._payload['k_values']}") from None

    def pass_at_origin(self, k: int, origin: str) -> Optional[float]:
        """``None`` for an origin with no cases (omitted split)."""
        entry = self._payload["origins"].get(origin)
        if entry is None:
            return None
        return entry["pass_at"][str(k)]

    def bucket_pass_at(self, k: int, by: str = "bug_type"
                       ) -> Dict[str, float]:
        """pass@k per populated bucket along ``by`` (``"bug_type"`` or
        ``"length"``); empty buckets are absent."""
        axes = self._payload["buckets"]
        if by not in axes:
            raise ValueError(f"unknown bucket axis {by!r}")
        return {label: entry["pass_at"][str(k)]
                for label, entry in axes[by].items()}

    def histogram(self) -> Dict[int, int]:
        """c-value histogram (the paper's Fig. 3 series)."""
        return {int(c): count
                for c, count in self._payload["histogram"].items()}

    def case_outcomes(self) -> List[tuple]:
        """``(case_id, n, c)`` per case, in evaluation order."""
        return [tuple(item) for item in self._payload["cases"]]

    def __repr__(self) -> str:  # pragma: no cover
        ks = ", ".join(f"pass@{k}={self.pass_at(k):.4f}"
                       for k in self.k_values)
        return (f"EvalReport({self.model_name}: {ks}, "
                f"{self.n_cases} cases)")
