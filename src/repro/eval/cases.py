"""Canonical (de)serialization and content digests for SVA-Eval cases.

One round trip serves two masters: the ``POST /v1/eval`` wire body
(cases travel as JSON objects) and the per-case memo key (the digest of
the canonical rendering).  Everything a model or the scorer reads off a
case — the bug record, the instrumented source, logs, bucketing labels —
is carried with full fidelity, so ``case_from_dict(case_to_dict(c))``
evaluates byte-identically to ``c`` and the digest changes iff the case
content does.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.bugs.injector import BugRecord
from repro.bugs.taxonomy import BugKind, Conditionality, Relation
from repro.datagen.records import SvaBugEntry, SvaEvalCase
from repro.store.base import content_key

__all__ = [
    "case_digest",
    "case_from_dict",
    "case_to_dict",
    "cases_from_json",
    "cases_to_json",
]


def _require(payload: Dict, field: str, kind, where: str):
    value = payload.get(field)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}.{field} must be "
                         f"{getattr(kind, '__name__', kind)}, got {value!r}")
    return value


def _str_list(payload: Dict, field: str, where: str) -> List[str]:
    value = payload.get(field)
    if not isinstance(value, list) \
            or any(not isinstance(item, str) for item in value):
        raise ValueError(
            f"{where}.{field} must be a list of strings, got {value!r}")
    return list(value)


def _record_to_dict(record: BugRecord) -> Dict[str, object]:
    return {
        "design_name": record.design_name,
        "buggy_source": record.buggy_source,
        "golden_source": record.golden_source,
        "line": record.line,
        "buggy_line": record.buggy_line,
        "fixed_line": record.fixed_line,
        "op_name": record.op_name,
        "kind": record.kind.value,
        "conditionality": record.conditionality.value,
        "description": record.description,
    }


def _record_from_dict(payload: object) -> BugRecord:
    if not isinstance(payload, dict):
        raise ValueError(f"entry.record must be a JSON object, "
                         f"got {type(payload).__name__}")
    unknown = set(payload) - {"design_name", "buggy_source", "golden_source",
                              "line", "buggy_line", "fixed_line", "op_name",
                              "kind", "conditionality", "description"}
    if unknown:
        raise ValueError(f"unknown record fields: {sorted(unknown)}")
    try:
        kind = BugKind(_require(payload, "kind", str, "record"))
        conditionality = Conditionality(
            _require(payload, "conditionality", str, "record"))
    except ValueError as exc:
        raise ValueError(f"record has an invalid enum value: {exc}") from None
    return BugRecord(
        _require(payload, "design_name", str, "record"),
        _require(payload, "buggy_source", str, "record"),
        _require(payload, "golden_source", str, "record"),
        _require(payload, "line", int, "record"),
        _require(payload, "buggy_line", str, "record"),
        _require(payload, "fixed_line", str, "record"),
        _require(payload, "op_name", str, "record"),
        kind, conditionality,
        _require(payload, "description", str, "record"))


def _entry_to_dict(entry: SvaBugEntry) -> Dict[str, object]:
    return {
        "record": _record_to_dict(entry.record),
        "spec": entry.spec,
        "buggy_source_with_sva": entry.buggy_source_with_sva,
        "logs": entry.logs,
        "failing_labels": list(entry.failing_labels),
        "relation": entry.relation.value,
        "assertion_signals": list(entry.assertion_signals),
        "cot": entry.cot,
    }


def _entry_from_dict(payload: object) -> SvaBugEntry:
    if not isinstance(payload, dict):
        raise ValueError(f"case.entry must be a JSON object, "
                         f"got {type(payload).__name__}")
    unknown = set(payload) - {"record", "spec", "buggy_source_with_sva",
                              "logs", "failing_labels", "relation",
                              "assertion_signals", "cot"}
    if unknown:
        raise ValueError(f"unknown entry fields: {sorted(unknown)}")
    try:
        relation = Relation(_require(payload, "relation", str, "entry"))
    except ValueError as exc:
        raise ValueError(f"entry has an invalid relation: {exc}") from None
    cot = payload.get("cot")
    if cot is not None and not isinstance(cot, str):
        raise ValueError(f"entry.cot must be a string or null, got {cot!r}")
    return SvaBugEntry(
        _record_from_dict(payload.get("record")),
        _require(payload, "spec", str, "entry"),
        _require(payload, "buggy_source_with_sva", str, "entry"),
        _require(payload, "logs", str, "entry"),
        _str_list(payload, "failing_labels", "entry"),
        relation,
        _str_list(payload, "assertion_signals", "entry"),
        cot=cot)


def case_to_dict(case: SvaEvalCase) -> Dict[str, object]:
    """The canonical JSON-object rendering of one benchmark case."""
    return {
        "case_id": case.case_id,
        "origin": case.origin,
        "entry": _entry_to_dict(case.entry),
    }


def case_from_dict(payload: object) -> SvaEvalCase:
    """Inverse of :func:`case_to_dict`; raises :class:`ValueError` on
    anything malformed (the HTTP handler maps that to a 400)."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"each case must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {"case_id", "origin", "entry"}
    if unknown:
        raise ValueError(f"unknown case fields: {sorted(unknown)}")
    case_id = _require(payload, "case_id", str, "case")
    origin = _require(payload, "origin", str, "case")
    if origin not in ("machine", "human"):
        raise ValueError(f"case.origin must be machine|human, got {origin!r}")
    return SvaEvalCase(case_id, _entry_from_dict(payload.get("entry")), origin)


def cases_to_json(cases: Iterable[SvaEvalCase]) -> str:
    """Canonical list rendering: the eval request's content-key input
    and wire payload."""
    return json.dumps([case_to_dict(case) for case in cases], sort_keys=True)


def cases_from_json(payload: object) -> List[SvaEvalCase]:
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, list) or not payload:
        raise ValueError("cases must be a non-empty JSON list")
    return [case_from_dict(item) for item in payload]


def case_digest(case: SvaEvalCase) -> str:
    """Content digest of one case — half of the per-case memo key."""
    return content_key("eval-case",
                       json.dumps(case_to_dict(case), sort_keys=True))
