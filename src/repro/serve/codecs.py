"""Wire codecs shared by the HTTP server, the client, and the router.

One module owns every byte that crosses the serving wire, so the three
transport surfaces cannot drift:

- The solve codecs (``request_to_json`` / ``request_from_json`` /
  ``response_from_json``) — a 200 body is **exactly**
  ``SolveResponse.to_json()``, byte-identical to the in-process
  serialization.
- The eval codecs (``eval_request_to_json`` / ``eval_request_from_json``
  / ``eval_report_from_json`` / ``eval_response_wire``) — a 200 body is
  exactly ``EvalReport.to_json()``, same guarantee.
- The structured error envelope (:func:`error_body`) every non-payload
  response uses, whether it came from a backend handler or was
  synthesized by the fleet router::

      {"code": <http status>, "detail": <human text>, "status": <tag>}

  ``status`` is the service-level status when one exists (``timeout``,
  ``cancelled``, ``unknown_model``) and ``"error"`` for transport
  refusals (400/404/413/429/500/503).

Parsers raise :class:`ValueError` on anything malformed; the handlers
map that to a 400.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from repro import knobs
from repro.eval.cases import cases_from_json, cases_to_json
from repro.eval.config import EvalConfig
from repro.eval.report import EvalReport
from repro.serve.service import (
    EvalRequest,
    EvalResponse,
    ScoredProposal,
    SolveOptions,
    SolveRequest,
    SolveResponse,
)

__all__ = [
    "EVAL_STATUS_HTTP_CODES",
    "STATUS_HTTP_CODES",
    "error_body",
    "error_detail",
    "eval_report_from_json",
    "eval_request_from_json",
    "eval_request_to_json",
    "eval_response_wire",
    "request_from_json",
    "request_to_json",
    "response_from_json",
]

#: SolveResponse.status -> HTTP status code (the transport's one table).
STATUS_HTTP_CODES = {
    "ok": 200,
    "compile_error": 422,
    "timeout": 504,
    "cancelled": 409,
}

#: EvalResponse.status -> HTTP status code (the eval twin).
EVAL_STATUS_HTTP_CODES = {
    "ok": 200,
    "unknown_model": 404,
    "timeout": 504,
    "cancelled": 409,
}

# -- the shared error envelope -------------------------------------------------


def error_body(code: int, detail: str, status: str = "error") -> bytes:
    """The one error envelope every surface sends (router included)."""
    return json.dumps({"code": code, "detail": detail, "status": status},
                      sort_keys=True).encode("utf-8")


def error_detail(data) -> Tuple[str, str]:
    """Best-effort ``(detail, status)`` off an error body.

    Lenient by design — clients surface whatever a misbehaving proxy
    returned rather than masking it with a parse error."""
    try:
        payload = json.loads(data if isinstance(data, str)
                             else data.decode("utf-8", "replace"))
    except (json.JSONDecodeError, ValueError):
        return (data if isinstance(data, str)
                else data.decode("utf-8", "replace"), "error")
    if not isinstance(payload, dict):
        return str(payload), "error"
    detail = payload.get("detail", payload.get("error", ""))
    return str(detail), str(payload.get("status", "error"))


# -- solve codecs --------------------------------------------------------------


def request_to_json(request: SolveRequest) -> str:
    """The ``POST /v1/solve`` body for ``request`` (all options explicit)."""
    return json.dumps({
        "design_source": request.design_source,
        "request_id": request.request_id,
        "options": knobs.wire(request.options),
    }, sort_keys=True)


def request_from_json(body: bytes) -> SolveRequest:
    """Parse and validate a ``POST /v1/solve`` body.

    Raises :class:`ValueError` (mapped to 400 by the handler) on
    anything malformed: bad JSON, a non-object payload, a missing or
    non-string ``design_source``, unknown option keys, or option values
    their knobs reject (wrong type or out of range)."""
    payload = _json_object(body)
    unknown = set(payload) - {"design_source", "request_id", "options"}
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    source = payload.get("design_source")
    if not isinstance(source, str) or not source:
        raise ValueError("design_source must be a non-empty string")
    request_id = payload.get("request_id", "")
    if not isinstance(request_id, str):
        raise ValueError(f"request_id must be a string, got {request_id!r}")
    # from_wire validates: a structured 400 here, never a stuck future.
    options = knobs.from_wire(SolveOptions, payload.get("options", {}),
                              "options")
    return SolveRequest(source, options, request_id=request_id)


def response_from_json(text: str) -> SolveResponse:
    """Rebuild a :class:`SolveResponse` from a transported body.

    Inverse of :meth:`SolveResponse.to_json`: re-serializing the result
    reproduces the input byte for byte, which is what lets clients (and
    tests) verify the transport never forked determinism."""
    data = json.loads(text)
    proposals = tuple(
        ScoredProposal(p["name"], p["property"], p["assertion"],
                       p["score"], p["origin"])
        for p in data["proposals"])
    return SolveResponse(data["status"], data["request_key"],
                         proposals=proposals, rejected=data["rejected"],
                         error=data["error"],
                         coverage=data.get("coverage"))


# -- eval codecs ---------------------------------------------------------------


def eval_request_to_json(request: EvalRequest) -> str:
    """The ``POST /v1/eval`` body for ``request`` (all knobs explicit)."""
    return json.dumps({
        "model": request.model,
        "request_id": request.request_id,
        "config": knobs.wire(request.config),
        "cases": json.loads(cases_to_json(request.cases)),
    }, sort_keys=True)


def eval_request_from_json(body: bytes) -> EvalRequest:
    """Parse and validate a ``POST /v1/eval`` body (400 on ValueError)."""
    payload = _json_object(body)
    unknown = set(payload) - {"model", "request_id", "config", "cases"}
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    model = payload.get("model")
    if not isinstance(model, str) or not model:
        raise ValueError("model must be a non-empty registered model name")
    request_id = payload.get("request_id", "")
    if not isinstance(request_id, str):
        raise ValueError(f"request_id must be a string, got {request_id!r}")
    config = knobs.from_wire(EvalConfig, payload.get("config", {}), "config")
    cases = cases_from_json(payload.get("cases"))
    return EvalRequest(model, cases, config, request_id=request_id)


def eval_report_from_json(text) -> EvalReport:
    """Rebuild an :class:`EvalReport` off the wire (byte-stable)."""
    return EvalReport.from_json(text)


def eval_response_wire(response: EvalResponse) -> Tuple[int, bytes]:
    """``(http code, body)`` for an in-process :class:`EvalResponse`.

    The 200 body is exactly ``report.to_json()`` — byte-identical to
    what an in-process ``run_eval`` serializes for the same content;
    every other status rides the shared error envelope with the
    service-level status tag."""
    if response.status == "ok":
        return 200, response.report.to_json().encode("utf-8")
    code = EVAL_STATUS_HTTP_CODES.get(response.status, 500)
    return code, error_body(code, response.error or response.status,
                            status=response.status)


def _json_object(body: bytes) -> Dict:
    try:
        payload = json.loads(body.decode("utf-8")
                             if isinstance(body, bytes) else body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(
            f"body must be a JSON object, got {type(payload).__name__}")
    return payload
