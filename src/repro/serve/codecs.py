"""Wire codecs shared by the HTTP server, the client, and the router.

One module owns every byte that crosses the serving wire, so the three
transport surfaces cannot drift:

- :data:`KINDS`, one row per wire kind (``solve`` and ``eval``): its
  path, request and response types, parser, request encoder, status ->
  HTTP-code table, 200-body rule and client-side decoder.  The server,
  the router and the client dispatch on it instead of repeating code
  per kind.
- The solve codecs (``request_to_json`` / ``request_from_json`` /
  ``response_from_json``) — a 200 body is **exactly**
  ``SolveResponse.to_json()``, byte-identical to the in-process
  serialization.
- The eval codecs (``eval_request_to_json`` / ``eval_request_from_json``
  / ``eval_report_from_json``) — a 200 body is exactly
  ``EvalReport.to_json()``, same guarantee.
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
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

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
    "KINDS",
    "EvalFailed",
    "WireKind",
    "error_body",
    "error_detail",
    "eval_report_from_json",
    "eval_request_from_json",
    "eval_request_to_json",
    "request_from_json",
    "request_to_json",
    "response_from_json",
]


class EvalFailed(RuntimeError):
    """A ``POST /v1/eval`` that resolved to a non-``ok`` service status.

    ``status`` carries the service-level tag off the error envelope
    (``unknown_model`` / ``timeout`` / ``cancelled``), ``code`` the HTTP
    status, ``detail`` the human text."""

    def __init__(self, code: int, detail: str, status: str):
        super().__init__(f"eval {status} (HTTP {code}): {detail}")
        self.code = code
        self.detail = detail
        self.status = status


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


def _eval_result(code: int, data: bytes) -> EvalReport:
    """The client's reading of a ``/v1/eval`` answer: the report, or
    :class:`EvalFailed` carrying the envelope's status tag."""
    if code == 200:
        return eval_report_from_json(data)
    detail, status = error_detail(data)
    raise EvalFailed(code, detail, status)


# -- the request-kind table ----------------------------------------------------


@dataclass(frozen=True)
class WireKind:
    """Everything the HTTP edge knows about one wire kind.

    The callables look the codec functions up by name on each call
    instead of holding them: rebinding one on this module (perfbench's
    layer tracer, a test's counting wrapper) then reaches every caller.
    The service-side facts (the timeout/cancelled response constructor,
    result cacheability) live on the request types, because this module
    imports the service."""

    name: str
    path: str
    request_type: type
    response_type: type
    #: Service status -> HTTP code; any other status answers 500.
    http_codes: Mapping[str, int]
    parse: Callable[[bytes], object]
    encode: Callable[[object], str]
    #: The 200 body of a response.
    payload: Callable[[object], str]
    #: Whether a non-``ok`` status rides the error envelope (eval) or
    #: still carries ``payload`` (solve: every status serializes).
    enveloped_errors: bool
    #: Client side: ``(code, body)`` of a service-status answer -> result.
    decode: Callable[[int, bytes], object]

    def wire(self, response) -> Tuple[int, bytes]:
        """``(http code, body)`` for an in-process response of this kind."""
        code = self.http_codes.get(response.status, 500)
        if self.enveloped_errors and response.status != "ok":
            return code, error_body(code, response.error or response.status,
                                    status=response.status)
        return code, self.payload(response).encode("utf-8")


#: Every wire kind, keyed by name; ``path`` is where its requests POST and
#: ``path + "/{request_id}"`` where they are cancelled.
KINDS: Dict[str, WireKind] = {
    "solve": WireKind(
        name="solve", path="/v1/solve",
        request_type=SolveRequest, response_type=SolveResponse,
        http_codes={"ok": 200, "compile_error": 422, "timeout": 504,
                    "cancelled": 409},
        parse=lambda body: request_from_json(body),
        encode=lambda request: request_to_json(request),
        payload=lambda response: response.to_json(),
        enveloped_errors=False,
        decode=lambda code, data: response_from_json(data.decode("utf-8"))),
    "eval": WireKind(
        name="eval", path="/v1/eval",
        request_type=EvalRequest, response_type=EvalResponse,
        http_codes={"ok": 200, "unknown_model": 404, "timeout": 504,
                    "cancelled": 409},
        parse=lambda body: eval_request_from_json(body),
        encode=lambda request: eval_request_to_json(request),
        payload=lambda response: response.report.to_json(),
        enveloped_errors=True,
        decode=_eval_result),
}
