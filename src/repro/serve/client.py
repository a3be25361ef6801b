"""Stdlib HTTP client for the :mod:`repro.serve.http` transport.

:class:`AssertClient` mirrors the in-process :class:`AssertService`
surface over the wire — ``solve`` blocks, ``submit`` returns a
:class:`SolveHandle` (the transport's stand-in for a ``Future``) with
``result()`` *and* ``cancel()``, and backpressure surfaces as the same
:class:`ServiceOverloaded` exception — so load generators and callers
swap transports without changing shape.  Responses parse back into real
:class:`SolveResponse` objects whose ``to_json()`` reproduces the wire
body byte for byte.

:class:`ConnectionPool` is the one connection discipline of the HTTP
edge: the client and the fleet router's forwards both reuse persistent
HTTP/1.1 connections, one per concurrent caller.
"""

from __future__ import annotations

import http.client
import json
import threading
import uuid
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from typing import Dict, Optional, Tuple, Union
from urllib.parse import quote

from repro.serve.codecs import KINDS, EvalFailed, WireKind
from repro.serve.service import (
    EvalRequest,
    ServiceClosed,
    ServiceOverloaded,
    SolveRequest,
    SolveResponse,
)

__all__ = ["AssertClient", "ClientError", "ConnectionPool", "EvalFailed",
           "SolveHandle"]

#: What a reused connection raises when the server closed it while it sat
#: idle in the pool (``http.client.RemoteDisconnected`` is a
#: ``ConnectionResetError``).  A timeout is not among them: a slow server
#: is not a stale connection.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError,
                 ConnectionAbortedError)

Exchange = Tuple[int, Dict[str, str], bytes]


class ConnectionPool:
    """Persistent HTTP/1.1 connections, reused across calls and threads.

    A call takes the most recently returned idle connection to its
    address (or opens one) and puts it back once the response is read.
    So a thread making calls one after another keeps one connection, N
    concurrent callers hold at most N, and a short-lived thread (a
    :class:`SolveHandle`'s, a load generator's pool) leaves its
    connection to the next caller instead of dropping it.  The idle
    lists are deques, whose appends and pops are thread-safe, so the
    request path takes no lock.

    A *reused* connection the server closed while it sat idle fails with
    a connection reset; :meth:`request` then retries once on a fresh
    connection.  The retry is sound because responses are pure functions
    of request content.  Errors on a fresh connection, and timeouts on
    any, propagate.
    """

    def __init__(self):
        self._idle: Dict[Tuple[str, int],
                         "deque[http.client.HTTPConnection]"] = {}

    def request(self, host: str, port: int, method: str, path: str,
                body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None,
                timeout: float = 300.0) -> Exchange:
        """One round trip: ``(status, lower-cased headers, body)``."""
        idle = self._idle.setdefault((host, port), deque())
        try:
            conn = idle.pop()
        except IndexError:
            pass
        else:
            try:
                return self._exchange(idle, conn, method, path, body,
                                      headers, timeout)
            except _STALE_ERRORS:
                pass  # closed while idle: retry once, on a fresh one
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        return self._exchange(idle, conn, method, path, body, headers,
                              timeout)

    @staticmethod
    def _exchange(idle: "deque[http.client.HTTPConnection]",
                  conn: http.client.HTTPConnection, method: str, path: str,
                  body: Optional[bytes], headers: Optional[Dict[str, str]],
                  timeout: float) -> Exchange:
        try:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        # A "Connection: close" answer already closed it (sock is None).
        if conn.sock is not None:
            idle.append(conn)
        lowered = {name.lower(): value
                   for name, value in response.getheaders()}
        return response.status, lowered, data

    def close(self) -> None:
        """Close the idle connections.  Call it once no request is in
        flight; a later call opens a fresh connection."""
        for idle in list(self._idle.values()):
            while idle:
                try:
                    idle.pop().close()
                except IndexError:
                    break


def _query_suffix(**params: Optional[int]) -> str:
    """The ``?limit=N&slowest=N`` suffix of a diagnostic ``GET`` (the
    client's, and the router's fan-out to its backends)."""
    parts = [f"{name}={value}" for name, value in params.items()
             if value is not None]
    return f"?{'&'.join(parts)}" if parts else ""


class ClientError(RuntimeError):
    """An HTTP outcome with no structured mapping (5xx, surprises)."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class SolveHandle:
    """One in-flight HTTP solve: the wire twin of a ``Future``.

    ``result()`` joins the background request thread; ``cancel()``
    issues ``DELETE /v1/solve/{request_id}`` — a queued request is
    dropped server-side and the pending ``POST`` resolves to a
    ``status="cancelled"`` response.
    """

    def __init__(self, client: "AssertClient", request: SolveRequest):
        self._client = client
        self.request_id = request.request_id
        self._done = threading.Event()
        self._response: Optional[SolveResponse] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, args=(request,),
            name=f"solve-{self.request_id[:8]}", daemon=True)
        self._thread.start()

    def _run(self, request: SolveRequest) -> None:
        try:
            self._response = self._client.solve(request)
        except BaseException as exc:  # noqa: BLE001 - delivered by result()
            self._error = exc
        finally:
            self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> SolveResponse:
        if not self._done.wait(timeout):
            raise FutureTimeoutError(
                f"no response within {timeout}s (request still in flight)")
        if self._error is not None:
            raise self._error
        return self._response

    def cancel(self) -> int:
        """Ask the server to cancel this request; returns how many
        pending requests the tag matched (0 if already resolved)."""
        return self._client.cancel(self.request_id)


class AssertClient:
    """Talks to one :class:`repro.serve.http.AssertHttpServer`.

    Calls reuse persistent HTTP/1.1 connections (see
    :class:`ConnectionPool`): sequential calls from a thread share one
    instead of paying a TCP handshake each, N threads calling at once
    hold N, and every method is safe to use from many threads at once
    (the load generator drives one client with N worker threads).
    :meth:`close` closes the idle ones.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout_s: float = 300.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._pool = ConnectionPool()

    @classmethod
    def for_server(cls, server, timeout_s: float = 300.0) -> "AssertClient":
        """A client aimed at a started :class:`AssertHttpServer`."""
        host, port = server.address
        return cls(host=host, port=port, timeout_s=timeout_s)

    def close(self) -> None:
        """Close the idle pooled connections."""
        self._pool.close()

    # -- plumbing ------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None,
                 timeout: Optional[float] = None) -> Exchange:
        headers = {"Content-Type": "application/json"} if body else None
        return self._pool.request(self.host, self.port, method, path, body,
                                  headers, timeout or self.timeout_s)

    @staticmethod
    def _coerce(request: Union[SolveRequest, str]) -> SolveRequest:
        return SolveRequest(request) if isinstance(request, str) else request

    def _post(self, kind: WireKind, request, timeout: Optional[float]):
        """One ``POST`` of ``kind``: a service status decodes through the
        kind's row, and a transport refusal raises its one exception
        for every kind."""
        status, headers, data = self._request(
            "POST", kind.path, kind.encode(request).encode("utf-8"),
            timeout=timeout)
        if status in kind.http_codes.values():
            return kind.decode(status, data)
        text = data.decode("utf-8", "replace")
        if status == 429:
            exc = ServiceOverloaded(text)
            exc.retry_after_s = float(headers.get("retry-after", 1.0))
            raise exc
        if status in (400, 413):
            raise ValueError(f"request refused ({status}): {text}")
        if status == 503:
            raise ServiceClosed(text)
        raise ClientError(status, text)

    # -- the service surface, over the wire ----------------------------------

    def solve(self, request: Union[SolveRequest, str],
              timeout: Optional[float] = None) -> SolveResponse:
        """One blocking round trip; structured statuses come back as
        :class:`SolveResponse` objects, transport-level refusals raise
        (:class:`ServiceOverloaded` for 429, :class:`ValueError` for
        400/413, :class:`ServiceClosed` for 503).  Same signature as
        :meth:`AssertService.solve`, so synchronous callers (like the
        load generator) treat the two transports interchangeably."""
        return self._post(KINDS["solve"], self._coerce(request), timeout)

    def eval(self, request: EvalRequest,
             timeout: Optional[float] = None):
        """One blocking ``POST /v1/eval`` round trip.

        A 200 parses into an :class:`repro.eval.EvalReport` whose
        ``to_json()`` reproduces the wire body byte for byte.  Service
        failures (404 unknown model, 504 timeout, 409 cancelled) raise
        :class:`EvalFailed` with the envelope's status tag; transport
        refusals map exactly as :meth:`solve`'s do."""
        return self._post(KINDS["eval"], request, timeout)

    def submit(self, request: Union[SolveRequest, str]) -> SolveHandle:
        """Fire the solve on a background thread; the handle's
        ``request_id`` (auto-assigned when the request carries none) is
        the cancellation key."""
        request = self._coerce(request)
        if not request.request_id:
            request = replace(request, request_id=uuid.uuid4().hex)
        return SolveHandle(self, request)

    def cancel(self, request_id: str) -> int:
        status, _, data = self._request(
            "DELETE", f"/v1/solve/{quote(request_id, safe='')}")
        if status in (200, 404):
            return int(json.loads(data)["cancelled"])
        raise ClientError(status, data.decode("utf-8", "replace"))

    def healthz(self) -> Dict[str, object]:
        status, _, data = self._request("GET", "/healthz")
        payload = json.loads(data)
        payload["http_status"] = status
        return payload

    def _get(self, path: str) -> bytes:
        """A diagnostic ``GET``: its 200 body, or :class:`ClientError`."""
        status, _, data = self._request("GET", path)
        if status != 200:
            raise ClientError(status, data.decode("utf-8", "replace"))
        return data

    def metricsz(self) -> str:
        """The server's Prometheus text exposition (``GET /metricsz``)."""
        return self._get("/metricsz").decode("utf-8")

    def tracez(self, limit: Optional[int] = None,
               slowest: Optional[int] = None) -> Dict[str, object]:
        """The server's recent + slowest traces (``GET /tracez``);
        ``limit`` / ``slowest`` become the endpoint's query params."""
        return json.loads(self._get(
            "/tracez" + _query_suffix(limit=limit, slowest=slowest)))

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The server's retained coverage reports (``GET /covz``)."""
        return json.loads(self._get("/covz" + _query_suffix(limit=limit)))
