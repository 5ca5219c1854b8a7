"""The checking-service line protocol, shared by every transport.

It also holds the bounded line framing (:class:`LineReader`) and the
address grammar (:func:`parse_addr`) that the cache service reuses.
The module imports nothing from ``repro`` at import time, so both
servers can depend on it without an import cycle.

One request per line, one JSON reply object per line. Three request
forms are accepted (the first two are the legacy ``--daemon`` forms,
preserved verbatim):

* a plain shell-style command line — ``-quiet src/a.c``;
* a JSON array of CLI arguments — ``["-quiet", "src/a.c"]``;
* a JSON object — ``{"id": 7, "argv": ["-quiet", "src/a.c"],
  "priority": "batch", "timeout": 5.0}`` — the only form that lets a
  pipelined client choose its own correlation ``id``, a scheduling
  priority (``interactive`` beats ``batch`` beats ``metrics``), and a
  per-request deadline in seconds. ``{"op": "metrics"}`` and
  ``{"op": "shutdown"}`` are the object spellings of the bare
  ``metrics`` / ``shutdown`` verbs.

Reply schema (stable; documented in docs/internals.md §9):

* ``{"ready": true, ...}`` — once per connection, before any reply.
* ``{"id": ..., "status": N, "output": "...", "stats": {...}}`` — a
  completed check; ``status`` follows the CLI exit-code contract.
* ``{"id": ..., "status": N, "error": "...", "kind": K}`` — a failed
  request. ``kind`` partitions failures for clients: ``protocol``
  (malformed request), ``oversized``, ``usage`` (the CLI rejected the
  arguments), ``busy`` (backpressure; the reply carries
  ``retry_after_ms``), ``deadline`` (the per-request deadline fired),
  ``shutting-down`` (the service is draining), ``internal``. ``id`` is
  **always present**: the client's id when one could be recovered even
  from a malformed or oversized line, otherwise the server's running
  request counter.
* ``{"id": ..., "status": 0, "metrics": {...}}`` — a ``metrics`` reply.
* ``{"bye": true, ...}`` — once, when the connection/session ends.

``status`` in error replies is 2 when the client can fix the request
(protocol, oversized, usage, busy, shutting-down — resend it, smaller,
later, or elsewhere) and 3 when the service failed it (deadline,
internal).
"""

from __future__ import annotations

import asyncio
import json
import re
import shlex
from dataclasses import dataclass

#: Hard cap on one request line. A client that streams a huge (or
#: unterminated) line gets an error reply instead of exhausting memory
#: or wedging the service.
MAX_REQUEST_BYTES = 1 << 20

#: How much of an oversized line is kept for request-id recovery.
_OVERSIZE_KEEP = 4096

#: Scheduling ranks, best first. ``metrics`` requests rank last so a
#: status probe can never delay a developer's interactive check.
PRIORITIES = {"interactive": 0, "batch": 1, "metrics": 2}

#: Error-reply kinds that map to "client can fix it" (status 2); the
#: rest are service-side failures (status 3).
_CLIENT_KINDS = frozenset(
    ("protocol", "oversized", "usage", "busy", "shutting-down")
)

#: How long a busy-rejected client should wait before retrying.
DEFAULT_RETRY_AFTER_MS = 100

_ID_RE = re.compile(
    r'"id"\s*:\s*("(?:[^"\\]|\\.){0,200}"|-?\d{1,18})'
)


class ProtocolError(ValueError):
    """A request line the service could not act on, with whatever
    correlation id could still be recovered from it."""

    def __init__(self, message: str, request_id=None) -> None:
        super().__init__(message)
        self.request_id = request_id


@dataclass
class Request:
    """One parsed request line."""

    verb: str  # "check" | "metrics" | "shutdown"
    argv: list[str]
    id: int | str | None = None  # client-supplied correlation id
    priority: str = "interactive"
    timeout_s: float | None = None

    @property
    def rank(self) -> int:
        return PRIORITIES.get(self.priority, PRIORITIES["batch"])


def recover_request_id(text: str):
    """Best-effort extraction of a client ``"id"`` from a malformed or
    truncated request line, so pipelined clients can still correlate
    the error reply. Returns ``None`` when nothing recoverable."""
    match = _ID_RE.search(text)
    if match is None:
        return None
    token = match.group(1)
    if token.startswith('"'):
        try:
            return json.loads(token)
        except ValueError:
            return None
    try:
        return int(token)
    except ValueError:
        return None


def parse_request_line(line: str) -> Request:
    """Parse one request line into a :class:`Request`.

    Raises :class:`ProtocolError` (carrying any recoverable client id)
    for malformed input. The caller enforces the size cap — a line
    arriving here is already under :data:`MAX_REQUEST_BYTES`.
    """
    stripped = line.strip()
    if stripped in ("shutdown", "quit", "exit"):
        return Request(verb="shutdown", argv=[])
    if stripped == "metrics":
        return Request(verb="metrics", argv=[], priority="metrics")
    if stripped.startswith("{"):
        return _parse_object_request(stripped)
    if stripped.startswith("["):
        try:
            parsed = json.loads(stripped)
        except ValueError as exc:
            raise ProtocolError(
                f"malformed JSON request: {exc}",
                recover_request_id(stripped),
            ) from exc
        if not isinstance(parsed, list) or not all(
            isinstance(a, str) for a in parsed
        ):
            raise ProtocolError("JSON request must be an array of strings")
        return _classify_argv(parsed)
    try:
        argv = shlex.split(stripped)
    except ValueError as exc:
        raise ProtocolError(f"malformed request line: {exc}") from exc
    return _classify_argv(argv)


def _classify_argv(argv: list[str]) -> Request:
    if argv == ["metrics"]:
        return Request(verb="metrics", argv=[], priority="metrics")
    if argv == ["shutdown"]:
        return Request(verb="shutdown", argv=[])
    return Request(verb="check", argv=argv)


def _parse_object_request(text: str) -> Request:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ProtocolError(
            f"malformed JSON request: {exc}", recover_request_id(text)
        ) from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON request must be an object or array")
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError('"id" must be an integer or string')

    def fail(message: str):
        raise ProtocolError(message, request_id)

    op = obj.get("op", "check")
    if op in ("metrics", "shutdown"):
        return Request(
            verb=op, argv=[], id=request_id,
            priority="metrics" if op == "metrics" else "interactive",
        )
    if op != "check":
        fail(f"unknown op {op!r} (expected check, metrics, or shutdown)")
    argv = obj.get("argv")
    if not isinstance(argv, list) or not all(
        isinstance(a, str) for a in argv
    ):
        fail('"argv" must be an array of strings')
    priority = obj.get("priority", "interactive")
    if priority not in PRIORITIES:
        fail(
            f"unknown priority {priority!r} "
            f"(expected one of {sorted(PRIORITIES)})"
        )
    timeout_s = obj.get("timeout")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
            fail('"timeout" must be a positive number of seconds')
        timeout_s = float(timeout_s)
    return Request(
        verb="check", argv=list(argv), id=request_id,
        priority=priority, timeout_s=timeout_s,
    )


# -- framing and addresses ---------------------------------------------------


class LineReader:
    """Bounded line framing over an asyncio stream.

    Unlike ``StreamReader.readline`` this never buffers more than the
    request cap plus one chunk, and an over-long line is consumed to
    its terminating newline (or EOF) while keeping a prefix for
    request-id recovery — a slow-loris or runaway client costs bounded
    memory and exactly one error reply.

    The line cap defaults to the checking protocol's request bound but
    is parameterized: the cache service reuses this framing with a
    larger cap sized for pickled interface payloads.
    """

    _CHUNK = 1 << 16

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_bytes: int = MAX_REQUEST_BYTES,
    ) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._max_bytes = max_bytes

    async def next_line(self):
        """Returns ``("line", text)``, ``("oversized", (prefix, size))``,
        or ``("eof", None)``."""
        while True:
            idx = self._buf.find(b"\n")
            if idx >= 0:
                line = self._buf[:idx]
                del self._buf[: idx + 1]
                if len(line) > self._max_bytes:
                    return "oversized", (
                        line[:_OVERSIZE_KEEP].decode("utf-8", "replace"),
                        len(line),
                    )
                return "line", line.decode("utf-8", "replace")
            if len(self._buf) > self._max_bytes:
                return "oversized", await self._consume_oversized()
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                if self._buf.strip():
                    # A final unterminated line still gets an answer.
                    line = self._buf.decode("utf-8", "replace")
                    self._buf.clear()
                    return "line", line
                return "eof", None
            self._buf.extend(chunk)

    async def _consume_oversized(self):
        prefix = self._buf[:_OVERSIZE_KEEP].decode("utf-8", "replace")
        size = len(self._buf)
        self._buf.clear()
        while True:
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                return prefix, size
            idx = chunk.find(b"\n")
            if idx >= 0:
                size += idx
                self._buf.extend(chunk[idx + 1:])
                return prefix, size
            size += len(chunk)


def parse_addr(value: str) -> tuple[str | None, int | None, str | None]:
    """``HOST:PORT`` or ``unix:PATH`` → (host, port, unix_path).

    Shared by ``--serve``'s ``--addr`` and the cache service's
    ``--cache-server`` / ``--addr`` options.
    """
    if value.startswith("unix:"):
        path = value[len("unix:"):]
        if not path:
            raise ValueError("unix: address requires a socket path")
        return None, None, path
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", value
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad --addr {value!r} (expected HOST:PORT or unix:PATH)"
        ) from None
    return host or "127.0.0.1", port, None


# -- reply builders ----------------------------------------------------------


def error_reply(
    request_id, kind: str, error: str, retry_after_ms: int | None = None
) -> dict:
    reply = {
        "id": request_id,
        "status": 2 if kind in _CLIENT_KINDS else 3,
        "error": error,
        "kind": kind,
    }
    if retry_after_ms is not None:
        reply["retry_after_ms"] = retry_after_ms
    return reply


def oversized_reply(request_id, size: int) -> dict:
    return error_reply(
        request_id, "oversized",
        f"request too large ({size} bytes; limit {MAX_REQUEST_BYTES})",
    )


def metrics_reply(request_id, registry) -> dict:
    return {"id": request_id, "status": 0, "metrics": registry.to_dict()}


def stats_payload(stats) -> dict:
    """The per-request ``stats`` field from a CheckStats record."""
    return {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "degraded_units": stats.degraded_units,
        "internal_errors": stats.internal_errors,
        "preprocess_ms": round(stats.preprocess_s * 1000, 3),
        "parse_ms": round(stats.parse_s * 1000, 3),
        "check_ms": round(stats.check_s * 1000, 3),
        "total_ms": round(stats.total_s * 1000, 3),
    }


def execute_check(request: Request, request_id, cache, jobs: int) -> dict:
    """Run one check request to a reply dict (synchronously).

    This is the single execution path shared by the legacy stdin/stdout
    shim and the async service's worker threads, which is what keeps
    their replies identical. Cancellation is not handled here — a
    :class:`repro.core.faults.RequestCancelled` escapes to the caller
    that armed the scope.
    """
    from ..driver import cli

    try:
        status, output = cli.run(request.argv, cache=cache, jobs=jobs)
    except cli.CliError as exc:
        return error_reply(request_id, "usage", str(exc))
    except Exception as exc:  # the service must survive any one request
        return error_reply(
            request_id, "internal",
            f"internal error: {type(exc).__name__}: {exc}",
        )
    reply: dict = {"id": request_id, "status": status, "output": output}
    stats = cli.LAST_RUN_STATS  # thread-local: ours, not another worker's
    if stats is not None:
        reply["stats"] = stats_payload(stats)
    return reply
