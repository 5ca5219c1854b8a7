"""The checking-service line protocol, shared by every transport.

It also holds what every line server shares: the bounded line framing
(:class:`LineFramer`, and :class:`LineReader` over an asyncio stream),
the per-session request accounting (:class:`SessionLedger`) and the
address grammar (:func:`parse_addr`). The module imports nothing from
``repro`` at import time, so every server can depend on it without an
import cycle.

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

#: Bytes read from a stream at a time.
CHUNK_BYTES = 1 << 16

#: Bare verbs that end a session without a reply.
_END_VERBS = ("shutdown", "quit", "exit")

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
    #: Correlation id: the client's, else the session's request counter
    #: once :meth:`SessionLedger.take` has accounted for the request.
    id: int | str | None = None
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
    if stripped in _END_VERBS:
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


class LineFramer:
    """Bounded, push-style line framing: bytes in, whole lines out.

    It never holds more than the line cap plus one fed chunk. An
    over-long line is dropped as it streams in, keeping only a prefix
    for request-id recovery and a running byte count, so a slow-loris or
    runaway client costs bounded memory and exactly one error reply.
    Every transport frames through it (the service and the cache service
    through :class:`LineReader`, the stdin shim directly), so they all
    split, cap and decode lines alike: the cap counts bytes, and invalid
    UTF-8 decodes to U+FFFD.
    """

    def __init__(self, max_bytes: int = MAX_REQUEST_BYTES) -> None:
        self._max_bytes = max_bytes
        self._buf = bytearray()
        #: ``(prefix, bytes so far)`` of an over-long line being dropped.
        self._dropping: tuple[str, int] | None = None

    def feed(self, data: bytes) -> list[tuple[str, object]]:
        """Frame *data*; returns the lines it completes, in order, as
        ``("line", text)`` or ``("oversized", (prefix, size))``."""
        events: list[tuple[str, object]] = []
        if self._dropping is not None:
            prefix, size = self._dropping
            idx = data.find(b"\n")
            if idx < 0:
                self._dropping = (prefix, size + len(data))
                return events
            self._dropping = None
            events.append(("oversized", (prefix, size + idx)))
            data = data[idx + 1:]
        buf = self._buf
        buf.extend(data)
        start = 0
        while (idx := buf.find(b"\n", start)) >= 0:
            events.append(self._frame(buf[start:idx]))
            start = idx + 1
        del buf[:start]
        if len(buf) > self._max_bytes:
            self._dropping = (_prefix(buf), len(buf))
            buf.clear()
        return events

    def close(self) -> list[tuple[str, object]]:
        """End of input: the final unterminated line, if any, still gets
        an answer."""
        if self._dropping is not None:
            event, self._dropping = ("oversized", self._dropping), None
            return [event]
        if not self._buf.strip():
            return []
        event = self._frame(self._buf)
        self._buf = bytearray()
        return [event]

    def _frame(self, line: bytearray) -> tuple[str, object]:
        if len(line) > self._max_bytes:
            return "oversized", (_prefix(line), len(line))
        return "line", line.decode("utf-8", "replace")


def _prefix(line: bytearray) -> str:
    return line[:_OVERSIZE_KEEP].decode("utf-8", "replace")


class LineReader:
    """A :class:`LineFramer` over an asyncio stream, one line at a time.

    It keeps the bytes it has read but not framed, and feeds the framer
    only whole lines (or a line's first bytes past the cap), so the bytes
    after a line stay unframed until asked for: :meth:`read_exactly`
    takes a payload that follows its request line from the same buffer.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_bytes: int = MAX_REQUEST_BYTES,
    ) -> None:
        self._reader = reader
        self._max_bytes = max_bytes
        self._framer = LineFramer(max_bytes)
        self._pending = bytearray()

    async def next_line(self):
        """Returns ``("line", text)``, ``("oversized", (prefix, size))``,
        or ``("eof", None)``."""
        pending = self._pending
        while (idx := pending.find(b"\n")) < 0:
            if len(pending) > self._max_bytes:
                self._framer.feed(bytes(pending))  # starts dropping the line
                pending.clear()
            chunk = await self._reader.read(CHUNK_BYTES)
            if not chunk:
                events = self._framer.feed(bytes(pending))
                events += self._framer.close()
                pending.clear()
                return events[0] if events else ("eof", None)
            pending += chunk
        line = bytes(pending[:idx + 1])
        del pending[:idx + 1]
        return self._framer.feed(line)[0]

    async def read_exactly(self, size: int) -> bytes:
        """The next *size* bytes after the last line; raises
        :class:`asyncio.IncompleteReadError` if the stream ends first."""
        pending = self._pending
        if len(pending) >= size:
            data = bytes(pending[:size])
            del pending[:size]
            return data
        head = bytes(pending)
        pending.clear()
        return head + await self._reader.readexactly(size - len(head))


def parse_addr(value: str) -> tuple[str | None, int | None, str | None]:
    """``HOST:PORT`` or ``unix:PATH`` → (host, port, unix_path).

    Shared by ``--serve``'s ``--addr`` and the cache service's
    ``--cache-server`` / ``--addr`` options. The :class:`ValueError`
    text leaves the option out, for the caller to name the one it read
    (as :func:`repro.driver.options.parse` does).
    """
    if value.startswith("unix:"):
        path = value[len("unix:"):]
        if not path:
            raise ValueError("expects a socket path after 'unix:'")
        return None, None, path
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", value
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"expects HOST:PORT or unix:PATH, got {value!r}"
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


def execute_check(request: Request, cache) -> dict:
    """Run one check request to a reply dict (synchronously).

    This is the single execution path shared by the legacy stdin/stdout
    shim and the async service's worker threads, which is what keeps
    their replies identical. Cancellation is not handled here — a
    :class:`repro.core.faults.RequestCancelled` escapes to the caller
    that armed the scope.
    """
    from ..driver import cli

    try:
        status, output = cli.run(request.argv, cache=cache)
    except cli.CliError as exc:
        return error_reply(request.id, "usage", str(exc))
    except Exception as exc:  # the service must survive any one request
        return error_reply(
            request.id, "internal",
            f"internal error: {type(exc).__name__}: {exc}",
        )
    reply: dict = {"id": request.id, "status": status, "output": output}
    stats = cli.LAST_RUN_STATS  # thread-local: ours, not another worker's
    if stats is not None:
        reply["stats"] = stats_payload(stats)
    return reply


# -- per-session accounting --------------------------------------------------


class SessionLedger:
    """One session's request accounting, shared by the service and the
    stdin shim: it turns a request line into a :class:`Request` or an
    immediate reply, assigns correlation ids, keeps the counts the bye
    reports, and counts ``<prefix>.requests.*`` on a metrics registry.
    """

    def __init__(self, metrics, prefix: str) -> None:
        self.metrics = metrics
        self.prefix = prefix
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def take(self, line: str) -> Request | dict | None:
        """Account for one non-blank request line.

        Returns the :class:`Request` to run, its ``id`` set; or the reply
        to send at once: a protocol error, or the acknowledgement of a
        JSON-form ``shutdown``, which ends the session. A bare
        ``shutdown``/``quit``/``exit`` returns ``None``: it ends the
        session without a reply.
        """
        if line.strip() in _END_VERBS:
            return None
        self.metrics.inc(f"{self.prefix}.requests.total")
        self.requests += 1
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            request_id = exc.request_id
            return self.refuse("protocol", error_reply(
                self.requests if request_id is None else request_id,
                "protocol", str(exc),
            ))
        if request.id is None:
            request.id = self.requests
        if request.verb == "shutdown":
            return {"id": request.id, "status": 0, "shutdown": True}
        return request

    def oversized(self, prefix: str, size: int) -> dict:
        """The reply to a line over the cap; *prefix* is its start."""
        self.requests += 1
        request_id = recover_request_id(prefix)
        return self.refuse("oversized", oversized_reply(
            self.requests if request_id is None else request_id, size
        ))

    def refuse(self, reason: str, reply: dict) -> dict:
        """Count a request turned away (``requests.rejected.<reason>``)."""
        self.errors += 1
        self.metrics.inc(f"{self.prefix}.requests.rejected.{reason}")
        return reply

    def snapshot(self, request: Request) -> dict:
        """The reply to a ``metrics`` request. The request is counted
        before the registry is read, so the snapshot includes it."""
        self.metrics.inc(f"{self.prefix}.requests.metrics")
        return metrics_reply(request.id, self.metrics)

    def record(self, reply: dict) -> dict:
        """Count a check's reply: its status, an error, cache traffic."""
        self.metrics.inc(f"{self.prefix}.requests.status.{reply['status']}")
        if "error" in reply:
            self.errors += 1
        stats = reply.get("stats")
        if stats is not None:
            self.cache_hits += stats["cache_hits"]
            self.cache_misses += stats["cache_misses"]
        return reply

    def bye(self) -> dict:
        """The line that ends the session."""
        return {
            "bye": True,
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
