"""Legacy batch/daemon driver: ``pylclint --daemon`` — now a thin,
synchronous compatibility shim over :mod:`repro.service.protocol`.

The real server is the asyncio multi-client checking service
(``pylclint --serve``, :mod:`repro.service.server`); this shim keeps
the original single-client stdin/stdout transport alive for build
systems that pipe into it. It reads ``sys.stdin.buffer`` through the
service's :class:`~repro.service.protocol.LineFramer`, counts requests
with the service's :class:`~repro.service.protocol.SessionLedger` (on
``daemon.*`` counters) and runs checks with the service's executor, so
for any request line the shim and the service produce the same reply
(the property suite in ``tests/property/test_service_framing.py`` holds
them to it); the request forms and the reply schema are in
:mod:`repro.service.protocol`. It stays synchronous: one reply per
line, in order; ``shutdown`` (or EOF) ends the session with a summary
line.

The daemon never dies on a request: malformed JSON, oversized lines,
and internal checker errors all get an error reply, and the next
request is served normally. Every request runs with the persistent
result cache enabled, so a rebuild that re-checks an unchanged file is
answered from cache without preprocessing, parsing, or checking.
"""

from __future__ import annotations

import json
import sys

from ..core.api import ensure_process_initialized
from ..obs.metrics import GLOBAL_METRICS
from ..service.lineserver import parse_options
from ..service.protocol import (
    CHUNK_BYTES,
    MAX_REQUEST_BYTES,
    LineFramer,
    Request,
    SessionLedger,
    execute_check,
)
from .cache import DEFAULT_CACHE_DIR, ResultCache

__all__ = [
    "MAX_REQUEST_BYTES",
    "DaemonServer",
    "run_daemon",
    "main",
]


class DaemonServer:
    """One single-client daemon session over a pair of streams: binary
    requests in (``sys.stdin.buffer`` by default), text replies out."""

    OPTIONS = ("cache-dir", "no-cache")

    def __init__(
        self,
        cache_dir: str | None = DEFAULT_CACHE_DIR,
        stdin=None,
        stdout=None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stdin = stdin if stdin is not None else sys.stdin.buffer
        self.stdout = stdout if stdout is not None else sys.stdout
        self.stats = SessionLedger(GLOBAL_METRICS, "daemon")

    def serve(self) -> int:
        """Answer requests until ``shutdown`` or EOF; returns 0."""
        ensure_process_initialized()  # pay the prelude parse once, up front
        self._send({"ready": True,
                    "cache": self.cache.root if self.cache else None})
        for kind, payload in _lines(self.stdin):
            if kind == "oversized":
                self._send(self.stats.oversized(*payload))
            elif payload.strip() and self._answer(payload):
                break
        self._send(self.stats.bye())
        return 0

    def _answer(self, line: str) -> bool:
        """Reply to one request line; True ends the session."""
        reply = self.stats.take(line)
        if reply is None:
            return True  # the bare verb ends the session silently
        if isinstance(reply, Request):
            if reply.verb == "metrics":
                reply = self.stats.snapshot(reply)
            else:
                reply = self.stats.record(
                    execute_check(reply, self.cache)
                )
        self._send(reply)
        return "shutdown" in reply

    def _send(self, payload: dict) -> None:
        self.stdout.write(json.dumps(payload) + "\n")
        self.stdout.flush()


def _lines(stream):
    """Frame a blocking binary stream: the framer's events, in order.
    ``read1`` returns what one read gives, so a piped request is
    answered without waiting for a full chunk."""
    framer = LineFramer()
    while chunk := stream.read1(CHUNK_BYTES):
        yield from framer.feed(chunk)
    yield from framer.close()


def run_daemon(argv: list[str]) -> int:
    """Entry for ``pylclint --daemon [--cache-dir D] [--no-cache]``."""
    try:
        settings = parse_options(argv, DaemonServer.OPTIONS)
    except ValueError as exc:
        print(f"pylclint: {exc}", file=sys.stderr)
        return 2
    return DaemonServer(**settings).serve()


def main(argv: list[str] | None = None) -> int:
    return run_daemon(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
