"""The shared cache service: fingerprint-keyed results over a socket.

Independent checker processes — parallel CI shards, developers on the
same tree, repeat runs with fresh local caches — all compute the same
content fingerprints (:mod:`.fingerprint`), so one process's cold check
can warm everyone else's. This module turns a :class:`.cache.ResultCache`
directory into a network service:

* the **server** (``python -m repro.incremental.cacheserver``) is a
  :class:`repro.service.lineserver.LineServer`, the checking service's
  core (listeners, bounded framing, drain, command line), with an op
  table on top, over TCP-on-localhost or a UNIX socket;
* the **client** (:class:`CacheClient`, wired in with
  ``pylclint --cache-server ADDR``) is consulted by the engine on every
  *local* cache miss, for both check results and unit memos. Serving
  memos is what makes a remote hit cheap: a result alone still requires
  preprocessing and parsing to compute the fingerprint, while a memo
  hit skips the frontend entirely — a fresh local cache backed by a
  warm server checks at near-warm speed.

Failure philosophy matches the rest of the cache layer: the service is
an accelerator, never a dependency. A dead server, a garbled reply, or
a timeout turns every remaining probe into a miss — the client disables
itself after the first error, records one note, and the run completes
locally with identical output.

Wire schema (one JSON object per line, one reply per request)::

    → {"op": "ping"}
    ← {"ok": true, "pong": true}
    → {"op": "get", "kind": "result" | "memo", "key": "<hex>"}
    ← {"ok": true, "hit": true, "payload": {...}} | {"ok": true, "hit": false}
    → {"op": "put", "kind": "result" | "memo", "key": "<hex>", "payload": {...}}
    ← {"ok": true, "stored": true}
    → {"op": "stats"}
    ← {"ok": true, "counters": {...}, "cache": "<root>"}

Result payloads are the cache's own serialized form (``messages`` +
``suppressed``); memo payloads carry the pickled interface slice
base64-encoded (JSON transport). Malformed requests get
``{"ok": false, "error": ...}`` and the connection stays up.

The server answers one connection's requests in order, so the client
pipelines: it writes a window of request lines (at most
:data:`PIPELINE_WINDOW_BYTES`) and then reads their replies. A warm
check's 50 memo probes and 50 result probes are two round trips, not
100.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import socket
import sys

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from ..service.lineserver import LineServer, LineServerThread
from ..service.protocol import parse_addr
from .cache import DEFAULT_CACHE_DIR, ResultCache, UnitMemo

#: Line cap for cache traffic. Memo payloads carry a base64 pickled
#: interface slice, so the bound is far above the checking protocol's
#: request cap; it exists to keep a runaway client's cost bounded, not
#: to police well-behaved payload sizes.
CACHE_LINE_MAX_BYTES = 32 << 20

#: Client-side socket timeout: a probe must never stall a check longer
#: than this before the client declares the server unavailable.
CLIENT_TIMEOUT_S = 10.0

#: Request bytes the client writes before it stops to read their replies.
#: The server answers each connection's lines in order, so a window of
#: requests costs one round trip. The bound keeps unread requests within
#: what the socket buffers hold: a client still writing a huge window
#: while the server blocks on replies nobody reads yet would deadlock.
#: A line longer than the window travels alone.
PIPELINE_WINDOW_BYTES = 64 << 10


def _encode_memo(memo: UnitMemo) -> dict:
    return {
        "token_digest": memo.token_digest,
        "iface_digest": memo.iface_digest,
        "iface_pickle": base64.b64encode(memo.iface_pickle).decode("ascii"),
        "includes": [[name, sha] for name, sha in memo.includes],
        "enum_consts": dict(memo.enum_consts),
    }


def _decode_memo(payload) -> UnitMemo | None:
    """Payload dict → :class:`UnitMemo`; ``None`` when malformed (the
    same tolerance every cache load path has)."""
    if not isinstance(payload, dict):
        return None
    try:
        return UnitMemo(
            token_digest=str(payload["token_digest"]),
            iface_digest=str(payload["iface_digest"]),
            iface_pickle=base64.b64decode(
                payload["iface_pickle"], validate=True
            ),
            includes=[(str(n), str(s)) for n, s in payload["includes"]],
            enum_consts={
                str(k): int(v) for k, v in payload["enum_consts"].items()
            },
        )
    except (KeyError, TypeError, ValueError, binascii.Error):
        return None


class CacheServer(LineServer):
    """Serve one cache directory's results and memos to many checkers.

    All cache access happens on the event loop thread: entry reads and
    writes are small file operations. Each ``put`` is one atomic file
    write, so nothing is left to flush at the drain, and puts from other
    processes on the same directory are as safe as this server's own.
    """

    MAX_LINE_BYTES = CACHE_LINE_MAX_BYTES
    METRIC_PREFIX = "cacheserver"
    OPTIONS = ("cache-dir", "addr")

    def __init__(
        self,
        cache_dir: str = DEFAULT_CACHE_DIR,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        metrics=None,
    ) -> None:
        super().__init__(host, port, unix_path, metrics)
        self.cache = ResultCache(cache_dir)

    def announcement(self) -> dict:
        return {
            "ready": True,
            "cacheserver": True,
            "pid": os.getpid(),
            "cache": self.cache.root,
        }

    def greeting(self) -> dict:
        return self.describe()

    def oversized(self, session, prefix: str, size: int) -> dict:
        self.metrics.inc("cacheserver.errors")
        return {
            "ok": False,
            "error": f"request of {size} bytes exceeds the "
            f"{CACHE_LINE_MAX_BYTES}-byte line cap",
        }

    async def handle_line(self, session, line: str) -> bool:
        await session.send(self._handle_request(line))
        return False

    def _handle_request(self, line: str) -> dict:
        self.metrics.inc("cacheserver.requests")
        try:
            request = json.loads(line)
        except ValueError:
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "request is not valid JSON"}
        if not isinstance(request, dict):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                return {
                    "ok": True,
                    "cache": self.cache.root,
                    "counters": {
                        name: self.metrics.count(name)
                        for name in (
                            "cacheserver.requests",
                            "cacheserver.hits",
                            "cacheserver.misses",
                            "cacheserver.puts",
                            "cacheserver.errors",
                        )
                    },
                }
            if op == "get":
                return self._handle_get(request)
            if op == "put":
                return self._handle_put(request)
        except ValueError as exc:
            # A non-hex key raises from the cache's path validation.
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": str(exc)}
        self.metrics.inc("cacheserver.errors")
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_get(self, request: dict) -> dict:
        kind = request.get("kind")
        key = request.get("key")
        if kind not in ("result", "memo") or not isinstance(key, str):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "get needs kind result|memo + key"}
        if kind == "result":
            found = self.cache.get_result(key)
            if found is not None:
                messages, suppressed = found
                self.metrics.inc("cacheserver.hits")
                return {
                    "ok": True,
                    "hit": True,
                    "payload": {
                        "messages": [m.to_dict() for m in messages],
                        "suppressed": suppressed,
                    },
                }
        else:
            memo = self.cache.get_unit_memo(key)
            if memo is not None:
                self.metrics.inc("cacheserver.hits")
                return {"ok": True, "hit": True, "payload": _encode_memo(memo)}
        self.metrics.inc("cacheserver.misses")
        return {"ok": True, "hit": False}

    def _handle_put(self, request: dict) -> dict:
        kind = request.get("kind")
        key = request.get("key")
        payload = request.get("payload")
        if kind not in ("result", "memo") or not isinstance(key, str):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "put needs kind result|memo + key"}
        if kind == "result":
            decoded = ResultCache._decode_result(payload)
            if decoded is None:
                self.metrics.inc("cacheserver.errors")
                return {"ok": False, "error": "malformed result payload"}
            self.cache.put_result(key, decoded[0], decoded[1])
        else:
            memo = _decode_memo(payload)
            if memo is None:
                self.metrics.inc("cacheserver.errors")
                return {"ok": False, "error": "malformed memo payload"}
            self.cache.put_unit_memo(key, memo)
        self.metrics.inc("cacheserver.puts")
        return {"ok": True, "stored": True}


class CacheServerThread(LineServerThread):
    """Run a :class:`CacheServer` on a background thread. ``addr`` is
    ready — in ``--cache-server`` syntax — as soon as the constructor
    returns."""

    def __init__(self, cache_dir: str, unix_path: str | None = None,
                 metrics=None) -> None:
        super().__init__(CacheServer(
            cache_dir=cache_dir,
            port=None if unix_path is not None else 0,
            unix_path=unix_path,
            metrics=metrics,
        ))


class CacheClient:
    """Synchronous client used by the engine on local cache misses.

    The batch calls (``get_memos``, ``get_results``, ``put_memos``,
    ``put_results``) pipeline their requests (:meth:`_exchange`); the
    per-key calls are their one-key case. Every method degrades to a
    miss / no-op on failure; the first transport or protocol error
    marks the client dead so one unreachable server costs one connect
    attempt, not one per unit. ``drain_notes`` hands the engine the
    human-readable reason for the run's notes.
    """

    def __init__(self, addr: str, metrics=None,
                 timeout: float = CLIENT_TIMEOUT_S) -> None:
        self.addr = addr
        self.host, self.port, self.unix_path = parse_addr(addr)
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.timeout = timeout
        self.dead = False
        self.notes: list[str] = []
        self._sock: socket.socket | None = None
        self._file = None

    # -- transport -----------------------------------------------------------

    def _connect(self) -> None:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")
        ready = json.loads(self._read_line())
        if not ready.get("ready"):
            raise ConnectionError("cache server did not announce ready")

    def _exchange(self, requests: list[dict]) -> list[dict | None]:
        """Send *requests* pipelined, one window at a time, and return
        their replies in request order.

        A request whose reply never arrived (the client failed on it or
        on an earlier one, and is now dead) gets ``None``.
        """
        replies: list[dict | None] = []
        if self.dead or not requests:
            return [None] * len(requests)
        lines = [(json.dumps(r) + "\n").encode("utf-8") for r in requests]
        try:
            if self._file is None:
                self._connect()
            assert self._file is not None
            start = 0
            while start < len(lines):
                end, size = start + 1, len(lines[start])
                while end < len(lines) and \
                        size + len(lines[end]) <= PIPELINE_WINDOW_BYTES:
                    size += len(lines[end])
                    end += 1
                self._file.write(b"".join(lines[start:end]))
                self._file.flush()
                for _ in range(start, end):
                    replies.append(self._read_reply())
                start = end
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._fail(exc)
        return replies + [None] * (len(requests) - len(replies))

    def _read_line(self) -> str:
        """One line from the server, at most the server's own line cap;
        a longer or unterminated line is a transport failure."""
        assert self._file is not None
        line = self._file.readline(CACHE_LINE_MAX_BYTES + 1)
        if not line:
            raise ConnectionError("cache server closed the connection")
        if not line.endswith(b"\n"):
            raise ConnectionError(
                "cache server sent an unterminated line or one over the "
                f"{CACHE_LINE_MAX_BYTES}-byte line cap"
            )
        return line.decode("utf-8")

    def _read_reply(self) -> dict:
        reply = json.loads(self._read_line())
        if not isinstance(reply, dict) or not reply.get("ok"):
            raise ValueError(
                str((reply or {}).get("error", "malformed reply"))
                if isinstance(reply, dict)
                else "malformed reply"
            )
        return reply

    def _request(self, payload: dict) -> dict | None:
        return self._exchange([payload])[0]

    def _fail(self, exc: Exception) -> None:
        self.dead = True
        self.metrics.inc("cacheserver.client.errors")
        self.notes.append(
            f"cache server {self.addr} unavailable "
            f"({type(exc).__name__}: {exc}); continuing without it"
        )
        self.close()

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def drain_notes(self) -> list[str]:
        out = self.notes
        self.notes = []
        return out

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        reply = self._request({"op": "ping"})
        return bool(reply and reply.get("pong"))

    def stats(self) -> dict | None:
        return self._request({"op": "stats"})

    def _get(self, kind: str, keys: list[str], decode) -> list:
        replies = self._exchange(
            [{"op": "get", "kind": kind, "key": key} for key in keys]
        )
        found = []
        for reply in replies:
            value = None
            if reply is not None and reply.get("hit"):
                value = decode(reply.get("payload"))
            self.metrics.inc(
                "cacheserver.client.misses" if value is None
                else "cacheserver.client.hits"
            )
            found.append(value)
        return found

    def _put(self, kind: str, entries: list[tuple[str, dict]]) -> None:
        replies = self._exchange([
            {"op": "put", "kind": kind, "key": key, "payload": payload}
            for key, payload in entries
        ])
        stored = sum(1 for reply in replies if reply is not None)
        if stored:
            self.metrics.inc("cacheserver.client.puts", stored)

    def get_results(self, fingerprints: list[str]) -> list:
        """One ``(messages, suppressed)`` per fingerprint on a remote hit,
        ``None`` on a miss, in one pipelined exchange."""
        return self._get("result", fingerprints, ResultCache._decode_result)

    def get_memos(self, keys: list[str]) -> list[UnitMemo | None]:
        """One :class:`UnitMemo` (or ``None``) per source key."""
        return self._get("memo", keys, _decode_memo)

    def put_results(
        self, entries: list[tuple[str, list[Message], int]]
    ) -> None:
        """Publish ``(fingerprint, messages, suppressed)`` results."""
        self._put("result", [
            (fingerprint, {
                "messages": [m.to_dict() for m in messages],
                "suppressed": suppressed,
            })
            for fingerprint, messages, suppressed in entries
        ])

    def put_memos(self, entries: list[tuple[str, UnitMemo]]) -> None:
        """Publish ``(source key, memo)`` pairs."""
        self._put("memo", [
            (key, _encode_memo(memo)) for key, memo in entries
        ])

    def get_result(self, fingerprint: str):
        """``(messages, suppressed)`` on a remote hit, else ``None``."""
        return self.get_results([fingerprint])[0]

    def get_memo(self, key: str) -> UnitMemo | None:
        return self.get_memos([key])[0]

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        self.put_results([(fingerprint, messages, suppressed)])

    def put_memo(self, key: str, memo: UnitMemo) -> None:
        self.put_memos([(key, memo)])


# -- CLI entry ---------------------------------------------------------------


def run_cache_server(argv: list[str]) -> int:
    """Entry for ``python -m repro.incremental.cacheserver [options]``."""
    return CacheServer.serve_command(argv, "pylclint-cacheserver")


def main(argv: list[str] | None = None) -> int:
    return run_cache_server(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
