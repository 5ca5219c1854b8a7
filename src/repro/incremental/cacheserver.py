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

Wire schema, version 2 (:data:`WIRE_VERSION`; one request per batch)::

    ← {"ready": true, "cacheserver": true, "wire": 2, ...}
    → {"op": "ping"}
    ← {"ok": true, "pong": true}
    → {"op": "get", "kind": "result" | "memo", "keys": ["<hex>", ...]}
    ← {"ok": true, "sizes": [n | null, ...]} + the entries' bytes
    → {"op": "put", "kind": "result" | "memo", "keys": [...],
       "sizes": [n, ...]} + the entries' bytes
    ← {"ok": true, "stored": [true | false, ...]}
    → {"op": "stats"}
    ← {"ok": true, "counters": {...}, "cache": "<root>"}

Each request and reply is one JSON header line; a get reply and a put
request follow theirs with the entries' bytes, concatenated in key
order, as many as ``sizes`` says for each key (``null``: a miss). An
entry's bytes are the bytes the cache stores (:mod:`.cache` owns that
form). The server decodes only puts, with the cache's own decoder, and
writes the entries that decode as received; a get is file reads and one
write. A stored entry that no longer decodes is a miss for the client,
and that run's publish overwrites it. :data:`CACHE_LINE_MAX_BYTES`
caps every header line and every entry, not a batch.

A malformed request gets ``{"ok": false, "error": ...}`` and the
connection stays up, with one exception: a put whose ``sizes`` the
server cannot trust, since it then cannot find the next request. That
put gets the error reply and the server closes the connection. A wire 1
request (one ``key``, its entry inside the line) gets an error naming
wire 2, and a client refuses a server that does not announce wire 2:
either way the client's probes are misses.
"""

from __future__ import annotations

import json
import os
import socket
import sys
from itertools import accumulate

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from ..service.lineserver import LineServer, LineServerThread
from ..service.protocol import parse_addr
from .cache import (
    DEFAULT_CACHE_DIR,
    ENTRY_KINDS,
    ResultCache,
    UnitMemo,
    encode_memo,
    encode_result,
)

#: The wire form this module speaks; the ready line announces it.
WIRE_VERSION = 2

#: Cap on one header line and on one entry's bytes, not on a batch. A
#: memo carries a pickled interface slice, so the bound is far above the
#: checking protocol's request cap; it exists to keep a runaway peer's
#: cost bounded, not to police well-behaved entry sizes.
CACHE_LINE_MAX_BYTES = 32 << 20

#: Client-side socket timeout: a probe must never stall a check longer
#: than this before the client declares the server unavailable.
CLIENT_TIMEOUT_S = 10.0


def _entry_size(size) -> bool:
    """Whether *size* may announce one entry's bytes."""
    return type(size) is int and 0 <= size <= CACHE_LINE_MAX_BYTES


def _batch_ok(kind, keys) -> bool:
    """Whether a batch names an entry kind and a list of keys."""
    return isinstance(kind, str) and kind in ENTRY_KINDS \
        and isinstance(keys, list) and all(isinstance(k, str) for k in keys)


class CacheServer(LineServer):
    """Serve one cache directory's results and memos to many checkers.

    All cache access happens on the event loop thread: entry reads and
    writes are small file operations. Each stored entry is one atomic
    file write, so nothing is left to flush at the drain, and puts from
    other processes on the same directory are as safe as this server's
    own.
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
            "wire": WIRE_VERSION,
            "pid": os.getpid(),
            "cache": self.cache.root,
        }

    def greeting(self) -> dict:
        return self.describe()

    def oversized(self, session, prefix: str, size: int) -> dict:
        return self._refuse(
            f"request of {size} bytes exceeds the "
            f"{CACHE_LINE_MAX_BYTES}-byte line cap"
        )

    def _refuse(self, error: str) -> dict:
        self.metrics.inc("cacheserver.errors")
        return {"ok": False, "error": error}

    async def handle_line(self, session, line: str, lines) -> bool:
        self.metrics.inc("cacheserver.requests")
        reply, tail, close = await self._answer(line, lines)
        sent = await session.send(reply, tail)
        self.metrics.inc("cacheserver.reply_bytes", sent)
        return close

    async def _answer(self, line: str, lines) -> tuple[dict, bytes, bool]:
        """A request's reply header, the bytes after it, and whether to
        close the connection."""
        try:
            request = json.loads(line)
        except ValueError:
            request = None
        if not isinstance(request, dict):
            return self._refuse("request must be a JSON object"), b"", False
        op = request.get("op")
        if "key" in request:  # wire 1 named one key, its entry in the line
            return self._refuse(
                f"a one-key {op} is wire 1; this cache server speaks wire "
                f"{WIRE_VERSION}"
            ), b"", False
        if op == "get":
            return (*self._get(request), False)
        if op == "put":
            return await self._put(lines, request)
        if op == "ping":
            return {"ok": True, "pong": True}, b"", False
        if op == "stats":
            return {
                "ok": True,
                "cache": self.cache.root,
                "counters": {
                    f"cacheserver.{name}": self.metrics.count(
                        f"cacheserver.{name}"
                    )
                    for name in ("requests", "hits", "misses", "puts", "errors")
                },
            }, b"", False
        return self._refuse(f"unknown op {op!r}"), b"", False

    def _get(self, request: dict) -> tuple[dict, bytes]:
        """The reply header and the found entries' stored bytes, read
        from their files and never decoded."""
        kind, keys = request.get("kind"), request.get("keys")
        if not _batch_ok(kind, keys):
            return self._refuse("get needs kind result|memo + keys"), b""
        try:
            found = [self.cache.read_entry(kind, key) for key in keys]
        except ValueError as exc:  # a key that is not a hex digest
            return self._refuse(str(exc)), b""
        hits = [data for data in found if data is not None]
        self.metrics.inc("cacheserver.hits", len(hits))
        self.metrics.inc("cacheserver.misses", len(found) - len(hits))
        sizes = [None if data is None else len(data) for data in found]
        return {"ok": True, "sizes": sizes}, b"".join(hits)

    async def _put(self, lines, request: dict) -> tuple[dict, bytes, bool]:
        """Read the entries after the header and store each one that
        decodes, as received. Close the connection when the sizes cannot
        be trusted to find the next request."""
        sizes = request.get("sizes")
        if not (isinstance(sizes, list) and all(map(_entry_size, sizes))):
            return self._refuse(
                "put needs sizes: one byte count per entry, at most "
                f"{CACHE_LINE_MAX_BYTES}; closing the connection"
            ), b"", True
        kind, keys = request.get("kind"), request.get("keys")
        well_formed = _batch_ok(kind, keys) and len(keys) == len(sizes)
        stored = []
        for index, size in enumerate(sizes):
            data = await lines.read_exactly(size)
            if well_formed:
                stored.append(self._store(kind, keys[index], data))
        if not well_formed:
            return self._refuse(
                "put needs kind result|memo + keys, one per size"
            ), b"", False
        self.metrics.inc("cacheserver.puts", sum(stored))
        return {"ok": True, "stored": stored}, b"", False

    def _store(self, kind: str, key: str, data: bytes) -> bool:
        try:
            if self.cache.write_entry(kind, key, data):
                return True
        except ValueError:  # a key that is not a hex digest
            pass
        self.metrics.inc("cacheserver.errors")
        return False


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

    Each batch call (``get_memos``, ``get_results``, ``put_memos``,
    ``put_results``) is one request (:meth:`_exchange`); the per-key
    calls are their one-key case. Every method degrades to a miss /
    no-op on failure; the first transport or protocol error marks the
    client dead so one unreachable server costs one connect attempt,
    not one per unit. ``drain_notes`` hands the engine the
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
        if ready.get("wire") != WIRE_VERSION:
            raise ConnectionError(
                f"cache server speaks wire {ready.get('wire', 1)}, "
                f"this client wire {WIRE_VERSION}"
            )

    def _exchange(self, request: dict, tail: bytes = b"") -> dict | None:
        """Send one request, its header line and *tail* in one write, and
        return its reply. A get's reply gains ``entries``: each key's
        bytes, or ``None``. ``None`` when the client is dead, or dies on
        this request.
        """
        if self.dead:
            return None
        self.metrics.inc("cacheserver.client.requests")
        try:
            if self._file is None:
                self._connect()
            line = (json.dumps(request) + "\n").encode("utf-8")
            self._file.write(line + tail)
            self._file.flush()
            reply = json.loads(self._read_line())
            if not isinstance(reply, dict) or not reply.get("ok"):
                raise ValueError(
                    str(reply.get("error", "malformed reply"))
                    if isinstance(reply, dict) else "malformed reply"
                )
            if request["op"] == "get":
                reply["entries"] = self._read_entries(
                    reply.get("sizes"), len(request["keys"])
                )
            return reply
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._fail(exc)
            return None

    def _read_line(self) -> str:
        """One line from the server, at most the line cap; a longer or
        unterminated line is a transport failure."""
        line = self._file.readline(CACHE_LINE_MAX_BYTES + 1)
        if not line:
            raise ConnectionError("cache server closed the connection")
        if not line.endswith(b"\n"):
            raise ConnectionError(
                "cache server sent an unterminated line or one over the "
                f"{CACHE_LINE_MAX_BYTES}-byte line cap"
            )
        return line.decode("utf-8")

    def _read_entries(self, sizes, count: int) -> list[bytes | None]:
        """The entry bytes after a get reply, split by its *sizes*."""
        if not (isinstance(sizes, list) and len(sizes) == count and all(
            size is None or _entry_size(size) for size in sizes
        )):
            raise ValueError(
                f"get reply sizes are not {count} entry sizes of at most "
                f"the {CACHE_LINE_MAX_BYTES}-byte cap"
            )
        ends = list(accumulate((size or 0 for size in sizes), initial=0))
        body = self._file.read(ends[-1])
        if len(body) != ends[-1]:
            raise ConnectionError(
                "cache server closed the connection inside a reply"
            )
        return [None if size is None else body[end - size:end]
                for size, end in zip(sizes, ends[1:])]

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
        reply = self._exchange({"op": "ping"})
        return bool(reply and reply.get("pong"))

    def stats(self) -> dict | None:
        return self._exchange({"op": "stats"})

    def _get(self, kind: str, keys: list[str]) -> list:
        found = [None] * len(keys)
        reply = self._exchange({"op": "get", "kind": kind, "keys": keys}) \
            if keys else None
        if reply is not None:
            decode = ENTRY_KINDS[kind].decode
            found = [
                None if data is None else decode(data)
                for data in reply["entries"]
            ]
        hits = sum(1 for value in found if value is not None)
        if hits:
            self.metrics.inc("cacheserver.client.hits", hits)
        if len(found) - hits:
            self.metrics.inc("cacheserver.client.misses", len(found) - hits)
        return found

    def _put(self, kind: str, entries: list[tuple[str, bytes]]) -> None:
        if not entries:
            return
        reply = self._exchange(
            {"op": "put", "kind": kind,
             "keys": [key for key, _ in entries],
             "sizes": [len(data) for _, data in entries]},
            b"".join(data for _, data in entries),
        )
        stored = reply.get("stored") if reply is not None else None
        if isinstance(stored, list) and stored.count(True):
            self.metrics.inc("cacheserver.client.puts", stored.count(True))

    def get_results(self, fingerprints: list[str]) -> list:
        """One ``(messages, suppressed)`` per fingerprint on a remote hit,
        ``None`` on a miss, in one request."""
        return self._get("result", fingerprints)

    def get_memos(self, keys: list[str]) -> list[UnitMemo | None]:
        """One :class:`UnitMemo` (or ``None``) per source key."""
        return self._get("memo", keys)

    def put_results(
        self, entries: list[tuple[str, list[Message], int]]
    ) -> None:
        """Publish ``(fingerprint, messages, suppressed)`` results."""
        self._put("result", [
            (fingerprint, encode_result(messages, suppressed))
            for fingerprint, messages, suppressed in entries
        ])

    def put_memos(self, entries: list[tuple[str, UnitMemo]]) -> None:
        """Publish ``(source key, memo)`` pairs."""
        self._put("memo", [(key, encode_memo(memo)) for key, memo in entries])

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
