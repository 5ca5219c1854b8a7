"""One line-protocol server core under every socket server.

The checking service (:class:`repro.service.server.CheckingService`) and
the cache service (:class:`repro.incremental.cacheserver.CacheServer`)
are both a :class:`LineServer`. The core owns the listeners, the bounded
framing loop and the oversized-line path, the live connections, the
SIGTERM/SIGINT drain, the announce line and the command line (the one
option table, which the ``--daemon`` shim uses too); a subclass only
says what a line does. :class:`LineServerThread` runs a server on a
background thread. docs/internals.md §9 describes the design.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading

from ..driver.options import integer, number, parse, repeated, switch, value
from ..obs.metrics import GLOBAL_METRICS
from .protocol import MAX_REQUEST_BYTES, LineReader, parse_addr

#: How long a drain waits for live connections to finish once closed.
_CLOSE_WAIT_S = 5.0

#: How long a :class:`LineServerThread` waits for its server to start or stop.
_THREAD_WAIT_S = 30.0


class Connection:
    """One client connection: replies written one at a time."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.closed = False
        self._write_lock = asyncio.Lock()

    async def send(self, payload: dict, tail: bytes = b"") -> int:
        """Write one reply line, and the bytes *tail* after it, in one
        write; returns the bytes written. A dead connection is abandoned
        instead of raising."""
        if self.closed:
            return 0
        data = (json.dumps(payload) + "\n").encode("utf-8") + tail
        try:
            async with self._write_lock:
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            self.abandon("client disconnected")
            return 0
        return len(data)

    def abandon(self, reason: str) -> None:
        """Stop replying: the client is gone or the session is over."""
        self.closed = True


class LineServer:
    """Listeners, framing, live connections and drain for one protocol;
    a subclass sets the class constants and implements the hooks below."""

    #: Longest line a client may send, in bytes.
    MAX_LINE_BYTES = MAX_REQUEST_BYTES
    #: Prefix of the core's counter ``<prefix>.sessions.errors``: a
    #: connection handler that failed on something other than the socket.
    METRIC_PREFIX = "lineserver"
    #: The :data:`OPTION_TABLE` names the server's command line takes.
    OPTIONS: tuple[str, ...] = ()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        metrics=None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.bound_addr: str | None = None
        self._servers: list[asyncio.AbstractServer] = []
        #: Live connections: each handler task and its session.
        self._connections: dict[asyncio.Task, Connection] = {}
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners; :class:`CannotStart` if one cannot bind."""
        self._stopped = asyncio.Event()
        if self.port is not None:
            server = await self._listen(
                f"{self.host}:{self.port}", asyncio.start_server,
                host=self.host, port=self.port,
            )
            host, port = server.sockets[0].getsockname()[:2]
            self.bound_addr = f"{host}:{port}"
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)  # left by a killed server
            except OSError:
                pass
            await self._listen(
                f"unix:{self.unix_path}", asyncio.start_unix_server,
                path=self.unix_path,
            )

    async def _listen(self, addr: str, start, **where):
        try:
            server = await start(self._serve_connection, **where)
        except OSError as exc:
            for bound in self._servers:
                bound.close()
            raise CannotStart(f"listen on {addr}", exc) from None
        self._servers.append(server)
        return server

    async def run(self, announce=None) -> int:
        """Serve until a drain finishes; returns the exit status (0)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.drain_soon)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if announce is not None:
            announce(self.describe())
        await self._stopped.wait()
        return 0

    def describe(self) -> dict:
        """The announce line: the subclass's fields, then where it listens."""
        payload = self.announcement()
        if self.bound_addr is not None:
            payload["addr"] = self.bound_addr
        if self.unix_path is not None:
            payload["unix"] = self.unix_path
        return payload

    def drain_soon(self) -> None:
        """Start :meth:`shutdown` as a task (a signal handler's job)."""
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, let the subclass finish its
        work, close every live connection, await the listeners."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        await self.drain()
        # Closing the transports feeds EOF to every handler, so each one
        # finishes on its own (no task cancellation, which keeps loop
        # teardown quiet) and Server.wait_closed(), which waits for open
        # connections on newer Pythons, can return.
        for session in self._connections.values():
            session.writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=_CLOSE_WAIT_S)
        for server in self._servers:
            await server.wait_closed()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        self._stopped.set()

    # -- connections ---------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        session = self._connections[task] = self.open_session(writer)
        try:
            await session.send(self.greeting())
            lines = LineReader(reader, self.MAX_LINE_BYTES)
            while not session.closed:
                kind, payload = await lines.next_line()
                if kind == "eof":
                    break
                if kind == "oversized":
                    await session.send(self.oversized(session, *payload))
                elif payload.strip() and await self.handle_line(
                    session, payload, lines
                ):
                    break
            await self.end_session(session, reader)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # a reset, or a stream cut inside a payload: a disconnect
        except Exception:
            self.metrics.inc(f"{self.METRIC_PREFIX}.sessions.errors")
        finally:
            session.abandon("client disconnected")
            del self._connections[task]
            writer.close()

    # -- what a subclass says ------------------------------------------------

    def announcement(self) -> dict:
        """The announce line, less the addresses :meth:`describe` adds."""
        raise NotImplementedError

    def greeting(self) -> dict:
        """The first line every connection receives."""
        raise NotImplementedError

    def open_session(self, writer) -> Connection:
        """Per-connection state for a new client."""
        return Connection(writer)

    def oversized(self, session, prefix: str, size: int) -> dict:
        """The reply to a *size*-byte line over the cap (*prefix*: its start)."""
        raise NotImplementedError

    async def handle_line(self, session, line: str, lines) -> bool:
        """Answer one non-blank line; True ends the session. *lines* is
        the connection's :class:`LineReader`, which holds the bytes
        after the line."""
        raise NotImplementedError

    async def end_session(self, session, reader) -> None:
        """What follows a session's last line, before the connection closes."""

    async def drain(self) -> None:
        """Finish admitted work before the live connections close."""

    # -- command line --------------------------------------------------------

    @classmethod
    def serve_command(cls, argv: list[str], prog: str) -> int:
        """Entry point: serve until a signal drains the server; 2 on bad
        usage, or when the server cannot open its cache or bind."""
        try:
            settings = parse_options(argv, cls.OPTIONS)
        except ValueError as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            return 2

        def announce(payload: dict) -> None:
            print(json.dumps(payload), flush=True)

        try:
            server = open_server(cls, settings)
            return asyncio.run(server.run(announce=announce))
        except CannotStart as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:  # pragma: no cover - signal-handler race
            return 0


class CannotStart(Exception):
    """A server could not open its cache directory or bind an address."""

    def __init__(self, what: str, exc: OSError) -> None:
        reason = os.strerror(exc.errno) if exc.errno else str(exc)
        super().__init__(f"cannot {what}: {reason}")


def open_server(cls, settings: dict):
    """``cls(**settings)``, the server's cache opened; :class:`CannotStart`
    if its cache directory cannot be."""
    try:
        return cls(**settings)
    except OSError as exc:
        raise CannotStart(f"open cache directory {exc.filename}", exc) \
            from None


class LineServerThread:
    """Run a :class:`LineServer` on its own event-loop thread (tests, the
    benchmarks, and any process that wants to both serve and check). The
    server listens once the constructor returns, at ``addr`` (``--addr``
    syntax); :meth:`close` drains it and joins the thread. A server that
    cannot start (:class:`CannotStart`, or any other error of its start)
    raises from the constructor, its thread already ended."""

    def __init__(self, server: LineServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: Exception | None = None
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(),),
            name=f"pylclint-{server.METRIC_PREFIX}", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(_THREAD_WAIT_S):  # pragma: no cover
            raise RuntimeError(f"{type(server).__name__} did not start")
        if self._failure is not None:
            self._thread.join(_THREAD_WAIT_S)
            failure, self._failure = self._failure, None
            raise failure
        self.addr = server.bound_addr or f"unix:{server.unix_path}"

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except Exception as exc:  # the constructor raises it
            self._failure = exc
            return
        finally:
            self._ready.set()
        await self.server._stopped.wait()

    def close(self) -> None:
        """Drain the server and join its thread."""
        if not self._thread.is_alive():
            return
        try:
            self._loop.call_soon_threadsafe(self.server.drain_soon)
        except RuntimeError:
            pass  # the loop has closed: the server already drained
        self._thread.join(_THREAD_WAIT_S)


# -- the option table --------------------------------------------------------


def _count(text: str) -> int:
    return max(1, integer(text))


def _deadline(text: str) -> float | None:
    seconds = number(text)
    return seconds if seconds > 0 else None  # 0 or less: no deadline


#: Every server option by name: the constructor setting it fills and
#: how (see :mod:`repro.driver.options` for the grammar). ``--addr``
#: fills ``host``/``port`` or ``unix_path``, by kind.
OPTION_TABLE = {
    "cache-dir": value("cache_dir"),
    "no-cache": switch("cache_dir", None),
    "addr": repeated("addr", parse_addr),
    "max-inflight": value("max_inflight", _count),
    "request-timeout": value("request_timeout", _deadline),
    "workers": value("workers", _count),
}


def parse_options(argv: list[str], accepted: tuple[str, ...]) -> dict:
    """Walk *argv* through the *accepted* rows of :data:`OPTION_TABLE`
    into constructor settings. Raises :class:`ValueError` for an unknown
    option or a missing or malformed value."""
    settings: dict = {}
    stray = parse(argv, {n: OPTION_TABLE[n] for n in accepted}, settings)
    if stray:
        raise ValueError(f"unknown option {stray[0].split('=', 1)[0]!r}")
    for host, port, unix_path in settings.pop("addr", ()):
        if unix_path is not None:
            settings["unix_path"] = unix_path
        else:
            settings["host"], settings["port"] = host, port
    if "unix_path" in settings:
        settings.setdefault("port", None)  # a unix address alone: no TCP
    return settings
