"""The asyncio multi-client checking service (``pylclint --serve``).

One process serves many concurrent clients over TCP-on-localhost and/or
a UNIX socket, speaking the line protocol of :mod:`.protocol` (the same
one the legacy ``--daemon`` spoke, so existing clients keep working).
What the daemon could not do:

* **concurrent sessions** — every connection is its own session; the
  parsed prelude, the result cache, and the journal batcher are shared
  process-wide, so one client's cold check warms everyone.
* **backpressure** — admitted requests (queued + running) are bounded
  by ``max_inflight``; beyond it a client gets an immediate ``busy``
  reply carrying ``retry_after_ms`` instead of unbounded queueing.
* **prioritization** — ``interactive`` checks are scheduled before
  ``batch`` checks, which beat ``metrics`` probes; a priority is
  declared per request in the object form.
* **deadlines + cooperative cancellation** — each request gets a
  deadline (service default, overridable per request); when it fires,
  the request's :class:`~repro.core.faults.CancelScope` is cancelled
  and the engine stops at the next translation-unit boundary. A
  request whose deadline passes while still queued is failed without
  running at all.
* **graceful drain** — SIGTERM/SIGINT stop the listeners, let every
  admitted request finish (or hit its deadline), flush every session,
  and exit 0. New requests during the drain get a ``shutting-down``
  reply.
* **fault containment** — a malformed line, an oversized line, a
  client that disconnects mid-request, or a checker crash affect only
  that request; the reply always carries a correlation ``id`` when one
  is recoverable.

The checker itself is synchronous, so check requests execute on a small
thread pool (the engine's per-run state is thread-local; the shared
prelude/caches are thread-safe). The event loop owns all scheduling,
deadlines, and socket IO.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.api import ensure_process_initialized
from ..core.faults import CancelScope, RequestCancelled, cancel_scope
from ..incremental.cache import DEFAULT_CACHE_DIR, ResultCache
from ..obs.metrics import GLOBAL_METRICS
from .protocol import (
    DEFAULT_RETRY_AFTER_MS,
    LineReader,
    ProtocolError,
    Request,
    error_reply,
    execute_check,
    metrics_reply,
    oversized_reply,
    parse_addr,
    parse_request_line,
    recover_request_id,
)

#: Default bound on admitted (queued + running) requests.
DEFAULT_MAX_INFLIGHT = 64

#: Default executor threads actually checking. The engine is CPU-bound
#: Python, so more threads mostly add contention; a few hide cache and
#: file IO behind each other.
DEFAULT_WORKERS = 4

#: How long a session that has sent its bye keeps reading (and dropping)
#: what the client still sends before it closes the connection anyway.
BYE_LINGER_S = 2.0


@dataclass
class _Job:
    """One admitted request waiting for, or on, a worker."""

    seq: int
    request: Request
    request_id: object
    session: "Session"
    enqueued_at: float
    deadline: float | None
    scope: CancelScope = field(default_factory=CancelScope)


class Session:
    """Per-connection state: correlation ids, stats, serialized writes."""

    def __init__(self, service: "CheckingService", writer) -> None:
        self.service = service
        self.writer = writer
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.closed = False
        self.bye_sent = False
        self.outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._write_lock = asyncio.Lock()
        self._inflight_scopes: set[CancelScope] = set()

    def next_request_id(self, request: Request | None = None):
        self.requests += 1
        if request is not None and request.id is not None:
            return request.id
        return self.requests

    async def send(self, payload: dict) -> None:
        """Write one reply line; a dead connection marks the session
        closed (and cancels its work) instead of raising."""
        if self.closed:
            return
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            async with self._write_lock:
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            self.abandon("client disconnected")

    def abandon(self, reason: str) -> None:
        """The client is gone: stop replying, cancel its running work."""
        if not self.closed:
            self.closed = True
            GLOBAL_METRICS.inc("service.sessions.disconnected")
        for scope in list(self._inflight_scopes):
            scope.cancel(reason)

    def job_started(self, scope: CancelScope) -> None:
        self._inflight_scopes.add(scope)

    def job_finished(self, scope: CancelScope) -> None:
        self._inflight_scopes.discard(scope)
        self.outstanding -= 1
        if self.outstanding == 0:
            self._idle.set()

    def job_admitted(self) -> None:
        self.outstanding += 1
        self._idle.clear()

    async def wait_idle(self) -> None:
        await self._idle.wait()

    def bye_payload(self) -> dict:
        return {
            "bye": True,
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    async def send_bye(self) -> None:
        """Send the summary line exactly once, then stop replying (the
        connection handler and a concurrent drain may both get here)."""
        if self.bye_sent:
            return
        self.bye_sent = True
        await self.send(self.bye_payload())
        self.closed = True


class CheckingService:
    """The server: listeners, the bounded priority queue, the workers."""

    def __init__(
        self,
        cache_dir: str | None = DEFAULT_CACHE_DIR,
        jobs: int = 1,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float | None = None,
        workers: int = DEFAULT_WORKERS,
        metrics=None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_inflight = max(1, max_inflight)
        self.request_timeout = request_timeout
        self.workers = max(1, workers)
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.bound_addr: str | None = None

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._admitted = 0
        self._inflight = 0
        self._seq = 0
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._servers: list = []
        self._sessions: set[Session] = set()
        self._conn_tasks: set = set()
        self._worker_tasks: list = []
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners, start workers, pay the prelude parse once."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="pylclint-check"
        )
        await loop.run_in_executor(self._pool, ensure_process_initialized)
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self._servers.append(server)
            sock = server.sockets[0].getsockname()
            self.bound_addr = f"{sock[0]}:{sock[1]}"
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
            self._servers.append(server)
        for _ in range(self.workers):
            self._worker_tasks.append(asyncio.ensure_future(self._worker()))

    async def run(self, announce=None) -> int:
        """Serve until a drain finishes; returns the exit status (0)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if announce is not None:
            announce(self.describe())
        await self._stopped.wait()
        return 0

    def describe(self) -> dict:
        payload = {
            "serving": True,
            "pid": os.getpid(),
            "max_inflight": self.max_inflight,
            "request_timeout": self.request_timeout,
            "jobs": self.jobs,
            "cache": self.cache.root if self.cache else None,
        }
        if self.bound_addr is not None:
            payload["addr"] = self.bound_addr
        if self.unix_path is not None:
            payload["unix"] = self.unix_path
        return payload

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, flush
        the journal, close every session, release the workers."""
        if self._draining:
            return
        self._draining = True
        self.metrics.inc("service.drains")
        for server in self._servers:
            server.close()
        # Every admitted job completes (or hits its deadline) before the
        # workers are released; new lines get shutting-down replies.
        await self._queue.join()
        for _ in self._worker_tasks:
            self._queue.put_nowait((10 ** 9, 10 ** 9, None))
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        for session in list(self._sessions):
            await session.send_bye()
            try:
                session.writer.close()
            except Exception:
                pass
        # Closing the transports feeds EOF to every connection handler,
        # so they all exit on their own — no task cancellation, which
        # keeps loop teardown quiet.
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=5.0)
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self.cache is not None:
            self.cache.flush_batch()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        assert self._stopped is not None
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        session = Session(self, writer)
        self._sessions.add(session)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.metrics.inc("service.sessions.opened")
        try:
            await session.send({
                "ready": True,
                "jobs": self.jobs,
                "cache": self.cache.root if self.cache else None,
                "max_inflight": self.max_inflight,
                "request_timeout": self.request_timeout,
            })
            lines = LineReader(reader)
            while not session.closed:
                kind, payload = await lines.next_line()
                if kind == "eof":
                    break
                if kind == "oversized":
                    prefix, size = payload
                    session.requests += 1
                    request_id = recover_request_id(prefix)
                    if request_id is None:
                        request_id = session.requests
                    session.errors += 1
                    self.metrics.inc("service.requests.rejected.oversized")
                    await session.send(oversized_reply(request_id, size))
                    continue
                if not payload.strip():
                    continue
                if await self._handle_line(session, payload):
                    break  # clean per-session shutdown
            # A client that closed its write side (or asked to shut
            # down) still gets every outstanding reply before the bye.
            await session.wait_idle()
            await session.send_bye()
            await _close_after_bye(reader, writer)
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            raise
        except (ConnectionError, OSError):
            pass  # a mid-read reset is an ordinary disconnect
        except Exception:
            self.metrics.inc("service.sessions.errors")
        finally:
            session.abandon("client disconnected")
            self._sessions.discard(session)
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_line(self, session: Session, line: str) -> bool:
        """Parse and dispatch one request line; True ends the session."""
        if line.strip() in ("shutdown", "quit", "exit"):
            return True  # the bare verb ends the session silently
        self.metrics.inc("service.requests.total")
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            session.requests += 1
            request_id = exc.request_id
            if request_id is None:
                request_id = session.requests
            session.errors += 1
            self.metrics.inc("service.requests.rejected.protocol")
            await session.send(error_reply(request_id, "protocol", str(exc)))
            return False
        request_id = session.next_request_id(request)
        if request.verb == "shutdown":
            # JSON-form shutdown: acknowledged, correlatable session end
            # (identical to the stdin/stdout shim's reply).
            await session.send(
                {"id": request_id, "status": 0, "shutdown": True}
            )
            return True
        if self._draining:
            session.errors += 1
            self.metrics.inc("service.requests.rejected.draining")
            await session.send(error_reply(
                request_id, "shutting-down",
                "service is draining; retry against a new instance",
            ))
            return False
        if self._admitted >= self.max_inflight:
            session.errors += 1
            self.metrics.inc("service.requests.rejected.busy")
            depth = self._queue.qsize()
            await session.send(error_reply(
                request_id, "busy",
                f"server at capacity ({self.max_inflight} requests "
                f"admitted); retry later",
                retry_after_ms=DEFAULT_RETRY_AFTER_MS + 10 * depth,
            ))
            return False
        loop = asyncio.get_running_loop()
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.request_timeout
        )
        self._seq += 1
        job = _Job(
            seq=self._seq,
            request=request,
            request_id=request_id,
            session=session,
            enqueued_at=loop.time(),
            deadline=(loop.time() + timeout) if timeout is not None else None,
        )
        self._admitted += 1
        session.job_admitted()
        self.metrics.inc("service.requests.admitted")
        self._queue.put_nowait((request.rank, job.seq, job))
        self._update_gauges()
        return False

    # -- workers -------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            self._inflight += 1
            self._update_gauges()
            try:
                await self._run_job(job)
            except Exception:  # a job must never kill its worker
                self.metrics.inc("service.jobs.errors")
            finally:
                self._inflight -= 1
                self._admitted -= 1
                job.session.job_finished(job.scope)
                self._update_gauges()
                self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        session = job.session
        session.job_started(job.scope)
        if session.closed:
            self.metrics.inc("service.requests.cancelled.disconnect")
            return
        now = loop.time()
        if job.deadline is not None and now >= job.deadline:
            self.metrics.inc("service.requests.timed_out")
            await session.send(error_reply(
                job.request_id, "deadline",
                "deadline exceeded while queued "
                f"(waited {now - job.enqueued_at:.3f}s)",
            ))
            return
        if job.request.verb == "metrics":
            self.metrics.inc("service.requests.metrics")
            reply = metrics_reply(job.request_id, self.metrics)
            reply["latency"] = self._latency_summary()
            await session.send(reply)
            return
        handle = None
        if job.deadline is not None:
            handle = loop.call_at(
                job.deadline, job.scope.cancel, "deadline exceeded"
            )
        try:
            reply = await loop.run_in_executor(
                self._pool, self._execute_job, job
            )
        finally:
            if handle is not None:
                handle.cancel()
        latency = loop.time() - job.enqueued_at
        self.metrics.observe("service.request_s", latency)
        if reply is None:
            # Cancelled cooperatively: deadline fired or client left.
            if job.scope.reason == "client disconnected":
                self.metrics.inc("service.requests.cancelled.disconnect")
                return
            self.metrics.inc("service.requests.timed_out")
            await session.send(error_reply(
                job.request_id, "deadline",
                f"deadline exceeded after {latency:.3f}s "
                f"(stopped at a unit boundary)",
            ))
            return
        status = reply.get("status")
        self.metrics.inc(f"service.requests.status.{status}")
        if "error" in reply:
            session.errors += 1
        stats = reply.get("stats")
        if stats is not None:
            session.cache_hits += stats.get("cache_hits", 0)
            session.cache_misses += stats.get("cache_misses", 0)
        await session.send(reply)

    def _execute_job(self, job: _Job):
        """Thread-pool entry: one check under the job's cancel scope."""
        with cancel_scope(job.scope):
            try:
                return execute_check(
                    job.request, job.request_id, self.cache, self.jobs
                )
            except RequestCancelled:
                return None

    # -- observability -------------------------------------------------------

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("service.queue.depth", self._queue.qsize())
        self.metrics.set_gauge("service.inflight", self._inflight)
        self.metrics.set_gauge("service.admitted", self._admitted)
        self.metrics.set_gauge("service.sessions", len(self._sessions))

    def _latency_summary(self) -> dict:
        hist = self.metrics.histogram("service.request_s")
        if hist is None or hist.count == 0:
            return {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0}
        return {
            "count": hist.count,
            "p50_ms": round(hist.percentile(0.5) * 1000, 3),
            "p99_ms": round(hist.percentile(0.99) * 1000, 3),
        }


async def _close_after_bye(reader, writer) -> None:
    """Half-close after the bye, then drop input until the client closes
    too (or ``BYE_LINGER_S`` passes).

    A client may still be sending lines after the one that ended its
    session. Closing a socket with unread input makes the kernel reset
    the connection, and a reset can reach the client before it has read
    the replies and the bye.
    """
    if writer.can_write_eof():
        writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), BYE_LINGER_S)
    except asyncio.TimeoutError:
        pass


# -- CLI entry ---------------------------------------------------------------


def run_service(argv: list[str]) -> int:
    """Entry for ``pylclint --serve [options]``."""
    cache_dir: str | None = DEFAULT_CACHE_DIR
    jobs = 1
    host: str = "127.0.0.1"
    port: int | None = None
    unix_path: str | None = None
    max_inflight = DEFAULT_MAX_INFLIGHT
    request_timeout: float | None = None
    workers = DEFAULT_WORKERS

    def take_value(i: int, name: str) -> str:
        if i >= len(argv):
            raise ValueError(f"{name} requires a value")
        return argv[i]

    try:
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg.startswith("--") and "=" in arg:
                name, _, value = arg.partition("=")
                argv[i:i + 1] = [name, value]
                continue
            if arg in ("--cache-dir", "-cache-dir"):
                i += 1
                cache_dir = take_value(i, "--cache-dir")
            elif arg in ("--no-cache", "-no-cache"):
                cache_dir = None
            elif arg in ("--jobs", "-jobs", "-j"):
                i += 1
                jobs = max(1, int(take_value(i, "--jobs")))
            elif arg in ("--addr", "-addr"):
                i += 1
                parsed_host, parsed_port, parsed_unix = parse_addr(
                    take_value(i, "--addr")
                )
                if parsed_unix is not None:
                    unix_path = parsed_unix
                else:
                    host, port = parsed_host, parsed_port
            elif arg in ("--max-inflight", "-max-inflight"):
                i += 1
                max_inflight = max(1, int(take_value(i, "--max-inflight")))
            elif arg in ("--request-timeout", "-request-timeout"):
                i += 1
                request_timeout = float(take_value(i, "--request-timeout"))
                if request_timeout <= 0:
                    request_timeout = None
            elif arg in ("--workers", "-workers"):
                i += 1
                workers = max(1, int(take_value(i, "--workers")))
            else:
                print(
                    f"pylclint: unknown --serve option {arg!r}",
                    file=sys.stderr,
                )
                return 2
            i += 1
    except ValueError as exc:
        print(f"pylclint: {exc}", file=sys.stderr)
        return 2

    if port is None and unix_path is None:
        port = 0  # default: TCP on localhost, kernel-assigned port

    service = CheckingService(
        cache_dir=cache_dir,
        jobs=jobs,
        host=host,
        port=port,
        unix_path=unix_path,
        max_inflight=max_inflight,
        request_timeout=request_timeout,
        workers=workers,
    )

    def announce(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    try:
        return asyncio.run(service.run(announce=announce))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


def main(argv: list[str] | None = None) -> int:
    return run_service(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
