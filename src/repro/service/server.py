"""The asyncio multi-client checking service (``pylclint --serve``).

One process serves many concurrent clients over TCP-on-localhost and/or
a UNIX socket, speaking the line protocol of :mod:`.protocol` (the same
one the legacy ``--daemon`` spoke, so existing clients keep working).
It is a :class:`~.lineserver.LineServer`: the core owns the listeners,
the framing, the live connections, the drain and the command line;
this module says what a request line does. What the daemon could not
do:

* **concurrent sessions** — every connection is its own session; the
  parsed prelude and the result cache are shared process-wide, so one
  client's cold check warms everyone.
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
  admitted request finish (or hit its deadline), send every session its
  bye, and exit 0. New requests during the drain get a
  ``shutting-down`` reply. A ``shutdown`` request ends only the session
  that sent it.
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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.api import ensure_process_initialized
from ..core.faults import CancelScope, RequestCancelled, cancel_scope
from ..incremental.cache import DEFAULT_CACHE_DIR, ResultCache
from .lineserver import OPTION_TABLE, Connection, LineServer
from .protocol import (
    DEFAULT_RETRY_AFTER_MS,
    Request,
    SessionLedger,
    error_reply,
    execute_check,
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
    session: "Session"
    enqueued_at: float
    deadline: float | None
    scope: CancelScope = field(default_factory=CancelScope)


class Session(Connection):
    """One client's session: its accounting, outstanding work, and the
    cancel scopes of its running requests."""

    def __init__(self, writer, metrics) -> None:
        super().__init__(writer)
        self.ledger = SessionLedger(metrics, "service")
        self.bye_sent = False
        self.outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight_scopes: set[CancelScope] = set()

    def abandon(self, reason: str) -> None:
        """The client is gone: stop replying, cancel its running work."""
        if not self.closed:
            self.ledger.metrics.inc("service.sessions.disconnected")
        super().abandon(reason)
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

    async def send_bye(self) -> None:
        """Send the summary line exactly once, then stop replying (the
        session's end and a concurrent drain may both get here)."""
        if self.bye_sent:
            return
        self.bye_sent = True
        await self.send(self.ledger.bye())
        self.closed = True


class CheckingService(LineServer):
    """The checking service: the bounded priority queue and the workers
    over the line-server core."""

    METRIC_PREFIX = "service"
    OPTIONS = tuple(OPTION_TABLE)

    def __init__(
        self,
        cache_dir: str | None = DEFAULT_CACHE_DIR,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float | None = None,
        workers: int = DEFAULT_WORKERS,
        metrics=None,
    ) -> None:
        super().__init__(host, port, unix_path, metrics)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_inflight = max(1, max_inflight)
        self.request_timeout = request_timeout
        self.workers = max(1, workers)

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._admitted = 0
        self._inflight = 0
        self._seq = 0
        self._worker_tasks: list = []
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Pay the prelude parse once, bind listeners, start workers."""
        loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="pylclint-check"
        )
        await loop.run_in_executor(self._pool, ensure_process_initialized)
        await super().start()
        for _ in range(self.workers):
            self._worker_tasks.append(asyncio.ensure_future(self._worker()))

    def announcement(self) -> dict:
        return {
            "serving": True,
            "pid": os.getpid(),
            "max_inflight": self.max_inflight,
            "request_timeout": self.request_timeout,
            "cache": self.cache.root if self.cache else None,
        }

    async def drain(self) -> None:
        """Finish admitted work, release the workers, and say bye to
        every session."""
        self.metrics.inc("service.drains")
        # Every admitted job completes (or hits its deadline) before the
        # workers are released; new lines get shutting-down replies.
        await self._queue.join()
        for _ in self._worker_tasks:
            self._queue.put_nowait((10 ** 9, 10 ** 9, None))
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        for session in list(self._connections.values()):
            await session.send_bye()
        self._pool.shutdown(wait=True)

    # -- sessions ------------------------------------------------------------

    def open_session(self, writer) -> Session:
        self.metrics.inc("service.sessions.opened")
        return Session(writer, self.metrics)

    def greeting(self) -> dict:
        return {
            "ready": True,
            "cache": self.cache.root if self.cache else None,
            "max_inflight": self.max_inflight,
            "request_timeout": self.request_timeout,
        }

    def oversized(self, session: Session, prefix: str, size: int) -> dict:
        return session.ledger.oversized(prefix, size)

    async def end_session(self, session: Session, reader) -> None:
        # A client that closed its write side (or asked to shut down)
        # still gets every outstanding reply before the bye.
        await session.wait_idle()
        await session.send_bye()
        await _close_after_bye(reader, session.writer)

    async def handle_line(self, session: Session, line: str) -> bool:
        """Answer or admit one request line; True ends the session."""
        request = session.ledger.take(line)
        if request is None:
            return True  # the bare verb ends the session silently
        if isinstance(request, dict):
            await session.send(request)
            return "shutdown" in request
        if self._draining:
            await session.send(session.ledger.refuse("draining", error_reply(
                request.id, "shutting-down",
                "service is draining; retry against a new instance",
            )))
            return False
        if self._admitted >= self.max_inflight:
            depth = self._queue.qsize()
            await session.send(session.ledger.refuse("busy", error_reply(
                request.id, "busy",
                f"server at capacity ({self.max_inflight} requests "
                f"admitted); retry later",
                retry_after_ms=DEFAULT_RETRY_AFTER_MS + 10 * depth,
            )))
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
                job.request.id, "deadline",
                "deadline exceeded while queued "
                f"(waited {now - job.enqueued_at:.3f}s)",
            ))
            return
        if job.request.verb == "metrics":
            reply = session.ledger.snapshot(job.request)
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
                job.request.id, "deadline",
                f"deadline exceeded after {latency:.3f}s "
                f"(stopped at a unit boundary)",
            ))
            return
        await session.send(session.ledger.record(reply))

    def _execute_job(self, job: _Job):
        """Thread-pool entry: one check under the job's cancel scope."""
        with cancel_scope(job.scope):
            try:
                return execute_check(job.request, self.cache)
            except RequestCancelled:
                return None

    # -- observability -------------------------------------------------------

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("service.queue.depth", self._queue.qsize())
        self.metrics.set_gauge("service.inflight", self._inflight)
        self.metrics.set_gauge("service.admitted", self._admitted)
        self.metrics.set_gauge("service.sessions", len(self._connections))

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
    return CheckingService.serve_command(argv, "pylclint")


def main(argv: list[str] | None = None) -> int:
    return run_service(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
