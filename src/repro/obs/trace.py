"""Span tracing: nested wall-clock intervals over the checking pipeline.

A :class:`Tracer` hands out :class:`Span` context managers. Every span
measures its own duration (the incremental engine's ``--profile`` table
is built from these), and — when a *sink* is attached — emits one event
dict per finished span carrying its id, its parent's id, start offset
and duration in microseconds, and any keyword metadata.

The no-sink path is deliberately cheap: a sink-less ``Tracer`` costs two
``perf_counter()`` calls per span (the same price as the ad-hoc timing
it replaced), and fine-grained instrumentation (per-function spans) is
guarded by the single attribute check ``tracer.emitting``.
:data:`NULL_TRACER` does nothing at all and is the default for the pure
checking APIs.

Tracers are single-threaded by design (one per engine/daemon session),
and a check never leaves its process.
"""

from __future__ import annotations

import time


class Span:
    """One open interval; use as a context manager or call :meth:`end`."""

    __slots__ = ("tracer", "name", "cat", "id", "parent", "start",
                 "duration", "meta", "_open")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 span_id: int, parent: int | None, meta: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.id = span_id
        self.parent = parent
        self.meta = meta
        self.duration = 0.0
        self._open = True
        self.start = time.perf_counter()

    def annotate(self, **meta) -> None:
        """Attach metadata after the span opened (e.g. a late count)."""
        self.meta.update(meta)

    def end(self) -> float:
        if self._open:
            self._open = False
            self.duration = time.perf_counter() - self.start
            self.tracer._finish(self)
        return self.duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()


class Tracer:
    """Produces nested spans; emits them to *sink* when one is attached.

    ``emitting`` is the one-attribute-check guard for optional
    fine-grained spans: ``if tracer.emitting: ...``.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.emitting = sink is not None
        self._next_id = 0
        self._stack: list[int] = []  # open span ids, innermost last
        self._epoch = time.perf_counter()

    def span(self, name: str, cat: str = "phase", **meta) -> Span:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        sp = Span(self, name, cat, self._next_id, parent, meta)
        self._stack.append(sp.id)
        return sp

    def add_complete(
        self, name: str, start: float, duration: float,
        cat: str = "phase", **meta,
    ) -> None:
        """Record an already-measured interval (e.g. the lexer's share of
        preprocessing, known only after the fact) as a child of the
        innermost open span."""
        if not self.emitting:
            return
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self.sink.emit(self._event(
            name, cat, self._next_id, parent, start, duration, meta
        ))

    # -- internal ------------------------------------------------------------

    def _finish(self, sp: Span) -> None:
        # Spans close in LIFO order in practice; tolerate stragglers.
        if self._stack and self._stack[-1] == sp.id:
            self._stack.pop()
        elif sp.id in self._stack:
            self._stack.remove(sp.id)
        if self.emitting:
            self.sink.emit(self._event(
                sp.name, sp.cat, sp.id, sp.parent, sp.start, sp.duration,
                sp.meta,
            ))

    def _event(self, name, cat, span_id, parent, start, duration, meta) -> dict:
        event = {
            "name": name,
            "cat": cat,
            "id": span_id,
            "parent": parent,
            "ts_us": int((start - self._epoch) * 1e6),
            "dur_us": int(duration * 1e6),
        }
        if meta:
            event["args"] = dict(meta)
        return event

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


class _NullSpan:
    """Shared inert span: zero timing, zero emission."""

    __slots__ = ()
    name = ""
    cat = ""
    id = 0
    parent = None
    start = 0.0
    duration = 0.0

    def annotate(self, **meta) -> None:
        pass

    def end(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Does nothing; the default tracer of the pure checking APIs."""

    emitting = False
    sink = None

    def span(self, name: str, cat: str = "phase", **meta) -> _NullSpan:
        return NULL_SPAN

    def add_complete(self, name, start, duration, cat="phase", **meta) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
