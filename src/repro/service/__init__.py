"""The multi-client checking service (``pylclint --serve``).

Layers:

* :mod:`repro.service.protocol` — the line protocol shared by the async
  server and the legacy stdin/stdout daemon shim: request parsing
  (shell line, JSON array, JSON object), request-id recovery from
  malformed input, the reply schema, the bounded line framing and the
  per-session request accounting.
* :mod:`repro.service.lineserver` — the one line-server core under the
  checking service and the cache service
  (:mod:`repro.incremental.cacheserver`): TCP localhost and/or
  UNIX-socket listeners, the framing loop, live connections, graceful
  drain on SIGTERM, the announce line, the option table (shared with
  the ``--daemon`` shim) and a background-thread runner.
* :mod:`repro.service.server` — the checking service on that core:
  per-connection sessions, a bounded priority queue with backpressure,
  per-request deadlines with cooperative cancellation, and a bye then a
  half-close at each session's end.
* :mod:`repro.service.client` — a small blocking client used by tests,
  the chaos-load harness, and scripts.
* :mod:`repro.service.locking` — advisory cache-directory locking
  shared with :mod:`repro.incremental.cache`.

This ``__init__`` stays import-light on purpose: the incremental cache
imports :mod:`repro.service.locking`, so importing the server (which
imports the cache) here would be circular.
"""

__all__ = ["protocol", "lineserver", "server", "client", "locking"]
