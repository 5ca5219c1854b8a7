"""Incremental, parallel checking with a persistent analysis cache.

The paper's performance story — checking "fast enough to run as part of
every build" — rests on modular, per-unit analysis. This package turns
that modularity into an engine:

* :mod:`repro.incremental.fingerprint` — content fingerprints over the
  preprocessed token stream, flags, prelude version, and program
  interface;
* :mod:`repro.incremental.cache` — the corruption-tolerant on-disk
  result cache (``.pylclint-cache/``);
* :mod:`repro.incremental.engine` — the :class:`IncrementalChecker`
  orchestrating memo lookups, cache hits, and (re)checking;
* :mod:`repro.incremental.shard` — partitioning units into worker
  shards by interface-dependency cluster, size, or round-robin;
* :mod:`repro.incremental.parallel` — the sharded scheduler fanning
  per-unit checks over a fork pool with work-stealing;
* :mod:`repro.incremental.cacheserver` — the shared cache service
  (``--cache-server``) letting independent workers, machines, and CI
  runs trade fingerprint-keyed results and unit memos; its server is a
  :class:`repro.service.lineserver.LineServer`, the checking service's
  core;
* :mod:`repro.incremental.server` — the ``pylclint --daemon`` shim
  answering repeated requests from one warm process over stdin/stdout,
  with the service's framing and request accounting.

The two server modules also run as programs (``python -m``), so the
package imports them on first use of their names (:func:`__getattr__`),
never at package import: a module ``python -m`` runs must not already
be in ``sys.modules``.
"""

import importlib

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .engine import CheckStats, IncrementalChecker
from .fingerprint import ENGINE_VERSION
from .shard import Shard, partition_units

#: Names served from a submodule imported on first use.
_LAZY = {
    "CacheClient": "cacheserver",
    "CacheServer": "cacheserver",
    "CacheServerThread": "cacheserver",
    "DaemonServer": "server",
}

__all__ = [
    "CacheClient",
    "CacheServer",
    "CacheServerThread",
    "CheckStats",
    "DaemonServer",
    "DEFAULT_CACHE_DIR",
    "ENGINE_VERSION",
    "IncrementalChecker",
    "ResultCache",
    "Shard",
    "partition_units",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
