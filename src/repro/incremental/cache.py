"""The persistent analysis cache (default directory: ``.pylclint-cache/``).

Layout::

    <root>/meta.json            cache-format + engine version stamp
    <root>/lock                 advisory flock held around a version wipe
    <root>/units/<key>.pkl      per-unit memo: token digest, interface
                                digest + pickled interface slice, include
                                closure, enum constants
    <root>/results/<fp>.json    per-unit check result: serialized messages
                                and the suppressed-message count

Each result is one file, written the moment it is put: the engine, the
cache service and every process sharing the directory write the same
form, and a reader needs no state beyond the file. Writes go through a
temp file + ``os.replace``, so a reader sees the old entry or the new
one, never a mix, and two writers of one fingerprint write the same
bytes. Nothing is fsync'd: a lost or torn entry after a crash is a miss.

Every load path is corruption-tolerant: a truncated, garbled, or
version-mismatched file is treated as a miss and discarded, never an
error — a bad cache can cost time, but it must not change results or
crash the checker. Each discarded entry is counted (per thread, see
:meth:`ResultCache.drain_dropped`, and in ``cache.entries.dropped`` in
the metrics registry) so corruption is diagnosable: the engine surfaces
its run's count as a run note.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from .fingerprint import ENGINE_VERSION

DEFAULT_CACHE_DIR = ".pylclint-cache"

#: Format version of the on-disk layout itself (distinct from the engine
#: version, which participates in fingerprints). 2: one file per result,
#: no results journal.
CACHE_FORMAT_VERSION = 2

#: The lock file inside the cache root: never an entry, never wiped.
LOCK_FILE_NAME = "lock"

_HEX = set("0123456789abcdef")


@contextmanager
def _flock(root: str):
    """Hold an exclusive advisory flock on ``<root>/lock`` for the block.

    A no-op without ``fcntl`` or where flock fails (some NFS mounts):
    the block then runs unguarded, as every entry write does anyway.
    """
    fd = None
    if fcntl is not None:
        try:
            os.makedirs(root, exist_ok=True)
            fd = os.open(
                os.path.join(root, LOCK_FILE_NAME), os.O_RDWR | os.O_CREAT,
                0o644,
            )
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            if fd is not None:
                os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            os.close(fd)  # closing the descriptor releases the flock


class _Drops(threading.local):
    """Entries discarded as corrupt by the calling thread, undrained."""

    count = 0


@dataclass
class UnitMemo:
    """What we remember about a translation unit between runs."""

    token_digest: str
    iface_digest: str
    iface_pickle: bytes  # pickled (SymbolTable slice, enum_consts)
    includes: list[tuple[str, str]]  # (resolved name, text sha) closure
    enum_consts: dict[str, int] = field(default_factory=dict)


class ResultCache:
    """On-disk cache of per-unit memos and check results."""

    def __init__(self, root: str, metrics=None) -> None:
        self.root = os.path.abspath(root)
        self.notes: list[str] = []
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self._drops = _Drops()
        self._ensure_layout()
        # Opening may drop a garbled meta.json, counted on this thread;
        # the checking service opens its cache on one thread and runs
        # checks on others, so the next run reports it, as it reports
        # the rebuilding note.
        note = self.drop_note()
        if note is not None:
            self.notes.append(note)

    # -- layout / versioning ------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.root, "meta.json")

    def _ensure_layout(self) -> None:
        """Stamp a fresh directory; wipe one of another version.

        The flock serializes only this check-and-wipe, so two processes
        opening one directory never wipe each other's fresh stamp. Puts
        do not take it: a put racing another process's wipe may be lost
        or land unread, a miss either way, since fingerprints include
        ``ENGINE_VERSION``.
        """
        meta = {"format": CACHE_FORMAT_VERSION, "engine": ENGINE_VERSION}
        with _flock(self.root):
            current = self._read_json(self._meta_path())
            if current != meta:
                if current is not None or os.path.exists(self._meta_path()):
                    self.notes.append(
                        f"cache at {self.root} has a different version; "
                        f"rebuilding"
                    )
                self._wipe()
            os.makedirs(os.path.join(self.root, "units"), exist_ok=True)
            os.makedirs(os.path.join(self.root, "results"), exist_ok=True)
            if current != meta:
                self._write_bytes(
                    self._meta_path(), json.dumps(meta).encode("utf-8")
                )

    def drain_dropped(self) -> int:
        """Return and reset the calling thread's dropped-entry count.

        Counted per thread because a run executes on one thread: the
        checking service runs several at once on one cache, and each
        run's note must name only the drops that run made.
        """
        out = self._drops.count
        self._drops.count = 0
        return out

    def drop_note(self) -> str | None:
        """Drain the calling thread's drops into a run note; ``None``
        when it dropped nothing."""
        dropped = self.drain_dropped()
        if not dropped:
            return None
        return (
            f"result cache dropped {dropped} corrupt or unreadable "
            f"entr{'y' if dropped == 1 else 'ies'} under {self.root}"
        )

    def _wipe(self) -> None:
        if os.path.isdir(self.root):
            # The lock file is not wiped: the wipe runs while holding the
            # flock on it (deleting it would silently break exclusion for
            # other processes), and its presence alone — taking the lock
            # creates it — does not make a fresh directory count as a
            # wipe.
            entries = [
                e for e in os.listdir(self.root) if e != LOCK_FILE_NAME
            ]
            if not entries:
                return
            self.metrics.inc("cache.wipes")
            for entry in entries:
                path = os.path.join(self.root, entry)
                try:
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.unlink(path)
                except OSError:
                    pass
        else:
            try:
                os.makedirs(self.root, exist_ok=True)
            except OSError:
                pass

    # -- low-level tolerant IO ---------------------------------------------

    def _read_json(self, path: str):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            return None
        except ValueError:
            # The file exists but is not JSON: drop it so the slot is
            # rewritten instead of failing to parse on every run.
            self._discard(path)
            return None

    def _read_pickle(self, path: str):
        try:
            handle = open(path, "rb")
        except OSError:
            return None  # absent entry: a plain miss, not corruption
        try:
            with handle:
                return pickle.load(handle)
        except Exception:
            # Any unpickling failure (truncation, garbage, missing class)
            # is a miss; drop the bad entry so it is rewritten.
            self._discard(path)
            return None

    def _discard(self, path: str, corrupt: bool = True) -> None:
        """Remove a cache file; *corrupt* entries are counted so the drop
        is visible in metrics and run notes (temp-file cleanup is not)."""
        if corrupt:
            self._drops.count += 1
            self.metrics.inc("cache.entries.dropped")
        try:
            os.unlink(path)
        except OSError:
            pass

    def _write_bytes(self, path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix="~"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            self.metrics.inc("cache.write.failures")
            self._discard(tmp, corrupt=False)

    def _entry_path(self, kind: str, key: str, suffix: str) -> str:
        if not key or any(ch not in _HEX for ch in key):
            raise ValueError(f"cache key is not a hex digest: {key!r}")
        return os.path.join(self.root, kind, key + suffix)

    # -- unit memos ----------------------------------------------------------

    def get_unit_memo(self, key: str) -> UnitMemo | None:
        payload = self._read_pickle(self._entry_path("units", key, ".pkl"))
        if not isinstance(payload, dict):
            return None
        try:
            return UnitMemo(
                token_digest=payload["token_digest"],
                iface_digest=payload["iface_digest"],
                iface_pickle=payload["iface_pickle"],
                includes=[(str(n), str(s)) for n, s in payload["includes"]],
                enum_consts=dict(payload["enum_consts"]),
            )
        except (KeyError, TypeError, ValueError):
            self._discard(self._entry_path("units", key, ".pkl"))
            return None

    def put_unit_memo(self, key: str, memo: UnitMemo) -> None:
        payload = {
            "token_digest": memo.token_digest,
            "iface_digest": memo.iface_digest,
            "iface_pickle": memo.iface_pickle,
            "includes": list(memo.includes),
            "enum_consts": dict(memo.enum_consts),
        }
        self._write_bytes(
            self._entry_path("units", key, ".pkl"), pickle.dumps(payload)
        )

    # -- check results -------------------------------------------------------

    @staticmethod
    def _decode_result(payload) -> tuple[list[Message], int] | None:
        """Parse a result payload dict; ``None`` when malformed."""
        if not isinstance(payload, dict):
            return None
        try:
            messages = [Message.from_dict(m) for m in payload["messages"]]
            suppressed = int(payload["suppressed"])
        except (KeyError, TypeError, ValueError):
            return None
        return messages, suppressed

    def get_result(self, fingerprint: str):
        """Return ``(messages, suppressed)`` or ``None`` on a miss."""
        path = self._entry_path("results", fingerprint, ".json")
        payload = self._read_json(path)
        if payload is None:
            return None
        decoded = self._decode_result(payload)
        if decoded is None:
            self._discard(path)
        return decoded

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        """Store a check result: one atomic ``results/<fp>.json`` write."""
        payload = {
            "messages": [m.to_dict() for m in messages],
            "suppressed": suppressed,
        }
        self._write_bytes(
            self._entry_path("results", fingerprint, ".json"),
            json.dumps(payload).encode("utf-8"),
        )

    def flush_batch(self) -> None:
        """Do nothing: every put is already on disk.

        Kept because ``perfbench/tracer.py`` wraps this name, and its
        ``install`` raises ``KeyError`` on a missing one; the benchmark
        may not change outside a benchmark change.
        """

    # -- integrity ------------------------------------------------------------

    def verify_integrity(self) -> dict:
        """Re-read every entry; returns counts for an intactness check.

        Used by the chaos harness (and available to operators) to prove
        that a fault-injected run left the cache fully readable:
        ``corrupt`` must be 0 afterwards. Reading goes through the hot
        path's own getters, so "intact" means exactly "every entry would
        be a hit, none would be dropped" (a corrupt one is dropped, as a
        hot-path read would drop it).
        """
        report = {"results": 0, "unit_memos": 0, "corrupt": 0}
        for kind, suffix, get, counter in (
            ("results", ".json", self.get_result, "results"),
            ("units", ".pkl", self.get_unit_memo, "unit_memos"),
        ):
            for name in self._entry_names(
                os.path.join(self.root, kind), suffix
            ):
                if get(name[: -len(suffix)]) is None:
                    report["corrupt"] += 1
                else:
                    report[counter] += 1
        return report

    @staticmethod
    def _entry_names(directory: str, suffix: str) -> list[str]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(
            n for n in names
            if n.endswith(suffix) and n != suffix
            and all(ch in _HEX for ch in n[: -len(suffix)])
        )
