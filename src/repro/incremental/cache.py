"""The persistent analysis cache (default directory: ``.pylclint-cache/``).

Layout::

    <root>/meta.json            cache-format + engine version stamp
    <root>/lock                 advisory flock held around a version wipe
    <root>/units/<key>.pkl      per-unit memo: token digest, interface
                                digest, pickled interface slice, include
                                closure, enum constants
    <root>/results/<fp>.json    per-unit check result: serialized messages
                                and the suppressed-message count

This module alone knows how an entry turns into bytes and back: one
encode/decode pair per kind (:func:`encode_memo`/:func:`decode_memo`,
:func:`encode_result`/:func:`decode_result`), plus the interface slice
inside a memo (:func:`encode_slice`/:func:`decode_slice`). Those bytes
are also the cache service's wire form, so a server stores what a
client put and serves what it stored (:meth:`ResultCache.read_entry`,
:meth:`ResultCache.write_entry`).

A slice decodes once per process: :func:`decode_slice` keeps the last
:data:`SLICE_MEMO_ENTRIES` distinct slices decoded, keyed by their
bytes, and hands every run, local or remote memo, thread or engine, the
same read-only table.

Each entry is one file, written the moment it is put: the engine, the
cache service and every process sharing the directory write the same
bytes, and a reader needs no state beyond the file. Writes go through a
temp file + ``os.replace``, so a reader sees the old entry or the new
one, never a mix. Nothing is fsync'd: a lost or torn entry after a crash
is a miss.

Every load path is corruption-tolerant: a truncated, garbled, or
version-mismatched file is treated as a miss and discarded, never an
error — a bad cache can cost time, but it must not change results or
crash the checker. Each discarded entry is counted (per thread, see
:meth:`ResultCache.drain_dropped`, and in ``cache.entries.dropped`` in
the metrics registry) so corruption is diagnosable: the engine surfaces
its run's count as a run note.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..frontend import safe_pickle
from ..frontend.symtab import SymbolTable
from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from .fingerprint import ENGINE_VERSION

DEFAULT_CACHE_DIR = ".pylclint-cache"

#: Format version of the on-disk layout itself (distinct from the engine
#: version, which participates in fingerprints). 2: one file per result,
#: no results journal. 3: memo include records have five fields. 4: a
#: memo is a pickled tuple and its slice holds the symbol table alone.
CACHE_FORMAT_VERSION = 4

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
    iface_pickle: bytes  # the interface slice (encode_slice)
    #: Every include the unit followed, once: (directory, header,
    #: angled, the file it named, that file's text sha).
    includes: list[tuple[str, str, bool, str, str]]
    enum_consts: dict[str, int] = field(default_factory=dict)


# Each decoder returns ``None`` for bytes that are not an entry of its
# kind, whatever is wrong with them: they come from disk or from a
# cache-service client, and a bad entry must cost a miss, never a crash.


def encode_slice(interface: SymbolTable) -> bytes:
    """A unit's interface slice as a memo stores it."""
    return pickle.dumps(interface)


#: Distinct interface slices :func:`decode_slice` keeps decoded. A
#: decoded slice of a generated unit holds about 38 KB; 64 cover both
#: clients of perfbench's service-edit workload (14 units each) and the
#: slices their interface edits replace.
SLICE_MEMO_ENTRIES = 64


@functools.lru_cache(maxsize=SLICE_MEMO_ENTRIES)
def decode_slice(data: bytes) -> SymbolTable | None:
    """A memo's interface slice (decoded only when a run builds the
    program symbol table); ``None`` when it is corrupt or names a class
    no slice holds.

    Memoized by the exact bytes: every run that asks for a slice
    decoded before gets the same table, which nothing may change (the
    program table merges replace entries, and a unit's view is a new
    table). Two threads decoding one new slice at once may both decode
    it; either table is right. An evicted table is freed by the cyclic
    collector, since a recursive struct type is a cycle."""
    try:
        interface = safe_pickle.loads(data)
    except Exception:
        return None
    return interface if isinstance(interface, SymbolTable) else None


def encode_memo(memo: UnitMemo) -> bytes:
    return pickle.dumps((
        memo.token_digest, memo.iface_digest, memo.iface_pickle,
        memo.includes, memo.enum_consts,
    ))


def decode_memo(data: bytes) -> UnitMemo | None:
    """The memo *data* holds; its slice stays encoded."""
    try:
        token_digest, iface_digest, iface_pickle, includes, enum_consts = (
            safe_pickle.loads(data)
        )
        if not isinstance(iface_pickle, bytes):
            return None
        return UnitMemo(
            str(token_digest), str(iface_digest), iface_pickle,
            [
                (str(directory), str(header), angled is True, str(name),
                 str(sha))
                for directory, header, angled, name, sha in includes
            ],
            {str(name): int(value) for name, value in enum_consts.items()},
        )
    except Exception:
        return None


def encode_result(messages: list[Message], suppressed: int) -> bytes:
    return json.dumps({
        "messages": [m.to_dict() for m in messages],
        "suppressed": suppressed,
    }).encode("utf-8")


def decode_result(data: bytes) -> tuple[list[Message], int] | None:
    """``(messages, suppressed)`` from a stored result."""
    try:
        payload = json.loads(data)
        return (
            [Message.from_dict(m) for m in payload["messages"]],
            int(payload["suppressed"]),
        )
    except Exception:
        return None


class EntryKind(NamedTuple):
    """Where entries of one kind live under the root, and their decoder."""

    directory: str
    suffix: str
    decode: Callable[[bytes], object]


#: The entry kinds, by the name the cache service uses.
ENTRY_KINDS = {
    "memo": EntryKind("units", ".pkl", decode_memo),
    "result": EntryKind("results", ".json", decode_result),
}


class ResultCache:
    """On-disk cache of per-unit memos and check results."""

    def __init__(self, root: str, metrics=None) -> None:
        self.root = os.path.abspath(root)
        self.notes: list[str] = []
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self._drops = _Drops()
        try:
            self._ensure_layout()
        except OSError as exc:  # name the directory, not the path in it
            raise OSError(exc.errno, exc.strerror, self.root) from None
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

    def _entry_path(self, kind: str, key: str) -> str:
        if not key or any(ch not in _HEX for ch in key):
            raise ValueError(f"cache key is not a hex digest: {key!r}")
        directory, suffix, _ = ENTRY_KINDS[kind]
        return os.path.join(self.root, directory, key + suffix)

    # -- entries, as bytes ---------------------------------------------------

    def read_entry(self, kind: str, key: str) -> bytes | None:
        """The stored bytes of a *kind* entry, undecoded; ``None`` when
        there is none."""
        path = self._entry_path(kind, key)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def write_entry(self, kind: str, key: str, data: bytes) -> bool:
        """Store *data* as it is when it decodes as a *kind* entry;
        ``False``, and nothing written, when it does not."""
        if ENTRY_KINDS[kind].decode(data) is None:
            return False
        self._write_bytes(self._entry_path(kind, key), data)
        return True

    def _get(self, kind: str, key: str):
        data = self.read_entry(kind, key)
        if data is None:
            return None  # absent entry: a plain miss, not corruption
        entry = ENTRY_KINDS[kind].decode(data)
        if entry is None:
            self._discard(self._entry_path(kind, key))
        return entry

    # -- unit memos ----------------------------------------------------------

    def get_unit_memo(self, key: str) -> UnitMemo | None:
        return self._get("memo", key)

    def drop_unit_memo(self, key: str) -> None:
        """Discard the memo under *key* as corrupt: its interface slice
        did not decode."""
        self._discard(self._entry_path("memo", key))

    def put_unit_memo(self, key: str, memo: UnitMemo) -> None:
        self._write_bytes(self._entry_path("memo", key), encode_memo(memo))

    # -- check results -------------------------------------------------------

    def get_result(self, fingerprint: str):
        """Return ``(messages, suppressed)`` or ``None`` on a miss."""
        return self._get("result", fingerprint)

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        """Store a check result: one atomic ``results/<fp>.json`` write."""
        self._write_bytes(
            self._entry_path("result", fingerprint),
            encode_result(messages, suppressed),
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
        for kind, counter in (("result", "results"), ("memo", "unit_memos")):
            directory, suffix, _ = ENTRY_KINDS[kind]
            for name in self._entry_names(
                os.path.join(self.root, directory), suffix
            ):
                if self._get(kind, name[: -len(suffix)]) is None:
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
