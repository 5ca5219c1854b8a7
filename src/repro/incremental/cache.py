"""The persistent analysis cache (default directory: ``.pylclint-cache/``).

Layout::

    <root>/meta.json            cache-format + engine version stamp
    <root>/lock                 advisory flock taken around wipes and
                                journal writes (see repro.service.locking)
    <root>/units/<key>.pkl      per-unit memo: token digest, interface
                                digest + pickled interface slice, include
                                closure, enum constants
    <root>/results/<fp>.json    per-unit check result: serialized messages
                                and the suppressed-message count
    <root>/results/journal.jsonl
                                append-only result journal: recent check
                                results land here first, one JSON object
                                per line, one append per unit *batch*
                                instead of one file write per unit; the
                                journal is folded into ``<fp>.json``
                                files when it grows past
                                :data:`JOURNAL_COMPACT_ENTRIES`

Every load path is corruption-tolerant: a truncated, garbled, or
version-mismatched file is treated as a miss and discarded, never an
error — a bad cache can cost time, but it must not change results or
crash the checker. Each discarded entry is counted (``dropped`` /
``cache.entries.dropped`` in the metrics registry) so corruption is
diagnosable: the engine surfaces the total as a run note. Per-entry
writes go through a temp file + ``os.replace``; journal appends are a
single buffered write, and a process killed mid-append leaves at worst
one truncated final line, which the next load drops and heals by
rewriting the journal's valid prefix.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import threading
from dataclasses import dataclass, field

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from ..service.locking import LOCK_FILE_NAME, CacheDirLock
from .fingerprint import ENGINE_VERSION

DEFAULT_CACHE_DIR = ".pylclint-cache"

#: Format version of the on-disk layout itself (distinct from the engine
#: version, which participates in fingerprints).
CACHE_FORMAT_VERSION = 1

#: Journal entries beyond this count are compacted into per-fingerprint
#: files on the next load or flush, bounding both journal-replay time
#: and the memory held by the in-process overlay.
JOURNAL_COMPACT_ENTRIES = 512

_JOURNAL_NAME = "journal.jsonl"

_HEX = set("0123456789abcdef")


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
        # Corrupt/unreadable entries discarded since the last drain; the
        # engine turns a non-zero total into a CheckStats note, so cache
        # corruption is diagnosable instead of silently costing time.
        self.dropped = 0
        self.lock = CacheDirLock(self.root)
        # Result-journal state: the parsed overlay of journal entries
        # (consulted before per-fingerprint files), writes buffered by
        # an open batch() awaiting one flush, and the entries a flush is
        # writing right now (readable until the overlay holds them). The
        # checking service's worker threads share one cache, so all of
        # it is guarded by _state_lock (the cross-process CacheDirLock
        # guards the files).
        self._state_lock = threading.Lock()
        self._journal: dict[str, dict] = {}
        self._pending: dict[str, dict] = {}
        self._flushing: dict[str, dict] = {}
        self._batch_depth = 0
        self._ensure_layout()
        self._load_journal()

    # -- layout / versioning ------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.root, "meta.json")

    def _ensure_layout(self) -> None:
        meta = {"format": CACHE_FORMAT_VERSION, "engine": ENGINE_VERSION}
        with self.lock.exclusive():
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
        """Return and reset the dropped-entry count for this period."""
        out = self.dropped
        self.dropped = 0
        return out

    def _wipe(self) -> None:
        if os.path.isdir(self.root):
            # The lock file is excluded twice over: the wipe runs while
            # holding the flock on it (deleting it would silently break
            # exclusion for other processes), and its presence alone —
            # taking the lock creates it — is not cache content, so a
            # fresh directory does not count as a wipe.
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
            self.dropped += 1
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
        """Return ``(messages, suppressed)`` or ``None`` on a miss.

        Journal entries (and results buffered in an open batch or being
        flushed) shadow per-fingerprint files: they are strictly newer.
        """
        with self._state_lock:
            payload = self._pending.get(fingerprint)
            if payload is None:
                payload = self._flushing.get(fingerprint)
            if payload is None:
                payload = self._journal.get(fingerprint)
        if payload is not None:
            decoded = self._decode_result(payload)
            if decoded is not None:
                return decoded
            # A garbled overlay entry (corrupt journal line that still
            # parsed as JSON) is dropped like a corrupt file would be.
            with self._state_lock:
                self._journal.pop(fingerprint, None)
                self._pending.pop(fingerprint, None)
                self._flushing.pop(fingerprint, None)
            self.dropped += 1
            self.metrics.inc("cache.entries.dropped")
        path = self._entry_path("results", fingerprint, ".json")
        payload = self._read_json(path)
        if payload is None:
            return None
        decoded = self._decode_result(payload)
        if decoded is None:
            self._discard(path)
            return None
        return decoded

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        """Store a check result.

        Inside a :meth:`batch` the write is buffered and lands in one
        journal append when the batch closes; outside a batch it is an
        immediate (atomic) per-fingerprint file write, preserving the
        one-shot behaviour.
        """
        payload = {
            "messages": [m.to_dict() for m in messages],
            "suppressed": suppressed,
        }
        # Validate the key eagerly so a bad fingerprint fails at the call
        # site, not at flush time.
        path = self._entry_path("results", fingerprint, ".json")
        with self._state_lock:
            if self._batch_depth > 0:
                self._pending[fingerprint] = payload
                return
        self._write_bytes(path, json.dumps(payload).encode("utf-8"))

    # -- the results journal -------------------------------------------------

    def _journal_path(self) -> str:
        return os.path.join(self.root, "results", _JOURNAL_NAME)

    def batch(self) -> "_Batch":
        """Context manager buffering :meth:`put_result` calls into one
        journal append (re-entrant; only the outermost exit flushes)."""
        return _Batch(self)

    def flush_batch(self) -> None:
        """Append every buffered result to the journal in one write.

        The buffer is swapped out under the state lock before writing,
        so a result another thread puts meanwhile lands in the next
        flush instead of being iterated over or cleared by this one.
        The swapped-out entries stay readable in ``_flushing`` until
        the overlay holds them.
        """
        with self._state_lock:
            pending, self._pending = self._pending, {}
            self._flushing.update(pending)
        if not pending:
            return
        lines = []
        for fingerprint, payload in pending.items():
            record = dict(payload)
            record["fp"] = fingerprint
            lines.append(json.dumps(record) + "\n")
        data = "".join(lines).encode("utf-8")
        with self.lock.exclusive():
            try:
                with open(self._journal_path(), "ab") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                self.metrics.inc("cache.write.failures")
                with self._state_lock:
                    self._unflush(pending)
                return
        with self._state_lock:
            self._journal.update(pending)
            self._unflush(pending)
            oversized = len(self._journal) > JOURNAL_COMPACT_ENTRIES
        self.metrics.inc("cache.journal.flushes")
        self.metrics.inc("cache.journal.entries", len(pending))
        if oversized:
            self.compact_journal()

    def _unflush(self, pending: dict[str, dict]) -> None:
        """Forget a finished flush's entries (caller holds the state
        lock); an entry a concurrent flush re-buffered stays."""
        for fingerprint, payload in pending.items():
            if self._flushing.get(fingerprint) is payload:
                del self._flushing[fingerprint]

    def _load_journal(self) -> None:
        """Replay the journal into the in-process overlay.

        Tolerant line by line: a truncated final line (a process killed
        mid-append) or garbled bytes drop just that line. When anything
        was dropped, the journal is rewritten with only the valid
        entries — the cache heals itself instead of re-reporting the
        same corruption on every run.
        """
        try:
            with open(self._journal_path(), "rb") as handle:
                raw_lines = handle.read().split(b"\n")
        except OSError:
            return
        entries, corrupt = self._parse_journal_lines(raw_lines)
        self._journal = entries
        if corrupt:
            self.dropped += corrupt
            self.metrics.inc("cache.entries.dropped", corrupt)
            self.metrics.inc("cache.journal.healed")
            self._rewrite_journal()
        elif len(entries) > JOURNAL_COMPACT_ENTRIES:
            self.compact_journal()

    @classmethod
    def _parse_journal_lines(
        cls, raw_lines: list[bytes]
    ) -> tuple[dict[str, dict], int]:
        """Tolerantly parse journal lines → (entries, corrupt count).

        Shared by journal replay and compaction so both agree exactly on
        what a valid entry is.
        """
        corrupt = 0
        entries: dict[str, dict] = {}
        for raw in raw_lines:
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                fingerprint = record.pop("fp")
            except (ValueError, KeyError, AttributeError, TypeError):
                corrupt += 1
                continue
            if (
                not isinstance(fingerprint, str)
                or not fingerprint
                or any(ch not in _HEX for ch in fingerprint)
                or cls._decode_result(record) is None
            ):
                corrupt += 1
                continue
            entries[fingerprint] = record
        return entries, corrupt

    def _rewrite_journal(self) -> None:
        """Atomically replace the journal with the overlay's entries."""
        lines = []
        for fingerprint, payload in self._journal.items():
            record = dict(payload)
            record["fp"] = fingerprint
            lines.append(json.dumps(record) + "\n")
        with self.lock.exclusive():
            self._write_bytes(
                self._journal_path(), "".join(lines).encode("utf-8")
            )

    def compact_journal(self) -> None:
        """Fold journal entries into per-fingerprint files and truncate.

        The whole fold-then-truncate sequence runs under the cache-dir
        lock, and the entries folded are re-read from the file *inside*
        the lock. Two processes can both cross the size threshold
        concurrently, but whichever folds second folds whatever the
        journal then contains (usually nothing) instead of truncating
        appends it never observed — folding only this process's
        in-memory overlay would discard the other process's results.
        The disk journal is a superset of any process's overlay (an
        append lands before the overlay is updated), so folding the
        disk contents never loses a result. A concurrent reader sees
        either the journal entry or the compacted file, both with
        identical contents.
        """
        with self.lock.exclusive():
            try:
                with open(self._journal_path(), "rb") as handle:
                    raw_lines = handle.read().split(b"\n")
            except OSError:
                raw_lines = []
            entries, corrupt = self._parse_journal_lines(raw_lines)
            if not entries and not corrupt:
                with self._state_lock:
                    self._journal.clear()
                return
            for fingerprint, payload in entries.items():
                self._write_bytes(
                    self._entry_path("results", fingerprint, ".json"),
                    json.dumps(payload).encode("utf-8"),
                )
            self._write_bytes(self._journal_path(), b"")
            # Cleared under the file lock: a flush appends before it adds
            # to the overlay, so no entry can be appended after this fold
            # yet dropped from the overlay.
            with self._state_lock:
                self._journal.clear()
        if corrupt:
            self.dropped += corrupt
            self.metrics.inc("cache.entries.dropped", corrupt)
        self.metrics.inc("cache.journal.compactions")

    # -- integrity ------------------------------------------------------------

    def verify_integrity(self) -> dict:
        """Re-read every entry; returns counts for an intactness check.

        Used by the chaos harness (and available to operators) to prove
        that a fault-injected run left the cache fully readable:
        ``corrupt`` must be 0 afterwards. Reading is done with the same
        tolerant decoders the hot path uses, so "intact" means exactly
        "every entry would be a hit, none would be dropped".
        """
        report = {"results": 0, "unit_memos": 0, "journal": 0, "corrupt": 0}
        with self._state_lock:
            journal = list(self._journal.values())
        for payload in journal:
            if self._decode_result(payload) is None:
                report["corrupt"] += 1
            else:
                report["journal"] += 1
        results_dir = os.path.join(self.root, "results")
        units_dir = os.path.join(self.root, "units")
        for name in self._entry_names(results_dir, ".json"):
            payload = self._read_json(os.path.join(results_dir, name))
            if self._decode_result(payload) is None:
                report["corrupt"] += 1
            else:
                report["results"] += 1
        for name in self._entry_names(units_dir, ".pkl"):
            if self.get_unit_memo(name[: -len(".pkl")]) is None:
                report["corrupt"] += 1
            else:
                report["unit_memos"] += 1
        return report

    @staticmethod
    def _entry_names(directory: str, suffix: str) -> list[str]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(
            n for n in names
            if n.endswith(suffix)
            and all(ch in _HEX for ch in n[: -len(suffix)])
            and n != _JOURNAL_NAME
        )


class _Batch:
    """Re-entrant context manager driving one journal flush."""

    __slots__ = ("_cache",)

    def __init__(self, cache: ResultCache) -> None:
        self._cache = cache

    def __enter__(self) -> ResultCache:
        with self._cache._state_lock:
            self._cache._batch_depth += 1
        return self._cache

    def __exit__(self, *exc) -> None:
        with self._cache._state_lock:
            self._cache._batch_depth -= 1
            outermost = self._cache._batch_depth == 0
        if outermost:
            self._cache.flush_batch()
