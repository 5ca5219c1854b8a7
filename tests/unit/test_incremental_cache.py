"""Tests for the fingerprint layer and the on-disk result cache."""

import errno
import json
import os
import pickle
import threading
import types

import pytest

from repro.core.api import Checker
from repro.flags.registry import Flags
from repro.frontend.source import Location
from repro.incremental import cache as cache_mod
from repro.incremental.cache import (
    CACHE_FORMAT_VERSION,
    LOCK_FILE_NAME,
    ResultCache,
    UnitMemo,
    _flock,
    decode_memo,
    decode_result,
    decode_slice,
    encode_memo,
    encode_result,
    encode_slice,
)
from repro.incremental import fingerprint
from repro.incremental.fingerprint import (
    ENGINE_VERSION,
    check_fingerprint,
    flags_digest,
    interface_digest,
    prelude_digest,
    program_digest,
    source_key,
    stable_digest,
    token_stream_digest,
)
from repro.messages.message import Message, MessageCode
from repro.obs.metrics import MetricsRegistry


def _tokens(source: str, name: str = "t.c"):
    checker = Checker()
    from repro.frontend.preprocessor import Preprocessor
    from repro.stdlib.specs import SYSTEM_HEADERS

    pp = Preprocessor(
        checker.sources, defines=dict(checker.defines),
        system_headers=SYSTEM_HEADERS,
    )
    return pp.preprocess_text(source, name)


class TestFingerprints:
    def test_token_digest_stable_and_content_sensitive(self):
        a = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        b = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        c = token_stream_digest(_tokens("int f(void) { return 2; }\n"))
        assert a == b
        assert a != c

    def test_token_digest_sees_line_shifts(self):
        # A leading blank line changes every location, hence the digest:
        # cached messages would render with stale line numbers otherwise.
        a = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        b = token_stream_digest(_tokens("\nint f(void) { return 1; }\n"))
        assert a != b

    def test_flags_digest_uses_effective_values(self):
        assert flags_digest(Flags()) == flags_digest(Flags({"null": True}))
        assert flags_digest(Flags()) != flags_digest(Flags({"null": False}))

    def test_prelude_digest_is_stable(self):
        assert prelude_digest() == prelude_digest()

    def test_source_key_depends_on_name_text_defines(self, monkeypatch):
        base = source_key("a.c", "int x;", {})
        assert base == source_key("a.c", "int x;", {})
        assert base != source_key("b.c", "int x;", {})
        assert base != source_key("a.c", "int y;", {})
        assert base != source_key("a.c", "int x;", {"D": "1"})
        # a memo written by another engine version is never looked up
        monkeypatch.setattr(fingerprint, "ENGINE_VERSION", ENGINE_VERSION - 1)
        assert base != source_key("a.c", "int x;", {})

    def test_interface_digest_survives_cyclic_struct_types(self):
        # struct _elem contains a pointer to itself: the canonical walk
        # must cut the cycle instead of recursing forever.
        result = Checker().check_sources(
            {
                "cyc.c": (
                    "typedef struct _elem { int v; struct _elem *next; } "
                    "*elem;\n"
                    "extern elem mk(void);\n"
                )
            }
        )
        digest = interface_digest(result.symtab, {})
        assert digest == interface_digest(result.symtab, {})

    def test_interface_digest_sees_annotation_changes(self):
        plain = Checker().check_sources({"m.c": "extern char *gp;\n"})
        annotated = Checker().check_sources(
            {"m.c": "extern /*@null@*/ char *gp;\n"}
        )
        assert interface_digest(plain.symtab, {}) != interface_digest(
            annotated.symtab, {}
        )

    def test_stable_digest_sorts_sets(self):
        assert stable_digest({"a", "b", "c"}) == stable_digest({"c", "b", "a"})

    def test_check_fingerprint_composition(self):
        prog = program_digest(["i1", "i2"], [])
        assert check_fingerprint("t", Flags(), prog) == check_fingerprint(
            "t", Flags(), prog
        )
        assert check_fingerprint("t", Flags(), prog) != check_fingerprint(
            "t", Flags({"null": False}), prog
        )
        assert prog != program_digest(["i1", "iX"], [])


def _message(line: int = 3) -> Message:
    from repro.messages.message import SubLocation

    return Message(
        MessageCode.NULL_DEREF,
        Location("x.c", line, 7),
        "Possible dereference of null pointer p",
        (SubLocation(Location("x.c", line - 1, 2), "Storage p may become null"),),
    )


class TestResultCache:
    FP = "ab" * 32

    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP, [_message()], suppressed=2)
        loaded = cache.get_result(self.FP)
        assert loaded is not None
        messages, suppressed = loaded
        assert suppressed == 2
        assert [m.render() for m in messages] == [_message().render()]

    def test_miss_on_unknown_fingerprint(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get_result("cd" * 32) is None

    def test_corrupted_result_is_a_miss_and_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP, [_message()], suppressed=0)
        victim = os.path.join(cache.root, "results", self.FP + ".json")
        with open(victim, "w") as handle:
            handle.write('{"messages": [[[[ GARBAGE')
        assert cache.get_result(self.FP) is None
        assert not os.path.exists(victim)

    def test_wrong_shape_json_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        victim = os.path.join(cache.root, "results", self.FP + ".json")
        with open(victim, "w") as handle:
            json.dump({"messages": [{"nope": 1}], "suppressed": 0}, handle)
        assert cache.get_result(self.FP) is None

    def test_version_mismatch_rebuilds(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        cache.put_result(self.FP, [_message()], suppressed=0)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": CACHE_FORMAT_VERSION + 1, "engine": 0}, handle)
        reopened = ResultCache(root)
        assert reopened.get_result(self.FP) is None  # wiped
        assert any("rebuilding" in note for note in reopened.notes)

    def test_garbage_meta_rebuilds(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            handle.write("not json at all {{{")
        reopened = ResultCache(root)
        assert reopened.get_result(self.FP) is None

    def test_unit_memo_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        memo = UnitMemo(
            token_digest="t" * 8,
            iface_digest="i" * 8,
            iface_pickle=b"\x80\x04N.",  # pickled None
            includes=[("", "h.h", False, "h.h", "s" * 8)],
            enum_consts={"LIMIT": 4},
        )
        cache.put_unit_memo(self.FP, memo)
        loaded = cache.get_unit_memo(self.FP)
        assert loaded is not None
        assert loaded.token_digest == memo.token_digest
        assert loaded.includes == memo.includes
        assert loaded.enum_consts == {"LIMIT": 4}

    def test_corrupted_unit_memo_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        victim = os.path.join(cache.root, "units", self.FP + ".pkl")
        with open(victim, "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        assert cache.get_unit_memo(self.FP) is None

    def test_non_hex_key_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        with pytest.raises(ValueError):
            cache.get_result("../../../etc/passwd")


def _memo_fields(**changed) -> tuple:
    """A memo's fields in order, some of them *changed*."""
    fields = dict(
        token_digest="11" * 32, iface_digest="22" * 32,
        iface_pickle=b"\x80\x04N.",  # opaque to the memo codec
        includes=[("", "u.h", False, "u.h", "33" * 32)],
        enum_consts={"N": 4},
    )
    fields.update(changed)
    return tuple(fields.values())


def _memo() -> UnitMemo:
    return UnitMemo(*_memo_fields())


class TestEntryCodec:
    """One encode/decode pair per entry kind, and the slice's: these
    bytes are what a cache directory stores and what the cache service
    carries, so every malformed form decodes to ``None``."""

    def test_memo_round_trip(self):
        assert decode_memo(encode_memo(_memo())) == _memo()

    def test_result_round_trip(self):
        messages, suppressed = decode_result(encode_result([_message()], 2))
        assert [m.render() for m in messages] == [_message().render()]
        assert suppressed == 2

    def test_slice_round_trip(self):
        symtab = Checker().check_sources(
            {"m.c": "extern /*@null@*/ char *gp;\nint f(int x);\n"}
        ).symtab
        decoded = decode_slice(encode_slice(symtab))
        assert interface_digest(decoded, {}) == interface_digest(symtab, {})

    @pytest.mark.parametrize("data", [
        b"",
        b"\x80\x04 truncated garbage",
        pickle.dumps(None),
        pickle.dumps([]),
        pickle.dumps({}),
        pickle.dumps({"token_digest": "x"}),
        pickle.dumps(_memo_fields()[:4]),
        pickle.dumps(_memo_fields(iface_pickle="not bytes")),
        pickle.dumps(_memo_fields(includes=[("", "u.h")])),
        pickle.dumps(_memo_fields(enum_consts={"N": "wat"})),
        pickle.dumps(_memo_fields(enum_consts={"N": float("inf")})),
        pickle.dumps(_memo_fields(enum_consts=[("N", 4)])),
    ])
    def test_malformed_memos_decode_to_none(self, data):
        assert decode_memo(data) is None

    @pytest.mark.parametrize("data", [
        b"",
        b"not json at all",
        b"\xff\xfe\x00garbage",
        b"null",
        b"[]",
        b"{}",
        b'{"token_digest": "x"}',
        b'{"messages": "nope", "suppressed": 0}',
        b'{"messages": [{"nope": 1}], "suppressed": 0}',
        b'{"messages": [], "suppressed": "wat"}',
        b'{"messages": [], "suppressed": 1e999}',
        b"[" * 100_000,
    ])
    def test_malformed_results_decode_to_none(self, data):
        assert decode_result(data) is None

    @pytest.mark.parametrize("data", [
        b"", b"\x80\x04 truncated", pickle.dumps(None), pickle.dumps({}),
    ])
    def test_malformed_slices_decode_to_none(self, data):
        assert decode_slice(data) is None


class TestDroppedEntryAccounting:
    """Discarded corrupt entries are counted; plain misses are not."""

    FP = "ab" * 32

    def _cache(self, tmp_path):
        registry = MetricsRegistry()
        return ResultCache(str(tmp_path / "c"), metrics=registry), registry

    def _corrupt_result(self, cache):
        victim = os.path.join(cache.root, "results", self.FP + ".json")
        with open(victim, "w") as handle:
            handle.write("not json at all")

    def test_fresh_cache_has_no_drops(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        assert cache.drain_dropped() == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_plain_miss_is_not_a_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        assert cache.get_result("cd" * 32) is None
        assert cache.get_unit_memo("cd" * 32) is None
        assert cache.drain_dropped() == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_corrupt_result_counts_one_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        self._corrupt_result(cache)
        assert cache.get_result(self.FP) is None
        assert cache.drain_dropped() == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_corrupt_memo_counts_one_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        victim = os.path.join(cache.root, "units", self.FP + ".pkl")
        with open(victim, "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        assert cache.get_unit_memo(self.FP) is None
        assert cache.drain_dropped() == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_drain_returns_and_resets(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        self._corrupt_result(cache)
        cache.get_result(self.FP)
        assert cache.drain_dropped() == 1
        assert cache.drain_dropped() == 0
        # The metrics counter is cumulative, not drained.
        assert registry.count("cache.entries.dropped") == 1

    def test_drops_are_counted_per_thread(self, tmp_path):
        # The checking service runs several checks at once on one cache,
        # and each run drains at its end: a drop must land in the note of
        # the run that made it, never in another request's output.
        cache, registry = self._cache(tmp_path)
        self._corrupt_result(cache)
        read, drained_b = threading.Event(), threading.Event()
        drained = {}

        def thread_a():
            cache.get_result(self.FP)
            read.set()
            drained_b.wait(10)
            drained["a"] = cache.drain_dropped()

        def thread_b():
            read.wait(10)
            drained["b"] = cache.drain_dropped()
            drained_b.set()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert drained == {"a": 1, "b": 0}
        assert cache.drain_dropped() == 0
        assert registry.count("cache.entries.dropped") == 1

    def test_fresh_cache_layout_is_not_a_wipe(self, tmp_path):
        _, registry = self._cache(tmp_path)
        assert registry.count("cache.wipes") == 0

    def test_version_mismatch_counts_a_wipe(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root)
        meta = os.path.join(root, "meta.json")
        with open(meta, "w") as handle:
            json.dump({"format": -1, "engine": "other"}, handle)
        registry = MetricsRegistry()
        ResultCache(root, metrics=registry)
        assert registry.count("cache.wipes") == 1


class TestResultStore:
    """Every check result is one ``results/<fp>.json``, written at put."""

    FP1 = "ab" * 32
    FP2 = "cd" * 32

    def _results(self, cache):
        return sorted(os.listdir(os.path.join(cache.root, "results")))

    def test_put_is_one_file_read_at_once_and_after_reopen(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP1, [_message()], suppressed=2)
        assert self._results(cache) == [self.FP1 + ".json"]
        assert cache.get_result(self.FP1)[1] == 2
        reopened = ResultCache(cache.root)
        assert reopened.get_result(self.FP1)[1] == 2

    def test_bad_fingerprint_fails_at_put(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        with pytest.raises(ValueError):
            cache.put_result("not-hex", [_message()], suppressed=0)
        assert self._results(cache) == []

    def test_verify_integrity_counts_and_flags(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP1, [_message()], suppressed=0)
        cache.put_result(self.FP2, [_message()], suppressed=0)
        cache.put_unit_memo(
            self.FP1, UnitMemo("t", "i", b"\x80\x04N.", [], {})
        )
        assert cache.verify_integrity() == {
            "results": 2, "unit_memos": 1, "corrupt": 0,
        }
        # Corrupt one result file: the report flags it.
        victim = os.path.join(cache.root, "results", self.FP1 + ".json")
        with open(victim, "w") as handle:
            handle.write("{broken")
        assert ResultCache(cache.root).verify_integrity() == {
            "results": 1, "unit_memos": 1, "corrupt": 1,
        }

    def test_format_1_directory_with_a_journal_is_rebuilt_once(
        self, tmp_path
    ):
        # Format 1 appended results to results/journal.jsonl. Read as
        # format 2 its results would silently miss and the journal would
        # stay behind, so the format stamp differs and the directory is
        # rebuilt, once.
        root = tmp_path / "c"
        results = root / "results"
        results.mkdir(parents=True)
        (root / "units").mkdir()
        (root / "meta.json").write_text(
            json.dumps({"format": 1, "engine": ENGINE_VERSION})
        )
        entry = {"messages": [], "suppressed": 0}
        (results / "journal.jsonl").write_text(
            json.dumps(dict(entry, fp=self.FP1)) + "\n"
        )
        (results / (self.FP2 + ".json")).write_text(json.dumps(entry))
        registry = MetricsRegistry()
        cache = ResultCache(str(root), metrics=registry)
        assert any(
            "has a different version; rebuilding" in note
            for note in cache.notes
        )
        assert registry.count("cache.wipes") == 1
        assert self._results(cache) == []
        assert cache.get_result(self.FP2) is None
        assert ResultCache(str(root)).notes == []

    def test_format_3_directory_is_rebuilt_once(self, tmp_path):
        # Format 3 stored a memo as a pickled dict, whose slice also
        # held the enum constants: read as format 4 every memo would be
        # a dropped entry, so the directory is rebuilt, once.
        root = tmp_path / "c"
        (root / "units").mkdir(parents=True)
        (root / "results").mkdir()
        (root / "meta.json").write_text(
            json.dumps({"format": 3, "engine": ENGINE_VERSION - 1})
        )
        (root / "units" / (self.FP1 + ".pkl")).write_bytes(pickle.dumps({
            "token_digest": "t", "iface_digest": "i",
            "iface_pickle": pickle.dumps((None, {})), "includes": [],
            "enum_consts": {},
        }))
        registry = MetricsRegistry()
        cache = ResultCache(str(root), metrics=registry)
        assert any(
            "has a different version; rebuilding" in note
            for note in cache.notes
        )
        assert registry.count("cache.wipes") == 1
        assert os.listdir(root / "units") == []
        assert cache.drain_dropped() == 0
        assert ResultCache(str(root)).notes == []


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork for a two-process stress"
)
class TestConcurrentProcesses:
    """Two processes writing and reading one directory lose nothing.

    Each writes its own fingerprints and a shared range with the same
    contents, as two checkers of one program do; a reader sees one whole
    file or the other, never a torn one.
    """

    PER_CHILD = 120

    def _child(self, root, child_id, start_evt):
        cache = ResultCache(root)
        start_evt.wait(10)
        for i in range(self.PER_CHILD):
            for fp in (f"{child_id:02x}{i:062x}", f"ff{i:062x}"):
                cache.put_result(fp, [_message()], suppressed=i)
                found = cache.get_result(fp)
                assert found is not None and found[1] == i
        assert cache.drain_dropped() == 0

    def test_no_result_lost_and_integrity_holds(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        root = str(tmp_path / "c")
        ResultCache(root)  # lay down the directory skeleton once
        start_evt = ctx.Event()
        children = [
            ctx.Process(target=self._child, args=(root, cid, start_evt))
            for cid in (1, 2)
        ]
        for proc in children:
            proc.start()
        start_evt.set()
        for proc in children:
            proc.join(60)
            assert proc.exitcode == 0
        fresh = ResultCache(root)
        for prefix in ("01", "02", "ff"):
            for i in range(self.PER_CHILD):
                fp = f"{prefix}{i:062x}"
                found = fresh.get_result(fp)
                assert found is not None, f"lost result {fp}"
                assert found[1] == i
        assert fresh.verify_integrity() == {
            "results": 3 * self.PER_CHILD, "unit_memos": 0, "corrupt": 0,
        }


class TestThreadSafety:
    """The checking service's worker threads share one ``ResultCache``:
    puts and gets from many threads raise nothing, and a put result
    reads back at once, from the same cache and from a fresh one."""

    PUTS_PER_THREAD = 200
    SECONDS = 2.0

    def test_concurrent_puts_raise_nothing_and_lose_nothing(self, tmp_path):
        import sys
        import time

        cache = ResultCache(str(tmp_path / "c"))
        workers = max(8, 2 * (os.cpu_count() or 1))
        deadline = time.monotonic() + self.SECONDS
        errors: list[BaseException] = []
        written: list[list[tuple[str, int]]] = [[] for _ in range(workers)]

        def worker(tid: int) -> None:
            try:
                i = 0
                while i < self.PUTS_PER_THREAD and time.monotonic() < deadline:
                    fp = f"{tid:04x}{i:060x}"
                    cache.put_result(fp, [_message()], suppressed=i % 7)
                    written[tid].append((fp, i % 7))
                    i += 1
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        writers_done = threading.Event()
        unreadable: list[str] = []

        def reader() -> None:
            # Every entry in written[] was put before it was appended, so
            # it must read back at any moment.
            try:
                while not writers_done.is_set():
                    for entries in written:
                        if entries:
                            fp, _ = entries[-1]
                            if cache.get_result(fp) is None:
                                unreadable.append(fp)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(tid,))
                for tid in range(workers)
            ]
            reader_thread = threading.Thread(target=reader)
            reader_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            writers_done.set()
            reader_thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [reader_thread])
        assert errors == []
        assert unreadable == []
        assert sum(len(entries) for entries in written) >= workers
        for view in (cache, ResultCache(cache.root)):
            for entries in written:
                for fp, suppressed in entries:
                    found = view.get_result(fp)
                    assert found is not None, f"lost result {fp}"
                    assert found[1] == suppressed


class TestCacheDirLock:
    """The advisory flock on ``<root>/lock`` that serializes opening
    processes' version checks and wipes (puts do not take it)."""

    def test_lock_file_created(self, tmp_path):
        with _flock(str(tmp_path / "cache")):
            assert (tmp_path / "cache" / LOCK_FILE_NAME).exists()

    @pytest.mark.skipif(cache_mod.fcntl is None, reason="needs fcntl")
    def test_released_on_exit(self, tmp_path):
        root = str(tmp_path / "cache")
        with _flock(root):
            pass
        fd = os.open(os.path.join(root, LOCK_FILE_NAME), os.O_RDWR)
        try:
            # Raises BlockingIOError while anyone still holds it.
            cache_mod.fcntl.flock(
                fd, cache_mod.fcntl.LOCK_EX | cache_mod.fcntl.LOCK_NB
            )
        finally:
            os.close(fd)

    def test_one_holder_excludes_another(self, tmp_path):
        # Two holds on one directory exclude each other even within a
        # process (each opens the lock file anew, as two processes do).
        root = str(tmp_path / "cache")
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with _flock(root):
                order.append("holder-in")
                entered.set()
                release.wait(10)
                order.append("holder-out")

        def contender():
            entered.wait(10)
            with _flock(root):
                order.append("contender-in")

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=contender)]
        threads[0].start()
        threads[1].start()
        entered.wait(10)
        release.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert order == ["holder-in", "holder-out", "contender-in"]

    def test_a_wipe_keeps_the_lock_file(self, tmp_path):
        root = tmp_path / "c"
        ResultCache(str(root))
        (root / "meta.json").write_text(json.dumps({"format": -1}))
        cache = ResultCache(str(root))
        assert any("rebuilding" in note for note in cache.notes)
        assert (root / LOCK_FILE_NAME).exists()

    def test_without_fcntl_the_cache_still_works(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "fcntl", None)
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result("ab" * 32, [_message()], suppressed=1)
        assert cache.get_result("ab" * 32)[1] == 1
        assert not (tmp_path / "c" / LOCK_FILE_NAME).exists()

    def test_a_failing_flock_still_runs_the_wipe(self, tmp_path, monkeypatch):
        # Some network filesystems refuse flock: the cache then works
        # without cross-process exclusion instead of failing.
        def refuse(fd, operation):
            raise OSError(errno.ENOLCK, "no locks available")

        monkeypatch.setattr(
            cache_mod, "fcntl", types.SimpleNamespace(LOCK_EX=2, flock=refuse)
        )
        root = tmp_path / "c"
        ResultCache(str(root))
        (root / "meta.json").write_text(json.dumps({"format": -1}))
        cache = ResultCache(str(root))
        assert any("rebuilding" in note for note in cache.notes)
        cache.put_result("ab" * 32, [_message()], suppressed=1)
        assert cache.get_result("ab" * 32)[1] == 1

    def test_the_cache_imports_nothing_from_the_service(self):
        import ast

        with open(cache_mod.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "service" not in (node.module or ""), ast.unparse(node)
