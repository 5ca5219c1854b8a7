"""Tests for the fingerprint layer and the on-disk result cache."""

import json
import os

import pytest

from repro.core.api import Checker
from repro.flags.registry import Flags
from repro.frontend.source import Location
from repro.incremental.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    UnitMemo,
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
            includes=[("h.h", "s" * 8)],
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


class TestDroppedEntryAccounting:
    """Discarded corrupt entries are counted; plain misses are not."""

    FP = "ab" * 32

    def _cache(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        return ResultCache(str(tmp_path / "c"), metrics=registry), registry

    def test_fresh_cache_has_no_drops(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        assert cache.dropped == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_plain_miss_is_not_a_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        assert cache.get_result("cd" * 32) is None
        assert cache.get_unit_memo("cd" * 32) is None
        assert cache.drain_dropped() == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_corrupt_result_counts_one_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        victim = os.path.join(cache.root, "results", self.FP + ".json")
        with open(victim, "w") as handle:
            handle.write("not json at all")
        assert cache.get_result(self.FP) is None
        assert cache.dropped == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_corrupt_memo_counts_one_drop(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        victim = os.path.join(cache.root, "units", self.FP + ".pkl")
        with open(victim, "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        assert cache.get_unit_memo(self.FP) is None
        assert cache.dropped == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_drain_returns_and_resets(self, tmp_path):
        cache, registry = self._cache(tmp_path)
        victim = os.path.join(cache.root, "results", self.FP + ".json")
        with open(victim, "w") as handle:
            handle.write("garbage")
        cache.get_result(self.FP)
        assert cache.drain_dropped() == 1
        assert cache.drain_dropped() == 0
        # The metrics counter is cumulative, not drained.
        assert registry.count("cache.entries.dropped") == 1

    def test_fresh_cache_layout_is_not_a_wipe(self, tmp_path):
        _, registry = self._cache(tmp_path)
        assert registry.count("cache.wipes") == 0

    def test_version_mismatch_counts_a_wipe(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        root = str(tmp_path / "c")
        ResultCache(root)
        meta = os.path.join(root, "meta.json")
        with open(meta, "w") as handle:
            json.dump({"format": -1, "engine": "other"}, handle)
        registry = MetricsRegistry()
        ResultCache(root, metrics=registry)
        assert registry.count("cache.wipes") == 1


class TestResultJournal:
    FP1 = "ab" * 32
    FP2 = "cd" * 32
    FP3 = "ef" * 32

    def _registry_cache(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        return ResultCache(str(tmp_path / "c"), metrics=registry), registry

    def _journal_path(self, cache):
        return os.path.join(cache.root, "results", "journal.jsonl")

    def test_batch_is_one_append_not_per_unit_files(self, tmp_path):
        cache, registry = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=0)
            cache.put_result(self.FP2, [_message()], suppressed=1)
        # One flush for the whole batch; no per-fingerprint files yet.
        assert registry.count("cache.journal.flushes") == 1
        assert registry.count("cache.journal.entries") == 2
        assert not os.path.exists(
            os.path.join(cache.root, "results", self.FP1 + ".json")
        )
        with open(self._journal_path(cache)) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2

    def test_batched_results_visible_before_and_after_flush(self, tmp_path):
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=3)
            # Visible mid-batch (the engine re-reads what it wrote).
            assert cache.get_result(self.FP1)[1] == 3
        assert cache.get_result(self.FP1)[1] == 3

    def test_journal_survives_reopen(self, tmp_path):
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=2)
        reopened = ResultCache(cache.root)
        loaded = reopened.get_result(self.FP1)
        assert loaded is not None
        assert loaded[1] == 2

    def test_nested_batches_flush_once_at_outermost_exit(self, tmp_path):
        cache, registry = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=0)
            with cache.batch():
                cache.put_result(self.FP2, [_message()], suppressed=0)
            assert registry.count("cache.journal.flushes") == 0
        assert registry.count("cache.journal.flushes") == 1

    def test_unbatched_put_is_an_immediate_file_write(self, tmp_path):
        cache, registry = self._registry_cache(tmp_path)
        cache.put_result(self.FP1, [_message()], suppressed=0)
        assert os.path.exists(
            os.path.join(cache.root, "results", self.FP1 + ".json")
        )
        assert registry.count("cache.journal.flushes") == 0

    def test_mid_append_kill_heals_on_next_load(self, tmp_path):
        # A process killed mid-append leaves a truncated final line; the
        # next open drops exactly that line and rewrites the journal so
        # the corruption is reported once, not on every run.
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=5)
            cache.put_result(self.FP2, [_message()], suppressed=6)
        path = self._journal_path(cache)
        with open(path, "rb") as handle:
            whole = handle.read()
        with open(path, "wb") as handle:
            handle.write(whole[: len(whole) - 40])  # torn final append
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        healed = ResultCache(cache.root, metrics=registry)
        assert healed.get_result(self.FP1)[1] == 5  # intact prefix kept
        assert healed.get_result(self.FP2) is None  # torn line dropped
        assert registry.count("cache.journal.healed") == 1
        assert healed.dropped == 1
        # Healed: reopening again reports no further corruption.
        registry2 = MetricsRegistry()
        again = ResultCache(cache.root, metrics=registry2)
        assert registry2.count("cache.journal.healed") == 0
        assert again.verify_integrity()["corrupt"] == 0

    def test_garbage_journal_line_is_dropped_not_fatal(self, tmp_path):
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=0)
        with open(self._journal_path(cache), "ab") as handle:
            handle.write(b"\x00\xffnot json at all\n")
            handle.write(b'{"fp": "zz", "messages": [], "suppressed": 0}\n')
        reopened = ResultCache(cache.root)
        assert reopened.get_result(self.FP1) is not None
        assert reopened.dropped == 2

    def test_compaction_folds_into_files_and_truncates(self, tmp_path):
        cache, registry = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=1)
            cache.put_result(self.FP2, [_message()], suppressed=2)
        cache.compact_journal()
        assert registry.count("cache.journal.compactions") == 1
        assert os.path.getsize(self._journal_path(cache)) == 0
        for fp, suppressed in ((self.FP1, 1), (self.FP2, 2)):
            assert os.path.exists(
                os.path.join(cache.root, "results", fp + ".json")
            )
            assert cache.get_result(fp)[1] == suppressed

    def test_oversized_journal_compacts_on_load(self, tmp_path, monkeypatch):
        from repro.incremental import cache as cache_mod

        monkeypatch.setattr(cache_mod, "JOURNAL_COMPACT_ENTRIES", 2)
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            for fp in (self.FP1, self.FP2, self.FP3):
                cache.put_result(fp, [_message()], suppressed=0)
        # The flush itself compacts once past the (patched) threshold.
        assert os.path.getsize(self._journal_path(cache)) == 0
        reopened = ResultCache(cache.root)
        for fp in (self.FP1, self.FP2, self.FP3):
            assert reopened.get_result(fp) is not None

    def test_bad_fingerprint_fails_at_put_even_in_a_batch(self, tmp_path):
        cache, _ = self._registry_cache(tmp_path)
        with pytest.raises(ValueError):
            with cache.batch():
                cache.put_result("not-hex", [_message()], suppressed=0)

    def test_compaction_rereads_disk_under_the_lock(self, tmp_path):
        # Another process's appended entries must survive a compaction
        # that started before they landed: compact folds what is on
        # disk, not a possibly stale in-memory view.
        cache, _ = self._registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=1)
        other = ResultCache(cache.root)
        with other.batch():
            other.put_result(self.FP2, [_message()], suppressed=2)
        cache.compact_journal()  # never saw FP2 in memory
        fresh = ResultCache(cache.root)
        assert fresh.get_result(self.FP1)[1] == 1
        assert fresh.get_result(self.FP2)[1] == 2
        assert fresh.verify_integrity()["corrupt"] == 0

    def test_verify_integrity_counts_and_flags(self, tmp_path):
        cache, _ = self._registry_cache(tmp_path)
        cache.put_result(self.FP1, [_message()], suppressed=0)
        with cache.batch():
            cache.put_result(self.FP2, [_message()], suppressed=0)
        report = cache.verify_integrity()
        assert report["results"] == 1
        assert report["journal"] == 1
        assert report["corrupt"] == 0
        # Corrupt a per-fingerprint file: the report flags it.
        victim = os.path.join(cache.root, "results", self.FP1 + ".json")
        with open(victim, "w") as handle:
            handle.write("{broken")
        fresh = ResultCache(cache.root)
        assert fresh.verify_integrity()["corrupt"] >= 1


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork for a two-process stress"
)
class TestConcurrentCompaction:
    """Two writers interleaving appends with compactions lose nothing.

    This is the regression test for the fold-then-truncate race: before
    compaction took ``CacheDirLock`` and re-read the journal from disk,
    a compactor could truncate away entries another process appended
    after the compactor's in-memory snapshot, silently dropping results.
    """

    PER_CHILD = 120

    def _child(self, root, child_id, start_evt):
        cache = ResultCache(root)
        start_evt.wait(10)
        for i in range(self.PER_CHILD):
            fp = f"{child_id:02x}{i:062x}"
            with cache.batch():
                cache.put_result(fp, [_message()], suppressed=i)
            if i % 7 == 0:
                cache.compact_journal()
        cache.compact_journal()

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
        for cid in (1, 2):
            for i in range(self.PER_CHILD):
                fp = f"{cid:02x}{i:062x}"
                found = fresh.get_result(fp)
                assert found is not None, f"lost result {fp}"
                assert found[1] == i
        assert fresh.verify_integrity()["corrupt"] == 0


class TestThreadSafety:
    """The checking service's worker threads share one ``ResultCache``.

    Regression test for the unguarded journal state: ``flush_batch``
    iterated the pending buffer while another thread's ``put_result``
    inserted into it ("dictionary changed size during iteration"), and
    its final clear could drop the other thread's results. A reader
    thread also checks that a put result stays readable while the batch
    holding it is being flushed.
    """

    PUTS_PER_THREAD = 200
    SECONDS = 2.0

    def test_concurrent_batches_raise_nothing_and_lose_nothing(
        self, tmp_path
    ):
        import sys
        import threading
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
                    # Small batches flush often, which is what races.
                    with cache.batch():
                        for _ in range(1 + i % 2):
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
            # it must read back at any moment, mid-flush included.
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
