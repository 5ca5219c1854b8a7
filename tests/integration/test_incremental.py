"""End-to-end tests for the incremental checking engine.

Pins the acceptance properties: warm-cache re-checks are >= 5x faster
than cold checks, cached runs emit byte-identical output to plain
runs, and a corrupted or version-mismatched cache silently rebuilds.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.driver.cli import run
from repro.incremental import DaemonServer, IncrementalChecker, ResultCache
from repro.incremental.cache import CACHE_FORMAT_VERSION


@pytest.fixture(scope="module")
def db_files():
    # Stage 1 keeps a healthy population of real messages in play.
    return db_sources(1)


def _renders(result):
    return [m.render() for m in result.messages]


class TestEquivalence:
    """The engine must be invisible in the output, whatever the path."""

    def test_cold_engine_matches_classic(self, db_files, tmp_path):
        classic = Checker().check_sources(dict(db_files))
        engine = IncrementalChecker(cache=ResultCache(str(tmp_path / "c")))
        incremental = engine.check_sources(dict(db_files))
        assert _renders(incremental) == _renders(classic)
        assert incremental.suppressed == classic.suppressed

    def test_warm_engine_matches_classic(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        warm = IncrementalChecker(cache=ResultCache(root))
        result = warm.check_sources(dict(db_files))
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == warm.stats.units
        assert _renders(result) == _renders(Checker().check_sources(dict(db_files)))

    def test_every_db_stage_matches(self, tmp_path):
        for stage in range(5):
            files = db_sources(stage)
            classic = Checker().check_sources(dict(files))
            root = str(tmp_path / f"stage{stage}")
            IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
            warm = IncrementalChecker(cache=ResultCache(root)).check_sources(
                dict(files)
            )
            assert _renders(warm) == _renders(classic), f"stage {stage}"


class TestInvalidation:
    def test_body_edit_rechecks_only_that_unit(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["drive.c"] = edited["drive.c"].replace(
            "int hired = 0;", "int hired = 0; int touched = 0; (void) touched;"
        )
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(edited)
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == engine.stats.units - 1
        assert _renders(result) == _renders(Checker().check_sources(dict(edited)))

    def test_comment_only_edit_stays_fully_cached(self, db_files, tmp_path):
        # Comments are stripped before tokenization, so an edit that adds
        # one on an existing line changes neither the token stream nor
        # any location: the result cache stays fully warm.
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["drive.c"] = edited["drive.c"].replace(
            "int hired = 0;", "int hired = 0; /* touched */"
        )
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(edited)
        assert engine.stats.cache_misses == 0
        assert engine.stats.memo_misses == 1  # raw text did change

    def test_interface_edit_rechecks_everything(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["erc.h"] = edited["erc.h"].replace(
            "extern int erc_size(erc c);",
            "extern int erc_size(erc c);\nextern int erc_cap(erc c);",
        )
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(edited)
        assert engine.stats.cache_misses == engine.stats.units

    def test_flag_change_rechecks_without_reparsing(self, db_files, tmp_path):
        from repro.flags.registry import Flags

        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        engine = IncrementalChecker(
            flags=Flags.from_args(["-allimponly"]), cache=ResultCache(root)
        )
        result = engine.check_sources(dict(db_files))
        assert engine.stats.cache_misses == engine.stats.units
        assert engine.stats.memo_hits == engine.stats.units
        classic = Checker(flags=Flags.from_args(["-allimponly"])).check_sources(
            dict(db_files)
        )
        assert _renders(result) == _renders(classic)


class TestIncludeResolution:
    """A warm cache answers what a plain run would: a memo holds only
    while each ``#include`` it followed names the same file, with the
    same text, and one unit's includes never depend on the units
    checked before it."""

    PLAIN = "extern char *get(void);\n"
    NULL = "extern /*@null@*/ char *get(void);\n"
    DEREF = "Dereference of possibly null pointer p"

    @staticmethod
    def _unit(header: str, name: str, getter: str = "get") -> str:
        return (
            f'#include "{header}"\n'
            f"char {name}(void) {{ char *p = {getter}(); return *p; }}\n"
        )

    @staticmethod
    def _write(root, files: dict[str, str]) -> None:
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def test_a_header_named_on_the_command_line_wins_over_the_memo(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, {
            "dir/a.c": self._unit("foo.h", "first"),
            "dir/foo.h": self.PLAIN,
            "foo.h": self.NULL,
        })
        cold = run(["--cache-dir", "C", "dir/a.c"])
        assert cold == run(["dir/a.c"])
        plain = run(["dir/a.c", "foo.h"])
        assert self.DEREF in plain[1]
        assert run(["--cache-dir", "C", "dir/a.c", "foo.h"]) == plain

    def test_a_new_sibling_header_wins_over_the_memo(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, {
            "dir/a.c": self._unit("foo.h", "first"),
            "foo.h": self.PLAIN,
        })
        cold = run(["--cache-dir", "C", "dir/a.c"])
        assert self.DEREF not in cold[1]
        self._write(tmp_path, {"dir/foo.h": self.NULL})
        plain = run(["dir/a.c"])
        assert self.DEREF in plain[1]
        assert run(["--cache-dir", "C", "dir/a.c"]) == plain

    def test_a_unit_finds_its_own_sibling_whatever_ran_before(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        # Each header declares its own getter, so the program's merged
        # symbol table cannot carry one unit's annotation to the other.
        self._write(tmp_path, {
            "x/a.c": self._unit("h.h", "first"),
            "y/b.c": self._unit("h.h", "second", "get2"),
            "h.h": self.PLAIN,
            "y/h.h": self.NULL.replace("get", "get2"),
        })
        forward = run(["-quiet", "x/a.c", "y/b.c"])[1].splitlines()
        backward = run(["-quiet", "y/b.c", "x/a.c"])[1].splitlines()
        assert sorted(forward) == sorted(backward)
        assert [line for line in forward if self.DEREF in line] == [
            f"y/b.c:2: {self.DEREF}: *p"
        ]


class TestWarmSpeedup:
    def test_warm_recheck_at_least_5x_faster(self, tmp_path):
        files = db_sources()  # final stage: the full annotated program
        root = str(tmp_path / "c")

        cold_engine = IncrementalChecker(cache=ResultCache(root))
        t0 = time.perf_counter()
        cold_result = cold_engine.check_sources(dict(files))
        cold = time.perf_counter() - t0
        assert cold_engine.stats.cache_misses == cold_engine.stats.units

        warm_engine = IncrementalChecker(cache=ResultCache(root))
        t0 = time.perf_counter()
        warm_result = warm_engine.check_sources(dict(files))
        warm = time.perf_counter() - t0
        assert warm_engine.stats.cache_hits == warm_engine.stats.units

        assert _renders(warm_result) == _renders(cold_result)
        assert cold >= 5 * warm, (
            f"warm re-check not fast enough: cold={cold * 1000:.1f}ms "
            f"warm={warm * 1000:.1f}ms ({cold / warm:.1f}x)"
        )


class TestCorruptionTolerance:
    def test_scribbled_cache_files_silently_rebuild(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        first = IncrementalChecker(cache=ResultCache(root)).check_sources(
            dict(db_files)
        )
        for sub in ("units", "results"):
            directory = os.path.join(root, sub)
            for name in os.listdir(directory):
                with open(os.path.join(directory, name), "wb") as handle:
                    handle.write(b"\x00garbage\xff" * 7)
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(dict(db_files))
        assert engine.stats.cache_misses == engine.stats.units  # all rebuilt
        assert _renders(result) == _renders(first)
        # ... and the rebuilt entries serve the next run.
        again = IncrementalChecker(cache=ResultCache(root))
        again.check_sources(dict(db_files))
        assert again.stats.cache_misses == 0

    def test_version_mismatch_is_a_warning_not_a_crash(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": CACHE_FORMAT_VERSION + 9, "engine": 0}, handle)
        cache = ResultCache(root)
        assert any("rebuilding" in n for n in cache.notes)
        engine = IncrementalChecker(cache=cache)
        result = engine.check_sources(dict(db_files))
        assert any("rebuilding" in n for n in engine.stats.notes)
        assert _renders(result) == _renders(Checker().check_sources(dict(db_files)))

    def test_truncated_meta_and_results_via_cli(self, tmp_path):
        # Through the CLI: a trashed cache must only change timings.
        src = tmp_path / "one.c"
        src.write_text("#include <stdlib.h>\nvoid f(char *p) { free(p); }\n")
        cache_dir = str(tmp_path / "cache")
        status1, out1 = run(["--cache-dir", cache_dir, str(src)])
        with open(os.path.join(cache_dir, "meta.json"), "w") as handle:
            handle.write("}{")
        status2, out2 = run(["--cache-dir", cache_dir, str(src)])
        assert status1 == status2
        assert [l for l in out1.splitlines() if "warning:" not in l] == [
            l for l in out2.splitlines() if "warning:" not in l
        ]

    def test_drop_while_opening_reaches_a_run_on_another_thread(
        self, db_files, tmp_path
    ):
        # The checking service opens its cache on the main thread and
        # runs checks on pool threads: a garbled meta.json dropped while
        # opening must still reach a run's notes.
        root = str(tmp_path / "c")
        ResultCache(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            handle.write("}{")
        cache = ResultCache(root)
        notes = []

        def check():
            engine = IncrementalChecker(cache=cache)
            engine.check_sources(dict(db_files))
            notes.extend(engine.stats.notes)

        worker = threading.Thread(target=check)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
        assert notes == [
            f"result cache dropped 1 corrupt or unreadable entry under {root}"
        ]
        assert cache.drain_dropped() == 0


class TestOneFilePerResult:
    """A cached check leaves one ``results/<fp>.json`` per healthy unit,
    and a fresh process answers from those files alone."""

    def _check(self, paths, cache_dir):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--cache-dir", cache_dir,
             "-stats", *paths],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1, proc.stderr  # broken.c's parse error
        hits, misses = re.search(
            r"result cache:\s+(\d+) hit\(s\), (\d+) miss\(es\)", proc.stdout
        ).groups()
        return proc.stdout.split("statistics:")[0], int(hits), int(misses)

    def test_cold_db_run_writes_six_files_a_fresh_process_reads(
        self, tmp_path
    ):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        db_dir = os.path.join(repo, "examples", "db")
        work = tmp_path / "db"
        work.mkdir()
        for name in os.listdir(db_dir):
            if name.endswith((".c", ".h")):
                shutil.copy(os.path.join(db_dir, name), work / name)
        # A degraded unit (parse recovery) is never cached.
        (work / "broken.c").write_text("int oops( { ;;;\n")
        paths = sorted(str(p) for p in work.glob("*.c"))
        assert len(paths) == 7
        cache_dir = str(tmp_path / "cache")
        cold, hits, misses = self._check(paths, cache_dir)
        assert (hits, misses) == (0, 7)
        names = os.listdir(os.path.join(cache_dir, "results"))
        assert len(names) == 6
        assert all(re.fullmatch(r"[0-9a-f]{64}\.json", n) for n in names)
        warm, hits, misses = self._check(paths, cache_dir)
        assert (hits, misses) == (6, 1)
        assert warm == cold


class TestDaemon:
    def _files_on_disk(self, tmp_path):
        paths = []
        for name, text in db_sources(1).items():
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        return sorted(paths)

    def test_daemon_round_trip_and_cache_warmup(self, tmp_path):
        paths = self._files_on_disk(tmp_path)
        request = json.dumps(["-quiet", "-stats"] + paths)
        stdin = io.BytesIO(
            (request + "\n" + request + "\nshutdown\n").encode("utf-8")
        )
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "daemon-cache"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert lines[0]["ready"] is True
        first, second = lines[1], lines[2]
        assert first["status"] == second["status"]
        assert first["stats"]["cache_misses"] > 0
        assert second["stats"]["cache_misses"] == 0
        assert second["stats"]["cache_hits"] == first["stats"]["cache_misses"]
        # identical rendered messages from cold and warm requests
        strip = lambda text: [
            l for l in text.splitlines() if "statistics" not in l
            and not l.startswith("  ")
        ]
        assert strip(first["output"]) == strip(second["output"])
        assert lines[-1]["bye"] is True
        assert lines[-1]["requests"] == 2

    def test_daemon_plain_text_requests(self, tmp_path):
        src = tmp_path / "ok.c"
        src.write_text("int f(int x) { return x + 1; }\n")
        stdin = io.BytesIO(f"-quiet {src}\nshutdown\n".encode("utf-8"))
        stdout = io.StringIO()
        DaemonServer(cache_dir=None, stdin=stdin, stdout=stdout).serve()
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert lines[1]["status"] == 0

    def test_daemon_survives_bad_requests(self, tmp_path):
        stdin = io.BytesIO(
            b'["-quiet", "/nonexistent/nope.c"]\n'
            b"[malformed json\n"
            b"shutdown\n"
        )
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "c"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert "error" in lines[1]
        assert "error" in lines[2]
        assert lines[-1]["errors"] == 2


class TestGeneratedProgram:
    @pytest.mark.parametrize("stripped", [False, True],
                             ids=["annotated", "stripped"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_cached_cold_and_warm_equal_plain(self, seed, stripped, tmp_path):
        # A many-unit program whose units call across each other; the
        # stripped variant keeps real messages in many units.
        from repro.bench.generator import generate_program

        program = generate_program(modules=5, filler_functions=3, seed=seed)
        if stripped:
            program = program.stripped()
        plain = Checker().check_sources(dict(program.files))
        root = str(tmp_path / "c")
        for run_no in range(2):  # cold, then warm
            engine = IncrementalChecker(cache=ResultCache(root))
            result = engine.check_sources(dict(program.files))
            assert _renders(result) == _renders(plain), run_no
            assert result.suppressed == plain.suppressed
        assert engine.stats.cache_hits == engine.stats.units > 5
        if stripped:
            assert plain.messages
