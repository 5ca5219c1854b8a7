"""End-to-end fault containment.

One malformed or crash-inducing translation unit in a batch must cost
exactly its own results: every healthy unit's warnings are reported
byte-identically to a run without the bad unit, the run completes, and
degraded results are never served from the cache.
"""

import json
import os

import pytest

from repro.core.api import Checker
from repro.driver.cli import run
from repro.incremental.cache import ResultCache
from repro.incremental.engine import IncrementalChecker
from repro.messages.message import MessageCode

DB_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "db")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FILE_A = """#include <stdlib.h>
void leak_a(void) { char *p = (char *) malloc(4); if (p) { *p = 'a'; } }
"""

FILE_B_BROKEN = """int broken(int x) { return x + ; }
int also_fine(int y) { return y; }
"""

FILE_C = """#include <stdlib.h>
char use_c(/*@only@*/ char *p) { free(p); return *p; }
"""


class TestThreeFileBatch:
    def test_middle_file_syntax_error_hides_nothing(self, tmp_path):
        a = _write(tmp_path, "a.c", FILE_A)
        b = _write(tmp_path, "b.c", FILE_B_BROKEN)
        c = _write(tmp_path, "c.c", FILE_C)

        status, output = run(["-quiet", a, b, c])
        assert status == 1

        parse_errors = [
            line for line in output.splitlines() if "Parse error" in line
        ]
        assert len(parse_errors) == 1
        assert parse_errors[0].startswith(b)

        # every warning of the healthy files, byte-identically
        _, healthy_only = run(["-quiet", a, c])
        kept = [line for line in output.splitlines() if b not in line]
        assert kept == healthy_only.splitlines()
        assert any(line.startswith(a) for line in kept)
        assert any(line.startswith(c) for line in kept)

    def test_result_object_marks_the_degraded_unit(self, tmp_path):
        checker = Checker(crash_dir=str(tmp_path / "crashes"))
        result = checker.check_sources(
            {"a.c": FILE_A, "b.c": FILE_B_BROKEN, "c.c": FILE_C}
        )
        assert result.degraded_units == ["b.c"]
        assert result.internal_errors == 0
        # recovery kept the parseable tail of b.c
        assert any(
            m.code is MessageCode.PARSE_ERROR for m in result.messages
        )


class TestCorruptedExamplesBatch:
    """The acceptance scenario: the examples/db tree with one corrupted
    file still yields every healthy warning, byte-identically."""

    def _db_sources(self):
        files = {}
        for name in sorted(os.listdir(DB_DIR)):
            if name.endswith((".c", ".h")):
                with open(os.path.join(DB_DIR, name), encoding="utf-8") as f:
                    files[name] = f.read()
        return files

    def test_one_corrupted_unit_costs_only_itself(self, tmp_path):
        files = self._db_sources()
        healthy_paths = []
        for name, text in files.items():
            healthy_paths.append(_write(tmp_path, name, text))
        corrupt = _write(
            tmp_path, "zz_corrupt.c",
            "/* deliberately corrupted */\nint oops( { ;;; \x01\n",
        )

        status_bad, out_bad = run(["-quiet"] + healthy_paths + [corrupt])
        status_ok, out_ok = run(["-quiet"] + healthy_paths)

        assert status_bad == 1
        bad_lines = [
            line for line in out_bad.splitlines() if corrupt not in line
        ]
        assert bad_lines == out_ok.splitlines()
        own = [line for line in out_bad.splitlines() if corrupt in line]
        assert own and all(
            "Parse error" in line or "Cannot parse" in line for line in own
        )


class TestInjectedFaultWithCache:
    def _inject(self, monkeypatch, victim="boom"):
        from repro.analysis.checker import FunctionChecker

        original = FunctionChecker.check

        def selective(self):
            if self.fdef.name == victim:
                raise RuntimeError("injected analysis fault")
            return original(self)

        monkeypatch.setattr(FunctionChecker, "check", selective)

    def test_crash_bundle_and_no_cache_poisoning(self, tmp_path, monkeypatch):
        self._inject(monkeypatch)
        sources = {
            "good.c": "#include <stdlib.h>\n"
                      "void leaky(char *p) { free(p); }\n",
            "bad.c": "void boom(void) { }\n",
        }
        cache_root = str(tmp_path / "cache")
        crash_dir = os.path.join(cache_root, "crashes")

        engine = IncrementalChecker(cache=ResultCache(cache_root))
        result = engine.check_sources(dict(sources))

        # the fault was contained: run completed, message + bundle exist
        codes = [m.code for m in result.messages]
        assert MessageCode.INTERNAL_ERROR in codes
        assert result.internal_errors == 1
        assert result.degraded_units == ["bad.c"]
        assert engine.stats.degraded_units == 1
        bundles = os.listdir(crash_dir)
        assert len(bundles) == 1
        with open(os.path.join(crash_dir, bundles[0])) as handle:
            payload = json.load(handle)
        assert payload["function"] == "boom"
        assert "injected analysis fault" in payload["traceback"]

        # second run: healthy unit is a cache hit, degraded unit is not
        engine2 = IncrementalChecker(cache=ResultCache(cache_root))
        result2 = engine2.check_sources(dict(sources))
        assert engine2.stats.cache_hits == 1
        assert engine2.stats.cache_misses == 1
        assert [m.render() for m in result2.messages] == [
            m.render() for m in result.messages
        ]

    def test_recheck_after_fix_sees_the_fix(self, tmp_path, monkeypatch):
        sources = {"bad.c": "void boom(void) { }\n"}
        cache_root = str(tmp_path / "cache")

        with pytest.MonkeyPatch.context() as patch:
            self._inject(patch)
            engine = IncrementalChecker(cache=ResultCache(cache_root))
            broken = engine.check_sources(dict(sources))
        assert broken.internal_errors == 1

        # the checker bug is "fixed" (patch reverted): the degraded unit
        # was never cached, so the re-check reports the clean result
        engine2 = IncrementalChecker(cache=ResultCache(cache_root))
        fixed = engine2.check_sources(dict(sources))
        assert fixed.internal_errors == 0
        assert fixed.degraded_units == []
        assert engine2.stats.cache_misses == 1

    def test_cli_exit_3_and_parallel_parity(self, tmp_path, monkeypatch):
        self._inject(monkeypatch)
        monkeypatch.chdir(tmp_path)
        bad = _write(tmp_path, "bad.c", "void boom(void) { }\n")
        good = _write(
            tmp_path, "good.c",
            "#include <stdlib.h>\nvoid leaky(char *p) { free(p); }\n",
        )
        status, output = run([bad, good])
        assert status == 3
        assert "Internal error (RuntimeError)" in output

        serial = IncrementalChecker(jobs=1).check_sources(
            {"bad.c": "void boom(void) { }\n",
             "two.c": "int f(int x) { return x; }\n"}
        )
        parallel = IncrementalChecker(jobs=2).check_sources(
            {"bad.c": "void boom(void) { }\n",
             "two.c": "int f(int x) { return x; }\n"}
        )
        assert [m.render() for m in parallel.messages] == [
            m.render() for m in serial.messages
        ]
        assert parallel.internal_errors == serial.internal_errors == 1


class TestEscapedParseError:
    """A ParseError that escapes panic-mode recovery is malformed input
    on every path: one ``Cannot parse this file`` message and exit 1,
    never an internal error or a crash bundle."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_frontend_fatal_with_and_without_cache(
        self, tmp_path, monkeypatch, cached
    ):
        from repro.core.api import ensure_process_initialized
        from repro.frontend.parser import ParseError, Parser
        from repro.frontend.source import Location

        ensure_process_initialized()  # the prelude parses before the patch

        def escaped(self):
            raise ParseError("unexpected token", Location("x.c", 3, 1))

        monkeypatch.setattr(Parser, "parse_translation_unit", escaped)
        monkeypatch.chdir(tmp_path)
        unit = _write(tmp_path, "u.c", "int f(void) { return 0; }\n")
        cache = ["--cache-dir", str(tmp_path / "cache")] if cached else []
        status, output = run(cache + [unit])
        assert (status, output) == (
            1,
            "x.c:3: Cannot parse this file: unexpected token (file skipped)"
            "\n1 code warning(s)",
        )
        crash_dirs = [tmp_path / ".pylclint-cache", tmp_path / "cache"]
        assert not [
            path for root in crash_dirs if root.exists()
            for path in root.rglob("crash-*.json")
        ]


class TestMalformedArithmetic:
    """What C leaves undefined in a constant, and a malformed constant,
    are input errors: a frontend fatal (``#if``), a parse error for the
    declaration, or an unknown fold -- never an internal error or a
    crash bundle."""

    @pytest.mark.parametrize("text, status, message", [
        ("#if 1 << -1\n#endif\n", 1,
         "Cannot parse this file: negative shift count in #if expression"),
        ("#if (1 << 1099511627776) > 0\n#endif\n", 1,
         "Cannot parse this file: shift count 1099511627776 exceeds 63"),
        ("int x = 089;\n", 1,
         "Parse error: malformed integer constant '089'"),
        ("int a[1 << 1099511627776];\n", 0, None),
        ("struct S { struct S s; int x; };\nint a[sizeof(struct S)];\n",
         0, None),
    ])
    def test_no_internal_error_and_no_crash_bundle(
        self, tmp_path, monkeypatch, text, status, message
    ):
        monkeypatch.chdir(tmp_path)
        unit = _write(tmp_path, "u.c", text)
        got, output = run(["--cache-dir", str(tmp_path / "cache"), unit])
        assert got == status, output
        assert "Internal error" not in output
        if message is not None:
            assert message in output
        assert not list(tmp_path.rglob("crash-*.json"))
