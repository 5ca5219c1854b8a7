"""Tests for the CLI driver and interface libraries."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.api import Checker
from repro.driver.cli import CliError, run
from repro.driver.library import (
    LibraryError,
    load_library,
    merge_symtabs,
    save_library,
)
from repro.frontend.symtab import SymbolTable

SAMPLE = """extern /*@only@*/ char *gname;

void setName (/*@temp@*/ char *pname)
{
  gname = pname;
}
"""

CLEAN = "int f(int x) { return x + 1; }\n"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.c"
    path.write_text(SAMPLE)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return str(path)


class TestCli:
    def test_reports_messages_and_exit_status(self, sample_file):
        status, output = run([sample_file])
        assert status == 1
        assert "Only storage gname not released" in output
        assert "2 code warning(s)" in output

    def test_clean_file_exits_zero(self, clean_file):
        status, output = run([clean_file])
        assert status == 0
        assert "0 code warning(s)" in output

    def test_flag_settings(self, sample_file):
        status, _ = run(["-mustfree", "-memtrans", sample_file])
        assert status == 0

    def test_gcmode(self, sample_file):
        status, output = run(["+gcmode", sample_file])
        assert "not released" not in output

    def test_quiet(self, clean_file):
        _, output = run(["-quiet", clean_file])
        assert "warning" not in output

    def test_stats(self, sample_file):
        _, output = run(["-stats", sample_file])
        assert "functions checked: 1" in output
        assert "leak-overwrite" in output

    def test_help(self):
        status, output = run(["--help"])
        assert status == 0
        assert "pylclint" in output

    def test_flags_listing(self):
        status, output = run(["-flags"])
        assert status == 0
        assert "allimponly" in output
        assert "gcmode" in output

    def test_no_input_files(self):
        with pytest.raises(CliError):
            run([])

    def test_unknown_flag(self, clean_file):
        with pytest.raises(CliError):
            run(["-definitelynotaflag", clean_file])

    def test_dot_output(self, clean_file):
        status, output = run(["-dot", "f", clean_file])
        assert 'digraph "f"' in output

    def test_dot_unknown_function(self, clean_file):
        with pytest.raises(CliError):
            run(["-dot", "nonexistent", clean_file])

    def test_headers_on_command_line(self, tmp_path):
        (tmp_path / "api.h").write_text("extern int bump(int x);\n")
        (tmp_path / "use.c").write_text(
            '#include "api.h"\nint g(void) { return bump(1); }\n'
        )
        status, _ = run([str(tmp_path / "use.c"), str(tmp_path / "api.h")])
        assert status == 0

    def test_many_warnings_still_exit_1(self, tmp_path):
        # The exit code signals *that* there are warnings, not how many:
        # counts no longer leak into the status (the old cap-at-125
        # scheme collided with shell signal statuses).
        lines = ["#include <stdlib.h>"]
        for i in range(130):
            lines.append(f"void f{i}(char *p) {{ free(p); }}")
        path = tmp_path / "many.c"
        path.write_text("\n".join(lines))
        status, _ = run(["-quiet", str(path)])
        assert status == 1


class TestLibraries:
    def test_round_trip(self, tmp_path):
        result = Checker().check_sources(
            {"m.c": "extern /*@null@*/ char *gp;\nint helper(int v) { return v; }\n"}
        )
        path = str(tmp_path / "m.lcd")
        save_library(result.symtab, path)
        loaded = load_library(path)
        assert "helper" in loaded.functions
        assert "gp" in loaded.globals
        assert loaded.globals["gp"].annotations.null is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lcd"
        path.write_bytes(b"not a library")
        with pytest.raises(LibraryError):
            load_library(str(path))

    def test_merge_prefers_definitions(self):
        proto = Checker().check_sources({"a.c": "extern int f(int);\n"})
        defn = Checker().check_sources({"b.c": "int f(int x) { return x; }\n"})
        base = SymbolTable()
        merge_symtabs(base, proto.symtab)
        merge_symtabs(base, defn.symtab)
        assert base.functions["f"].has_definition

    def test_cross_module_checking_with_library(self, tmp_path):
        # Module A defines an allocator with an only return; module B
        # misuses it. Checking B alone with A's library finds the bug.
        mod_a = """#include <stdlib.h>
        /*@null@*/ /*@only@*/ char *mk(void) { return (char *) malloc(4); }
        """
        result_a = Checker().check_sources({"a.c": mod_a})
        lib = str(tmp_path / "a.lcd")
        save_library(result_a.symtab, lib)

        checker = Checker()
        checker.load_library(lib)
        result_b = checker.check_units(
            [checker.parse_unit(
                "void use(void) { char *p = mk(); if (p) { *p = 'x'; } }",
                "b.c",
            )]
        )
        assert any("leak" in m.code.slug for m in result_b.messages)

    def test_cli_dump_and_load(self, tmp_path, clean_file):
        lib = str(tmp_path / "prog.lcd")
        status, output = run(["-dump", lib, clean_file])
        assert status == 0
        assert "interface library written" in output
        status2, _ = run(["-load", lib, clean_file])
        assert status2 == 0


class TestCliErrorHandling:
    def test_parse_error_becomes_a_message(self, tmp_path):
        bad = tmp_path / "broken.c"
        bad.write_text("int x = ;\nint ok(int v) { return v; }\n")
        status, output = run([str(bad)])
        assert status == 1
        assert "Parse error" in output

    def test_lex_error_is_contained_as_a_message(self, tmp_path):
        # An unlexable file no longer aborts the run: it yields one
        # parse-error message and the batch continues.
        bad = tmp_path / "broken.c"
        bad.write_text('char *s = "unterminated\n')
        ok = tmp_path / "ok.c"
        ok.write_text("#include <stdlib.h>\nvoid f(char *p) { free(p); }\n")
        status, output = run([str(bad), str(ok)])
        assert status == 1
        assert "Cannot parse this file" in output
        assert "implicitly only" in output or "free" in output.lower()

    def test_missing_file_is_a_cli_error(self):
        with pytest.raises(CliError, match="cannot read"):
            run(["/nonexistent/definitely/missing.c"])

    def test_missing_file_never_raises_oserror(self):
        # The regression this pins: a missing input must surface as a
        # clean CliError, not a raw FileNotFoundError traceback.
        try:
            run(["/nonexistent/definitely/missing.c"])
        except CliError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a CliError")

    def test_non_utf8_file_is_a_cli_error(self, tmp_path):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int x; /* caf\xe9 */\n")
        with pytest.raises(CliError, match="not a UTF-8 text file"):
            run([str(path)])

    def test_main_returns_2_on_cli_error(self, capsys):
        from repro.driver.cli import main

        status = main(["/nonexistent/missing.c"])
        assert status == 2
        assert "pylclint:" in capsys.readouterr().err

    def test_main_returns_2_on_non_utf8(self, tmp_path, capsys):
        from repro.driver.cli import main

        path = tmp_path / "bad.c"
        path.write_bytes(b"\xff\xfeint x;\n")
        status = main([str(path)])
        assert status == 2
        assert "UTF-8" in capsys.readouterr().err


class TestCliIncrementalOptions:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["--shard-strategy", "size"], "'-shard-strategy'"),
         (["--jobs", "2"], "'-jobs'"), (["--jobs=2"], "'-jobs=2'"),
         (["-j", "2"], "'j'")],
        ids=["shard-strategy", "jobs", "jobs-equals", "j"],
    )
    def test_removed_option_is_an_unknown_flag(
        self, sample_file, capsys, argv, flag
    ):
        # Every check runs in one process: there is no worker count and
        # no shard layout to choose.
        from repro.driver.cli import main

        assert main([*argv, sample_file]) == 2
        assert f"unknown flag {flag}" in capsys.readouterr().err

    @staticmethod
    def _probe(probe: str) -> list[str]:
        """Run *probe* in a fresh interpreter; returns its output lines,
        the last naming the process-pool modules it left loaded."""
        done = subprocess.run(
            [sys.executable, "-c", probe + "; print(sorted("
             "{'multiprocessing', 'repro.incremental.parallel'}"
             " & set(sys.modules)))"],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(
                os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
            ),
        )
        return done.stdout.splitlines()

    def test_importing_the_driver_loads_no_process_pool(self):
        assert self._probe("import sys, repro.driver.cli") == ["[]"]

    @pytest.mark.parametrize(
        "options",
        [[], ["--cache-dir", "{tmp}"],
         ["--cache-dir", "{tmp}", "--cache-server", "127.0.0.1:1"],
         ["--profile"]],
        ids=["plain", "cache", "cache-server", "profile"],
    )
    def test_checking_loads_no_process_pool(
        self, sample_file, tmp_path, options
    ):
        # Every check runs in the caller's process, whatever the mode.
        argv = [o.format(tmp=tmp_path / "cache") for o in options]
        probe = (
            "import sys; from repro.driver.cli import run; "
            f"print(run({[*argv, sample_file]!r})[0])"
        )
        assert self._probe(probe) == ["1", "[]"]  # warnings, no pool

    def test_cache_dir_option(self, sample_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        status1, out1 = run(["--cache-dir", cache_dir, sample_file])
        status2, out2 = run(["--cache-dir", cache_dir, sample_file])
        assert (status1, out1) == (status2, out2)
        import os

        assert os.path.isdir(os.path.join(cache_dir, "results"))

    def test_no_cache_wins(self, sample_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        status, _ = run(["--cache-dir", cache_dir, "--no-cache", sample_file])
        assert status == 1
        import os

        assert not os.path.isdir(os.path.join(cache_dir, "results"))

    def test_incremental_stats_rendered(self, sample_file, tmp_path):
        _, output = run(
            ["-stats", "--cache-dir", str(tmp_path / "c"), sample_file]
        )
        assert "incremental statistics:" in output
        assert "result cache:" in output

    def test_daemon_flag_rejected_inside_run(self, sample_file):
        with pytest.raises(CliError, match="daemon"):
            run(["--daemon", sample_file])

    def test_dump_load_with_incremental_engine(self, tmp_path, clean_file):
        lib = str(tmp_path / "prog.lcd")
        status, output = run(
            ["--cache-dir", str(tmp_path / "c"), "-dump", lib, clean_file]
        )
        assert status == 0
        assert "interface library written" in output
        status2, _ = run(["-load", lib, clean_file])
        assert status2 == 0


class TestCliTrace:
    def test_trace_output(self, tmp_path):
        path = tmp_path / "t.c"
        path.write_text(
            "int f(/*@null@*/ int *p) {\n"
            "  if (p != NULL) { return *p; }\n"
            "  return 0;\n"
            "}\n"
        )
        status, output = run(["-quiet", "-trace", "f", str(path)])
        assert "Function Entrance" in output
        assert "possibly null" in output
        assert "Function Exit" in output

    def test_trace_unknown_function(self, clean_file):
        with pytest.raises(CliError):
            run(["-trace", "missing", clean_file])


class TestExitCodeContract:
    """The documented contract: 0 clean, 1 warnings, 2 usage/input
    error, 3 internal error contained."""

    def test_clean_is_0(self, clean_file):
        status, _ = run([clean_file])
        assert status == 0

    def test_warnings_are_1(self, sample_file):
        status, _ = run([sample_file])
        assert status == 1

    def test_parse_errors_are_warnings(self, tmp_path):
        bad = tmp_path / "broken.c"
        bad.write_text("int x = ;\n")
        status, output = run([str(bad)])
        assert status == 1
        assert "Parse error" in output

    def test_usage_errors_are_2(self):
        from repro.driver.cli import main

        assert main(["/nonexistent/definitely/missing.c"]) == 2
        assert main(["-notaflag" * 2]) == 2

    def test_contained_internal_error_is_3(self, clean_file, tmp_path,
                                           monkeypatch):
        from repro.analysis.checker import FunctionChecker

        def boom(self):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(FunctionChecker, "check", boom)
        monkeypatch.chdir(tmp_path)  # crash bundles land under tmp
        status, output = run([clean_file])
        assert status == 3
        assert "Internal error (RuntimeError)" in output
        assert "internal error(s) contained" in output

    def test_internal_beats_warnings(self, sample_file, tmp_path,
                                     monkeypatch):
        from repro.analysis.checker import FunctionChecker

        original = FunctionChecker.check

        def boom(self):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(FunctionChecker, "check", boom)
        monkeypatch.chdir(tmp_path)
        status, _ = run([sample_file])
        assert status == 3
        monkeypatch.setattr(FunctionChecker, "check", original)
        status, _ = run([sample_file])
        assert status == 1
