"""Tests for the public facade (repro.core.api)."""

import pytest

from repro import CheckResult, Checker, Flags, check_files, check_source
from repro.messages.message import MessageCode

LEAKY = """#include <stdlib.h>
void f(void) {
    char *p = (char *) malloc(4);
    if (p == NULL) { return; }
    *p = 'x';
}
"""


class TestCheckSource:
    def test_returns_check_result(self):
        result = check_source(LEAKY, name="leaky.c")
        assert isinstance(result, CheckResult)
        assert len(result) == 1
        assert result.messages[0].code is MessageCode.LEAK_SCOPE

    def test_default_name(self):
        result = check_source("int x;")
        assert result.messages == []
        assert result.units[0].name == "<string>"

    def test_flags_parameter(self):
        result = check_source(LEAKY, flags=Flags.from_args(["+gcmode"]))
        assert result.messages == []

    def test_extra_sources_for_includes(self):
        result = check_source(
            '#include "mine.h"\nint f(void) { return VALUE; }\n',
            name="main.c",
            extra_sources={"mine.h": "#define VALUE 42\n"},
        )
        assert result.messages == []

    def test_render_includes_summary(self):
        result = check_source(LEAKY)
        text = result.render()
        assert "1 code warning(s)" in text

    def test_by_code_and_codes(self):
        result = check_source(LEAKY)
        assert result.codes() == [MessageCode.LEAK_SCOPE]
        assert set(result.by_code()) == {MessageCode.LEAK_SCOPE}


class TestCheckFiles:
    def test_paths(self, tmp_path):
        path = tmp_path / "x.c"
        path.write_text(LEAKY)
        result = check_files([str(path)])
        assert len(result.messages) == 1
        assert result.messages[0].location.filename == str(path)

    def test_header_and_source(self, tmp_path):
        (tmp_path / "api.h").write_text("extern int inc(int v);\n")
        (tmp_path / "impl.c").write_text(
            '#include "api.h"\nint inc(int v) { return v + 1; }\n'
        )
        result = check_files([str(tmp_path / "impl.c"), str(tmp_path / "api.h")])
        assert result.messages == []


class TestCheckerObject:
    def test_reusable_sources(self):
        checker = Checker()
        checker.sources.add("shared.h", "typedef int myint;\n")
        a = checker.parse_unit('#include "shared.h"\nmyint x;\n', "a.c")
        b = checker.parse_unit('#include "shared.h"\nmyint y;\n', "b.c")
        result = checker.check_units([a, b])
        assert result.messages == []
        assert result.symtab.global_var("x") is not None
        assert result.symtab.global_var("y") is not None

    def test_registered_and_disk_headers_across_runs(self, tmp_path):
        # One instance: a header registered on checker.sources resolves
        # in every run; a header on disk is read again by each run.
        header = tmp_path / "box.h"
        unit = tmp_path / "box.c"
        header.write_text("extern /*@null@*/ int *box;\n")
        unit.write_text(
            '#include "shared.h"\n#include "box.h"\n'
            "myint peek(void) { return *box; }\n"
        )
        checker = Checker()
        checker.sources.add("shared.h", "typedef int myint;\n")
        before = checker.check_files([str(unit)])
        assert [m.code for m in before.messages] == [MessageCode.NULL_DEREF]
        header.write_text("extern int *box;\n")
        assert checker.check_files([str(unit)]).messages == []

    def test_defines_parameter(self):
        checker = Checker(defines={"LIMIT": "10"})
        parsed = checker.parse_unit("int cap = LIMIT;", "d.c")
        result = checker.check_units([parsed])
        assert result.messages == []

    def test_annotation_problems_become_messages(self):
        result = check_source("extern /*@null notnull@*/ char *p;\n")
        assert any(
            m.code is MessageCode.ANNOTATION_PROBLEM for m in result.messages
        )

    def test_suppressed_counted(self):
        src = "#include <stdlib.h>\nvoid f(char *p) { /*@i@*/ free(p); }\n"
        result = check_source(src)
        assert result.messages == []
        assert result.suppressed >= 1

    def test_prelude_symbols_always_available(self):
        # no #include needed: the annotated stdlib is the ambient library,
        # as in LCLint
        result = check_source("void f(char *p) { free(p); }")
        assert any(
            m.code is MessageCode.IMPLICIT_TRANSFER for m in result.messages
        )


class TestDeterminism:
    def test_same_input_same_output(self):
        a = check_source(LEAKY, name="same.c")
        b = check_source(LEAKY, name="same.c")
        assert [m.render() for m in a.messages] == [
            m.render() for m in b.messages
        ]

    def test_unit_order_does_not_change_message_set(self):
        files1 = {"a.c": LEAKY.replace("f(", "fa("),
                  "b.c": LEAKY.replace("f(", "fb(")}
        r1 = Checker().check_sources(files1)
        files2 = dict(reversed(list(files1.items())))
        r2 = Checker().check_sources(files2)
        assert {m.render() for m in r1.messages} == {
            m.render() for m in r2.messages
        }
