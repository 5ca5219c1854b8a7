"""Tests for the token-stream preprocessor."""

import pytest

from repro.frontend.arith import parse_int_constant
from repro.frontend.preprocessor import PreprocessError, Preprocessor
from repro.frontend.source import SourceManager
from repro.frontend.tokens import TokenKind


def pp_values(text, defines=None, headers=None, sources=None):
    mgr = sources or SourceManager()
    pp = Preprocessor(mgr, defines=defines, system_headers=headers)
    toks = pp.preprocess_text(text, "t.c")
    return [t.value for t in toks if t.kind is not TokenKind.EOF]


class TestObjectMacros:
    def test_simple_define(self):
        assert pp_values("#define N 10\nint x = N;") == ["int", "x", "=", "10", ";"]

    def test_cmdline_define(self):
        assert pp_values("int x = N;", defines={"N": "42"}) == [
            "int", "x", "=", "42", ";",
        ]

    def test_undef(self):
        values = pp_values("#define N 10\n#undef N\nint x = N;")
        assert values == ["int", "x", "=", "N", ";"]

    def test_nested_expansion(self):
        values = pp_values("#define A B\n#define B 7\nA")
        assert values == ["7"]

    def test_self_reference_does_not_loop(self):
        values = pp_values("#define X X\nX")
        assert values == ["X"]

    def test_null_macro(self):
        values = pp_values("NULL", defines={"NULL": "((void *)0)"})
        assert values == ["(", "(", "void", "*", ")", "0", ")"]


class TestFunctionMacros:
    def test_simple_call(self):
        values = pp_values("#define SQR(x) ((x) * (x))\nSQR(a)")
        assert values == ["(", "(", "a", ")", "*", "(", "a", ")", ")"]

    def test_two_arguments(self):
        values = pp_values("#define ADD(a, b) a + b\nADD(1, 2)")
        assert values == ["1", "+", "2"]

    def test_nested_parens_in_argument(self):
        values = pp_values("#define ID(x) x\nID(f(a, b))")
        assert values == ["f", "(", "a", ",", "b", ")"]

    def test_name_without_call_is_plain(self):
        values = pp_values("#define F(x) x\nint F;")
        assert values == ["int", "F", ";"]

    def test_stringize(self):
        values = pp_values("#define S(x) #x\nS(abc)")
        assert values == ['"abc"']

    def test_token_paste(self):
        values = pp_values("#define GLUE(a, b) a ## b\nGLUE(foo, bar)")
        assert values == ["foobar"]

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessError):
            pp_values("#define F(a, b) a\nF(1)")

    def test_variadic(self):
        values = pp_values("#define V(...) __VA_ARGS__\nV(1, 2)")
        assert values == ["1", ",", "2"]


class TestConditionals:
    def test_ifdef_taken(self):
        assert pp_values("#define A\n#ifdef A\nx\n#endif") == ["x"]

    def test_ifdef_not_taken(self):
        assert pp_values("#ifdef A\nx\n#endif") == []

    def test_ifndef(self):
        assert pp_values("#ifndef A\nx\n#endif") == ["x"]

    def test_else(self):
        assert pp_values("#ifdef A\nx\n#else\ny\n#endif") == ["y"]

    def test_elif(self):
        text = "#define B 1\n#if 0\nx\n#elif B\ny\n#else\nz\n#endif"
        assert pp_values(text) == ["y"]

    def test_nested_conditionals(self):
        text = "#define A\n#ifdef A\n#ifdef B\nx\n#else\ny\n#endif\n#endif"
        assert pp_values(text) == ["y"]

    def test_if_defined(self):
        assert pp_values("#define A\n#if defined(A)\nx\n#endif") == ["x"]

    def test_if_arithmetic(self):
        assert pp_values("#if 2 + 2 == 4\nx\n#endif") == ["x"]
        assert pp_values("#if 1 > 2\nx\n#endif") == []

    def test_if_logical_and_ternary(self):
        assert pp_values("#if 1 && (0 || 1)\nx\n#endif") == ["x"]
        assert pp_values("#if 1 ? 0 : 1\nx\n#endif") == []

    def test_undefined_identifier_is_zero(self):
        assert pp_values("#if UNDEFINED_THING\nx\n#endif") == []

    def test_keywords_are_zero_too(self):
        # C99 6.10.1p4: sizeof is no operator in #if, so this is 0(0).
        assert pp_values("#if int + 1\nx\n#endif") == ["x"]
        with pytest.raises(PreprocessError, match="integer constant"):
            pp_values("#if sizeof(int)\nx\n#endif")

    @pytest.mark.parametrize("condition", [
        "-7 / 2 == -3", "-7 % 2 == -1", "7 % -2 == 1",
        "'\\x41' == 65", "'\\101' == 65", "'\\0' == 0",
        "(0 && 1 / 0) == 0", "1 || 1 << -1", "(1 ? 2 : 1 / 0) == 2",
        "(2 + 3) * 4 == 20 && (1 << 4 | 1) == 17",
    ])
    def test_if_folds_with_c_semantics(self, condition):
        assert pp_values(f"#if {condition}\nx\n#endif") == ["x"]

    @pytest.mark.parametrize("condition, problem", [
        ("1 << -1", "negative shift count"),
        ("(1 << 1099511627776) > 0", "shift count 1099511627776 exceeds 63"),
        ("1 / 0", "division by zero"),
        ("5 % (2 - 2)", "division by zero"),
        ("(1", "expected '\\)'"),
        ("1 2", "trailing tokens"),
        ("", "unexpected token"),
        ("1.5", "integer constant"),
        ("089", "malformed integer constant"),
    ])
    def test_malformed_if_is_a_preprocess_error(self, condition, problem):
        with pytest.raises(PreprocessError, match=problem):
            pp_values(f"#if {condition}\nx\n#endif")

    # The parser reads an #if line that ends in its EOF token; the
    # operand shortcut looks one token past an operand, at that EOF.

    @pytest.mark.parametrize("text, values", [
        ("#if 1\nx\n#endif", ["x"]),
        ("#if 1\nx\n#endif\n", ["x"]),
        ("#define X\n#if defined X\nx\n#endif", ["x"]),
        ("#if defined X\nx\n#endif", []),
        ("#if 0\n#elif 2\nx\n#endif", ["x"]),
    ])
    def test_if_expression_that_ends_at_its_eof(self, text, values):
        assert pp_values(text) == values

    @pytest.mark.parametrize("text, message, column", [
        ("#if 1 +\nx\n#endif", "unexpected token '' in #if expression", 1),
        ("#if 1 +", "unexpected token '' in #if expression", 1),
        ("  #if 3 *", "unexpected token '' in #if expression", 3),
        ("#if (1\nx\n#endif", "expected ')', got '' in #if expression", 1),
        ("#if 1", "unterminated conditional", 1),
        ("#if defined X", "unterminated conditional", 1),
    ])
    def test_truncated_if_expression(self, text, message, column):
        with pytest.raises(PreprocessError) as info:
            pp_values(text)
        assert str(info.value) == f"t.c:1: {message}"
        assert (info.value.location.line, info.value.location.column) \
            == (1, column)

    def test_unterminated_conditional_raises(self):
        with pytest.raises(PreprocessError):
            pp_values("#ifdef A\nx")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessError):
            pp_values("#endif")

    def test_include_guard_idiom(self):
        text = "#ifndef H\n#define H\nint x;\n#endif"
        assert pp_values(text) == ["int", "x", ";"]


class TestIncludes:
    def test_local_include(self):
        mgr = SourceManager()
        mgr.add("defs.h", "int from_header;")
        values = pp_values('#include "defs.h"\nint after;', sources=mgr)
        assert values == ["int", "from_header", ";", "int", "after", ";"]

    def test_system_include(self):
        values = pp_values(
            "#include <lib.h>\nx", headers={"lib.h": "int provided;"}
        )
        assert values == ["int", "provided", ";", "x"]

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessError):
            pp_values('#include "nonexistent.h"')

    def test_double_include_is_once(self):
        mgr = SourceManager()
        mgr.add("h.h", "int once;")
        values = pp_values('#include "h.h"\n#include "h.h"', sources=mgr)
        assert values.count("once") == 1

    def test_nested_include(self):
        mgr = SourceManager()
        mgr.add("inner.h", "int inner;")
        mgr.add("outer.h", '#include "inner.h"\nint outer;')
        values = pp_values('#include "outer.h"', sources=mgr)
        assert values == ["int", "inner", ";", "int", "outer", ";"]

    def test_macros_propagate_from_headers(self):
        mgr = SourceManager()
        mgr.add("m.h", "#define FROM_HEADER 5")
        values = pp_values('#include "m.h"\nFROM_HEADER', sources=mgr)
        assert values == ["5"]


class TestDirectivesMisc:
    def test_error_directive(self):
        with pytest.raises(PreprocessError, match="boom"):
            pp_values("#error boom")

    def test_error_in_untaken_branch_ignored(self):
        assert pp_values("#if 0\n#error no\n#endif\nx") == ["x"]

    def test_pragma_ignored(self):
        assert pp_values("#pragma pack(1)\nx") == ["x"]

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessError):
            pp_values("#frobnicate")

    def test_macro_use_location(self):
        mgr = SourceManager()
        pp = Preprocessor(mgr, defines={"M": "1 + 2"})
        toks = pp.preprocess_text("x\nM", "t.c")
        expanded = [t for t in toks if t.value in ("1", "+", "2")]
        assert all(t.location.line == 2 for t in expanded)


class TestIntConstants:
    def test_decimal(self):
        assert parse_int_constant("42") == 42

    def test_hex(self):
        assert parse_int_constant("0x1F") == 31

    def test_octal(self):
        assert parse_int_constant("077") == 63

    def test_suffixes_stripped(self):
        assert parse_int_constant("10UL") == 10
        assert parse_int_constant("7L") == 7

    def test_malformed_octal_raises_value_error(self):
        with pytest.raises(ValueError):
            parse_int_constant("089")
