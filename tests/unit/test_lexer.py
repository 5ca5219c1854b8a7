"""Tests for the annotation-preserving C lexer.

The tests pin the master-regex lexer's own behaviour: token kinds,
spellings and locations, and every ``LexError`` text with its
``file:line`` (``TestLexErrorTable``), without consulting the retained
reference scanner. A few are parameterized over both scanners, pinning
the oracle too; the property suite in
``tests/property/test_lexer_parity.py`` fuzzes their agreement.
"""

import pickle

import pytest

from repro.frontend.lexer import LexError, reference_tokenize, tokenize
from repro.frontend.source import SourceFile
from repro.frontend.tokens import Token, TokenKind

ENGINES = [tokenize, reference_tokenize]


def lex(text):
    return [t for t in tokenize(SourceFile("t.c", text)) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_keywords_and_identifiers(self):
        toks = lex("int foo; while whilst")
        assert [(t.kind, t.value) for t in toks[:2]] == [
            (TokenKind.KEYWORD, "int"),
            (TokenKind.IDENT, "foo"),
        ]
        kinds = {t.value: t.kind for t in toks}
        assert kinds["while"] is TokenKind.KEYWORD
        assert kinds["whilst"] is TokenKind.IDENT

    def test_punctuators_longest_match(self):
        toks = lex("a <<= b >> c->d ... e")
        values = [t.value for t in toks if t.kind is TokenKind.PUNCT]
        assert "<<=" in values
        assert ">>" in values
        assert "->" in values
        assert "..." in values

    def test_integer_constants(self):
        toks = lex("0 42 0x1F 077 10L 3U")
        assert all(t.kind is TokenKind.INT_CONST for t in toks)

    def test_float_constants(self):
        toks = lex("1.5 2e10 3.14f .5 1e-3")
        assert all(t.kind is TokenKind.FLOAT_CONST for t in toks)

    def test_number_at_end_of_file_terminates(self):
        # Regression: "" in "uUlL" is True, which once caused a hang.
        toks = lex("32767")
        assert toks[0].value == "32767"

    def test_char_constants(self):
        toks = lex(r"'a' '\n' '\\' '\0'")
        assert all(t.kind is TokenKind.CHAR_CONST for t in toks)

    def test_string_literals(self):
        toks = lex(r'"hello" "with \"quote\"" ""')
        assert all(t.kind is TokenKind.STRING for t in toks)
        assert toks[0].value == '"hello"'

    def test_locations(self):
        toks = lex("int\n  x;")
        assert toks[0].location.line == 1
        assert toks[1].location.line == 2
        assert toks[1].location.column == 3

    def test_identifiers_starting_with_non_ascii_letters(self):
        # A letter starts an identifier and a letter or numeral
        # continues it (``str.isalpha`` / ``str.isalnum``).
        toks = lex("int éa, ªb²_1;\n  Ω x")
        assert [(t.kind, t.value, t.coords()[1:]) for t in toks] == [
            (TokenKind.KEYWORD, "int", (1, 1)),
            (TokenKind.IDENT, "éa", (1, 5)),
            (TokenKind.PUNCT, ",", (1, 7)),
            (TokenKind.IDENT, "ªb²_1", (1, 9)),
            (TokenKind.PUNCT, ";", (1, 14)),
            (TokenKind.IDENT, "Ω", (2, 3)),
            (TokenKind.IDENT, "x", (2, 5)),
        ]

    @pytest.mark.parametrize(
        "text", ["x\n", "x \t\n\n", "x // tail", "x /* c */\n", "x\\\n"]
    )
    def test_trailing_whitespace_and_comments(self, text):
        toks = tokenize(SourceFile("t.c", text))
        assert [(t.kind, t.value) for t in toks] == [
            (TokenKind.IDENT, "x"), (TokenKind.EOF, ""),
        ]
        assert toks[-1].offset == len(text)


class TestComments:
    def test_plain_comments_discarded(self):
        assert [t.value for t in lex("a /* comment */ b")] == ["a", "b"]

    def test_line_comments_discarded(self):
        assert [t.value for t in lex("a // comment\nb")] == ["a", "b"]

    def test_annotation_comment_preserved(self):
        toks = lex("/*@null@*/ char *p;")
        assert toks[0].kind is TokenKind.ANNOTATION
        assert toks[0].value == "null"

    def test_annotation_without_trailing_at(self):
        toks = lex("/*@only temp*/ int x;")
        assert toks[0].kind is TokenKind.ANNOTATION
        assert toks[0].value == "only temp"

    def test_multiword_annotation(self):
        toks = lex("/*@null out only@*/ void *p;")
        assert toks[0].value == "null out only"

    def test_in_annotation_is_not_control(self):
        toks = lex("/*@in@*/ int *p;")
        assert toks[0].kind is TokenKind.ANNOTATION

    def test_ignore_control_comment(self):
        toks = lex("/*@ignore@*/ x /*@end@*/")
        assert toks[0].kind is TokenKind.CONTROL
        assert toks[0].value == "ignore"
        assert toks[2].kind is TokenKind.CONTROL

    def test_i_control_comment(self):
        toks = lex("/*@i@*/ /*@i3@*/")
        assert all(t.kind is TokenKind.CONTROL for t in toks)

    def test_flag_control_comments(self):
        toks = lex("/*@-null@*/ x /*@+null@*/")
        assert toks[0].kind is TokenKind.CONTROL
        assert toks[0].value == "-null"
        assert toks[2].value == "+null"


class TestLexErrors:
    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            lex("a /* never closed")

    def test_unterminated_annotation(self):
        with pytest.raises(LexError):
            lex("/*@null")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            lex('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            lex('"abc\ndef"')

    def test_bad_character(self):
        with pytest.raises(LexError):
            lex("int `x;")

    def test_error_carries_location(self):
        try:
            lex('x\n"unterminated')
        except LexError as exc:
            assert exc.location.line == 2
        else:  # pragma: no cover
            pytest.fail("expected LexError")


#: (source text of ``t.c``, the full ``LexError`` text): every error the
#: lexer raises, at the end of the file and in its middle.
LEX_ERROR_TABLE = [
    ("int `x;", "t.c:1: unexpected character '`'"),
    ("x;\n  @y = 1;\n", "t.c:2: unexpected character '@'"),
    ("a\\b", "t.c:1: unexpected character '\\\\'"),
    ("x = ²;", "t.c:1: unexpected character '²'"),
    ("int x²;\ny = ²;\n", "t.c:2: unexpected character '²'"),
    ("a;\n\x00", "t.c:2: unexpected character '\\x00'"),
    ('"abc', "t.c:1: unterminated string literal"),
    ('x;\ny = "abc\\', "t.c:2: unterminated string literal"),
    ('x;\ny = "ab\\\ncd', "t.c:2: unterminated string literal"),
    ('x;\ny = "ab\ncd";\nz;', "t.c:2: newline in string literal"),
    ('x = "abc\n', "t.c:1: newline in string literal"),
    ("'a", "t.c:1: unterminated character constant"),
    ("x;\nc = '\\", "t.c:2: unterminated character constant"),
    ("x;\nc = 'a\nb';\n", "t.c:2: newline in character constant"),
    ("c = '\n", "t.c:1: newline in character constant"),
    ("a /* never closed", "t.c:1: unterminated comment"),
    ("a;\n/* never\nclosed */ b /* again\n", "t.c:3: unterminated comment"),
    ("/*@null", "t.c:1: unterminated annotation comment"),
    ("int\n/*@only@*/ p /*@null\nint q;", "t.c:2: unterminated annotation comment"),
    ("0x", "t.c:1: hexadecimal constant has no digits"),
    ("a;\nb;\nc = 0xUL + 1;", "t.c:3: hexadecimal constant has no digits"),
]


class TestLexErrorTable:
    """Each ``LexError`` text and its ``file:line``, pinned directly."""

    @pytest.mark.parametrize("text,expected", LEX_ERROR_TABLE)
    def test_error_text_and_location(self, text, expected):
        with pytest.raises(LexError) as exc:
            tokenize(SourceFile("t.c", text))
        assert str(exc.value) == expected


class TestBackslashContinuation:
    def test_backslash_newline_joins(self):
        toks = lex("ab\\\ncd")
        assert toks[0].value == "ab"  # identifier scanning stops at backslash
        # The continuation is consumed as whitespace between tokens.
        assert [t.value for t in toks] == ["ab", "cd"]


class TestAnnotationRunRegression:
    """A long run of annotations must not recurse per comment."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_many_annotations_no_recursion(self, engine):
        # Far deeper than the default recursion limit: an old
        # _scan_special_comment recursed once per annotation it skipped.
        text = "/*@null@*/ " * 5000 + "int x;"
        toks = engine(SourceFile("t.c", text))
        assert len(toks) == 5004
        assert all(t.kind is TokenKind.ANNOTATION for t in toks[:5000])
        assert toks[4999].coords() == ("t.c", 1, 4999 * 11 + 1)
        assert [t.value for t in toks[5000:]] == ["int", "x", ";", ""]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_annotation_at_eof(self, engine):
        toks = engine(SourceFile("t.c", "x /*@null@*/"))
        assert [(t.kind, t.value) for t in toks] == [
            (TokenKind.IDENT, "x"),
            (TokenKind.ANNOTATION, "null"),
            (TokenKind.EOF, ""),
        ]


class TestHexWithoutDigits:
    """A bare ``0x`` is not a valid integer constant."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("text", ["0x", "0X", "0x;", "0xUL", "0x + 1"])
    def test_bare_hex_prefix_rejected(self, engine, text):
        with pytest.raises(LexError) as exc:
            engine(SourceFile("t.c", text))
        assert "hexadecimal constant has no digits" in str(exc.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_real_hex_constants_still_accepted(self, engine):
        toks = engine(SourceFile("t.c", "0x1F 0XaB 0x0L"))
        assert all(
            t.kind is TokenKind.INT_CONST
            for t in toks
            if t.kind is not TokenKind.EOF
        )


class TestLazyTokens:
    def test_location_is_computed_lazily(self):
        toks = lex("int\n  x;")
        tok = toks[1]
        assert tok._location is None  # not materialized by lexing
        assert tok.location.line == 2
        assert tok.location.column == 3
        assert tok._location is not None  # cached after first access

    def test_line_property_matches_location(self):
        toks = lex("a\nb\n  c")
        assert [t.line for t in toks] == [t.location.line for t in toks]

    def test_coords_without_location(self):
        toks = lex("a\n  b")
        assert toks[1].coords() == ("t.c", 2, 3)

    def test_keyword_and_punct_spellings_are_interned(self):
        a = lex("int x; int y;")
        b = lex("int z;")
        assert a[0].value is b[0].value  # "int" shared across lexes
        assert a[2].value is b[2].value  # ";" shared across lexes

    def test_tokens_refuse_pickling(self):
        # A lexer token would drag its whole source file into the pickle;
        # one backed by a Location is refused too, so the rule is one.
        lexed = lex("int\n  x;")[1]
        placed = Token(TokenKind.IDENT, "x", lexed.location)
        for tok in (lexed, placed):
            with pytest.raises(TypeError, match="not picklable"):
                pickle.dumps(tok)
            with pytest.raises(TypeError, match="not picklable"):
                pickle.dumps([tok])

    def test_interface_and_library_pickles_carry_locations(self, tmp_path):
        from repro.core.api import Checker, unit_interface
        from repro.driver.library import load_library, save_library
        from repro.frontend import cast as A

        text = (
            "int counter;\n"
            "/*@null@*/ char *name;\n"
            "void bump(void) /*@globals counter, undef name@*/\n"
            "{\n  counter++;\n}\n"
        )
        parsed = Checker().parse_unit(text, "g.c")
        assert not parsed.problems and not parsed.degraded
        iface = unit_interface(parsed)
        uses = iface.functions["bump"].globals_list
        assert [(g.name, g.undef) for g in uses] == [
            ("counter", False), ("name", True),
        ]
        assert all(isinstance(g, A.GlobalUse) for g in uses)

        # The engine's memo slice: (interface, enum constants).
        blob = pickle.dumps((iface, dict(parsed.enum_consts)))
        clone, enum_consts = pickle.loads(blob)
        assert clone.functions == iface.functions
        assert clone.globals == iface.globals
        assert enum_consts == parsed.enum_consts
        assert [g.location for g in clone.functions["bump"].globals_list] \
            == [g.location for g in uses]
        assert clone.functions["bump"].globals_list[0].location.line == 3

        # The -dump library of the same symbol table.
        path = str(tmp_path / "g.lcd")
        save_library(iface, path)
        loaded = load_library(path)
        assert loaded.functions == iface.functions
        assert loaded.globals == iface.globals

    def test_token_equality_and_str(self):
        a = lex("x")[0]
        b = tokenize(SourceFile("t.c", "x"))[0]
        assert a == b
        assert str(a) == "x"
        c = Token(TokenKind.IDENT, "x", SourceFile("u.c", "x").location(0))
        assert a != c  # different filename
