"""Parity suite: the master-regex lexer against the reference scanner.

The retained character-at-a-time :class:`ReferenceLexer` is the
executable specification of the token language and a test oracle only:
the checker never builds it. These tests assert that the regex lexer,
which scans every file by itself, produces identical ``(kind, value,
line, column)`` streams and identical ``LexError`` texts — on
hypothesis-generated C-ish inputs, on adversarial hand-picked fragments,
and on every file of the real ``examples/db`` tree — and that lazily
computed token locations round-trip offsets correctly at line
boundaries.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.frontend.lexer import (
    LexError,
    ReferenceLexer,
    reference_tokenize,
    tokenize,
)
from repro.frontend.source import SourceFile
from repro.frontend.tokens import TokenKind
from tests.oracles import reference_lexer

EXAMPLES_DB = Path(__file__).resolve().parents[2] / "examples" / "db"


def stream(tokens):
    return [(t.kind, t.value) + t.coords()[1:] for t in tokens]


def assert_parity(text: str) -> None:
    """Both scanners agree on the stream — or raise the same LexError."""
    regex_err = ref_err = None
    regex_toks = ref_toks = None
    try:
        regex_toks = tokenize(SourceFile("p.c", text))
    except LexError as exc:
        regex_err = str(exc)
    try:
        ref_toks = reference_tokenize(SourceFile("p.c", text))
    except LexError as exc:
        ref_err = str(exc)
    assert regex_err == ref_err, (text, regex_err, ref_err)
    if regex_toks is not None:
        assert stream(regex_toks) == stream(ref_toks), text


# -- hypothesis-generated C-ish inputs ---------------------------------------

_WORDS = st.sampled_from(
    [
        "int", "while", "foo", "_bar", "x9", "sizeof", "struct",
        "0", "42", "0x1F", "077", "10L", "3U", "1.5", "2e10", "3.14f",
        ".5", "1e-3", "1f", "0x1UF",
        "'a'", r"'\n'", '"str"', r'"with \"q\""', '""',
        "/*@null@*/", "/*@only temp*/", "/*@ignore@*/", "/*@end@*/",
        "/*@i3@*/", "/*@-null@*/", "/* plain */", "// line",
        "<<=", ">>=", "...", "##", "#", "->", "++", "<=", "==", "&&",
        "(", ")", "[", "]", "{", "}", ",", ";", "*", "&", ".", "?",
    ]
)

_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\n\n", " \t ", "\\\n", " "])


@st.composite
def _cish_programs(draw):
    words = draw(st.lists(_WORDS, max_size=40))
    seps = [draw(_SEPARATORS) for _ in words]
    return "".join(w + s for w, s in zip(words, seps))


class TestHypothesisParity:
    @given(_cish_programs())
    @settings(max_examples=300, deadline=None)
    def test_cish_input_parity(self, text):
        assert_parity(text)

    @given(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=120,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_printable_soup_parity(self, text):
        """Arbitrary printable input: same stream or same LexError."""
        assert_parity(text)

    @given(
        st.text(alphabet="0123456789abcdefxXuUlL.eE+-fF", max_size=14)
    )
    @settings(max_examples=300, deadline=None)
    def test_number_spelling_parity(self, text):
        assert_parity("0" + text + " end")

    @given(st.text(alphabet="ax_9 ;=(\n²³½Ⅷⅻé٠١ªµßπ", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_non_ascii_letter_and_numeral_parity(self, text):
        """A letter (``str.isalpha``) or ``_`` starts an identifier in
        both scanners; a non-ASCII numeral starts no token."""
        assert_parity(text)


class TestAdversarialFragments:
    FRAGMENTS = [
        "",
        "\n\n\n",
        "// comment only",
        "/* comment only */",
        "a//b\nc",
        "a/**/b",
        "/**@*/",
        "/*@*/",
        "x/*@only temp*/y",
        "int x = 0x1F; float y = .5f;",
        "1..2",
        "1.e5",
        "1e+",
        "0x1F.5",
        "123abc",
        "0x10LF",
        'p = "a\\\nb";',
        "ab\\\ncd",
        "a\\\n\\\nb",
        "#define F(x) ((x)+1)\nF(2)\n",
        "'\\''",
        '"\\\\"',
        "x;\t// trailing\n",
        "/*@null@*//*@out@*/int*p;",
        "int ²x;",
        "x = ²;",
        "int Ⅷ;",
        "a² b",
        "٠x",
        "int café = 1;",
        "int éa;",
        "ªb",
    ]

    @pytest.mark.parametrize("text", FRAGMENTS)
    def test_fragment_parity(self, text):
        assert_parity(text)


class TestExamplesDbParity:
    """The full examples/db tree: the paper's real program."""

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES_DB.glob("*.[ch]")), ids=lambda p: p.name
    )
    def test_db_file_parity(self, path):
        text = path.read_text(encoding="utf-8")
        regex_toks = tokenize(SourceFile(path.name, text))
        ref_toks = reference_tokenize(SourceFile(path.name, text))
        assert stream(regex_toks) == stream(ref_toks)

    def test_db_files_found(self):
        assert len(list(EXAMPLES_DB.glob("*.[ch]"))) >= 10


class TestWholeCheckParity:
    """A check with the reference scanner patched in where the
    preprocessor lexes files, command-line macros and pasted tokens
    renders the same messages."""

    PASTING = {
        "p.c": "#include <stdlib.h>\n"
               "#define CAT(a, b) a ## b\n"
               "#define STR(x) #x\n"
               "int CAT(x, 1) = 0;\n"
               "char *name = STR(hi);\n"
               "int f(void) { int *p = malloc(sizeof(int));\n"
               "  return *p + CAT(x, 1) + LIMIT; }\n",
    }

    @pytest.mark.parametrize("files,pasted", [
        (db_sources(1), set()), (PASTING, {"p.c:4", "p.c:7"}),
    ], ids=["db-stage-1", "pasting"])
    def test_messages_identical(self, files, pasted, monkeypatch):
        built = []
        real = ReferenceLexer.__init__
        monkeypatch.setattr(
            ReferenceLexer, "__init__",
            lambda self, source: built.append(source.name)
            or real(self, source),
        )
        checker = Checker(defines={"LIMIT": "(1 << 4)"})
        regex = [m.render() for m in checker.check_sources(dict(files)).messages]
        assert built == []
        with reference_lexer():
            reference = [
                m.render() for m in checker.check_sources(dict(files)).messages
            ]
        assert regex and reference == regex
        assert set(files) | {"<cmdline>"} | pasted <= set(built)


class TestOffsetRoundTrip:
    """Lazy locations: offsets must map to correct line/column pairs."""

    def test_locations_at_line_boundaries(self):
        text = "a\nbb\n\n  c\nd"
        source = SourceFile("r.c", text)
        toks = [
            t
            for t in tokenize(source)
            if t.kind is not TokenKind.EOF
        ]
        # Naive independently-computed expectation.
        expected = []
        for tok in toks:
            offset = tok.offset
            line = text.count("\n", 0, offset) + 1
            column = offset - (text.rfind("\n", 0, offset) + 1) + 1
            expected.append((line, column))
        assert [(t.location.line, t.location.column) for t in toks] == expected

    @given(
        st.lists(
            st.sampled_from(["x", "yy", "42", ";", "\n", " ", "\n\n"]),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_token_offset_round_trips(self, parts):
        text = "".join(parts)
        source = SourceFile("r.c", text)
        try:
            toks = tokenize(source)
        except LexError:
            return
        for tok in toks:
            offset = tok.offset
            assert offset is not None
            line = text.count("\n", 0, offset) + 1
            column = offset - (text.rfind("\n", 0, offset) + 1) + 1
            assert tok.coords() == ("r.c", line, column)
            assert (tok.location.line, tok.location.column) == (line, column)

    def test_eof_token_at_end_of_text(self):
        source = SourceFile("r.c", "x\n")
        eof = tokenize(source)[-1]
        assert eof.kind is TokenKind.EOF
        assert eof.location.line == 2
        assert eof.location.column == 1
