"""Parity suite: the precedence-climbing expression core against the
reference.

The cold-path overhaul replaced the parser's layered binary-expression
cascade (one recursive function per precedence level) with a single
table-driven precedence-climbing loop. The retained cascade,
:class:`ReferenceParser`, is the executable specification and a test
oracle only: these tests build it directly, and the whole-unit tests
patch it in over the checker's parser and the preprocessor's ``#if``
parser. They assert that both build structurally identical ASTs
(dataclass ``repr`` equality, which covers every node field including
operator spellings and source locations) with identical recovery
behaviour — on hypothesis-generated C-ish expression soup, adversarial
hand-picked fragments, ``#if`` lines, and every unit of the real
``examples/db`` tree.

Mirrors ``tests/property/test_lexer_parity.py``, one layer up.
"""

from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import Checker
from repro.frontend.lexer import LexError, tokenize
from repro.frontend.parser import ParseError, Parser, ReferenceParser
from repro.frontend.preprocessor import PreprocessError, Preprocessor
from repro.frontend.source import SourceFile, SourceManager
from tests.oracles import reference_parser

EXAMPLES_DB = Path(__file__).resolve().parents[2] / "examples" / "db"


def _parse_with(parser_class, text: str):
    """Parse ``text`` as a translation unit with *parser_class*.

    Returns ``(repr(unit), error_strings)`` — the AST's dataclass repr
    is a deep structural fingerprint (node types, fields, operator
    spellings, locations) — or ``(None, [message])`` when the frontend
    rejected the input entirely.
    """
    try:
        toks = tokenize(SourceFile("p.c", text))
        parser = parser_class(toks, "p.c")
        unit = parser.parse_translation_unit()
    except (LexError, ParseError) as exc:
        return None, [str(exc)]
    errors = [str(e) for e in parser.parse_errors]
    return repr(unit), errors


def assert_parser_parity(text: str) -> None:
    climbing = _parse_with(Parser, text)
    reference = _parse_with(ReferenceParser, text)
    assert climbing == reference, text


# -- hypothesis-generated C-ish inputs ---------------------------------------

# Atoms and operators biased toward the rewritten code paths: binary
# operator chains across every precedence level, ternaries, casts,
# postfix chains, and assignment operators.
_ATOMS = st.sampled_from(
    ["x", "y", "_z", "f(1)", "g(x, y)", "a[i]", "s.f", "p->n",
     "42", "0x1F", "'c'", "\"s\"", "1.5", "sizeof(int)", "sizeof x",
     "(int) x", "(char *) p", "*p", "&x", "!x", "~x", "-x", "+x",
     "++x", "x++", "--y", "y--"]
)

_BINOPS = st.sampled_from(
    ["+", "-", "*", "/", "%", "<<", ">>", "<", ">", "<=", ">=",
     "==", "!=", "&", "^", "|", "&&", "||", ","]
)

_ASSIGNS = st.sampled_from(
    ["=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="]
)


@st.composite
def _expressions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    parts = [draw(_ATOMS)]
    for _ in range(n - 1):
        parts.append(draw(_BINOPS))
        parts.append(draw(_ATOMS))
    expr = " ".join(parts)
    if draw(st.booleans()):
        expr = f"{draw(_ATOMS)} ? {expr} : {draw(_ATOMS)}"
    if draw(st.booleans()):
        expr = f"x {draw(_ASSIGNS)} {expr}"
    return expr


@st.composite
def _functions(draw):
    exprs = draw(st.lists(_expressions(), min_size=1, max_size=4))
    body = "".join(f"  {e};\n" for e in exprs)
    return (
        "struct s { int f; struct s *n; };\n"
        "int f(int x, int y, char *p) {\n"
        f"{body}"
        "  return x;\n"
        "}\n"
    )


class TestHypothesisParity:
    @given(_functions())
    @settings(max_examples=200, deadline=None)
    def test_expression_soup_parity(self, text):
        assert_parser_parity(text)

    @given(
        st.lists(
            st.sampled_from(
                ["x", "+", "*", "?", ":", "(", ")", "=", "42", ";",
                 "int", "if", "{", "}", "&&", ","]
            ),
            max_size=25,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_token_soup_parity(self, parts):
        """Malformed input: identical recovery, errors, and AST."""
        assert_parser_parity(
            "int f(void) { " + " ".join(parts) + " ; return 0; }"
        )


class TestAdversarialFragments:
    FRAGMENTS = [
        # Precedence and associativity edges across the table.
        "int f(void) { return 1 + 2 * 3 - 4 / 5 % 6; }",
        "int f(void) { return 1 << 2 >> 3 << 4; }",
        "int f(void) { return 1 < 2 == 3 > 4 != 5 <= 6; }",
        "int f(void) { return 1 & 2 ^ 3 | 4 && 5 || 6; }",
        "int f(int a, int b) { return a = b = a + 1; }",
        "int f(int a) { return a ? a ? 1 : 2 : a ? 3 : 4; }",
        "int f(int a) { return a, a + 1, a + 2; }",
        # Cast / unary / postfix interleavings.
        "int f(char *p) { return *(int *) p + sizeof(int) * 2; }",
        "int f(int x) { return -x - -x - - -x; }",
        "int f(int *p) { return *p++ + ++*p; }",
        "int f(int a) { return (a) + (a)(1); }",  # call vs paren
        # Declarations with initializer expressions.
        "int g = 1 + 2 * 3;",
        "int h[3] = {1, 2 & 3, 4 | 5};",
        # Recovery: the engines must fail identically too.
        "int f(void) { return 1 + ; }",
        "int f(void) { return (1 + 2; }",
        "int f(void) { 1 ? 2 ; }",
    ]

    @pytest.mark.parametrize("text", FRAGMENTS)
    def test_fragment_parity(self, text):
        assert_parser_parity(text)


def _preprocess_with(engines, text: str):
    """The preprocessed stream of ``text`` under *engines*, or the
    ``PreprocessError`` text."""
    with engines:
        try:
            toks = Preprocessor(SourceManager()).preprocess_text(text, "p.c")
        except PreprocessError as exc:
            return str(exc)
    return [(t.kind, t.value) + t.coords()[1:] for t in toks]


def assert_if_parity(text: str) -> None:
    climbing = _preprocess_with(nullcontext(), text)
    reference = _preprocess_with(reference_parser(), text)
    assert climbing == reference, text


_IF_ATOMS = st.sampled_from(
    ["0", "1", "2", "7", "0x10", "'a'", "-1", "(3)", "!0", "~1", "N",
     "defined(N)", "undefined_name"]
)


@st.composite
def _if_lines(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    parts = [draw(_IF_ATOMS)]
    for _ in range(n - 1):
        parts.append(draw(_BINOPS))
        parts.append(draw(_IF_ATOMS))
    expr = " ".join(parts)
    if draw(st.booleans()):
        expr = f"{draw(_IF_ATOMS)} ? {expr} : {draw(_IF_ATOMS)}"
    return f"#define N 4\n#if {expr}\nyes\n#else\nno\n#endif\n"


class TestIfLineParity:
    """``#if`` lines are parsed as conditional expressions and folded:
    the same branch, or the same error, under both expression cores."""

    @given(_if_lines())
    @settings(max_examples=200, deadline=None)
    def test_if_expression_soup_parity(self, text):
        assert_if_parity(text)

    @pytest.mark.parametrize("text", [
        "#if 1 + 2 * 3 == 7\nyes\n#else\nno\n#endif\n",
        "#if 1 << 2 >> 1 == 2 && 3 | 4 ^ 5 & 6\na\n#endif\n",
        "#if (1 ? 2 : 3) - 2 || 0\na\n#elif 4 % 3 != 1\nb\n#else\nc\n#endif\n",
        "#if 1 +\n#endif\n",
        "#if 1 2\n#endif\n",
        "#if 1 << -1\n#endif\n",
        "#if 1 / 0\n#endif\n",
    ])
    def test_if_fragment_parity(self, text):
        assert_if_parity(text)

    def test_swap_reaches_both_parsers(self, monkeypatch):
        built = []
        real = ReferenceParser.__init__
        monkeypatch.setattr(
            ReferenceParser, "__init__",
            lambda self, *a, **k: built.append(a[1:2]) or real(self, *a, **k),
        )
        with reference_parser():
            pu = Checker().parse_unit("#if 2 > 1\nint x = 1 + 2;\n#endif\n",
                                      "t.c")
        assert pu.fatal_error is None and not pu.parse_errors
        assert built == [(), ("t.c",)]


class TestExamplesDbParity:
    """Every unit of the paper's real program, fully preprocessed."""

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES_DB.glob("*.c")), ids=lambda p: p.name
    )
    def test_db_unit_parity(self, path):
        headers = {p.name: p.read_text(encoding="utf-8")
                   for p in EXAMPLES_DB.glob("*.h")}
        text = path.read_text(encoding="utf-8")
        results = []
        for engines in (nullcontext(), reference_parser()):
            with engines:
                checker = Checker()
                for name, htext in headers.items():
                    checker.sources.add(name, htext)
                pu = checker.parse_unit(text, path.name)
            results.append((
                repr(pu.unit),
                dict(pu.enum_consts),
                [str(e) for e in pu.parse_errors],
                pu.fatal_error is None,
            ))
        assert results[0] == results[1], path.name

    def test_db_units_found(self):
        assert len(list(EXAMPLES_DB.glob("*.c"))) >= 5
