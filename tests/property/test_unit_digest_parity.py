"""``unit_digests`` against ``token_stream_digest``.

``unit_digests`` reads each lexer token's line and column through a
cursor over its source's line starts; ``token_stream_digest`` asks every
token for ``coords()``. Their token digests must be equal on every
stream: a unit's own tokens, included headers and back, macro tokens
that carry the use site's ``Location``, tokens out of offset order, and
random token soup. Each case digests fresh tokens, since ``unit_digests``
memoizes a token's bytes on the token.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.dbexample import db_sources
from repro.bench.generator import generate_program
from repro.frontend.lexer import tokenize
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.source import Location, SourceFile, SourceManager
from repro.frontend.tokens import Token, TokenKind
from repro.incremental.fingerprint import token_stream_digest, unit_digests
from repro.stdlib.specs import (
    PRELUDE_COVERED_HEADERS, PRELUDE_DEFINES, SYSTEM_HEADERS,
)


def assert_same_digest(tokens):
    assert all(tok._fp is None for tok in tokens)
    expected = token_stream_digest(tokens)
    assert unit_digests(tokens)[0] == expected
    # A second pass reads the memoized bytes and agrees too.
    assert unit_digests(tokens)[0] == expected


def unit_streams(files, defines=None):
    """Each ``.c`` unit's preprocessed tokens, fresh per unit."""
    for name in sorted(files):
        if not name.endswith(".c"):
            continue
        sources = SourceManager()
        for fname, text in files.items():
            sources.add(fname, text)
        macros = dict(PRELUDE_DEFINES)
        macros.update(defines or {})
        pp = Preprocessor(
            sources, defines=macros, system_headers=SYSTEM_HEADERS,
            prelude_covered=PRELUDE_COVERED_HEADERS,
        )
        yield name, pp.preprocess_text(files[name], name)


@pytest.mark.parametrize("stage", [1, 4])
def test_db_units(stage):
    for _, tokens in unit_streams(db_sources(stage)):
        assert_same_digest(tokens)


def test_generated_units_with_command_line_macros():
    files = generate_program(modules=3, filler_functions=2, seed=11).files
    defines = {"acc": "acc", "total": "(total)", "head": "head + 0"}
    macro_tokens = 0
    for _, tokens in unit_streams(files, defines):
        macro_tokens += sum(tok._source is None for tok in tokens)
        assert_same_digest(tokens)
    assert macro_tokens > 100  # the macros did expand


def test_a_stream_that_moves_between_a_header_and_the_unit():
    files = {
        "h.h": "int h1;\n\nint h2;\n#define TWICE(x) ((x) + (x))\n",
        "g.h": "long g1;\n",
        "u.c": (
            "int a;\n#include \"h.h\"\nint b = TWICE(a);\n"
            "#include \"g.h\"\n\n  int c;\n#include \"h.h\"\nint d;\n"
        ),
    }
    [(_, tokens)] = unit_streams(files)
    names = [tok.coords()[0] for tok in tokens]
    assert names.count("u.c") and names.count("h.h") and names.count("g.h")
    switches = sum(a != b for a, b in zip(names, names[1:]))
    assert switches >= 4
    assert_same_digest(tokens)


def test_tokens_out_of_offset_order():
    source = SourceFile("o.c", "int a;\nint b;\n\nint c;\n")
    tokens = tokenize(source)
    # Backwards within one file, then forwards again, then the start.
    shuffled = tokens[6:9] + tokens[0:3] + tokens[9:] + tokens[3:6]
    fresh = tokenize(SourceFile("o.c", source.text))
    order = [tokens.index(tok) for tok in shuffled]
    assert_same_digest([fresh[i] for i in order])


# -- token soup ---------------------------------------------------------------

_TEXTS = ["", "x", "a\nb", "\n\n\n", "int x;\n  y = 2;\nz\n", "ab\n\ncd\nef"]
_KINDS = [TokenKind.IDENT, TokenKind.PUNCT, TokenKind.INT_CONST,
          TokenKind.ANNOTATION, TokenKind.CONTROL, TokenKind.EOF]


@st.composite
def _token_soup(draw):
    texts = draw(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=3))
    sources = [SourceFile(f"s{i}.c", text) for i, text in enumerate(texts)]
    spec = draw(st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.sampled_from(["x", "{", "}", ")", "globals g", "7"]),
            st.integers(0, len(sources) - 1),
            st.integers(0, 40),
            st.booleans(),  # carries its own Location (a macro token)
        ),
        max_size=40,
    ))
    tokens = []
    for kind, value, which, offset, placed in spec:
        source = sources[which]
        offset = min(offset, len(source.text))
        if placed:
            line = source.line_of(offset)
            tokens.append(Token(kind, value, Location("m.h", line, offset)))
        else:
            tokens.append(Token(kind, value, source=source, offset=offset))
    return tokens


@given(_token_soup())
@settings(max_examples=300, deadline=None)
def test_token_soup(tokens):
    assert_same_digest(tokens)
