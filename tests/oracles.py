"""Swap the retained reference engines in for whole checks.

The checker lexes with :class:`repro.frontend.lexer.Lexer` and parses
with :class:`repro.frontend.parser.Parser` only; the reference scanner
and the reference expression cascade are test oracles. These context
managers patch an oracle in where the checking path looks its engine
up, so a parity test can run a whole check against it.
"""

from contextlib import contextmanager
from unittest import mock

from repro.frontend.lexer import ReferenceLexer, reference_tokenize
from repro.frontend.parser import ReferenceParser


@contextmanager
def reference_lexer():
    """Lex every file, macro body and pasted token with the reference
    scanner."""
    with mock.patch("repro.frontend.preprocessor.Lexer", ReferenceLexer), \
            mock.patch(
                "repro.frontend.preprocessor.tokenize", reference_tokenize
            ):
        yield


@contextmanager
def reference_parser():
    """Parse every unit and every ``#if`` line with the reference
    expression cascade."""
    with mock.patch("repro.incremental.engine.Parser", ReferenceParser), \
            mock.patch("repro.frontend.preprocessor.Parser", ReferenceParser):
        yield
