"""The checker never builds a reference engine.

The retained reference scanner (:class:`ReferenceLexer`) and expression
cascade (:class:`ReferenceParser`) are test oracles only. With their
constructors made to fail, cold checks of examples/db, of a generated
20k-line program and of an ``#if`` line, and the lexing of every input
of the lexer's error table, go exactly as usual.
"""

import pytest

from repro.bench.dbexample import db_sources
from repro.bench.generator import generate_program_of_size
from repro.core.api import Checker
from repro.frontend.lexer import LexError, ReferenceLexer, tokenize
from repro.frontend.parser import ReferenceParser
from repro.frontend.source import SourceFile
from repro.incremental import IncrementalChecker, ResultCache
from tests.unit.test_lexer import LEX_ERROR_TABLE


@pytest.fixture()
def oracles_refused(monkeypatch):
    """Make building either oracle fail; returns the names of those a
    caller tried to build (a contained failure still lands here)."""
    built = []

    def refuse(self, *args, **kwargs):
        built.append(type(self).__name__)
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(ReferenceLexer, "__init__", refuse)
    monkeypatch.setattr(ReferenceParser, "__init__", refuse)
    return built


def _assert_clean_run(result) -> None:
    assert result.internal_errors == 0
    assert result.degraded_units == []


def test_cold_checks_build_no_oracle(oracles_refused, tmp_path):
    db = db_sources()
    _assert_clean_run(Checker().check_sources(dict(db)))
    cached = IncrementalChecker(cache=ResultCache(str(tmp_path / "c")))
    _assert_clean_run(cached.check_sources(dict(db)))
    program = generate_program_of_size(20000, seed=1).files
    _assert_clean_run(Checker().check_sources(dict(program)))
    result = Checker().check_sources(
        {"if.c": "#if 1 + 2 * 3 == 7 && 8 >> 1 == 4\nint x;\n#endif\n"}
    )
    _assert_clean_run(result)
    assert result.symtab.global_var("x") is not None
    assert oracles_refused == []


@pytest.mark.parametrize("text,expected", LEX_ERROR_TABLE)
def test_lex_errors_build_no_oracle(oracles_refused, text, expected):
    with pytest.raises(LexError) as exc:
        tokenize(SourceFile("t.c", text))
    assert str(exc.value) == expected
    assert oracles_refused == []
