"""C frontend: sources, preprocessing, lexing, parsing, types, symbols."""

from __future__ import annotations

from . import cast
from .lexer import LexError, Lexer, tokenize
from .parser import ParseError, Parser
from .preprocessor import PreprocessError, Preprocessor
from .source import BUILTIN_LOCATION, Location, SourceFile, SourceManager
from .symtab import FunctionSignature, GlobalVariable, SymbolTable
from .tokens import Token, TokenKind

__all__ = [
    "cast",
    "LexError",
    "Lexer",
    "tokenize",
    "ParseError",
    "Parser",
    "PreprocessError",
    "Preprocessor",
    "BUILTIN_LOCATION",
    "Location",
    "SourceFile",
    "SourceManager",
    "FunctionSignature",
    "GlobalVariable",
    "SymbolTable",
    "Token",
    "TokenKind",
    "parse_source",
]


def parse_source(
    text: str,
    name: str = "<string>",
    sources: SourceManager | None = None,
    defines: dict[str, str] | None = None,
    system_headers: dict[str, str] | None = None,
):
    """Preprocess and parse C source text into a translation unit.

    Returns ``(unit, control_tokens, annotation_problems)``.
    """
    manager = sources or SourceManager()
    pp = Preprocessor(manager, defines=defines, system_headers=system_headers)
    toks = pp.preprocess_text(text, name)
    parser = Parser(toks, name)
    unit = parser.parse_translation_unit()
    return unit, parser.controls, parser.problems
