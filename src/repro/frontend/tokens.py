"""Token kinds for the C lexer.

The lexer produces ordinary C tokens plus two kinds the paper's system
depends on: ``ANNOTATION`` for ``/*@ ... @*/`` syntactic comments and
``CONTROL`` for stylized control comments (message suppression and local
flag settings, paper sections 2 and 7).

``Token`` is deliberately not a dataclass: it is the single most
allocated object in a cold check, so it uses ``__slots__`` and computes
its :class:`~repro.frontend.source.Location` lazily from a
``(source, offset)`` pair.  Most tokens — everything the parser skips
over, everything that only feeds the fingerprint digest — never
materialize a ``Location`` at all.
"""

from __future__ import annotations

import enum
from sys import intern as _intern

from .source import Location, SourceFile


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_CONST = "integer constant"
    FLOAT_CONST = "floating constant"
    CHAR_CONST = "character constant"
    STRING = "string literal"
    PUNCT = "punctuator"
    ANNOTATION = "annotation comment"
    CONTROL = "control comment"
    EOF = "end of file"


#: C89 keywords plus the handful of C99 ones that show up in real headers.
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef",
        "union", "unsigned", "void", "volatile", "while",
    }
)

#: Multi-character punctuators, longest first so the lexer can greedily match.
PUNCTUATORS = (
    "<<=", ">>=", "...", "##", "#",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "~",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "^", "|", ".",
)

#: Canonical interned spellings.  Tokens for keywords and punctuators all
#: share one string object per spelling, so downstream ``==`` checks are
#: usually pointer comparisons and dict lookups hash a cached value.
KEYWORD_SPELLINGS: dict[str, str] = {kw: _intern(kw) for kw in KEYWORDS}
PUNCT_SPELLINGS: dict[str, str] = {p: _intern(p) for p in PUNCTUATORS}


class Token:
    """A lexical token with its spelling and (lazily computed) location.

    A token is backed either by a precomputed ``Location`` (preprocessor
    output: macro-expansion tokens carry the location of the macro use)
    or by a ``(source, offset)`` pair from the lexer, in which case the
    ``Location`` is built on first access and cached.
    """

    __slots__ = ("kind", "value", "_location", "_source", "_offset", "_fp")

    def __init__(
        self,
        kind: TokenKind,
        value: str,
        location: Location | None = None,
        source: SourceFile | None = None,
        offset: int = -1,
    ) -> None:
        self.kind = kind
        self.value = value
        self._location = location
        self._source = source
        self._offset = offset
        # ``_fp`` caches this token's fingerprint bytes (see
        # ``incremental.fingerprint.unit_digests``). Header tokens are
        # shared across every including unit via the preprocessor's
        # per-file token cache, so the cache turns the dominant digest
        # cost from per-unit into per-batch.
        self._fp: bytes | None = None

    # -- location access --------------------------------------------------

    @property
    def location(self) -> Location:
        loc = self._location
        if loc is None:
            loc = self._source.location(self._offset)
            self._location = loc
        return loc

    @property
    def line(self) -> int:
        """1-based line number, computed without allocating a Location."""
        loc = self._location
        if loc is not None:
            return loc.line
        return self._source.line_of(self._offset)

    @property
    def offset(self) -> int | None:
        """Character offset into the backing source, if lexer-produced."""
        return self._offset if self._offset >= 0 else None

    def coords(self) -> tuple[str, int, int]:
        """``(filename, line, column)`` without allocating a Location."""
        loc = self._location
        if loc is not None:
            return loc.filename, loc.line, loc.column
        return self._source.coords(self._offset)

    # -- predicates --------------------------------------------------------

    def is_punct(self, spelling: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == spelling

    def is_keyword(self, spelling: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == spelling

    # -- protocol ----------------------------------------------------------

    def __str__(self) -> str:
        return self.value if self.kind is not TokenKind.EOF else "<eof>"

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.location})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.value == other.value
            and self.coords() == other.coords()
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    # Pickled tokens materialize their location and drop the source
    # reference so the whole file text does not ride along with every
    # token.

    def __getstate__(self):
        return (self.kind, self.value, self.location)

    def __setstate__(self, state) -> None:
        self.kind, self.value, self._location = state
        self._source = None
        self._offset = -1
        self._fp = None
