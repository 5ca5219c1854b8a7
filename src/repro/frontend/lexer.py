"""A C lexer that preserves LCLint annotation and control comments.

Ordinary comments are discarded. Comments of the form ``/*@ ... @*/`` are
the paper's *syntactic comments*: they carry interface annotations
(``/*@null@*/``, ``/*@only@*/``) and are emitted as ``ANNOTATION`` tokens
so the parser can attach them to declarations. Comments beginning with
``/*@i`` (ignore), ``/*@-``/``/*@+`` (flag settings), or ``/*@end@*/`` are
*control comments* and are emitted as ``CONTROL`` tokens consumed by the
message-suppression machinery.

Two scanners live here:

* :class:`Lexer` — the one scanner the checker runs.  One compiled
  master regex (a single alternation covering whitespace, comments,
  identifiers, numbers, strings, chars, and every punctuator in
  reference precedence order) advances through the file match by
  match; where it matches nothing, a small miss handler finishes the
  file, reads an identifier that starts with a non-ASCII letter, or
  raises the ``LexError``.  Tokens carry a ``(source, offset)`` pair and
  compute their ``Location`` lazily.

* :class:`ReferenceLexer` — the retained character-at-a-time scanner the
  project started with.  It is the executable specification and a test
  oracle only: the parity suite asserts the two produce identical
  ``(kind, value, line, column)`` streams and identical ``LexError``
  texts, and whole-pipeline parity runs patch it in over
  ``repro.frontend.preprocessor.Lexer``.
"""

from __future__ import annotations

import re
from sys import intern as _intern

from .source import SourceFile
from .tokens import (
    KEYWORD_SPELLINGS,
    KEYWORDS,
    PUNCT_SPELLINGS,
    PUNCTUATORS,
    Token,
    TokenKind,
)


class LexError(Exception):
    """Raised on malformed input (unterminated string/comment, bad char)."""

    def __init__(self, message: str, location) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


def _is_control_payload(payload: str) -> bool:
    """Classify a ``/*@...@*/`` payload as a control comment.

    Control forms (LCLint user's guide): ``i`` / ``i<n>`` (ignore next
    message), ``ignore`` ... ``end`` (suppress a region), and ``-flag`` /
    ``+flag`` / ``=flag`` (local flag settings). Everything else — in
    particular the ``in`` definition annotation — is an annotation.
    """
    lowered = payload.lower()
    if lowered in ("ignore", "end", "i"):
        return True
    if lowered.startswith(("-", "+", "=")):
        return True
    return lowered.startswith("i") and lowered[1:].isdigit()


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _is_digit(ch: str) -> bool:
    """C's decimal digits are ASCII; ``'²'.isdigit()`` is true too."""
    return "0" <= ch <= "9"


# -- the master regex ---------------------------------------------------------
#
# One compiled pattern per token: a *skip prefix* swallows whitespace,
# backslash-newline splices, and plain (non-``@``) comments, then a
# single alternation matches the token itself. Alternatives are tried
# left to right, so ordering encodes precedence: numbers before
# punctuators (``.5`` is a float, ``.`` alone a punctuator), ``/*@``
# before the ``/`` punctuator, and the punctuator branch joins
# PUNCTUATORS in tuple order, which reproduces the reference scanner's
# first-match (longest-spelling-first) semantics exactly.

_PUNCT_PATTERN = "|".join(re.escape(p) for p in PUNCTUATORS)

# The skip loop is *possessive* (``*+``, needs Python >= 3.11): once
# whitespace or a comment is consumed the regex engine may not backtrack
# into it to manufacture a token out of comment text when nothing
# follows (e.g. a file ending in a line comment).
_SKIP_PATTERN = r"""
    (?: [ \t\r\n\f\v]+
      | \\\n
      | //[^\n]*
      | /\*(?!@)[^*]*\*+(?:[^/*][^*]*\*+)*/
    )*+
"""

# A string or character constant without its closing quote: the master
# regex adds the quote; the miss handler matches one alone to find where
# a constant that does not close stops.
_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'
_CHAR_BODY = r"'(?:[^'\\\n]|\\[\s\S])*"

MASTER_REGEX = re.compile(
    _SKIP_PATTERN
    + r"""
    (?:
      (?P<IDENT>[A-Za-z_]\w*)
    | (?P<NUMBER>
          0[xX][0-9a-fA-F]*[uUlLfF]*
        | (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[uUlLfF]*
      )
    | (?P<SPECIAL>/\*@)
    | (?P<STRING>%s")
    | (?P<CHAR>%s')
    | (?P<PUNCT>%s)
    )
    """
    % (_STRING_BODY, _CHAR_BODY, _PUNCT_PATTERN),
    re.VERBOSE,
)

_IDENT_I = MASTER_REGEX.groupindex["IDENT"]
_NUMBER_I = MASTER_REGEX.groupindex["NUMBER"]
_SPECIAL_I = MASTER_REGEX.groupindex["SPECIAL"]
_STRING_I = MASTER_REGEX.groupindex["STRING"]
_CHAR_I = MASTER_REGEX.groupindex["CHAR"]
_PUNCT_I = MASTER_REGEX.groupindex["PUNCT"]

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# The miss handler's patterns. ``\w`` is exactly ``str.isalnum`` or
# ``_``, the reference scanner's identifier-character rule.
_SKIP_REGEX = re.compile(_SKIP_PATTERN, re.VERBOSE)
_WORD_REGEX = re.compile(r"\w+")
_UNCLOSED = {
    '"': (re.compile(_STRING_BODY), "string literal"),
    "'": (re.compile(_CHAR_BODY), "character constant"),
}


class Lexer:
    """Tokenize one source file with the compiled master regex.

    The main interface is :meth:`tokens`, which returns every token in
    the file including a trailing EOF.
    """

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.text = source.text

    def tokens(self) -> list[Token]:
        text = self.text
        src = self.source
        n = len(text)
        match = MASTER_REGEX.match
        keywords = KEYWORD_SPELLINGS
        puncts = PUNCT_SPELLINGS
        intern = _intern
        find = text.find
        out: list[Token] = []
        append = out.append
        pos = 0

        ident = TokenKind.IDENT
        keyword = TokenKind.KEYWORD
        punct = TokenKind.PUNCT
        string = TokenKind.STRING
        char_const = TokenKind.CHAR_CONST

        while pos < n:
            m = match(text, pos)
            if m is None:
                pos = self._miss(out, pos)
                continue
            i = m.lastindex
            end = m.end()
            value = m.group(i)
            start = end - len(value)
            if i == _IDENT_I:
                canon = keywords.get(value)
                if canon is not None:
                    append(Token(keyword, canon, None, src, start))
                else:
                    append(
                        Token(ident, intern(value), None, src, start)
                    )
            elif i == _PUNCT_I:
                if value == "/" and text.startswith("/*", start):
                    # The comment skip failed to close: unterminated /* ... .
                    raise LexError("unterminated comment", src.location(start))
                append(Token(punct, puncts[value], None, src, start))
            elif i == _NUMBER_I:
                append(
                    Token(
                        self._number_kind(value, start),
                        value,
                        None,
                        source=src,
                        offset=start,
                    )
                )
            elif i == _STRING_I:
                append(Token(string, value, None, src, start))
            elif i == _CHAR_I:
                append(Token(char_const, value, None, src, start))
            else:  # SPECIAL: /*@ annotation or control comment
                close = find("*/", start + 3)
                if close == -1:
                    raise LexError(
                        "unterminated annotation comment", src.location(start)
                    )
                body = text[start + 3 : close]
                payload = (
                    body[:-1].strip() if body.endswith("@") else body.strip()
                )
                kind = (
                    TokenKind.CONTROL if _is_control_payload(payload)
                    else TokenKind.ANNOTATION
                )
                append(Token(kind, payload, None, src, start))
                pos = close + 2
                continue
            pos = end

        append(Token(TokenKind.EOF, "", None, src, n))
        return out

    def _number_kind(self, spelling: str, pos: int) -> TokenKind:
        """INT vs FLOAT classification, matching the reference scanner.

        Hex constants are floats only when a suffix *after* the maximal
        hex-digit run contains ``f``/``F`` (``0x1F`` is an int — the F is
        a digit; ``0x1UF`` is the reference scanner's float). A hex
        prefix with no digits at all is malformed.
        """
        if spelling[1:2] in ("x", "X"):
            i = 2
            size = len(spelling)
            while i < size and spelling[i] in _HEX_DIGITS:
                i += 1
            if i == 2:
                raise LexError(
                    "hexadecimal constant has no digits",
                    self.source.location(pos),
                )
            suffix = spelling[i:]
            if "f" in suffix or "F" in suffix:
                return TokenKind.FLOAT_CONST
            return TokenKind.INT_CONST
        for ch in spelling:
            if ch in ".eEfF":
                return TokenKind.FLOAT_CONST
        return TokenKind.INT_CONST

    def _miss(self, out: list[Token], pos: int) -> int:
        """The master regex matched nothing at *pos*.

        Past the whitespace and comments there lies the end of the file,
        an identifier that starts with a non-ASCII letter (appended), a
        string or character constant that does not close, or a character
        no token starts with (both diagnosed as the reference scanner
        does). Returns an offset beyond *pos*, or raises.
        """
        text = self.text
        src = self.source
        pos = _SKIP_REGEX.match(text, pos).end()
        if pos == len(text):
            return pos
        ch = text[pos]
        if ch.isalpha():
            end = _WORD_REGEX.match(text, pos).end()
            out.append(
                Token(TokenKind.IDENT, _intern(text[pos:end]), None, src, pos)
            )
            return end
        if ch in _UNCLOSED:
            body, what = _UNCLOSED[ch]
            end = body.match(text, pos).end()
            problem = "newline in" if text.startswith("\n", end) else "unterminated"
            raise LexError(f"{problem} {what}", src.location(pos))
        raise LexError(f"unexpected character {ch!r}", src.location(pos))


class ReferenceLexer:
    """The retained character-at-a-time scanner (executable specification).

    Kept from the original implementation apart from two fixes shared
    with the production scanner: a hex prefix without digits is a
    ``LexError``, and digits are ASCII. A test oracle: nothing on the
    checking path builds it.
    """

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.text = source.text
        self.pos = 0

    # -- helpers ---------------------------------------------------------

    def _loc(self, offset: int | None = None):
        return self.source.location(self.pos if offset is None else offset)

    def _peek(self, ahead: int = 0) -> str:
        idx = self.pos + ahead
        # A sentinel (rather than "") keeps `self._peek() in "abc"` safe:
        # the empty string is a member of every string.
        return self.text[idx] if idx < len(self.text) else "\x00"

    def _starts_with(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)

    # -- scanning --------------------------------------------------------

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    def next_token(self) -> Token:
        self._skip_whitespace_and_plain_comments()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", source=self.source, offset=self.pos)

        start = self.pos
        ch = self._peek()

        if self._starts_with("/*@"):
            return self._scan_special_comment()
        if _is_ident_start(ch):
            return self._scan_identifier()
        if _is_digit(ch) or (ch == "." and _is_digit(self._peek(1))):
            return self._scan_number()
        if ch == '"':
            return self._scan_string()
        if ch == "'":
            return self._scan_char()
        for punct in PUNCTUATORS:
            if self._starts_with(punct):
                self.pos += len(punct)
                return Token(
                    TokenKind.PUNCT,
                    PUNCT_SPELLINGS[punct],
                    source=self.source,
                    offset=start,
                )
        raise LexError(f"unexpected character {ch!r}", self._loc(start))

    def _skip_whitespace_and_plain_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif self._starts_with("/*@"):
                return
            elif self._starts_with("/*"):
                end = self.text.find("*/", self.pos + 2)
                if end == -1:
                    raise LexError("unterminated comment", self._loc())
                self.pos = end + 2
            elif self._starts_with("//"):
                end = self.text.find("\n", self.pos)
                self.pos = len(self.text) if end == -1 else end
            elif ch == "\\" and self._peek(1) == "\n":
                self.pos += 2
            else:
                return

    def _scan_special_comment(self) -> Token:
        start = self.pos
        end = self.text.find("*/", self.pos + 3)
        if end == -1:
            raise LexError("unterminated annotation comment", self._loc())
        body = self.text[self.pos + 3 : end]
        self.pos = end + 2
        # Annotation comments conventionally end with '@': /*@null@*/.
        payload = body[:-1].strip() if body.endswith("@") else body.strip()
        kind = (
            TokenKind.CONTROL
            if _is_control_payload(payload)
            else TokenKind.ANNOTATION
        )
        return Token(kind, payload, source=self.source, offset=start)

    def _scan_identifier(self) -> Token:
        start = self.pos
        while self.pos < len(self.text) and _is_ident_char(self._peek()):
            self.pos += 1
        spelling = self.text[start : self.pos]
        if spelling in KEYWORDS:
            return Token(
                TokenKind.KEYWORD,
                KEYWORD_SPELLINGS[spelling],
                source=self.source,
                offset=start,
            )
        return Token(
            TokenKind.IDENT, _intern(spelling), source=self.source, offset=start
        )

    def _scan_number(self) -> Token:
        start = self.pos
        is_float = False
        if self._starts_with("0x") or self._starts_with("0X"):
            self.pos += 2
            digits = 0
            while self.pos < len(self.text) and self._peek() in "0123456789abcdefABCDEF":
                self.pos += 1
                digits += 1
            if digits == 0:
                raise LexError(
                    "hexadecimal constant has no digits", self._loc(start)
                )
        else:
            while self.pos < len(self.text) and _is_digit(self._peek()):
                self.pos += 1
            if self._peek() == ".":
                is_float = True
                self.pos += 1
                while self.pos < len(self.text) and _is_digit(self._peek()):
                    self.pos += 1
            if self._peek() in "eE" and (
                _is_digit(self._peek(1))
                or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
            ):
                is_float = True
                self.pos += 1
                if self._peek() in "+-":
                    self.pos += 1
                while self.pos < len(self.text) and _is_digit(self._peek()):
                    self.pos += 1
        while self._peek() in "uUlLfF":
            if self._peek() in "fF":
                is_float = True
            self.pos += 1
        spelling = self.text[start : self.pos]
        kind = TokenKind.FLOAT_CONST if is_float else TokenKind.INT_CONST
        return Token(kind, spelling, source=self.source, offset=start)

    def _scan_string(self) -> Token:
        start = self.pos
        self.pos += 1
        while True:
            if self.pos >= len(self.text):
                raise LexError("unterminated string literal", self._loc(start))
            ch = self._peek()
            if ch == "\\":
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                break
            elif ch == "\n":
                raise LexError("newline in string literal", self._loc(start))
            else:
                self.pos += 1
        return Token(
            TokenKind.STRING,
            self.text[start : self.pos],
            source=self.source,
            offset=start,
        )

    def _scan_char(self) -> Token:
        start = self.pos
        self.pos += 1
        while True:
            if self.pos >= len(self.text):
                raise LexError(
                    "unterminated character constant", self._loc(start)
                )
            ch = self._peek()
            if ch == "\\":
                self.pos += 2
            elif ch == "'":
                self.pos += 1
                break
            elif ch == "\n":
                raise LexError(
                    "newline in character constant", self._loc(start)
                )
            else:
                self.pos += 1
        return Token(
            TokenKind.CHAR_CONST,
            self.text[start : self.pos],
            source=self.source,
            offset=start,
        )


def tokenize(source: SourceFile) -> list[Token]:
    """Convenience wrapper: lex an entire :class:`SourceFile`."""
    return Lexer(source).tokens()


def reference_tokenize(source: SourceFile) -> list[Token]:
    """Lex with the retained reference scanner (parity/spec baseline)."""
    return ReferenceLexer(source).tokens()
