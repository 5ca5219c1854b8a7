"""A token-stream C preprocessor.

Supports the directive subset that the paper's programs (and the
reconstructed employee-database example) need: ``#include`` against a
:class:`~repro.frontend.source.SourceManager`, object-like and
function-like ``#define`` / ``#undef``, the full conditional family
(``#if`` / ``#ifdef`` / ``#ifndef`` / ``#elif`` / ``#else`` / ``#endif``;
the parser reads and folds each ``#if`` expression), and ``#error``.
``#pragma`` and ``#line`` are accepted and ignored.

Tokens keep their original source locations; tokens produced by macro
expansion carry the location of the macro *use*, which is where LCLint
reports anomalies detected inside macros (paper section 6 reports an
anomaly "in the macro definition of erc_choose" at its use site).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .arith import ArithmeticFault
from .lexer import Lexer, tokenize
from .parser import ParseError, Parser
from .source import Location, SourceFile, SourceManager
from .tokens import Token, TokenKind


class PreprocessError(Exception):
    def __init__(self, message: str, location: Location) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass
class Macro:
    name: str
    params: list[str] | None  # None => object-like
    body: list[Token]
    variadic: bool = False


class _TokenCursor:
    """Sequential reader over a token list (no EOF sentinel required)."""

    def __init__(self, toks: list[Token]) -> None:
        self.toks = toks
        self.idx = 0

    def peek(self, ahead: int = 0) -> Token | None:
        idx = self.idx + ahead
        return self.toks[idx] if idx < len(self.toks) else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def at_end(self) -> bool:
        return self.idx >= len(self.toks)


def resolve_include(
    sources: SourceManager,
    system_headers: dict[str, str],
    directory: str,
    header: str,
    angled: bool,
) -> SourceFile | None:
    """The file ``#include "header"`` (*angled*: ``<header>``) names from
    a file in *directory*, or ``None``. A quoted header is the registered
    file of that name, else the registered file or the file on disk at
    *directory*/*header*, else *header* on disk from the working
    directory; then either kind is the system header, then (angled) the
    registered file of that name. Disk reads are never registered
    (:meth:`SourceManager.read`): one unit's lookup changes no other's."""
    if not angled:
        sibling = os.path.join(directory, header)
        found = (
            sources.get(header) or sources.get(sibling)
            or sources.read(sibling) or sources.read(header)
        )
        if found is not None:
            return found
    if header in system_headers:
        synthetic = f"<{header}>"
        return sources.get(synthetic) or sources.add(
            synthetic, system_headers[header]
        )
    return sources.get(header)


class Preprocessor:
    """Expand one entry file into a flat token stream."""

    MAX_INCLUDE_DEPTH = 64

    def __init__(
        self,
        sources: SourceManager,
        defines: dict[str, str] | None = None,
        system_headers: dict[str, str] | None = None,
        prelude_covered: frozenset[str] = frozenset(),
        resolved: dict | None = None,
    ) -> None:
        self.sources = sources
        self.macros: dict[str, Macro] = {}
        self.system_headers = dict(system_headers or {})
        # System headers whose declarations the caller guarantees are
        # already in the program symbol table (the parsed prelude).
        # Including one is recorded in `followed` but splices
        # no tokens; see stdlib.specs.PRELUDE_COVERED_HEADERS.
        self.prelude_covered = prelude_covered
        self._included: set[str] = set()
        #: (directory, header, angled) -> the file that ``#include``
        #: names (see :func:`resolve_include`); the preprocessors of one
        #: run share it, so each include is resolved once per run.
        self.resolved = {} if resolved is None else resolved
        #: The includes this unit followed, in order, each once.
        self.followed: dict[tuple[str, str, bool], SourceFile] = {}
        #: Seconds spent inside the lexer (profiling; cache hits cost 0).
        self.lex_s = 0.0
        for name, value in (defines or {}).items():
            body_src = SourceFile("<cmdline>", value)
            body = [t for t in tokenize(body_src) if t.kind is not TokenKind.EOF]
            self.macros[name] = Macro(name, None, body)

    # -- public entry points ----------------------------------------------

    def preprocess_text(self, text: str, name: str = "<string>") -> list[Token]:
        """Preprocess one unit's *text* into tokens (EOF appended). The
        unit is not registered: it is no ``#include`` target."""
        out = self._process_file(SourceFile(name, text), depth=0)
        eof_loc = out[-1].location if out else Location(name, 1, 1)
        out.append(Token(TokenKind.EOF, "", eof_loc))
        return out

    # -- file / line processing ---------------------------------------------

    def _resolve(
        self, directory: str, header: str, angled: bool
    ) -> SourceFile | None:
        key = (directory, header, angled)
        if key not in self.resolved:
            self.resolved[key] = resolve_include(
                self.sources, self.system_headers, *key
            )
        source = self.resolved[key]
        if source is not None:
            self.followed.setdefault(key, source)
        return source

    def _process_file(self, source: SourceFile, depth: int) -> list[Token]:
        if depth > self.MAX_INCLUDE_DEPTH:
            raise PreprocessError(
                f"include depth exceeds {self.MAX_INCLUDE_DEPTH}",
                Location(source.name, 1, 1),
            )
        # Token lists are immutable; the source manager keeps an included
        # file's tokens so a header several units include lexes once. A
        # unit's own text is a new source on every preprocess_text call,
        # so its tokens are not kept.
        raw = self.sources.lexed(source) if depth else None
        if raw is None:
            t0 = time.perf_counter()
            raw = [t for t in Lexer(source).tokens()
                   if t.kind is not TokenKind.EOF]
            self.lex_s += time.perf_counter() - t0
            if depth:
                self.sources.keep_lexed(source, raw)
        # Fast path: a file with no directives and no identifier naming a
        # defined macro passes through verbatim — no line splitting, no
        # expansion cursors. (Without directives the macro table cannot
        # change mid-file, so one up-front set-membership pregate is
        # sound.)
        macros = self.macros
        has_directive = False
        mentions_macro = False
        punct = TokenKind.PUNCT
        ident = TokenKind.IDENT
        for tok in raw:
            kind = tok.kind
            if kind is ident:
                if tok.value in macros:
                    mentions_macro = True
                    break
            elif kind is punct and tok.value == "#":
                has_directive = True
                break
        if not has_directive and not mentions_macro:
            return list(raw)
        lines = _split_lines(raw)
        out: list[Token] = []
        # Conditional stack entries: (taking, taken_any, seen_else).
        cond: list[list[bool]] = []

        for line in lines:
            if line and line[0].is_punct("#"):
                self._directive(line, out, cond, depth)
                continue
            if all(frame[0] for frame in cond):
                out.extend(self._expand(line))
        if cond:
            raise PreprocessError("unterminated conditional", lines[-1][0].location)
        return out

    def _directive(
        self,
        line: list[Token],
        out: list[Token],
        cond: list[list[bool]],
        depth: int,
    ) -> None:
        loc = line[0].location
        if len(line) == 1:
            return  # null directive
        head = line[1]
        name = head.value
        rest = line[2:]
        active = all(frame[0] for frame in cond)

        if name == "ifdef" or name == "ifndef":
            defined = bool(rest) and rest[0].value in self.macros
            value = defined if name == "ifdef" else not defined
            cond.append([active and value, active and value, False])
        elif name == "if":
            value = bool(self._eval_condition(rest, loc)) if active else False
            cond.append([active and value, active and value, False])
        elif name == "elif":
            if not cond:
                raise PreprocessError("#elif without #if", loc)
            frame = cond.pop()
            outer_active = all(f[0] for f in cond)
            if frame[2]:
                raise PreprocessError("#elif after #else", loc)
            if frame[1] or not outer_active:
                cond.append([False, frame[1], False])
            else:
                value = bool(self._eval_condition(rest, loc))
                cond.append([value, value, False])
        elif name == "else":
            if not cond:
                raise PreprocessError("#else without #if", loc)
            frame = cond.pop()
            outer_active = all(f[0] for f in cond)
            if frame[2]:
                raise PreprocessError("duplicate #else", loc)
            cond.append([outer_active and not frame[1], True, True])
        elif name == "endif":
            if not cond:
                raise PreprocessError("#endif without #if", loc)
            cond.pop()
        elif not active:
            return
        elif name == "define":
            self._define(rest, loc)
        elif name == "undef":
            if rest:
                self.macros.pop(rest[0].value, None)
        elif name == "include":
            self._include(rest, out, loc, depth)
        elif name == "error":
            text = " ".join(t.value for t in rest)
            raise PreprocessError(f"#error {text}", loc)
        elif name in ("pragma", "line"):
            return
        else:
            raise PreprocessError(f"unknown directive #{name}", loc)

    def _include(
        self, rest: list[Token], out: list[Token], loc: Location, depth: int
    ) -> None:
        if not rest:
            raise PreprocessError("#include expects a header name", loc)
        if rest[0].kind is TokenKind.STRING:
            header = rest[0].value[1:-1]
            angled = False
        elif rest[0].is_punct("<"):
            header = "".join(t.value for t in rest[1:-1])
            if not rest[-1].is_punct(">"):
                raise PreprocessError("malformed #include <...>", loc)
            angled = True
        else:
            raise PreprocessError("malformed #include", loc)
        source = self._resolve(os.path.dirname(loc.filename), header, angled)
        if source is None:
            raise PreprocessError(f"cannot find include file {header!r}", loc)
        if source.name in self._included:
            return  # every include behaves as if guarded; headers here are interfaces
        self._included.add(source.name)
        if header in self.prelude_covered and source.name == f"<{header}>":
            return  # declarations already provided by the parsed prelude
        out.extend(self._process_file(source, depth + 1))

    def _define(self, rest: list[Token], loc: Location) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            raise PreprocessError("#define expects an identifier", loc)
        name_tok = rest[0]
        cursor = 1
        params: list[str] | None = None
        variadic = False
        # Function-like only if '(' immediately follows the name (same column).
        if (
            cursor < len(rest)
            and rest[cursor].is_punct("(")
            and rest[cursor].location.line == name_tok.location.line
            and rest[cursor].location.column
            == name_tok.location.column + len(name_tok.value)
        ):
            params = []
            cursor += 1
            while cursor < len(rest) and not rest[cursor].is_punct(")"):
                tok = rest[cursor]
                if tok.is_punct("..."):
                    variadic = True
                elif tok.kind is TokenKind.IDENT:
                    params.append(tok.value)
                elif not tok.is_punct(","):
                    raise PreprocessError("malformed macro parameter list", loc)
                cursor += 1
            if cursor >= len(rest):
                raise PreprocessError("unterminated macro parameter list", loc)
            cursor += 1
        body = rest[cursor:]
        self.macros[name_tok.value] = Macro(name_tok.value, params, body, variadic)

    # -- macro expansion ----------------------------------------------------

    def _expand(self, toks: list[Token], banned: frozenset[str] = frozenset()) -> list[Token]:
        # Pregate: token runs that mention no expandable macro pass
        # through untouched (and un-copied) — the common case for almost
        # every line of real code.
        macros = self.macros
        ident = TokenKind.IDENT
        for tok in toks:
            if tok.kind is ident and tok.value in macros and tok.value not in banned:
                break
        else:
            return toks
        out: list[Token] = []
        i = 0
        size = len(toks)
        while i < size:
            tok = toks[i]
            i += 1
            if tok.kind is not ident or tok.value in banned:
                out.append(tok)
                continue
            macro = macros.get(tok.value)
            if macro is None:
                out.append(tok)
                continue
            if macro.params is None:
                body = [Token(t.kind, t.value, tok.location) for t in macro.body]
                out.extend(self._expand(body, banned | {macro.name}))
                continue
            if i >= size or not toks[i].is_punct("("):
                out.append(tok)  # function-like macro without args: plain ident
                continue
            args, i = self._collect_args(toks, i, tok.location)
            out.extend(self._substitute(macro, args, tok.location, banned))
        return out

    def _collect_args(
        self, toks: list[Token], i: int, loc: Location
    ) -> tuple[list[list[Token]], int]:
        i += 1  # consume '('
        args: list[list[Token]] = [[]]
        nesting = 0
        size = len(toks)
        while True:
            if i >= size:
                raise PreprocessError("unterminated macro argument list", loc)
            tok = toks[i]
            i += 1
            if tok.is_punct("(") or tok.is_punct("[") or tok.is_punct("{"):
                nesting += 1
                args[-1].append(tok)
            elif tok.is_punct(")") and nesting == 0:
                break
            elif tok.is_punct(")") or tok.is_punct("]") or tok.is_punct("}"):
                nesting -= 1
                args[-1].append(tok)
            elif tok.is_punct(",") and nesting == 0:
                args.append([])
            else:
                args[-1].append(tok)
        if args == [[]]:
            return [], i
        return args, i

    def _substitute(
        self,
        macro: Macro,
        args: list[list[Token]],
        use_loc: Location,
        banned: frozenset[str],
    ) -> list[Token]:
        params = macro.params or []
        if macro.variadic:
            fixed, rest = args[: len(params)], args[len(params) :]
            va: list[Token] = []
            for i, arg in enumerate(rest):
                if i:
                    va.append(Token(TokenKind.PUNCT, ",", use_loc))
                va.extend(arg)
            mapping = dict(zip(params, fixed))
            mapping["__VA_ARGS__"] = va
        else:
            if len(args) != len(params):
                raise PreprocessError(
                    f"macro {macro.name!r} expects {len(params)} argument(s), "
                    f"got {len(args)}",
                    use_loc,
                )
            mapping = dict(zip(params, args))

        substituted: list[Token] = []
        i = 0
        body = macro.body
        while i < len(body):
            tok = body[i]
            # Token pasting: a ## b.
            if i + 2 < len(body) and body[i + 1].is_punct("##"):
                left = self._paste_operand(tok, mapping)
                right = self._paste_operand(body[i + 2], mapping)
                pasted_src = SourceFile(str(use_loc), left + right)
                pasted = [
                    Token(t.kind, t.value, use_loc)
                    for t in tokenize(pasted_src)
                    if t.kind is not TokenKind.EOF
                ]
                substituted.extend(pasted)
                i += 3
                continue
            if tok.is_punct("#") and i + 1 < len(body) and body[i + 1].value in mapping:
                text = " ".join(t.value for t in mapping[body[i + 1].value])
                substituted.append(
                    Token(TokenKind.STRING, '"' + text.replace('"', '\\"') + '"', use_loc)
                )
                i += 2
                continue
            if tok.kind is TokenKind.IDENT and tok.value in mapping:
                substituted.extend(
                    Token(t.kind, t.value, use_loc) for t in mapping[tok.value]
                )
            else:
                substituted.append(Token(tok.kind, tok.value, use_loc))
            i += 1
        return self._expand(substituted, banned | {macro.name})

    @staticmethod
    def _paste_operand(tok: Token, mapping: dict[str, list[Token]]) -> str:
        if tok.kind is TokenKind.IDENT and tok.value in mapping:
            return "".join(t.value for t in mapping[tok.value])
        return tok.value

    # -- #if expression evaluation -------------------------------------------

    def _eval_condition(self, toks: list[Token], loc: Location) -> int:
        cursor = _TokenCursor(toks)
        # Handle defined(X) before macro expansion, as the standard requires.
        pending: list[Token] = []
        while not cursor.at_end():
            tok = cursor.next()
            assert tok is not None
            if tok.kind is TokenKind.IDENT and tok.value == "defined":
                nxt = cursor.peek()
                if nxt is not None and nxt.is_punct("("):
                    cursor.next()
                    name = cursor.next()
                    close = cursor.next()
                    if name is None or close is None or not close.is_punct(")"):
                        raise PreprocessError("malformed defined()", loc)
                    target = name.value
                else:
                    name = cursor.next()
                    if name is None:
                        raise PreprocessError("malformed defined", loc)
                    target = name.value
                value = "1" if target in self.macros else "0"
                pending.append(Token(TokenKind.INT_CONST, value, tok.location))
            else:
                pending.append(tok)
        # C99 6.10.1p4: identifiers and keywords left after expansion
        # are 0. The parser then reads the line as a conditional
        # expression and folds it, so #if shares C's precedence and
        # operators with the rest of the frontend.
        line = [
            Token(TokenKind.INT_CONST, "0", t.location)
            if t.kind is TokenKind.IDENT or t.kind is TokenKind.KEYWORD
            else t
            for t in self._expand(pending)
        ]
        line.append(Token(TokenKind.EOF, "", loc))
        parser = Parser(line)
        try:
            expr = parser._conditional_expression()
            if not parser._at_eof():
                raise PreprocessError("trailing tokens in #if expression", loc)
            result = parser._const_eval(expr)
        except ParseError as exc:
            raise PreprocessError(
                f"{exc.message} in #if expression", exc.location
            ) from None
        except ArithmeticFault as fault:
            raise PreprocessError(f"{fault} in #if expression", loc) from None
        if result is None:
            raise PreprocessError(
                "#if expression is not an integer constant expression", loc
            )
        return result


def _split_lines(toks: list[Token]) -> list[list[Token]]:
    """Group a flat token list into physical-line groups.

    Directive lines must be isolated; for non-directive code the grouping
    is irrelevant because groups are concatenated back in order.
    """
    lines: list[list[Token]] = []
    current: list[Token] = []
    current_line = None
    # Lexer-produced tokens of one file have nondecreasing offsets, so a
    # forward cursor over the source's line-start table replaces the
    # per-token bisect behind ``tok.line``. Tokens without a usable
    # offset (macro-synthesized, pasted) fall back to ``tok.line``.
    src = None
    starts: list[int] = []
    n_starts = 0
    line_idx = 0
    for tok in toks:
        off = tok._offset
        s = tok._source
        if s is not None and off >= 0:
            if s is not src:
                src = s
                starts = s.line_starts
                n_starts = len(starts)
                line_idx = 0
            if off < starts[line_idx]:  # out-of-order token: rare, exact
                line = s.line_of(off)
                line_idx = line - 1
            else:
                while line_idx + 1 < n_starts and off >= starts[line_idx + 1]:
                    line_idx += 1
                line = line_idx + 1
        else:
            line = tok.line
        if line != current_line:
            # A directive only ends at a real newline; continuation lines were
            # already joined by the lexer's backslash-newline handling.
            if current:
                lines.append(current)
            current = []
            current_line = line
        current.append(tok)
    if current:
        lines.append(current)
    return lines
