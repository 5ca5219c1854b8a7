"""Recursive-descent parser for the supported C subset.

The grammar covers what the paper's programs (and real interface-heavy C
code like the employee-database example) use: full declaration syntax
with typedefs, struct/union/enum, pointers-to-functions, initializer
lists, every C89 statement form, and the complete expression grammar.

Annotation comments are consumed wherever declaration specifiers or
declarators may appear and attached to the declared entity, honouring the
paper's *outer-level* rule: an annotation constrains the declared name's
outermost type only. Control comments are collected on the side for the
suppression machinery.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ..annotations.kinds import ANNOTATION_WORDS, AnnotationSet
from ..annotations.parse import AnnotationBuilder, AnnotationProblem
from . import cast as A
from .arith import (
    UNARY_OPS, ArithmeticFault, binary, char_value, parse_int_constant,
    string_value, unary,
)
from .ctypes import (
    Array,
    CType,
    EnumType,
    FieldDecl,
    FunctionType,
    ParamType,
    Pointer,
    Primitive,
    StructType,
    TypedefType,
    add_qualifier,
    make_pointer,
    make_primitive,
)
from .source import Location
from .tokens import Token, TokenKind


class ParseError(Exception):
    def __init__(self, message: str, location: Location) -> None:
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


_TYPE_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double",
     "signed", "unsigned", "struct", "union", "enum"}
)
_STORAGE_KEYWORDS = frozenset({"typedef", "extern", "static", "auto", "register"})
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "inline"})

# Hoisted unions: these membership tests sit on the statement/expression
# hot path, and rebuilding the union per call showed up in profiles.
_TYPE_START_KEYWORDS = _TYPE_KEYWORDS | _QUALIFIER_KEYWORDS
_DECL_START_KEYWORDS = _TYPE_KEYWORDS | _STORAGE_KEYWORDS | _QUALIFIER_KEYWORDS
_UNARY_OPS = frozenset({"&", "*", "+", "-", "~", "!"})

#: Canonical multi-word primitive spellings, keyed by sorted specifier words.
_PRIMITIVE_COMBOS = {
    ("void",): "void",
    ("char",): "char",
    ("char", "signed"): "signed char",
    ("char", "unsigned"): "unsigned char",
    ("short",): "short",
    ("int", "short"): "short",
    ("short", "signed"): "short",
    ("int", "short", "signed"): "short",
    ("short", "unsigned"): "unsigned short",
    ("int", "short", "unsigned"): "unsigned short",
    ("int",): "int",
    ("signed",): "int",
    ("int", "signed"): "int",
    ("unsigned",): "unsigned int",
    ("int", "unsigned"): "unsigned int",
    ("long",): "long",
    ("int", "long"): "long",
    ("long", "signed"): "long",
    ("int", "long", "signed"): "long",
    ("long", "unsigned"): "unsigned long",
    ("int", "long", "unsigned"): "unsigned long",
    ("long", "long"): "long long",
    ("int", "long", "long"): "long long",
    ("long", "long", "signed"): "long long",
    ("int", "long", "long", "signed"): "long long",
    ("long", "long", "unsigned"): "unsigned long long",
    ("int", "long", "long", "unsigned"): "unsigned long long",
    ("float",): "float",
    ("double",): "double",
    ("double", "long"): "long double",
}


@dataclass
class _DeclSpecs:
    """Result of parsing declaration specifiers."""

    base: CType
    storage: str | None
    annotations: AnnotationSet
    location: Location


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.typedefs: dict[str, TypedefType] = {}
        self.tags: dict[str, CType] = {}
        self.enum_consts: dict[str, int] = {}

    def lookup_typedef(self, name: str) -> TypedefType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.typedefs:
                return scope.typedefs[name]
            scope = scope.parent
        return None

    def lookup_tag(self, tag: str) -> CType | None:
        scope: _Scope | None = self
        while scope is not None:
            if tag in scope.tags:
                return scope.tags[tag]
            scope = scope.parent
        return None

    def lookup_enum_const(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.enum_consts:
                return scope.enum_consts[name]
            scope = scope.parent
        return None


class Parser:
    """Parse a preprocessed token stream into a :class:`TranslationUnit`."""

    def __init__(
        self, toks: list[Token], name: str = "<string>",
        lcl_mode: bool = False,
        preseed: "_Scope | None" = None,
        engine: str | None = None,
    ) -> None:
        self.toks = [t for t in toks if t.kind is not TokenKind.CONTROL]
        self.controls = [t for t in toks if t.kind is TokenKind.CONTROL]
        self.name = name
        self.idx = 0
        self.scope = _Scope()
        if preseed is not None:
            # Seed the file scope with previously-parsed declarations
            # (the standard-library prelude): copies, so this parse
            # cannot pollute the shared cache.
            self.scope.typedefs = dict(preseed.typedefs)
            self.scope.tags = dict(preseed.tags)
            self.scope.enum_consts = dict(preseed.enum_consts)
        self.problems: list[AnnotationProblem] = []
        self.parse_errors: list[ParseError] = []
        # LCL specification mode (paper section 4): annotations appear as
        # bare words before the type ('null out only void *malloc(...)')
        # rather than inside /*@...@*/ comments.
        self.lcl_mode = lcl_mode
        if engine is None:
            engine = _DEFAULT_ENGINE
        if engine == "table":
            self._binary_expr = self._table_binary_expression
        elif engine == "reference":
            self._binary_expr = self._reference_binary_expression
        else:
            raise ValueError(f"unknown parser engine {engine!r}")

    # -- token plumbing ----------------------------------------------------

    # _peek/_next/_accept are the parser's innermost loop; each avoids
    # delegating to the other so a token step costs one method call.

    def _peek(self, ahead: int = 0) -> Token:
        toks = self.toks
        idx = self.idx + ahead
        if idx < len(toks):
            return toks[idx]
        return toks[-1]  # EOF sentinel

    def _next(self) -> Token:
        toks = self.toks
        idx = self.idx
        tok = toks[idx] if idx < len(toks) else toks[-1]
        if tok.kind is not TokenKind.EOF:
            self.idx = idx + 1
        return tok

    def _accept(self, spelling: str) -> Token | None:
        toks = self.toks
        idx = self.idx
        tok = toks[idx] if idx < len(toks) else toks[-1]
        kind = tok.kind
        if (kind is TokenKind.PUNCT or kind is TokenKind.KEYWORD) and (
            tok.value == spelling
        ):
            self.idx = idx + 1
            return tok
        return None

    def _expect(self, spelling: str) -> Token:
        tok = self._accept(spelling)
        if tok is None:
            got = self._peek()
            raise ParseError(f"expected {spelling!r}, got {got.value!r}", got.location)
        return tok

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _collect_annotations(self, builder: AnnotationBuilder) -> None:
        """Consume any annotation comments at the current position."""
        while self._peek().kind is TokenKind.ANNOTATION:
            tok = self._next()
            payload = tok.value
            if payload.split()[:1] in (["globals"], ["modifies"], ["uses"]):
                # function-level clauses are handled by the declarator parser
                self.idx -= 1
                return
            builder.add_payload(payload, tok.location)

    # -- entry point ---------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        items: list[A.Node] = []
        first_loc = self._peek().location
        while not self._at_eof():
            start_idx = self.idx
            try:
                item = self._external_declaration()
            except ParseError as exc:
                # Error recovery: record the error, resynchronize at the
                # next declaration boundary, and keep checking the rest of
                # the file (one bad declaration must not hide the others).
                self.parse_errors.append(exc)
                self._recover(start_idx)
                continue
            if item is not None:
                items.append(item)
        unit = A.TranslationUnit(first_loc, name=self.name, items=items)
        return unit

    def _recover(self, start_idx: int) -> None:
        """Skip past the erroneous declaration: consume tokens through the
        next top-level ';' or balanced '}' (guaranteeing progress)."""
        if self.idx <= start_idx:
            self.idx = start_idx + 1
        depth = 0
        while not self._at_eof():
            tok = self._next()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
                if depth <= 0:
                    return
            elif tok.is_punct(";") and depth <= 0:
                return

    # -- declarations ----------------------------------------------------------

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        if tok.kind is TokenKind.ANNOTATION:
            return True
        if tok.kind is TokenKind.KEYWORD:
            return tok.value in _DECL_START_KEYWORDS
        if tok.kind is TokenKind.IDENT:
            if self.scope.lookup_typedef(tok.value) is None:
                return False
            # 'lst * x;' is a declaration if lst is a typedef; an identifier
            # that is immediately re-declared shadows the typedef only in
            # expressions, which we don't track -- typedef wins, as in LCLint.
            return True
        return False

    def _external_declaration(self) -> A.Node | None:
        if self._accept(";"):
            return None
        specs = self._declaration_specifiers()
        if self._accept(";"):
            # struct/union/enum definition with no declarators
            return A.Declaration(specs.location, declarators=[], storage=specs.storage)
        return self._init_declarator_list(specs, allow_funcdef=True)

    def _declaration_specifiers(self) -> _DeclSpecs:
        storage: str | None = None
        qualifiers: set[str] = set()
        type_words: list[str] = []
        tagged: CType | None = None
        typedef_ref: TypedefType | None = None
        builder = AnnotationBuilder()
        start = self._peek().location

        # Dispatch on token kind first: the specifier loop runs for every
        # declaration, and the original chain re-tested kind per branch.
        # Branch conditions are mutually exclusive, so the reordering is
        # behavior-preserving.
        while True:
            tok = self._peek()
            kind = tok.kind
            if kind is TokenKind.ANNOTATION:
                self._collect_annotations(builder)
                tok = self._peek()
                kind = tok.kind
                if kind is TokenKind.ANNOTATION:
                    break  # a globals/modifies/uses clause: declarator's job
            if kind is TokenKind.KEYWORD:
                value = tok.value
                if value in _TYPE_KEYWORDS:
                    if value == "enum":
                        tagged = self._enum()
                    elif value in ("struct", "union"):
                        tagged = self._struct_or_union()
                    else:
                        self._next()
                        type_words.append(value)
                elif value in _STORAGE_KEYWORDS:
                    self._next()
                    if storage is not None and storage != value:
                        raise ParseError(
                            f"multiple storage classes ({storage!r}, {value!r})",
                            tok.location,
                        )
                    storage = value
                elif value in _QUALIFIER_KEYWORDS:
                    self._next()
                    if value != "inline":
                        qualifiers.add(value)
                else:
                    break
            elif (
                kind is TokenKind.IDENT
                and not type_words
                and tagged is None
                and typedef_ref is None
            ):
                if (
                    self.lcl_mode
                    and tok.value in ANNOTATION_WORDS
                    and self.scope.lookup_typedef(tok.value) is None
                ):
                    self._next()
                    builder.add_word(tok.value, tok.location)
                    continue
                found = self.scope.lookup_typedef(tok.value)
                if found is None:
                    break
                self._next()
                typedef_ref = found
            else:
                break

        if tagged is not None:
            base: CType = tagged
        elif typedef_ref is not None:
            base = typedef_ref
        elif type_words:
            key = tuple(sorted(type_words))
            name = _PRIMITIVE_COMBOS.get(key)
            if name is None:
                raise ParseError(f"invalid type specifier {' '.join(type_words)!r}", start)
            base = make_primitive(name)
        else:
            # implicit int (K&R); LCLint accepts it with a warning
            base = make_primitive("int")
        for qual in qualifiers:
            base = add_qualifier(base, qual)
        self.problems.extend(builder.problems)
        return _DeclSpecs(base, storage, builder.build(), start)

    def _struct_or_union(self) -> StructType:
        kw = self._next()  # struct | union
        is_union = kw.value == "union"
        tag: str | None = None
        if self._peek().kind is TokenKind.IDENT:
            tag = self._next().value
        stype: StructType | None = None
        if tag is not None:
            existing = self.scope.lookup_tag(tag)
            if isinstance(existing, StructType) and existing.is_union == is_union:
                stype = existing
        if stype is None:
            stype = StructType(tag=tag, is_union=is_union)
            if tag is not None:
                self.scope.tags[tag] = stype
        if self._accept("{"):
            if stype.fields is not None and tag is not None:
                # Redefinition in an inner scope: make a fresh type.
                stype = StructType(tag=tag, is_union=is_union)
                self.scope.tags[tag] = stype
            fields: list[FieldDecl] = []
            while not self._accept("}"):
                specs = self._declaration_specifiers()
                if self._accept(";"):
                    continue  # anonymous member (unsupported detail) / stray ;
                while True:
                    builder = AnnotationBuilder()
                    self._collect_annotations(builder)
                    name, ctype, _ = self._declarator(specs.base)
                    if self._accept(":"):  # bit-field width
                        self._conditional_expression()
                    self.problems.extend(builder.problems)
                    anns = builder.build().merged_under(specs.annotations)
                    if name is not None:
                        fields.append(FieldDecl(name, ctype, anns))
                    if not self._accept(","):
                        break
                self._expect(";")
            stype.fields = fields
        return stype

    def _enum(self) -> EnumType:
        self._next()  # enum
        tag: str | None = None
        if self._peek().kind is TokenKind.IDENT:
            tag = self._next().value
        etype: EnumType | None = None
        if tag is not None:
            existing = self.scope.lookup_tag(tag)
            if isinstance(existing, EnumType):
                etype = existing
        if etype is None:
            etype = EnumType(tag=tag)
            if tag is not None:
                self.scope.tags[tag] = etype
        if self._accept("{"):
            value = 0
            while not self._accept("}"):
                name_tok = self._next()
                if name_tok.kind is not TokenKind.IDENT:
                    raise ParseError("expected enumerator name", name_tok.location)
                if self._accept("="):
                    const = self._fold(self._conditional_expression())
                    if const is not None:
                        value = const
                etype.enumerators[name_tok.value] = value
                self.scope.enum_consts[name_tok.value] = value
                value += 1
                if not self._accept(","):
                    self._expect("}")
                    break
        return etype

    def _init_declarator_list(
        self, specs: _DeclSpecs, allow_funcdef: bool
    ) -> A.Node:
        declarators: list[A.Declarator] = []
        is_typedef = specs.storage == "typedef"
        first = True
        while True:
            builder = AnnotationBuilder()
            self._collect_annotations(builder)
            name, ctype, params = self._declarator(specs.base)
            globals_list, modifies_list = self._function_clauses()
            self.problems.extend(builder.problems)
            anns = builder.build().merged_under(specs.annotations)
            loc = self._peek().location

            if (
                first
                and allow_funcdef
                and not is_typedef
                and isinstance(ctype, FunctionType)
                and self._peek().is_punct("{")
            ):
                if name is None:
                    raise ParseError("function definition without a name", loc)
                body = self._compound_statement()
                return A.FunctionDef(
                    loc,
                    name=name,
                    ctype=ctype,
                    params=[
                        A.ParamDecl(p.location or loc, name=p.name,
                                    ctype=p.ctype, annotations=p.annotations)
                        for p in (params or ctype.params)
                    ],
                    annotations=anns,
                    body=body,
                    storage=specs.storage,
                    globals_list=globals_list,
                    modifies_list=modifies_list,
                )

            init: A.Expr | None = None
            if self._accept("="):
                init = self._initializer()
            if name is not None:
                if is_typedef:
                    tdef = TypedefType(name, ctype, anns)
                    self.scope.typedefs[name] = tdef
                declarators.append(
                    A.Declarator(loc, name=name, ctype=ctype,
                                 annotations=anns, init=init,
                                 globals_list=globals_list,
                                 modifies_list=modifies_list)
                )
            first = False
            if not self._accept(","):
                break
        self._expect(";")
        return A.Declaration(
            specs.location,
            declarators=declarators,
            storage=specs.storage,
            is_typedef=is_typedef,
        )

    def _function_clauses(self) -> tuple[list[A.GlobalUse], list[str] | None]:
        """Parse ``/*@globals ...@*/`` and ``/*@modifies ...@*/`` clauses."""
        out: list[A.GlobalUse] = []
        modifies: list[str] | None = None
        while self._peek().kind is TokenKind.ANNOTATION:
            payload = self._peek().value
            words = payload.split()
            if not words or words[0] not in ("globals", "modifies", "uses"):
                return out, modifies
            tok = self._next()
            if words[0] == "modifies":
                modifies = [] if modifies is None else modifies
                for word in words[1:]:
                    word = word.rstrip(",")
                    if word and word != "nothing":
                        modifies.append(word)
                continue
            if words[0] != "globals":
                continue
            undef = False
            killed = False
            for word in words[1:]:
                word = word.rstrip(",")
                if word == "undef":
                    undef = True
                elif word == "killed":
                    killed = True
                elif word:
                    out.append(
                        A.GlobalUse(tok.location, name=word, undef=undef,
                                    killed=killed)
                    )
                    undef = killed = False
        return out, modifies

    # -- declarators -----------------------------------------------------------

    def _declarator(
        self, base: CType, abstract: bool = False
    ) -> tuple[str | None, CType, list[ParamType] | None]:
        """Parse a declarator; returns (name, full type, outermost fn params).

        Implements the standard inside-out rule via a two-phase approach:
        collect pointer prefixes, then the direct declarator, then apply
        suffixes (arrays / parameter lists).
        """
        ptr_quals: list[set[str]] = []
        while self._accept("*"):
            quals: set[str] = set()
            while True:
                tok = self._peek()
                if tok.kind is TokenKind.KEYWORD and tok.value in _QUALIFIER_KEYWORDS:
                    self._next()
                    quals.add(tok.value)
                elif tok.kind is TokenKind.ANNOTATION:
                    # annotation between '*'s: applies at outer level; collect
                    builder = AnnotationBuilder()
                    self._collect_annotations(builder)
                    self.problems.extend(builder.problems)
                    # note: outer-level rule means these merge with declarator
                    # annotations; stash via closure below
                    self._pending_ptr_annotations = getattr(
                        self, "_pending_ptr_annotations", AnnotationBuilder()
                    )
                else:
                    break
            ptr_quals.append(quals)

        name: str | None = None
        inner: tuple[str | None, CType, list[ParamType] | None] | None = None
        tok = self._peek()
        if tok.is_punct("(") and self._is_nested_declarator():
            self._next()
            inner = self._declarator(make_primitive("int"), abstract=abstract)
            self._expect(")")
        elif tok.kind is TokenKind.IDENT and not abstract:
            name = self._next().value
        elif tok.kind is TokenKind.IDENT and abstract:
            # abstract declarators have no name; an identifier here would be
            # a parse error at a higher level
            pass

        suffixes: list[tuple[str, object]] = []
        params: list[ParamType] | None = None
        while True:
            if self._accept("["):
                size: int | None = None
                if not self._peek().is_punct("]"):
                    size = self._fold(self._conditional_expression())
                self._expect("]")
                suffixes.append(("array", size))
            elif self._peek().is_punct("(") and self._params_follow():
                self._next()
                plist, variadic, old_style = self._parameter_list()
                suffixes.append(("func", (plist, variadic, old_style)))
                if params is None:
                    params = plist
            else:
                break

        # Inside-out rule: pointers bind between the base type and the
        # suffixes ('void *f(int)' is a function returning void*), so wrap
        # the base with the pointer prefixes first, then apply suffixes.
        ctype = base
        for quals in reversed(ptr_quals):
            ctype = make_pointer(ctype, frozenset(quals))
        for kind, payload in reversed(suffixes):
            if kind == "array":
                ctype = Array(ctype, payload)  # type: ignore[arg-type]
            else:
                plist, variadic, old_style = payload  # type: ignore[misc]
                ctype = FunctionType(ctype, plist, variadic, old_style)

        if inner is not None:
            # Substitute: the inner declarator's base slot receives ctype.
            inner_name, inner_type, inner_params = inner
            ctype = _replace_base(inner_type, ctype)
            return inner_name, ctype, inner_params or params
        return name, ctype, params

    def _is_nested_declarator(self) -> bool:
        """Disambiguate '(' after a type: nested declarator vs parameter list."""
        nxt = self._peek(1)
        if nxt.is_punct("*") or nxt.is_punct("("):
            return True
        if nxt.kind is TokenKind.IDENT and self.scope.lookup_typedef(nxt.value) is None:
            return True
        return False

    def _params_follow(self) -> bool:
        return True  # only called when '(' follows a direct declarator

    def _parameter_list(self) -> tuple[list[ParamType], bool, bool]:
        params: list[ParamType] = []
        variadic = False
        if self._accept(")"):
            return params, False, True  # old-style '()'
        while True:
            if self._accept("..."):
                variadic = True
                break
            param_loc = self._peek().location
            builder = AnnotationBuilder()
            self._collect_annotations(builder)
            specs = self._declaration_specifiers()
            self._collect_annotations(builder)
            pname, ptype, _ = self._declarator_maybe_abstract(specs.base)
            self._collect_annotations(builder)
            self.problems.extend(builder.problems)
            anns = builder.build().merged_under(specs.annotations)
            if not (
                pname is None
                and isinstance(ptype, Primitive)
                and ptype.is_void
                and not params
            ):
                params.append(ParamType(pname, ptype, anns, param_loc))
            if not self._accept(","):
                break
        self._expect(")")
        # '(void)' handled above by skipping the lone void parameter
        return params, variadic, False

    def _declarator_maybe_abstract(
        self, base: CType
    ) -> tuple[str | None, CType, list[ParamType] | None]:
        return self._declarator(base, abstract=False)

    def _type_name(self) -> CType:
        specs = self._declaration_specifiers()
        # abstract declarator (may be empty)
        tok = self._peek()
        if tok.is_punct(")"):
            return specs.base
        _, ctype, _ = self._declarator(specs.base, abstract=True)
        return ctype

    def _initializer(self) -> A.Expr:
        if self._peek().is_punct("{"):
            loc = self._next().location
            elems: list[A.Expr] = []
            while not self._accept("}"):
                if self._accept("."):  # designated initializer: .field = e
                    self._next()
                    self._expect("=")
                elems.append(self._initializer())
                if not self._accept(","):
                    self._expect("}")
                    break
            return A.InitList(loc, items=elems)
        return self._assignment_expression()

    # -- statements ------------------------------------------------------------

    def _compound_statement(self) -> A.Block:
        loc = self._expect("{").location
        outer = self.scope
        self.scope = _Scope(outer)
        items: list[A.Node] = []
        end_loc = loc
        try:
            while True:
                closing = self._accept("}")
                if closing is not None:
                    end_loc = closing.location
                    break
                if self._at_eof():
                    raise ParseError("unterminated block", loc)
                if self._starts_declaration():
                    item = self._external_declaration()
                    if item is not None:
                        if isinstance(item, A.FunctionDef):
                            raise ParseError(
                                "nested function definition", item.location
                            )
                        items.append(item)
                else:
                    items.append(self._statement())
        finally:
            self.scope = outer
        return A.Block(loc, items=items, end_location=end_loc)

    def _statement(self) -> A.Stmt:
        tok = self._peek()
        loc = tok.location
        if tok.is_punct("{"):
            return self._compound_statement()
        if tok.is_punct(";"):
            self._next()
            return A.EmptyStmt(loc)
        if tok.kind is TokenKind.KEYWORD:
            handler = self._STMT_HANDLERS.get(tok.value)
            if handler is not None:
                return handler(self)
        if (
            tok.kind is TokenKind.IDENT
            and self._peek(1).is_punct(":")
            and not self._peek(2).is_punct(":")
        ):
            self._next()
            self._next()
            body = self._statement()
            return A.Label(loc, name=tok.value, body=body)
        expr = self._expression()
        self._expect(";")
        return A.ExprStmt(loc, expr=expr)

    def _stmt_if(self) -> A.Stmt:
        loc = self._next().location
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        then = self._statement()
        orelse = self._statement() if self._accept("else") else None
        return A.If(loc, cond=cond, then=then, orelse=orelse)

    def _stmt_while(self) -> A.Stmt:
        loc = self._next().location
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        body = self._statement()
        return A.While(loc, cond=cond, body=body)

    def _stmt_do(self) -> A.Stmt:
        loc = self._next().location
        body = self._statement()
        self._expect("while")
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        self._expect(";")
        return A.DoWhile(loc, body=body, cond=cond)

    def _stmt_for(self) -> A.Stmt:
        loc = self._next().location
        self._expect("(")
        init: A.Node | None = None
        if not self._accept(";"):
            if self._starts_declaration():
                init = self._external_declaration()
            else:
                init = A.ExprStmt(loc, expr=self._expression())
                self._expect(";")
        cond = None if self._peek().is_punct(";") else self._expression()
        self._expect(";")
        step = None if self._peek().is_punct(")") else self._expression()
        self._expect(")")
        body = self._statement()
        return A.For(loc, init=init, cond=cond, step=step, body=body)

    def _stmt_switch(self) -> A.Stmt:
        loc = self._next().location
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        body = self._statement()
        return A.Switch(loc, cond=cond, body=body)

    def _stmt_case(self) -> A.Stmt:
        loc = self._next().location
        value = self._conditional_expression()
        self._expect(":")
        body = self._statement()
        return A.Case(loc, value=value, body=body)

    def _stmt_default(self) -> A.Stmt:
        loc = self._next().location
        self._expect(":")
        body = self._statement()
        return A.Case(loc, value=None, body=body)

    def _stmt_break(self) -> A.Stmt:
        loc = self._next().location
        self._expect(";")
        return A.Break(loc)

    def _stmt_continue(self) -> A.Stmt:
        loc = self._next().location
        self._expect(";")
        return A.Continue(loc)

    def _stmt_return(self) -> A.Stmt:
        loc = self._next().location
        value = None if self._peek().is_punct(";") else self._expression()
        self._expect(";")
        return A.Return(loc, value=value)

    def _stmt_goto(self) -> A.Stmt:
        loc = self._next().location
        label = self._next()
        if label.kind is not TokenKind.IDENT:
            raise ParseError("expected label after goto", label.location)
        self._expect(";")
        return A.Goto(loc, label=label.value)

    #: Keyword -> unbound handler, replacing per-statement
    #: ``getattr(self, f"_stmt_{...}")`` string formatting + lookup.
    _STMT_HANDLERS = {
        "if": _stmt_if, "while": _stmt_while, "do": _stmt_do,
        "for": _stmt_for, "switch": _stmt_switch, "case": _stmt_case,
        "default": _stmt_default, "break": _stmt_break,
        "continue": _stmt_continue, "return": _stmt_return,
        "goto": _stmt_goto,
    }

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> A.Expr:
        expr = self._assignment_expression()
        if not self._peek().is_punct(","):
            return expr
        exprs = [expr]
        loc = expr.location
        while self._accept(","):
            exprs.append(self._assignment_expression())
        return A.Comma(loc, exprs=exprs)

    _ASSIGN_OPS = frozenset(
        ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
    )

    def _assignment_expression(self) -> A.Expr:
        lhs = self._conditional_expression()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.value in self._ASSIGN_OPS:
            self._next()
            rhs = self._assignment_expression()
            return A.Assign(tok.location, op=tok.value, target=lhs, value=rhs)
        return lhs

    def _conditional_expression(self) -> A.Expr:
        cond = self._binary_expr()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.value == "?":
            loc = self._next().location
            then = self._expression()
            self._expect(":")
            other = self._conditional_expression()
            return A.Ternary(loc, cond=cond, then=then, other=other)
        return cond

    #: Binary operator precedence (all left-associative in this grammar);
    #: higher binds tighter. Level *i* of the reference grammar's
    #: ``_BINARY_LEVELS`` corresponds to precedence ``i + 1`` here.
    _BIN_PREC = {
        "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
        "==": 6, "!=": 6,
        "<": 7, ">": 7, "<=": 7, ">=": 7,
        "<<": 8, ">>": 8,
        "+": 9, "-": 9,
        "*": 10, "/": 10, "%": 10,
    }

    def _table_binary_expression(self) -> A.Expr:
        return self._binary_climb(1)

    def _binary_climb(self, min_prec: int) -> A.Expr:
        """Precedence-climbing binary-expression core (production engine).

        One table lookup per operator replaces the reference grammar's
        ten-deep recursive descent (which recursed through every level
        even for a lone primary expression). Left-associativity is the
        ``prec + 1`` on the right-operand climb; the resulting tree is
        node-for-node identical to the reference engine's, which the
        parser parity suite asserts.
        """
        expr = self._cast_expression()
        prec_of = self._BIN_PREC
        while True:
            tok = self._peek()
            if tok.kind is not TokenKind.PUNCT:
                return expr
            prec = prec_of.get(tok.value)
            if prec is None or prec < min_prec:
                return expr
            self._next()
            rhs = self._binary_climb(prec + 1)
            expr = A.Binary(tok.location, op=tok.value, lhs=expr, rhs=rhs)

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _reference_binary_expression(self) -> A.Expr:
        return self._binary_expression(0)

    def _binary_expression(self, level: int) -> A.Expr:
        """Reference layered-grammar engine (retained for parity runs)."""
        if level >= len(self._BINARY_LEVELS):
            return self._cast_expression()
        ops = self._BINARY_LEVELS[level]
        expr = self._binary_expression(level + 1)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.PUNCT and tok.value in ops:
                # don't treat '&' before unary context wrongly: precedence
                # climbing already handles this correctly.
                self._next()
                rhs = self._binary_expression(level + 1)
                expr = A.Binary(tok.location, op=tok.value, lhs=expr, rhs=rhs)
            else:
                return expr

    def _cast_expression(self) -> A.Expr:
        tok = self._peek()
        if (
            tok.kind is TokenKind.PUNCT
            and tok.value == "("
            and self._is_type_start(self._peek(1))
        ):
            loc = self._next().location
            to_type = self._type_name()
            self._expect(")")
            if self._peek().is_punct("{"):
                # compound literal (C99) -- parse as initializer expression
                init = self._initializer()
                return A.Cast(loc, to_type=to_type, operand=init)
            operand = self._cast_expression()
            return A.Cast(loc, to_type=to_type, operand=operand)
        return self._unary_expression()

    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD:
            return tok.value in _TYPE_START_KEYWORDS
        if tok.kind is TokenKind.ANNOTATION:
            return True
        if tok.kind is TokenKind.IDENT:
            return self.scope.lookup_typedef(tok.value) is not None
        return False

    def _unary_expression(self) -> A.Expr:
        tok = self._peek()
        loc = tok.location
        if tok.kind is TokenKind.KEYWORD and tok.value == "sizeof":
            self._next()
            if self._peek().is_punct("(") and self._is_type_start(self._peek(1)):
                self._next()
                of_type = self._type_name()
                self._expect(")")
                return A.SizeofType(loc, of_type=of_type)
            operand = self._unary_expression()
            return A.SizeofExpr(loc, operand=operand)
        if tok.kind is TokenKind.PUNCT:
            op = tok.value
            if op in ("++", "--"):
                self._next()
                operand = self._unary_expression()
                return A.Unary(loc, op=op, operand=operand)
            if op in _UNARY_OPS:
                self._next()
                operand = self._cast_expression()
                return A.Unary(loc, op=op, operand=operand)
        return self._postfix_expression()

    def _postfix_expression(self) -> A.Expr:
        expr = self._primary_expression()
        punct = TokenKind.PUNCT
        while True:
            tok = self._peek()
            # One kind test up front, then value dispatch: this loop runs
            # after every primary expression, and most exits are cold.
            if tok.kind is not punct:
                return expr
            value = tok.value
            if value == "[":
                self._next()
                index = self._expression()
                self._expect("]")
                expr = A.Index(tok.location, array=expr, index=index)
            elif value == "(":
                self._next()
                args: list[A.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._assignment_expression())
                    while self._accept(","):
                        args.append(self._assignment_expression())
                self._expect(")")
                expr = A.Call(tok.location, func=expr, args=args)
            elif value == ".":
                self._next()
                name = self._next()
                expr = A.Member(tok.location, obj=expr, fieldname=name.value,
                                arrow=False)
            elif value == "->":
                self._next()
                name = self._next()
                expr = A.Member(tok.location, obj=expr, fieldname=name.value,
                                arrow=True)
            elif value == "++" or value == "--":
                self._next()
                expr = A.Unary(tok.location, op="p" + value, operand=expr)
            else:
                return expr

    def _primary_expression(self) -> A.Expr:
        tok = self._next()
        loc = tok.location
        if tok.kind is TokenKind.IDENT:
            return A.Ident(loc, name=tok.value)
        if tok.kind is TokenKind.INT_CONST:
            try:
                value = parse_int_constant(tok.value)
            except ValueError:
                raise ParseError(
                    f"malformed integer constant {tok.value!r}", loc
                ) from None
            return A.IntLit(loc, value=value, spelling=tok.value)
        if tok.kind is TokenKind.FLOAT_CONST:
            return A.FloatLit(loc, value=float(tok.value.rstrip("fFlL")),
                              spelling=tok.value)
        if tok.kind is TokenKind.CHAR_CONST:
            return A.CharLit(
                loc, value=_escaped(char_value, tok), spelling=tok.value
            )
        if tok.kind is TokenKind.STRING:
            text = _escaped(string_value, tok)
            # adjacent string literals concatenate
            while self._peek().kind is TokenKind.STRING:
                text += _escaped(string_value, self._next())
            return A.StringLit(loc, value=text, spelling=tok.value)
        if tok.is_punct("("):
            expr = self._expression()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.value!r}", loc)

    # -- constant folding (array sizes, enum values, #if) ----------------------

    def _const_eval(self, expr: A.Expr) -> int | None:
        """Fold an integer constant expression; None if ``expr`` is not
        one. The operators compute through :mod:`.arith`, so a zero
        divisor or a bad shift count raises its ``ArithmeticFault``."""
        if isinstance(expr, (A.IntLit, A.CharLit)):
            return expr.value
        if isinstance(expr, A.Ident):
            return self.scope.lookup_enum_const(expr.name)
        if isinstance(expr, A.SizeofType):
            # Imported on use, so ``import repro`` does not load the
            # interpreter's package; ``byte_size`` leaves its layout
            # cache alone.
            from ..runtime.layout import LayoutError, byte_size

            try:
                return byte_size(expr.of_type)
            except LayoutError:
                return None
        if isinstance(expr, A.SizeofExpr):
            return 8  # approximation; only used for array sizing
        if isinstance(expr, A.Cast):
            return self._const_eval(expr.operand)
        if isinstance(expr, A.Unary):
            if expr.op not in UNARY_OPS:
                return None
            value = self._const_eval(expr.operand)
            return None if value is None else unary(expr.op, value)
        if isinstance(expr, A.Ternary):
            cond = self._const_eval(expr.cond)
            if cond is None:
                return None
            return self._const_eval(expr.then if cond else expr.other)
        if isinstance(expr, A.Binary):
            lhs = self._const_eval(expr.lhs)
            if lhs is None:
                return None
            op = expr.op
            if (op == "&&" and not lhs) or (op == "||" and lhs):
                return int(bool(lhs))  # short circuit: rhs is not evaluated
            rhs = self._const_eval(expr.rhs)
            return None if rhs is None else binary(op, lhs, rhs)
        return None

    def _fold(self, expr: A.Expr) -> int | None:
        """An array size or enumerator value; unknown where C leaves
        the value undefined."""
        try:
            return self._const_eval(expr)
        except ArithmeticFault:
            return None


def _replace_base(ctype: CType, new_base: CType) -> CType:
    """Replace the innermost 'int' placeholder of a nested declarator."""
    if isinstance(ctype, Pointer):
        return Pointer(_replace_base(ctype.to, new_base), ctype.qualifiers)
    if isinstance(ctype, Array):
        return Array(_replace_base(ctype.of, new_base), ctype.size)
    if isinstance(ctype, FunctionType):
        return FunctionType(
            _replace_base(ctype.ret, new_base),
            ctype.params,
            ctype.variadic,
            ctype.old_style,
        )
    return new_base


def _escaped(read, tok: Token):
    """*read* (:func:`char_value` or :func:`string_value`) applied to a
    literal; an escape out of range is a parse error."""
    try:
        return read(tok.value)
    except ValueError as exc:
        raise ParseError(str(exc), tok.location) from None


# -- engine selection ---------------------------------------------------------

_DEFAULT_ENGINE = "table"


@contextmanager
def parser_engine(name: str):
    """Temporarily switch the module-default expression-parsing engine.

    ``name`` is ``"table"`` (production precedence climbing) or
    ``"reference"`` (the retained layered recursive descent). The parser
    parity suite and the benchmark harness use this to run both engines
    over the same inputs, mirroring :func:`repro.frontend.lexer.lexer_engine`.
    """
    global _DEFAULT_ENGINE
    if name not in ("table", "reference"):
        raise ValueError(f"unknown parser engine {name!r}")
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = name
    try:
        yield
    finally:
        _DEFAULT_ENGINE = previous


def parse_tokens(toks: list[Token], name: str = "<string>") -> A.TranslationUnit:
    """Parse a token stream into an AST."""
    return Parser(toks, name).parse_translation_unit()
