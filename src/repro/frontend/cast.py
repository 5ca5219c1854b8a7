"""Abstract syntax tree for the supported C subset.

Nodes are ``slots=True`` dataclasses: a cold parse allocates hundreds of
thousands of them, and slots drop the per-node ``__dict__`` (smaller,
faster attribute access, cheaper construction). Every node has a source
:class:`~repro.frontend.source.Location`, read as ``node.location``. The
parser builds a node from the :class:`~repro.frontend.tokens.Token` it
starts at and stores that token; the first read of ``location`` turns
it into the token's ``Location`` and keeps that, so a node whose
location nothing reads never builds one. Nodes the checker builds from
parsed ones store the same position; nodes built elsewhere (the
interpreter, tests) store a ``Location`` (or ``None``) directly.
Reading is idempotent, so nodes shared between threads (the prelude's)
need no lock. ``repr``, ``==`` and pickling read through the same
property: they show, compare and carry the ``Location``, never the
token. ``Block.end_location`` works the same way. Code that only passes
a position on, such as the checker, reads the stored value with
:func:`position` and leaves building the ``Location`` to whatever
reports it (:func:`location_of`).

Declarations additionally carry an
:class:`~repro.annotations.kinds.AnnotationSet`, which is how the
paper's interface assumptions enter the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterator

from .source import Location
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..annotations.kinds import AnnotationSet
    from .ctypes import CType

#: Per-class child-bearing field names (everything but ``location``),
#: resolved once per node class. With ``slots=True`` there is no
#: ``__dict__`` to iterate, and ``dataclasses.fields`` per call would be
#: far slower than the old dict walk.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


@dataclass(slots=True)
class Node:
    location: Location  # the parser stores a Token here; see _materialized

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        cls = type(self)
        names = _CHILD_FIELDS.get(cls)
        if names is None:
            names = tuple(
                f.name for f in fields(cls) if f.name != "location"
            )
            _CHILD_FIELDS[cls] = names
        for name in names:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the subtree rooted at *node*."""
    yield node
    for child in node.children():
        yield from walk(child)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int
    spelling: str = ""


@dataclass(slots=True)
class FloatLit(Expr):
    value: float
    spelling: str = ""


@dataclass(slots=True)
class CharLit(Expr):
    value: int
    spelling: str = ""


@dataclass(slots=True)
class StringLit(Expr):
    value: str  # decoded contents, without quotes
    spelling: str = ""


@dataclass(slots=True)
class Ident(Expr):
    name: str


@dataclass(slots=True)
class Unary(Expr):
    op: str  # one of: * & ! ~ - + ++ -- (prefix), p++ p-- (postfix)
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(slots=True)
class Assign(Expr):
    op: str  # '=', '+=', ...
    target: Expr
    value: Expr


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(slots=True)
class Call(Expr):
    func: Expr
    args: list[Expr]


@dataclass(slots=True)
class Member(Expr):
    obj: Expr
    fieldname: str
    arrow: bool  # True for '->', False for '.'


@dataclass(slots=True)
class Index(Expr):
    array: Expr
    index: Expr


@dataclass(slots=True)
class Cast(Expr):
    to_type: "CType"
    operand: Expr


@dataclass(slots=True)
class SizeofExpr(Expr):
    operand: Expr


@dataclass(slots=True)
class SizeofType(Expr):
    of_type: "CType"


@dataclass(slots=True)
class Comma(Expr):
    exprs: list[Expr]


@dataclass(slots=True)
class InitList(Expr):
    """A brace initializer list: ``{1, 2, 3}``."""

    items: list[Expr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class EmptyStmt(Stmt):
    pass


@dataclass(slots=True)
class Block(Stmt):
    items: list[Node] = field(default_factory=list)  # Stmt or Declaration
    end_location: Location | None = None  # location of the closing brace


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt | None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass(slots=True)
class For(Stmt):
    init: Node | None  # ExprStmt or Declaration
    cond: Expr | None
    step: Expr | None
    body: Stmt


@dataclass(slots=True)
class Switch(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class Case(Stmt):
    value: Expr | None  # None => default
    body: Stmt


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Return(Stmt):
    value: Expr | None


@dataclass(slots=True)
class Goto(Stmt):
    label: str


@dataclass(slots=True)
class Label(Stmt):
    name: str
    body: Stmt


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Declarator(Node):
    """One declared name with its resolved type, annotations, and initializer."""

    name: str
    ctype: "CType"
    annotations: "AnnotationSet"
    init: Expr | None = None
    globals_list: list["GlobalUse"] = field(default_factory=list)
    modifies_list: list[str] | None = None  # None => no modifies clause


@dataclass(slots=True)
class Declaration(Node):
    """A declaration statement: zero or more declarators plus storage class."""

    declarators: list[Declarator]
    storage: str | None = None  # 'extern', 'static', 'typedef', 'register', 'auto'
    is_typedef: bool = False


@dataclass(slots=True)
class ParamDecl(Node):
    name: str | None
    ctype: "CType"
    annotations: "AnnotationSet"


@dataclass(slots=True)
class GlobalUse(Node):
    """One entry in a function's ``/*@globals ...@*/`` list."""

    name: str
    undef: bool = False  # global may be undefined at entry (paper: 'undef')
    killed: bool = False  # function releases the global's storage


@dataclass(slots=True)
class FunctionDef(Node):
    name: str
    ctype: "CType"  # a FunctionType
    params: list[ParamDecl]
    annotations: "AnnotationSet"  # return-value / function annotations
    body: Block
    storage: str | None = None
    globals_list: list[GlobalUse] = field(default_factory=list)
    modifies_list: list[str] | None = None  # None => no modifies clause


@dataclass(slots=True)
class TranslationUnit(Node):
    name: str
    items: list[Node] = field(default_factory=list)  # Declaration | FunctionDef

    def functions(self) -> list[FunctionDef]:
        return [item for item in self.items if isinstance(item, FunctionDef)]

    def declarations(self) -> list[Declaration]:
        return [item for item in self.items if isinstance(item, Declaration)]


def _materialized(slot) -> property:
    """A property over a node's location *slot*: it reads a stored
    :class:`Token` as the token's ``Location`` and keeps that.

    The setter is the slot's own: the dataclass ``__init__`` and
    unpickling store through it, and nothing else writes a location.
    """
    get = slot.__get__
    put = slot.__set__

    def read(node: Node) -> Location:
        at = get(node)
        if at.__class__ is Token:
            at = at.location
            put(node, at)
        return at

    return property(read, put)


_LOCATION_SLOT = Node.__dict__["location"]
_END_LOCATION_SLOT = Block.__dict__["end_location"]
Node.location = _materialized(_LOCATION_SLOT)  # type: ignore[assignment]
Block.end_location = _materialized(  # type: ignore[assignment]
    _END_LOCATION_SLOT
)

#: A source position as a node stores it: the parser's ``Token``, a
#: ``Location``, or ``None``. The analysis carries positions and builds
#: a ``Location`` only for what it reports (:func:`location_of`).
Position = Token | Location | None

#: ``position(node)``: the position *node* stores, read without building
#: a ``Location``; ``end_position(block)`` does the same for
#: ``Block.end_location``.
position = _LOCATION_SLOT.__get__
end_position = _END_LOCATION_SLOT.__get__


def location_of(pos: Position) -> Location | None:
    """The ``Location`` of a position (a ``Token`` builds it once)."""
    if pos.__class__ is Token:
        return pos.location
    return pos
