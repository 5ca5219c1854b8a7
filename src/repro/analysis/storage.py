"""The storage model: references and derived references (paper section 3).

A *reference* is a variable or a location derived from a variable — a
field of a structure, the target of a dereference. The analysis keeps
dataflow values per reference, including derived references such as
``l->next->next`` in Figure 5.

Parameters get two references: the local variable (``l``) that the body
may reassign, and the *external* reference (``argl`` in the paper's
exposition, ``arg1`` here) that the caller sees and that exit-point
checking constrains. At function entry the local aliases the external.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

# References key the store's states, aliases and sites, so one is built,
# hashed and compared many times per statement. They are tuples with
# named read-only fields: construction, hashing, equality and ordering
# run in C. The tuple order is the field order, so references compare
# and sort by base kind, name and index, then path. Hot constructors
# skip the Python-level ``__new__`` and call ``_tuple_new`` directly;
# ``__getnewargs__`` gives pickling the arguments of ``__new__``. They
# are not named tuples: hypothesis's ``builds()`` would then generate
# every field, defaulted ones included, for the strategies the tests
# build states with.
_tuple_new = tuple.__new__


class RefBase(tuple):
    """The variable a reference starts from."""

    __slots__ = ()

    kind = property(itemgetter(0))  # 'local' | 'arg' | 'global' | 'ret' | 'alloc'
    name = property(itemgetter(1))
    index = property(itemgetter(2))

    def __new__(cls, kind: str, name: str = "", index: int = -1) -> "RefBase":
        return _tuple_new(cls, (kind, name, index))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"RefBase(kind={self[0]!r}, name={self[1]!r}, index={self[2]!r})"

    def describe(self) -> str:
        if self.kind == "arg":
            return f"arg{self.index + 1}"
        if self.kind == "ret":
            return "result"
        if self.kind == "alloc":
            return f"<allocation at {self.name}>"
        return self.name


#: Path steps: ('arrow', field) for p->f, ('dot', field) for s.f,
#: ('deref', '') for *p, ('index', '') for p[i] (indices collapse, §2).
PathStep = tuple[str, str]

_DEREF = ("deref", "")


class Ref(tuple):
    """A reference: a base plus a (possibly empty) access path."""

    __slots__ = ()

    base = property(itemgetter(0))
    path = property(itemgetter(1))  # tuple[PathStep, ...]

    def __new__(cls, base: RefBase, path: tuple[PathStep, ...] = ()) -> "Ref":
        return _tuple_new(cls, (base, path))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Ref(base={self[0]!r}, path={self[1]!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def local(name: str) -> "Ref":
        return Ref(RefBase("local", name))

    @staticmethod
    def arg(index: int, name: str = "") -> "Ref":
        return Ref(RefBase("arg", name, index))

    @staticmethod
    def global_(name: str) -> "Ref":
        return Ref(RefBase("global", name))

    @staticmethod
    def ret() -> "Ref":
        return Ref(RefBase("ret"))

    @staticmethod
    def allocation(site: str) -> "Ref":
        return Ref(RefBase("alloc", site))

    # -- derivation --------------------------------------------------------

    def arrow(self, fieldname: str) -> "Ref":
        return _tuple_new(Ref, (self[0], self[1] + (("arrow", fieldname),)))

    def dot(self, fieldname: str) -> "Ref":
        return _tuple_new(Ref, (self[0], self[1] + (("dot", fieldname),)))

    def deref(self) -> "Ref":
        return _tuple_new(Ref, (self[0], self[1] + (_DEREF,)))

    def index(self, strict: bool = False, key: str = "") -> "Ref":
        # Default analysis model (paper section 2): compile-time-unknown
        # array indexes all denote the same element, so p[i] and *p are
        # the same reference. Under +strictindex they are independent
        # elements: constant indexes get their own reference per value.
        if not strict:
            return _tuple_new(Ref, (self[0], self[1] + (_DEREF,)))
        return _tuple_new(Ref, (self[0], self[1] + (("index", key),)))

    def parent(self) -> "Ref | None":
        """The base reference this one is derived from (one step up)."""
        path = self[1]
        if not path:
            return None
        return _tuple_new(Ref, (self[0], path[:-1]))

    def ancestors(self) -> Iterator["Ref"]:
        """All proper prefixes, nearest first."""
        base, path = self
        for cut in range(len(path) - 1, -1, -1):
            yield _tuple_new(Ref, (base, path[:cut]))

    def is_prefix_of(self, other: "Ref") -> bool:
        path = self[1]
        return (
            len(path) < len(other[1])
            and self[0] == other[0]
            and other[1][: len(path)] == path
        )

    def replace_prefix(self, old: "Ref", new: "Ref") -> "Ref":
        """Rewrite this ref's leading *old* prefix with *new*."""
        assert old.is_prefix_of(self) or old == self
        return _tuple_new(Ref, (new[0], new[1] + self[1][len(old[1]) :]))

    @property
    def depth(self) -> int:
        return len(self.path)

    # -- presentation --------------------------------------------------------

    def describe(self) -> str:
        text = self.base.describe()
        for kind, fieldname in self.path:
            if kind == "arrow":
                text += f"->{fieldname}"
            elif kind == "dot":
                text += f".{fieldname}"
            elif kind == "deref":
                text = f"*{text}"
            else:
                key = fieldname if fieldname != "?" else ""
                text += f"[{key}]"
        return text

    def __str__(self) -> str:
        return self.describe()


class AliasMap:
    """Symmetric may-alias information between references.

    The possible aliases at a confluence point are the union of the
    possible aliases on each branch (paper, Figure 6 discussion).
    """

    def __init__(self) -> None:
        self._aliases: dict[Ref, frozenset[Ref]] = {}

    def copy(self) -> "AliasMap":
        clone = AliasMap()
        clone._aliases = dict(self._aliases)
        return clone

    def aliases_of(self, ref: Ref) -> frozenset[Ref]:
        return self._aliases.get(ref, frozenset())

    def add(self, a: Ref, b: Ref) -> None:
        if a == b:
            return
        self._aliases[a] = self.aliases_of(a) | {b}
        self._aliases[b] = self.aliases_of(b) | {a}

    def set_aliases(self, ref: Ref, aliases: frozenset[Ref]) -> None:
        aliases = aliases - {ref}
        self._aliases[ref] = aliases
        for other in aliases:
            self._aliases[other] = self.aliases_of(other) | {ref}

    def clear(self, ref: Ref) -> None:
        """Remove *ref* from all alias sets (it was reassigned)."""
        for other in self.aliases_of(ref):
            self._aliases[other] = self.aliases_of(other) - {ref}
        self._aliases.pop(ref, None)

    def merged(self, other: "AliasMap") -> "AliasMap":
        out = AliasMap()
        keys = set(self._aliases) | set(other._aliases)
        for key in keys:
            combined = self.aliases_of(key) | other.aliases_of(key)
            if combined:
                out._aliases[key] = combined
        return out

    def may_alias(self, a: Ref, b: Ref) -> bool:
        if a == b:
            return True
        return b in self.aliases_of(a)

    def closure(self, ref: Ref) -> frozenset[Ref]:
        """The reference plus everything it may alias."""
        return frozenset({ref}) | self.aliases_of(ref)

    def refs(self) -> Iterator[Ref]:
        return iter(self._aliases)

    def __contains__(self, ref: Ref) -> bool:
        """True if *ref* has an entry, even an emptied one (which
        :meth:`clear` would remove)."""
        return ref in self._aliases

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AliasMap):
            return NotImplemented
        a = {k: v for k, v in self._aliases.items() if v}
        b = {k: v for k, v in other._aliases.items() if v}
        return a == b
