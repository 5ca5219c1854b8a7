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

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class RefBase:
    kind: str  # 'local' | 'arg' | 'global' | 'ret' | 'alloc'
    name: str = ""
    index: int = -1

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


@dataclass(frozen=True, order=True)
class Ref:
    """A reference: a base plus a (possibly empty) access path."""

    base: RefBase
    path: tuple[PathStep, ...] = ()

    # Refs key the store's states/aliases/sites dicts, so one ref is
    # hashed many times per statement; the dataclass-generated __hash__
    # re-hashed the field tuple on every lookup. Cache it on first use.
    # The cache must never be pickled (string hashes are per-process
    # under hash randomization), hence the explicit state methods.

    def __hash__(self) -> int:
        try:
            return self._cached_hash
        except AttributeError:
            value = hash((self.base, self.path))
            object.__setattr__(self, "_cached_hash", value)
            return value

    # A function check interns its base references (see FunctionChecker),
    # so most comparisons are between identical objects: try that first.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.path) == (other.base, other.path)

    def __getstate__(self):
        return (self.base, self.path)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "base", state[0])
        object.__setattr__(self, "path", state[1])

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
        return Ref(self.base, self.path + (("arrow", fieldname),))

    def dot(self, fieldname: str) -> "Ref":
        return Ref(self.base, self.path + (("dot", fieldname),))

    def deref(self) -> "Ref":
        return Ref(self.base, self.path + (("deref", ""),))

    def index(self, strict: bool = False, key: str = "") -> "Ref":
        # Default analysis model (paper section 2): compile-time-unknown
        # array indexes all denote the same element, so p[i] and *p are
        # the same reference. Under +strictindex they are independent
        # elements: constant indexes get their own reference per value.
        if not strict:
            return Ref(self.base, self.path + (("deref", ""),))
        return Ref(self.base, self.path + (("index", key),))

    def parent(self) -> "Ref | None":
        """The base reference this one is derived from (one step up)."""
        if not self.path:
            return None
        return Ref(self.base, self.path[:-1])

    def ancestors(self) -> Iterator["Ref"]:
        """All proper prefixes, nearest first."""
        for cut in range(len(self.path) - 1, -1, -1):
            yield Ref(self.base, self.path[:cut])

    def is_prefix_of(self, other: "Ref") -> bool:
        path = self.path
        return (
            len(path) < len(other.path)
            and (self.base is other.base or self.base == other.base)
            and other.path[: len(path)] == path
        )

    def replace_prefix(self, old: "Ref", new: "Ref") -> "Ref":
        """Rewrite this ref's leading *old* prefix with *new*."""
        assert old.is_prefix_of(self) or old == self
        return Ref(new.base, new.path + self.path[len(old.path) :])

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AliasMap):
            return NotImplemented
        a = {k: v for k, v in self._aliases.items() if v}
        b = {k: v for k, v in other._aliases.items() if v}
        return a == b
