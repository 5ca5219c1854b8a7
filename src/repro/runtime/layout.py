"""Memory layout for the run-time interpreter.

Objects are modelled as flat arrays of *slots*, one per scalar component,
with a parallel byte-size accounting so that ``malloc(sizeof(...))``
arithmetic behaves like C. Struct fields map to slot offsets; arrays are
repeated element layouts. This is the minimal shape needed for the
paper's programs: pointer/field/index access, strings, and nested
structures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ctypes import (
    Array,
    CType,
    EnumType,
    FunctionType,
    Pointer,
    Primitive,
    StructType,
    strip_typedefs,
)

#: Byte sizes of primitives (LP64-ish); the parser's ``sizeof`` folds
#: use them too.
PRIMITIVE_SIZES = {
    "void": 1, "char": 1, "signed char": 1, "unsigned char": 1,
    "short": 2, "unsigned short": 2, "int": 4, "unsigned int": 4,
    "long": 8, "unsigned long": 8, "long long": 8, "unsigned long long": 8,
    "float": 4, "double": 8, "long double": 16,
}

POINTER_SIZE = 8


class LayoutError(Exception):
    pass


@dataclass(frozen=True)
class FieldSlot:
    name: str
    slot: int
    ctype: CType


@dataclass
class Layout:
    """Slot layout of one C type."""

    ctype: CType
    slot_count: int
    byte_size: int
    fields: tuple[FieldSlot, ...] = ()
    element: "Layout | None" = None  # for arrays
    element_count: int = 1

    def field(self, name: str) -> FieldSlot | None:
        for fld in self.fields:
            if fld.name == name:
                return fld
        return None


_CACHE: dict[int, Layout] = {}


def layout_of(ctype: CType, depth: int = 0) -> Layout:
    """Compute (and cache) the layout of a type."""
    return _layout(ctype, depth, _CACHE)


def byte_size(ctype: CType) -> int:
    """``sizeof`` of a type, computed without touching the process-wide
    cache: the parser folds ``sizeof`` for every unit it parses, and a
    long-lived checking service must not keep every type it has seen."""
    return _layout(ctype, 0, {}).byte_size


def _layout(ctype: CType, depth: int, cache: dict[int, Layout]) -> Layout:
    actual = strip_typedefs(ctype)
    key = id(actual)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if depth > 32:
        raise LayoutError(f"type nesting too deep for {actual}")

    if isinstance(actual, (Pointer, FunctionType)):
        result = Layout(actual, 1, POINTER_SIZE)
    elif isinstance(actual, EnumType):
        result = Layout(actual, 1, PRIMITIVE_SIZES["int"])
    elif isinstance(actual, Primitive):
        result = Layout(actual, 1, PRIMITIVE_SIZES.get(actual.name, 4))
    elif isinstance(actual, Array):
        elem = _layout(actual.of, depth + 1, cache)
        count = actual.size if actual.size is not None else 1
        result = Layout(
            actual,
            elem.slot_count * count,
            elem.byte_size * count,
            element=elem,
            element_count=count,
        )
    elif isinstance(actual, StructType):
        # Reserve the cache slot first so recursive structs (through
        # pointers only, as in C) terminate.
        slots: list[FieldSlot] = []
        offset = 0
        size = 0
        for fld in actual.fields or []:
            sub = _layout(fld.ctype, depth + 1, cache)
            slots.append(FieldSlot(fld.name, offset, fld.ctype))
            if actual.is_union:
                size = max(size, sub.byte_size)
            else:
                offset += sub.slot_count
                size += sub.byte_size
        slot_count = max(offset, 1) if not actual.is_union else max(
            (_layout(f.ctype, depth + 1, cache).slot_count
             for f in actual.fields or []),
            default=1,
        )
        result = Layout(actual, slot_count, max(size, 1), tuple(slots))
    else:
        result = Layout(actual, 1, 4)

    cache[key] = result
    return result


def sizeof_ctype(ctype: CType) -> int:
    return layout_of(ctype).byte_size
