"""File-scope symbol information used by the checker and the interpreter.

The paper's analysis is purely modular: when checking a function body,
the only information available about other functions is their *interface*
— the declared types plus annotations. :class:`SymbolTable` collects
exactly that interface from a translation unit (and from the annotated
standard library and any interface libraries loaded by the driver).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..annotations.kinds import AnnotationSet
from . import cast as A
from .ctypes import CType, FunctionType, ParamType, strip_typedefs
from .source import BUILTIN_LOCATION, Location


@dataclass
class FunctionSignature:
    """Everything a call site may assume about a function (paper section 2)."""

    name: str
    ret_type: CType
    ret_annotations: AnnotationSet
    params: list[ParamType]
    variadic: bool = False
    old_style: bool = False
    globals_list: list[A.GlobalUse] = field(default_factory=list)
    modifies_list: list[str] | None = None
    location: Location = BUILTIN_LOCATION
    has_definition: bool = False

    @property
    def is_truenull(self) -> bool:
        return self.ret_annotations.truenull

    @property
    def is_falsenull(self) -> bool:
        return self.ret_annotations.falsenull


@dataclass
class GlobalVariable:
    name: str
    ctype: CType
    annotations: AnnotationSet
    location: Location = BUILTIN_LOCATION
    storage: str | None = None
    has_initializer: bool = False


class SymbolTable:
    """Interface information for one checking run."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionSignature] = {}
        self.globals: dict[str, GlobalVariable] = {}

    # -- construction -------------------------------------------------------

    def add_unit(self, unit: A.TranslationUnit) -> None:
        """Add a unit's file-scope functions and globals in order, each
        merged by the rule of :meth:`merge_interface`."""
        for item in unit.items:
            if isinstance(item, A.FunctionDef):
                ftype = strip_typedefs(item.ctype)
                assert isinstance(ftype, FunctionType)
                params = [
                    ParamType(p.name, p.ctype, p.annotations)
                    for p in item.params
                ]
                self._merge_function(
                    _signature(item, ftype, params, has_definition=True)
                )
            elif isinstance(item, A.Declaration) and not item.is_typedef:
                for dtor in item.declarators:
                    ftype = strip_typedefs(dtor.ctype)
                    if isinstance(ftype, FunctionType):
                        self._merge_function(
                            _signature(dtor, ftype, list(ftype.params))
                        )
                        continue
                    self._merge_global(GlobalVariable(
                        name=dtor.name,
                        ctype=dtor.ctype,
                        annotations=dtor.annotations,
                        location=dtor.location,
                        storage=item.storage,
                        has_initializer=dtor.init is not None,
                    ))

    # -- merging --------------------------------------------------------------

    def merge_interface(self, other: "SymbolTable") -> None:
        """Merge another table's interface slice into this one.

        One rule, the one :meth:`add_unit` applies declaration by
        declaration: a later declaration's annotations win over an
        earlier declaration's, a definition's interface wins over any
        declaration, and declarations seen after a definition are
        ignored. This is what lets the incremental engine rebuild the
        program symbol table from cached per-unit interface slices
        without reparsing every unit.
        """
        for sig in other.functions.values():
            self._merge_function(sig)
        for gvar in other.globals.values():
            self._merge_global(gvar)

    def _merge_function(self, sig: FunctionSignature) -> None:
        existing = self.functions.get(sig.name)
        if existing is not None and not existing.has_definition:
            sig = _merge_signatures(sig, existing)
        elif existing is not None and not sig.has_definition:
            return  # the definition's interface wins
        self.functions[sig.name] = sig

    def _merge_global(self, gvar: GlobalVariable) -> None:
        """An extern declaration and a definition: the first keeps its
        type and location, the richer annotations win. Entries are
        replaced, never changed in place: one may be another table's
        object (a unit's interface slice, the prelude template), which
        must stay as that table built it."""
        existing = self.globals.get(gvar.name)
        if existing is None:
            self.globals[gvar.name] = gvar
            return
        annotations = existing.annotations
        if annotations.is_empty() and not gvar.annotations.is_empty():
            annotations = gvar.annotations
        has_initializer = existing.has_initializer or gvar.has_initializer
        if (
            annotations is not existing.annotations
            or has_initializer != existing.has_initializer
        ):
            self.globals[gvar.name] = replace(
                existing, annotations=annotations,
                has_initializer=has_initializer,
            )

    # -- queries --------------------------------------------------------------

    def function(self, name: str) -> FunctionSignature | None:
        return self.functions.get(name)

    def global_var(self, name: str) -> GlobalVariable | None:
        return self.globals.get(name)


def _merge_signatures(
    first: FunctionSignature, second: FunctionSignature
) -> FunctionSignature:
    """Merge an earlier declaration, *second*, under a later declaration
    or the definition, *first*.

    Annotations accumulate: a prototype in a header usually carries the
    interface annotations, while the definition may carry none. Unset
    categories flow from the other declaration.
    """
    merged_ret = first.ret_annotations.merged_under(second.ret_annotations)
    params: list[ParamType] = []
    for i, param in enumerate(first.params):
        other = second.params[i] if i < len(second.params) else None
        anns = param.annotations
        if other is not None:
            anns = anns.merged_under(other.annotations)
        params.append(ParamType(param.name, param.ctype, anns))
    return FunctionSignature(
        name=first.name,
        ret_type=first.ret_type,
        ret_annotations=merged_ret,
        params=params,
        variadic=first.variadic or second.variadic,
        old_style=first.old_style and second.old_style,
        globals_list=first.globals_list or second.globals_list,
        modifies_list=(
            first.modifies_list
            if first.modifies_list is not None
            else second.modifies_list
        ),
        location=first.location,
        has_definition=first.has_definition or second.has_definition,
    )


def _signature(
    node: A.Declarator | A.FunctionDef,
    ftype: FunctionType,
    params: list[ParamType],
    has_definition: bool = False,
) -> FunctionSignature:
    """The signature a function declarator or definition declares."""
    return FunctionSignature(
        name=node.name,
        ret_type=ftype.ret,
        ret_annotations=node.annotations,
        params=params,
        variadic=ftype.variadic,
        old_style=ftype.old_style,
        globals_list=list(node.globals_list),
        modifies_list=(
            list(node.modifies_list)
            if node.modifies_list is not None
            else None
        ),
        location=node.location,
        has_definition=has_definition,
    )
