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
        for item in unit.items:
            if isinstance(item, A.FunctionDef):
                self.add_function_def(item)
            elif isinstance(item, A.Declaration):
                self.add_declaration(item)

    def add_declaration(self, decl: A.Declaration) -> None:
        if decl.is_typedef:
            return
        for dtor in decl.declarators:
            actual = strip_typedefs(dtor.ctype)
            if isinstance(actual, FunctionType):
                self._add_function_decl(dtor, actual)
            else:
                self._add_global(dtor, decl.storage)

    def _add_function_decl(self, dtor: A.Declarator, ftype: FunctionType) -> None:
        existing = self.functions.get(dtor.name)
        if existing is not None and existing.has_definition:
            return  # the definition's interface wins
        sig = FunctionSignature(
            name=dtor.name,
            ret_type=ftype.ret,
            ret_annotations=dtor.annotations,
            params=list(ftype.params),
            variadic=ftype.variadic,
            old_style=ftype.old_style,
            globals_list=list(dtor.globals_list),
            modifies_list=(
                list(dtor.modifies_list)
                if dtor.modifies_list is not None
                else None
            ),
            location=dtor.location,
        )
        if existing is not None:
            sig = _merge_signatures(existing, sig)
        self.functions[dtor.name] = sig

    def add_function_def(self, fdef: A.FunctionDef) -> None:
        ftype = strip_typedefs(fdef.ctype)
        assert isinstance(ftype, FunctionType)
        params = [
            ParamType(p.name, p.ctype, p.annotations) for p in fdef.params
        ]
        sig = FunctionSignature(
            name=fdef.name,
            ret_type=ftype.ret,
            ret_annotations=fdef.annotations,
            params=params,
            variadic=ftype.variadic,
            old_style=ftype.old_style,
            globals_list=list(fdef.globals_list),
            modifies_list=(
                list(fdef.modifies_list)
                if fdef.modifies_list is not None
                else None
            ),
            location=fdef.location,
            has_definition=True,
        )
        existing = self.functions.get(fdef.name)
        if existing is not None and not existing.has_definition:
            sig = _merge_signatures(sig, existing, prefer_first=True)
        self.functions[fdef.name] = sig

    def _add_global(self, dtor: A.Declarator, storage: str | None) -> None:
        existing = self.globals.get(dtor.name)
        gvar = GlobalVariable(
            name=dtor.name,
            ctype=dtor.ctype,
            annotations=dtor.annotations,
            location=dtor.location,
            storage=storage,
            has_initializer=dtor.init is not None,
        )
        if existing is not None:
            # extern declaration + definition: keep the richer annotations
            if existing.annotations.is_empty() and not dtor.annotations.is_empty():
                existing.annotations = dtor.annotations
            existing.has_initializer = existing.has_initializer or gvar.has_initializer
            return
        self.globals[dtor.name] = gvar

    # -- merging --------------------------------------------------------------

    def merge_interface(self, other: "SymbolTable") -> None:
        """Merge another table's interface slice into this one.

        Replicates the precedence of adding the underlying declarations
        sequentially with :meth:`add_unit`: a later declaration's
        annotations win over an earlier declaration's, a definition's
        interface wins over any declaration, and declarations seen after
        a definition are ignored. This is what lets the incremental
        engine rebuild the program symbol table from cached per-unit
        interface slices without reparsing every unit.
        """
        for name, sig in other.functions.items():
            existing = self.functions.get(name)
            if existing is None:
                merged = sig
            elif existing.has_definition and not sig.has_definition:
                continue
            elif sig.has_definition and not existing.has_definition:
                merged = _merge_signatures(sig, existing, prefer_first=True)
            elif sig.has_definition and existing.has_definition:
                merged = sig
            else:
                merged = _merge_signatures(existing, sig)
            self.functions[name] = merged
        # Merged globals are replaced, never changed in place: the entry
        # may be another table's object (a unit's interface slice, the
        # prelude template), which must stay as that table built it.
        for name, gvar in other.globals.items():
            existing = self.globals.get(name)
            if existing is None:
                self.globals[name] = gvar
                continue
            annotations = existing.annotations
            if annotations.is_empty() and not gvar.annotations.is_empty():
                annotations = gvar.annotations
            has_initializer = existing.has_initializer or gvar.has_initializer
            if (
                annotations is not existing.annotations
                or has_initializer != existing.has_initializer
            ):
                self.globals[name] = replace(
                    existing, annotations=annotations,
                    has_initializer=has_initializer,
                )

    # -- queries --------------------------------------------------------------

    def function(self, name: str) -> FunctionSignature | None:
        return self.functions.get(name)

    def global_var(self, name: str) -> GlobalVariable | None:
        return self.globals.get(name)


def _merge_signatures(
    primary: FunctionSignature,
    secondary: FunctionSignature,
    prefer_first: bool = False,
) -> FunctionSignature:
    """Merge a redeclaration into an existing signature.

    Annotations accumulate: a prototype in a header usually carries the
    interface annotations, while the definition may carry none. Unset
    categories flow from the other declaration.
    """
    first, second = (primary, secondary) if prefer_first else (secondary, primary)
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
