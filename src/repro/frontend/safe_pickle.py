"""Decode the pickles the checker reads back, admitting only its own data.

Unit memos (and the interface slices inside them, local or pulled from a
cache service) and ``-load`` libraries are pickles, and a plain unpickler
imports and calls whatever a payload names. :func:`load` and
:func:`loads` admit only :data:`ALLOWED_CLASSES`; a payload naming
anything else raises :class:`pickle.UnpicklingError`.
"""

from __future__ import annotations

import io
import pickle

#: Every class a memo, an interface slice or a library holds, by module:
#: symbol-table entries, C types, annotations, source locations and
#: ``/*@globals@*/`` entries. Nothing that acts on files or processes.
ALLOWED_CLASSES = {
    "repro.annotations.kinds": frozenset({
        "AllocAnn", "AnnotationSet", "DefAnn", "ExposureAnn", "NullAnn",
    }),
    "repro.frontend.cast": frozenset({"GlobalUse"}),
    "repro.frontend.ctypes": frozenset({
        "Array", "EnumType", "FieldDecl", "FunctionType", "ParamType",
        "Pointer", "Primitive", "StructType", "TypedefType",
    }),
    "repro.frontend.source": frozenset({"Location"}),
    "repro.frontend.symtab": frozenset({
        "FunctionSignature", "GlobalVariable", "SymbolTable",
    }),
}


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if name not in ALLOWED_CLASSES.get(module, ()):
            raise pickle.UnpicklingError(
                f"a checker payload may not name {module}.{name}"
            )
        return super().find_class(module, name)


def load(handle):
    """Decode one pickle from the binary file *handle*."""
    return _Unpickler(handle).load()


def loads(data: bytes):
    """Decode the pickle *data*."""
    return load(io.BytesIO(data))
