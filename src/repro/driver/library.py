"""Interface libraries for modular checking (paper section 7).

"By using libraries to store interface information, a representative
5000 line module is checked in under 10 seconds."

A library file stores the interface slice of a symbol table — function
signatures with their annotations and annotated global declarations —
so that re-checking one module does not require re-parsing the rest of
the program. The on-disk format is a versioned pickle (LCLint's ``.lcd``
files were similarly a binary interface dump).
"""

from __future__ import annotations

import pickle

from ..frontend import safe_pickle
from ..frontend.symtab import SymbolTable

LIBRARY_MAGIC = b"PYLCLINT-LCD"
LIBRARY_VERSION = 1


class LibraryError(Exception):
    pass


def save_library(symtab: SymbolTable, path: str) -> None:
    """Dump a symbol table's interface information to *path*."""
    payload = {
        "version": LIBRARY_VERSION,
        "functions": symtab.functions,
        "globals": symtab.globals,
    }
    with open(path, "wb") as handle:
        handle.write(LIBRARY_MAGIC)
        pickle.dump(payload, handle)


def load_library(path: str) -> SymbolTable:
    """Load an interface library saved by :func:`save_library`."""
    with open(path, "rb") as handle:
        magic = handle.read(len(LIBRARY_MAGIC))
        if magic != LIBRARY_MAGIC:
            raise LibraryError(f"{path}: not a pylclint library file")
        try:
            payload = safe_pickle.load(handle)
        except pickle.UnpicklingError as exc:
            raise LibraryError(f"{path}: {exc}") from None
    if payload.get("version") != LIBRARY_VERSION:
        raise LibraryError(
            f"{path}: unsupported library version {payload.get('version')!r}"
        )
    symtab = SymbolTable()
    symtab.functions = payload["functions"]
    symtab.globals = payload["globals"]
    return symtab


def merge_symtabs(base: SymbolTable, extra: SymbolTable) -> None:
    """Merge *extra*'s interface info into *base* (definitions win)."""
    for name, sig in extra.functions.items():
        existing = base.functions.get(name)
        if existing is None or (sig.has_definition and not existing.has_definition):
            base.functions[name] = sig
    for name, gvar in extra.globals.items():
        if name not in base.globals:
            base.globals[name] = gvar
