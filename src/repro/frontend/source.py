"""Source files and source locations.

Every token, AST node, and diagnostic carries a :class:`Location` so that
messages can be reported LCLint-style (``file.c:5: ...``) and so that
sub-locations ("Storage gname may become null" at the assignment site) can
point back into the program text.

The line-start index of a :class:`SourceFile` is built lazily (with
``re.finditer`` rather than a per-character Python loop) the first time a
location is actually needed; a file that is lexed but produces no
diagnostics and no parsed locations never pays for it.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field

_NEWLINE_RE = re.compile("\n")


@dataclass(frozen=True, order=True, slots=True)
class Location:
    """A position in a source file (1-based line and column)."""

    filename: str
    line: int
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"

    def with_column(self, column: int) -> "Location":
        return Location(self.filename, self.line, column)


#: Location used for entities with no source position (builtins, stdlib specs).
BUILTIN_LOCATION = Location("<builtin>", 0, 0)


@dataclass
class SourceFile:
    """A named body of C source text with lazy line-offset indexing."""

    name: str
    text: str
    _line_starts: list[int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def line_starts(self) -> list[int]:
        """Offsets of the first character of every line (built on demand)."""
        starts = self._line_starts
        if starts is None:
            starts = [0]
            starts.extend(m.end() for m in _NEWLINE_RE.finditer(self.text))
            self._line_starts = starts
        return starts

    @property
    def line_count(self) -> int:
        return len(self.line_starts)

    def location(self, offset: int) -> Location:
        """Map a character offset into a :class:`Location`."""
        if offset < 0:
            offset = 0
        starts = self.line_starts
        line = bisect.bisect_right(starts, offset)
        column = offset - starts[line - 1] + 1
        return Location(self.name, line, column)

    def line_of(self, offset: int) -> int:
        """The 1-based line containing *offset* (no Location allocation)."""
        if offset < 0:
            offset = 0
        return bisect.bisect_right(self.line_starts, offset)

    def coords(self, offset: int) -> tuple[str, int, int]:
        """``(filename, line, column)`` for *offset*, allocation-light."""
        if offset < 0:
            offset = 0
        starts = self.line_starts
        line = bisect.bisect_right(starts, offset)
        return self.name, line, offset - starts[line - 1] + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line (without the newline)."""
        starts = self.line_starts
        if line < 1 or line > len(starts):
            return ""
        start = starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]


class SourceManager:
    """Registry of source files, including virtual (in-memory) headers.

    The preprocessor resolves ``#include`` directives against this manager,
    which lets tests and the benchmark generator assemble multi-file
    programs without touching the real filesystem.

    The manager also owns the tokens of the included files lexed from
    it (:meth:`lexed`), so a header included by several units is lexed
    once. The cache lives here, not on the :class:`SourceFile`: every
    token points to its source, and a source that pointed back to its
    tokens would make each file a reference cycle.
    """

    def __init__(self) -> None:
        self._files: dict[str, SourceFile] = {}
        #: name -> (source, its tokens) for the sources added here.
        self._lexed: dict[str, tuple[SourceFile, list]] = {}
        #: The manager this one was copied from, which still owns the
        #: tokens of the files it holds.
        self._base: SourceManager | None = None
        #: path -> the file read from disk there (``None``: no file).
        #: Kept apart from the registered files, never copied.
        self._disk: dict[str, SourceFile | None] = {}

    def add(self, name: str, text: str) -> SourceFile:
        sf = SourceFile(name, text)
        self._files[name] = sf
        return sf

    def get(self, name: str) -> SourceFile | None:
        return self._files.get(name)

    def names(self) -> list[str]:
        return sorted(self._files)

    def copy(self) -> "SourceManager":
        """A manager holding the same files; what is added to or loaded
        into the copy stays out of this one. Tokens of the shared files
        stay cached here, those of the copy's own files in the copy."""
        clone = SourceManager()
        clone._files = dict(self._files)
        clone._base = self
        return clone

    def _owner(self, source: SourceFile) -> "SourceManager":
        """The manager *source* was added to."""
        owner = self
        while owner._base is not None and (
            owner._base._files.get(source.name) is source
        ):
            owner = owner._base
        return owner

    def lexed(self, source: SourceFile) -> list | None:
        """The tokens kept for *source* by :meth:`keep_lexed`, if any."""
        entry = self._owner(source)._lexed.get(source.name)
        if entry is not None and entry[0] is source:
            return entry[1]
        return None

    def keep_lexed(self, source: SourceFile, tokens: list) -> None:
        """Keep *source*'s tokens for as long as its owner lives."""
        self._owner(source)._lexed[source.name] = (source, tokens)

    def read(self, path: str) -> SourceFile | None:
        """The file at *path* on disk, or ``None``, read once per manager
        and never registered (:meth:`get` does not return it)."""
        if path not in self._disk:
            self._disk[path] = None
            if os.path.isfile(path):
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    self._disk[path] = SourceFile(path, f.read())
        return self._disk[path]
