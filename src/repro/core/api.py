"""Public checking API: the per-unit records and stages, and the facade.

Typical use::

    from repro import check_source
    result = check_source(open("sample.c").read(), name="sample.c")
    for message in result.messages:
        print(message.render())

Multi-file programs are checked with :class:`Checker`, which parses every
unit, merges the interface information into one symbol table (the paper's
"libraries to store interface information"), and then checks each
function independently against that merged interface.

:class:`Checker` is the checking engine
(:class:`repro.incremental.engine.IncrementalChecker`) with no cache and
no cache server; this module holds what the engine runs per unit — the
prelude, :func:`check_parsed_unit`, the symbol-table builders — and the
:class:`CheckResult` every run returns.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from ..analysis.checker import CheckContext, FunctionChecker
from ..annotations.parse import AnnotationProblem
from ..flags.registry import Flags
from ..frontend import cast as A
from ..frontend.parser import Parser
from ..frontend.preprocessor import Preprocessor
from ..frontend.source import SourceManager
from .faults import FatalError, write_crash_bundle
from ..frontend.symtab import SymbolTable
from ..frontend.tokens import Token
from ..messages.message import Message, MessageCode
from ..messages.reporter import Reporter
from ..messages.suppress import SuppressionTable
from ..obs.trace import NULL_TRACER
from ..stdlib.specs import (
    PRELUDE_DEFINES,
    PRELUDE_NAME,
    PRELUDE_TEXT,
    SYSTEM_HEADERS,
)


class Prelude(NamedTuple):
    """The standard-library prelude every check runs against."""

    #: Its translation unit.
    unit: A.TranslationUnit
    #: The parser's file scope after it: the typedefs and tags that
    #: pre-seed every user-unit parser.
    scope: object
    #: Its declarations: every program symbol table starts from a copy
    #: of these dicts (merges replace an entry, never change one in
    #: place, so the tables share the entries).
    symtab: SymbolTable


_PRELUDE: Prelude | None = None
_PRELUDE_LOCK = threading.Lock()


def ensure_process_initialized() -> Prelude:
    """Parse the prelude and build its symbol-table template, once per
    process; safe to call from the service's worker threads and from
    the difftest campaign's pool-worker initializer.

    The first caller builds under the lock; a caller racing it waits
    and gets the same prelude. A built prelude is returned without the
    lock, so a pool worker forked while another thread of its parent
    held the lock does not wait on it forever.
    """
    global _PRELUDE
    if _PRELUDE is not None:
        return _PRELUDE
    with _PRELUDE_LOCK:
        if _PRELUDE is None:
            preprocessor = Preprocessor(
                SourceManager(), defines=dict(PRELUDE_DEFINES),
                system_headers=SYSTEM_HEADERS,
            )
            tokens = preprocessor.preprocess_text(PRELUDE_TEXT, PRELUDE_NAME)
            parser = Parser(tokens, PRELUDE_NAME)
            unit = parser.parse_translation_unit()
            symtab = SymbolTable()
            symtab.add_unit(unit)
            _PRELUDE = Prelude(unit, parser.scope, symtab)
        return _PRELUDE


def prelude() -> Prelude:
    """The process's prelude; the hot paths read it without the lock."""
    return _PRELUDE or ensure_process_initialized()


@dataclass
class ParsedUnit:
    unit: A.TranslationUnit
    controls: list[Token]
    problems: list[AnnotationProblem]
    enum_consts: dict[str, int]
    parse_errors: list = field(default_factory=list)
    #: Set when the frontend gave up on the whole file (unlexable input,
    #: a contained internal error, ...); ``unit`` is then empty.
    fatal_error: FatalError | None = None

    @property
    def degraded(self) -> bool:
        """True when any part of the unit could not be analyzed normally."""
        return bool(self.parse_errors) or self.fatal_error is not None


def failed_parsed_unit(name: str, fatal: FatalError) -> ParsedUnit:
    """The stand-in for a unit the frontend could not process at all."""
    unit = A.TranslationUnit(fatal.location, name=name, items=[])
    return ParsedUnit(
        unit=unit, controls=[], problems=[], enum_consts={},
        fatal_error=fatal,
    )


@dataclass
class UnitCheckOutput:
    """The outcome of checking one translation unit in isolation.

    Messages are already flag-filtered, suppression-filtered (against the
    unit's own control comments), and sorted. Outputs from several units
    merge into a program-level result with :func:`merge_unit_outputs`.

    ``degraded`` marks a result produced under fault containment (parse
    recovery, a skipped file, or a contained crash). Degraded results
    must never be cached as clean: the unit is re-checked on every run.
    ``internal_errors`` counts contained checker crashes, which drive the
    CLI's exit status 3.
    """

    messages: list[Message]
    suppressed: int = 0
    degraded: bool = False
    internal_errors: int = 0


def unit_interface(pu: "ParsedUnit") -> SymbolTable:
    """Extract the interface slice (signatures + globals) of one unit."""
    symtab = SymbolTable()
    symtab.add_unit(pu.unit)
    return symtab


def build_program_symtab(
    interfaces: list[SymbolTable],
    base_symtab: SymbolTable | None = None,
) -> SymbolTable:
    """Assemble the merged program symbol table the paper's modular
    checking assumes: prelude first, then loaded libraries, then each
    unit's interface slice in program order."""
    symtab = SymbolTable()
    template = prelude().symtab
    symtab.functions.update(template.functions)
    symtab.globals.update(template.globals)
    if base_symtab is not None:
        from ..driver.library import merge_symtabs

        merge_symtabs(symtab, base_symtab)
    for interface in interfaces:
        symtab.merge_interface(interface)
    return symtab


def _internal_names(unit: A.TranslationUnit) -> set[str]:
    """Names the unit declares ``static`` at file scope."""
    names: set[str] = set()
    for item in unit.items:
        if getattr(item, "storage", None) != "static":
            continue
        if isinstance(item, A.FunctionDef):
            names.add(item.name)
        elif isinstance(item, A.Declaration):
            names.update(d.name for d in item.declarators if d.name)
    return names


def unit_symtab(
    symtab: SymbolTable, unit: A.TranslationUnit, interface: SymbolTable
) -> SymbolTable:
    """The program symbol table as one unit sees it.

    The program table keeps one entry per name, so two units' ``static``
    functions or file-scope objects of the same name collide there. The
    unit's own internal-linkage entries, taken from its *interface*
    slice, shadow whatever another unit put there. Returns *symtab*
    itself when nothing collides.
    """
    functions: dict = {}
    globals_: dict = {}
    for name in _internal_names(unit):
        own = interface.functions.get(name)
        if own is not None and symtab.functions.get(name) is not own:
            functions[name] = own
        own = interface.globals.get(name)
        if own is not None and symtab.globals.get(name) is not own:
            globals_[name] = own
    if not functions and not globals_:
        return symtab
    view = SymbolTable()
    view.functions = {**symtab.functions, **functions}
    view.globals = {**symtab.globals, **globals_}
    return view


def check_parsed_unit(
    pu: "ParsedUnit",
    symtab: SymbolTable,
    flags: Flags,
    enum_consts: dict[str, int] | None = None,
    crash_dir: str | None = None,
    tracer=NULL_TRACER,
    *,
    interface: SymbolTable,
) -> UnitCheckOutput:
    """Check one parsed unit against a merged interface.

    *interface* is the unit's own slice (:func:`unit_interface`): its
    ``static`` functions and objects win over same-named ones of other
    units (:func:`unit_symtab`).

    This is a pure function of its inputs (no module-global state beyond
    the immutable prelude parse), which is what makes per-unit results
    cacheable and lets each unit be checked on its own. The
    *tracer* is measurement only — it never changes the output — and
    per-function spans are emitted only when a trace sink is attached
    (``tracer.emitting``), so the default path stays free.

    Analysis faults are contained per function: an unexpected exception
    while checking one function becomes an ``internal-error`` message
    plus a crash bundle under *crash_dir*, and the remaining functions
    of the unit are still checked.
    """
    reporter = Reporter(flags=flags)
    degraded = pu.degraded
    internal_errors = 0
    if pu.fatal_error is not None:
        fatal = pu.fatal_error
        if fatal.kind == "internal":
            internal_errors += 1
            reporter.report(
                MessageCode.INTERNAL_ERROR, fatal.location, fatal.description
            )
        else:
            reporter.report(
                MessageCode.PARSE_ERROR, fatal.location,
                f"Cannot parse this file: {fatal.description} "
                f"(file skipped)",
            )
    for problem in pu.problems:
        reporter.report(
            MessageCode.ANNOTATION_PROBLEM, problem.location,
            problem.description,
        )
    for error in pu.parse_errors:
        reporter.report(
            MessageCode.PARSE_ERROR, error.location,
            f"Parse error: {error.args[0].split(': ', 1)[-1]} "
            f"(skipped to the next declaration)",
        )
    ctx = CheckContext(
        symtab=unit_symtab(symtab, pu.unit, interface),
        reporter=reporter, flags=flags,
        enum_consts=dict(enum_consts or {}),
    )
    for fdef in pu.unit.functions():
        try:
            if tracer.emitting:
                with tracer.span(
                    "function", cat="function",
                    function=fdef.name, unit=pu.unit.name,
                ):
                    FunctionChecker(ctx, fdef).check()
            else:
                FunctionChecker(ctx, fdef).check()
        except Exception as exc:
            degraded = True
            internal_errors += 1
            write_crash_bundle(
                crash_dir, phase="check", unit=pu.unit.name,
                function=fdef.name, exc=exc,
            )
            # Only the exception *type* goes into the message: reprs can
            # embed object addresses, and message text must be identical
            # from run to run. The full detail lives in the crash bundle.
            reporter.report(
                MessageCode.INTERNAL_ERROR, fdef.location,
                f"Internal error ({type(exc).__name__}) while checking "
                f"function '{fdef.name}' (function skipped; rest of the "
                f"unit still checked)",
            )
    table = SuppressionTable.from_controls(pu.controls)
    reporter.apply_suppressions(table)
    return UnitCheckOutput(
        messages=reporter.sorted_messages(),
        suppressed=reporter.suppressed_count,
        degraded=degraded,
        internal_errors=internal_errors,
    )


def merge_unit_outputs(
    outputs: list[UnitCheckOutput],
) -> tuple[list[Message], int]:
    """Combine per-unit outputs into one sorted, deduplicated message list.

    Units sharing a header may each report the same header-located message
    (an annotation problem, say); the reporter deduplicates those within a
    run, so the merge deduplicates across units by the same key.
    """
    seen: set[tuple] = set()
    merged: list[Message] = []
    suppressed = 0
    for out in outputs:
        suppressed += out.suppressed
        for msg in out.messages:
            key = (msg.code, msg.location, msg.text)
            if key in seen:
                continue
            seen.add(key)
            merged.append(msg)
    return sorted(merged, key=Message.sort_key), suppressed


@dataclass
class CheckResult:
    """The outcome of a checking run.

    ``degraded_units`` names the translation units whose results were
    produced under fault containment (parse recovery, skipped files,
    contained crashes); ``internal_errors`` counts contained checker
    crashes across the run (nonzero drives CLI exit status 3).
    """

    messages: list[Message]
    suppressed: int = 0
    units: list[A.TranslationUnit] = field(default_factory=list)
    degraded_units: list[str] = field(default_factory=list)
    internal_errors: int = 0
    #: Builds :attr:`symtab` on its first read.
    symtab_factory: Callable[[], SymbolTable] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def symtab(self) -> SymbolTable | None:
        """The merged program symbol table (``-dump``, ``-trace``,
        ``save_library``). A run that did not need it —
        a fully-warm engine run checks nothing — leaves it to be built
        here, on first read. A memo slice that does not decode here is
        replaced in the local cache only: the run has already published
        to the cache service."""
        if self.symtab_factory is None:
            return None
        return self.symtab_factory()

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_units)

    def render(self) -> str:
        parts = [m.render() for m in self.messages]
        parts.append(f"\n{len(self.messages)} code warning(s)")
        return "\n".join(parts)

    def codes(self) -> list[MessageCode]:
        return [m.code for m in self.messages]

    def by_code(self) -> dict[MessageCode, list[Message]]:
        out: dict[MessageCode, list[Message]] = {}
        for msg in self.messages:
            out.setdefault(msg.code, []).append(msg)
        return out

    def error_classes(self) -> dict[str, list[Message]]:
        """Messages grouped by the dynamic memory-error class they evidence.

        Codes with no dynamic counterpart (parse errors, style checks) are
        omitted; this is the static side of the difftest verdict contract
        (see :data:`repro.messages.message.MEMORY_ERROR_CLASSES`).
        """
        out: dict[str, list[Message]] = {}
        for msg in self.messages:
            cls = msg.code.error_class
            if cls is not None:
                out.setdefault(cls, []).append(msg)
        return out

    def __len__(self) -> int:
        return len(self.messages)


# The engine imports the records and stages above, so it is imported
# once they are defined. ``import repro`` loads this module first, so
# every import order reaches this line with the engine not yet loaded.
from ..incremental.engine import IncrementalChecker  # noqa: E402


class Checker(IncrementalChecker):
    """Checks one or more C source files LCLint-style: the engine with
    no cache and no cache server, so a run keys, digests and
    fingerprints nothing (see ``IncrementalChecker.incremental``).
    """

    def __init__(
        self,
        flags: Flags | None = None,
        sources: SourceManager | None = None,
        defines: dict[str, str] | None = None,
        crash_dir: str | None = None,
        tracer=None,
    ) -> None:
        super().__init__(
            flags=flags, defines=defines, crash_dir=crash_dir, tracer=tracer
        )
        if sources is not None:
            self.sources = sources

    # Instrumentation wraps check_sources through each class's own
    # __dict__, so a plain run's calls stay apart from the cached
    # engine's; this entry is the plain run's.
    check_sources = IncrementalChecker.check_sources


def check_source(
    text: str,
    name: str = "<string>",
    flags: Flags | None = None,
    extra_sources: dict[str, str] | None = None,
    crash_dir: str | None = None,
) -> CheckResult:
    """Check a single C source string; the common entry point."""
    checker = Checker(flags=flags, crash_dir=crash_dir)
    for header, contents in (extra_sources or {}).items():
        checker.sources.add(header, contents)
    return checker.check_units([checker.parse_unit(text, name)])


def check_files(paths: list[str], flags: Flags | None = None) -> CheckResult:
    return Checker(flags=flags).check_files(paths)
