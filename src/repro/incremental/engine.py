"""The checking engine: every check runs through it, in one process.

A run is five stages (plan, probe, symtab, check, write; see
:meth:`IncrementalChecker.check_sources`). :class:`repro.core.api.Checker`
is this engine with no result cache and no cache server, so the plain
CLI, ``check_source``, difftest, the interpreter and the cached engine
share one frontend path and one check path.

A result cache or a cache server makes re-checking cheap — the
property the paper leans on ("fast enough to run as part of every
build"):

* **warm units skip everything** — a unit whose raw text, includes,
  flags, and program interface are unchanged is answered straight from
  the result cache without preprocessing, parsing, or checking;
* **interface-sensitive invalidation** — editing a function body
  re-checks only that unit; editing an exported interface (a header, an
  annotation on a signature) changes the program digest and re-checks
  every unit, exactly the modular contract of paper section 7.

Without a cache or a cache server nothing reads a key or a digest, so a
run computes no source key, digest or fingerprint and neither probes
nor counts cache traffic (:attr:`IncrementalChecker.incremental`).
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field

from ..core.api import (
    CheckResult,
    ParsedUnit,
    UnitCheckOutput,
    build_program_symtab,
    check_parsed_unit,
    ensure_process_initialized,
    failed_parsed_unit,
    merge_unit_outputs,
    prelude,
    unit_interface,
)
from ..core.faults import (
    cancel_checkpoint,
    frontend_fatal,
    internal_fatal,
    write_crash_bundle,
)
from ..flags.registry import DEFAULT_FLAGS, Flags
from ..frontend.lexer import LexError
from ..frontend.parser import ParseError, Parser
from ..frontend.preprocessor import (
    PreprocessError,
    Preprocessor,
    resolve_include,
)
from ..frontend.source import SourceManager
from ..frontend.symtab import SymbolTable
from ..frontend.tokens import Token
from ..obs.metrics import GLOBAL_METRICS
from ..obs.trace import Tracer
from ..stdlib.specs import (
    PRELUDE_COVERED_HEADERS,
    PRELUDE_DEFINES,
    SYSTEM_HEADERS,
)
from .cache import ResultCache, UnitMemo, decode_slice, encode_slice
from .fingerprint import (
    FAILED_INTERFACE_DIGEST,
    check_fingerprint,
    defines_digest,
    flags_digest,
    program_digest,
    source_key,
    text_digest,
    unit_digests,
)


@dataclass
class CheckStats:
    """Per-phase timing and cache-traffic counters for one run.

    ``preprocess_s`` is the whole preprocessing phase *including* lexing;
    ``lex_s`` is the lexer's share of it, measured separately so the
    ``--profile`` table can show lex / preprocess / parse / analyze as
    disjoint phases.
    """

    units: int = 0
    lex_s: float = 0.0
    preprocess_s: float = 0.0
    parse_s: float = 0.0
    check_s: float = 0.0
    # Named orchestration spans (the decomposed former "other" bucket):
    prelude_s: float = 0.0      # stdlib prelude parse (once per process)
    symtab_s: float = 0.0       # program symbol-table build + preseed
    fingerprint_s: float = 0.0  # token/interface digests + fingerprints
    cache_s: float = 0.0        # cache + memo probe/serialize IO
    # Driver-side spans, set by the CLI (outside the engine's total_s):
    prologue_s: float = 0.0     # argument parsing, flag setup, file reads
    render_s: float = 0.0       # message rendering and printing
    total_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    degraded_units: int = 0
    internal_errors: int = 0
    # Cache-service traffic (memo + result probes combined). remote_used
    # gates the render lines so runs without --cache-server keep their
    # exact historical output.
    remote_used: bool = False
    remote_hits: int = 0
    remote_misses: int = 0
    # Cyclic-collector passes during the run and their time (already
    # inside whichever phases triggered them; see _CollectorClock).
    gc_collections: int = 0
    gc_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = ["incremental statistics:"]
        lines.append(f"  preprocess:        {self.preprocess_s * 1000:.1f} ms")
        lines.append(f"  parse:             {self.parse_s * 1000:.1f} ms")
        lines.append(f"  check:             {self.check_s * 1000:.1f} ms")
        lines.append(f"  total:             {self.total_s * 1000:.1f} ms")
        lines.append(
            f"  result cache:      {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
        )
        lines.append(
            f"  unit memo:         {self.memo_hits} hit(s), "
            f"{self.memo_misses} miss(es)"
        )
        if self.remote_used:
            lines.append(
                f"  cache server:      {self.remote_hits} hit(s), "
                f"{self.remote_misses} miss(es)"
            )
        if self.degraded_units:
            lines.append(
                f"  degraded:          {self.degraded_units} unit(s) "
                f"(re-checked every run; {self.internal_errors} contained "
                f"internal error(s))"
            )
        return "\n".join(lines)

    #: Ordered phase names of the --profile table and BENCH_frontend.json.
    #: The first four are the classic pipeline phases; the next four are
    #: the named orchestration spans the old "other" bucket decomposed
    #: into (see docs/internals.md, metric catalogue).
    PHASES = (
        "lex", "preprocess", "parse", "analyze",
        "prelude", "symtab", "fingerprint", "cache",
    )

    def rows_s(self) -> float:
        """The seconds the ``--profile`` rows hold so far (lex is part
        of preprocess)."""
        return (
            self.preprocess_s + self.parse_s + self.check_s
            + self.prelude_s + self.symtab_s + self.fingerprint_s
            + self.cache_s
        )

    def phase_timings(self) -> dict[str, float]:
        """Disjoint per-phase seconds (cold work only; warm units skip all).

        ``other`` is whatever of ``total`` the named phases do not cover —
        loop overhead, message merging, bookkeeping; with the span
        decomposition it should stay in the low single-digit milliseconds.
        """
        preprocess = max(0.0, self.preprocess_s - self.lex_s)
        named = {
            "lex": self.lex_s,
            "preprocess": preprocess,
            "parse": self.parse_s,
            "analyze": self.check_s,
            "prelude": self.prelude_s,
            "symtab": self.symtab_s,
            "fingerprint": self.fingerprint_s,
            "cache": self.cache_s,
        }
        accounted = sum(named.values())
        named["other"] = max(0.0, self.total_s - accounted)
        named["total"] = self.total_s
        return named

    def render_profile(self) -> str:
        """The ``--profile`` table: per-phase timings, cold vs warm."""
        timings = self.phase_timings()
        total = timings["total"] or 1e-12
        warm = self.cache_hits
        cold = self.units - warm
        lines = ["per-phase timing:"]
        lines.append(f"  {'phase':<12} {'time':>10}   share")
        for phase in self.PHASES + ("other",):
            seconds = timings[phase]
            lines.append(
                f"  {phase:<12} {seconds * 1000:>8.1f} ms  {seconds / total:>5.1%}"
            )
        lines.append(f"  {'total':<12} {timings['total'] * 1000:>8.1f} ms")
        lines.append(
            f"  collector:   {self.gc_collections} collection(s), "
            f"{self.gc_s * 1000:.1f} ms (inside the phases above)"
        )
        if self.prologue_s or self.render_s:
            lines.append(
                f"  driver:      prologue {self.prologue_s * 1000:.1f} ms, "
                f"render {self.render_s * 1000:.1f} ms (outside total)"
            )
        lines.append(
            f"  units:       {self.units} "
            f"({cold} cold, {warm} warm from result cache)"
        )
        lines.append(
            f"  unit memo:   {self.memo_hits} hit(s), "
            f"{self.memo_misses} miss(es)"
        )
        return "\n".join(lines)


class _CollectorClock:
    """A ``gc.callbacks`` hook counting the cyclic collector's passes
    and timing them. The hook is process-wide: while it is installed,
    a concurrent run's collections count too."""

    __slots__ = ("collections", "seconds", "_start")

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start:  # not a pass that began before the hook
            self.collections += 1
            self.seconds += time.perf_counter() - self._start
            self._start = 0.0


@dataclass
class _UnitPlan:
    """Work-in-progress bookkeeping for one translation unit."""

    name: str
    text: str
    key: str = ""  # source key: where the unit's memo lives
    memo: UnitMemo | None = None  # set when a memo identified the unit
    parsed: ParsedUnit | None = None
    interface: SymbolTable | None = None  # decoded from the memo on demand
    token_digest: str = ""
    iface_digest: str = ""
    enum_consts: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    output: UnitCheckOutput | None = None


@dataclass
class _Run:
    """State the stages of one run share."""

    files: dict[str, str]
    #: The engine's registered headers, then the run's own headers and
    #: the files read from disk (re-read every run).
    sources: SourceManager
    stats: CheckStats
    plans: list[_UnitPlan] = field(default_factory=list)
    #: The program symbol table and enum constants, once the symtab
    #: stage built them.
    symtab: SymbolTable | None = None
    enum_consts: dict[str, int] = field(default_factory=dict)
    #: (directory, header, angled) -> the file that ``#include`` names,
    #: shared by the run's preprocessors and memo probes.
    resolved: dict = field(default_factory=dict)
    #: The same keys -> (file name, digest of its text), or ``None`` when
    #: nothing is found: each include is digested once per run.
    include_digests: dict = field(default_factory=dict)
    #: A memo's include record -> whether it still holds: memos share
    #: most of theirs, and each is checked once per run.
    include_checks: dict = field(default_factory=dict)
    #: For the write stage: remote result hits to copy into the local
    #: cache, and fresh memos to publish to the cache service.
    copies: list[tuple[str, list, int]] = field(default_factory=list)
    new_memos: list[tuple[str, UnitMemo]] = field(default_factory=list)


class IncrementalChecker:
    """Checks programs, with an optional cache and cache server.

    ``check_sources`` / ``check_files`` check a whole program;
    ``parse_unit`` and ``check_units`` split the same path for callers
    that parse once and check later. Every run leaves a :attr:`stats`
    record.
    """

    def __init__(
        self,
        flags: Flags | None = None,
        cache: ResultCache | None = None,
        defines: dict[str, str] | None = None,
        keep_units: bool = False,
        crash_dir: str | None = None,
        tracer: Tracer | None = None,
        metrics=None,
        remote=None,
    ) -> None:
        self.flags = flags or DEFAULT_FLAGS
        self.cache = cache
        # A CacheClient (or anything with its batch get/put surface)
        # consulted on local cache misses; see incremental/cacheserver.py.
        self.remote = remote
        # Without a tracer the engine runs under a sink-less one: phase
        # timings for the --profile table are span durations, and the
        # tracer only measures (per-function spans stay off unless a
        # sink is attached).
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.defines = dict(PRELUDE_DEFINES)
        self.defines.update(defines or {})
        self.keep_units = keep_units
        # Crash bundles live next to the result cache when there is one,
        # so one directory holds all of a project's checker state.
        if crash_dir is None and cache is not None:
            crash_dir = os.path.join(cache.root, "crashes")
        self.crash_dir = crash_dir
        #: Headers registered here resolve in every run.
        self.sources = SourceManager()
        self.base_symtab: SymbolTable | None = None
        self._library_digests: list[str] = []
        self.stats = CheckStats()

    @property
    def incremental(self) -> bool:
        """A result cache or a cache server is in use. Only then does a
        run key and digest its units (memos and fingerprints read them)
        and count cache traffic."""
        return self.cache is not None or self.remote is not None

    # -- interface libraries (paper section 7: modular checking) -----------

    def load_library(self, path: str) -> None:
        """Merge interface information from a saved library file."""
        from ..driver.library import load_library, merge_symtabs

        loaded = load_library(path)
        if self.base_symtab is None:
            self.base_symtab = SymbolTable()
        merge_symtabs(self.base_symtab, loaded)
        if self.incremental:  # only fingerprints read the digest
            with open(path, "rb") as handle:
                self._library_digests.append(
                    text_digest(repr(handle.read()))
                )

    def save_library(self, result: CheckResult, path: str) -> None:
        from ..driver.library import save_library

        save_library(result.symtab, path)

    # -- entry points --------------------------------------------------------

    def check_files(self, paths: list[str]) -> CheckResult:
        files: dict[str, str] = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                files[path] = handle.read()
        return self.check_sources(files)

    def check_sources(self, files: dict[str, str]) -> CheckResult:
        """Check a program in five stages, one span each:

        * **plan** — a plan per unit (and a source key, when
          :attr:`incremental`); headers become include sources;
        * **probe** — unit memos (local, then one remote batch), the
          frontend for memo misses, then results (local, then one
          remote batch);
        * **symtab** — the merged program symbol table, built only when
          a unit must be checked;
        * **check** — the result misses, one unit after another;
        * **write** — one local file per result, one remote publish.

        A fully-warm run stops after the probe: it decodes no interface
        slice, and the result builds :attr:`CheckResult.symtab` only if
        a caller reads it.
        """
        return self._execute(self._new_run(files), self._stages)

    def parse_unit(self, text: str, name: str) -> ParsedUnit:
        """Preprocess and parse one unit against :attr:`sources`: the
        frontend path of :meth:`check_sources`, every failure contained
        (see :meth:`_parse_plan`)."""
        plan = _UnitPlan(name=name, text=text)
        with self.tracer.span("unit", cat="unit", unit=name, stage="frontend"):
            self._parse_plan(plan, self._new_run({}))
        return plan.parsed

    def check_units(self, parsed: list[ParsedUnit]) -> CheckResult:
        """Check units from :meth:`parse_unit` as one program: the
        symtab and check stages of :meth:`check_sources`, no cache."""
        run = self._new_run({})
        run.plans = [
            _UnitPlan(
                name=pu.unit.name, text="", parsed=pu,
                enum_consts=dict(pu.enum_consts),
            )
            for pu in parsed
        ]

        def stages(run: _Run) -> None:
            self._symtab(run)
            self._check(run, run.plans)

        return self._execute(run, stages)

    def _new_run(self, files: dict[str, str]) -> _Run:
        return _Run(
            files=files,
            sources=self.sources.copy(),
            stats=CheckStats(remote_used=self.remote is not None),
        )

    def _stages(self, run: _Run) -> None:
        self._prelude(run)
        self._plan(run)
        misses = self._probe(run)
        if misses:
            self._symtab(run)
            self._check(run, misses)
        self._write(run, misses)

    def _execute(self, run: _Run, stages) -> CheckResult:
        """Run *stages* under one batch span and merge the units'
        outputs into the result."""
        stats = run.stats
        self.stats = stats
        metrics = self.metrics
        metrics.inc("engine.runs")
        if self.cache is not None:
            stats.notes.extend(self.cache.notes)
            del self.cache.notes[:]

        collector = _CollectorClock()
        gc.callbacks.append(collector)
        batch_span = self.tracer.span("batch", cat="batch")
        try:
            stages(run)
            plans = run.plans
            stats.units = len(plans)
            batch_span.annotate(units=len(plans))
            messages, suppressed = merge_unit_outputs(
                [p.output for p in plans]
            )
            stats.degraded_units = sum(1 for p in plans if p.output.degraded)
            stats.internal_errors = sum(
                p.output.internal_errors for p in plans
            )
        finally:
            batch_span.end()
            gc.callbacks.remove(collector)
        stats.total_s = batch_span.duration
        stats.gc_collections = collector.collections
        stats.gc_s = collector.seconds
        metrics.inc("engine.units", len(plans))
        metrics.inc("engine.units.degraded", stats.degraded_units)
        metrics.inc("engine.internal_errors", stats.internal_errors)
        metrics.observe("engine.run_s", stats.total_s)
        # Cache entries silently discarded as corrupt/unreadable during
        # this run become a visible note: corruption must be diagnosable.
        if self.cache is not None:
            note = self.cache.drop_note()
            if note is not None:
                stats.notes.append(note)
        # A cache-server failure mid-run became silent misses; the note
        # explains why the run was slower than expected.
        if self.remote is not None:
            stats.notes.extend(self.remote.drain_notes())
        base = self.base_symtab
        symtab = run.symtab
        return CheckResult(
            messages=messages,
            suppressed=suppressed,
            units=[p.parsed.unit for p in plans if p.parsed is not None],
            degraded_units=[p.name for p in plans if p.output.degraded],
            internal_errors=stats.internal_errors,
            symtab_factory=(
                (lambda: symtab) if symtab is not None
                else lambda: self._program_symtab(run, base)
            ),
        )

    def _remote_alive(self) -> bool:
        """The cache service is configured and has not failed this run
        (the client disables itself on the first transport error)."""
        return self.remote is not None and not getattr(
            self.remote, "dead", False
        )

    # -- stages --------------------------------------------------------------

    def _prelude(self, run: _Run) -> None:
        """Warm the prelude before any per-unit work, so its cost shows
        up as one named span instead of hiding inside the first unit's
        parse."""
        with self.tracer.span("prelude", cat="phase") as prelude_span:
            ensure_process_initialized()
        run.stats.prelude_s += prelude_span.duration

    def _plan(self, run: _Run) -> None:
        """Stage 1: a plan per unit, with a source key when the run is
        incremental; headers become include sources."""
        with self.tracer.span("plan", cat="stage") as plan_span:
            cancel_checkpoint()
            for name, text in run.files.items():
                if name.endswith(".h"):
                    run.sources.add(name, text)
            run.plans = [
                _UnitPlan(name=name, text=text)
                for name, text in run.files.items()
                if not name.endswith(".h")
            ]
            if self.incremental:
                defines_fp = defines_digest(self.defines)
                for plan in run.plans:
                    plan.key = source_key(
                        plan.name, plan.text, self.defines,
                        defines_fp=defines_fp,
                    )
        run.stats.fingerprint_s += plan_span.duration

    def _probe(self, run: _Run) -> list[_UnitPlan]:
        """Stage 2: answer every unit the caches can; return the rest.

        Memos come first because a memo hit skips the frontend; result
        fingerprints need every unit's interface digest, so the memo
        misses are preprocessed and parsed in between. The cancel
        checkpoints make a service request stop at unit boundaries once
        its deadline fires. A run that is not incremental only runs the
        frontend: every unit is a miss, and none is counted.
        """
        stats = run.stats
        incremental = self.incremental
        with self.tracer.span("probe", cat="stage"):
            cancel_checkpoint()
            if incremental and not self.keep_units:
                self._probe_memos(run)
            for plan in run.plans:
                if plan.memo is not None:
                    stats.memo_hits += 1
                    self.metrics.inc("cache.memo.hit")
                    continue
                if incremental:
                    stats.memo_misses += 1
                    self.metrics.inc("cache.memo.miss")
                cancel_checkpoint()
                with self.tracer.span(
                    "unit", cat="unit", unit=plan.name, stage="frontend"
                ):
                    self._parse_plan(plan, run, memo_key=plan.key)
            if not incremental:
                return list(run.plans)
            return self._probe_results(run)

    def _probe_memos(self, run: _Run) -> None:
        """Local memo probes, then one remote batch for the local misses.

        The memo probe is what makes a remote hit cheap: the result
        probe needs the token digest, which a memo miss would force us
        to preprocess and parse for. A remote memo is copied into the
        local cache for the next run.
        """
        stats = run.stats
        with self.tracer.span("cache", cat="phase") as memo_span:
            missing = []
            for plan in run.plans:
                memo = (
                    self.cache.get_unit_memo(plan.key)
                    if self.cache is not None else None
                )
                if memo is not None and self._includes_unchanged(
                    memo.includes, run
                ):
                    self._use_memo(plan, memo)
                else:
                    missing.append(plan)
            if missing and self._remote_alive():
                found = self.remote.get_memos([p.key for p in missing])
                for plan, memo in zip(missing, found):
                    if memo is None or not self._includes_unchanged(
                        memo.includes, run
                    ):
                        stats.remote_misses += 1
                        continue
                    stats.remote_hits += 1
                    self._use_memo(plan, memo)
                    if self.cache is not None:
                        self.cache.put_unit_memo(plan.key, memo)
        stats.cache_s += memo_span.duration

    def _probe_results(self, run: _Run) -> list[_UnitPlan]:
        """Local result probes, then one remote batch for the local
        misses; returns the units no cache could answer."""
        stats = run.stats
        # The program digest and the flags digest are shared by every
        # unit's fingerprint, so each is computed once here.
        prog_digest = program_digest(
            [p.iface_digest for p in run.plans], self._library_digests
        )
        flags_fp = flags_digest(self.flags)
        with self.tracer.span("cache", cat="phase") as probe_span:
            misses = []
            for plan in run.plans:
                plan.fingerprint = check_fingerprint(
                    plan.token_digest, self.flags, prog_digest,
                    flags_fp=flags_fp,
                )
                found = (
                    self.cache.get_result(plan.fingerprint)
                    if self.cache is not None else None
                )
                if found is None:
                    misses.append(plan)
                else:
                    plan.output = UnitCheckOutput(*found)
            if misses and self._remote_alive():
                # A local miss may be a fleet-wide hit: another worker,
                # machine, or CI run published this fingerprint to the
                # cache service.
                found_remote = self.remote.get_results(
                    [p.fingerprint for p in misses]
                )
                local_misses, misses = misses, []
                for plan, found in zip(local_misses, found_remote):
                    if found is None:
                        stats.remote_misses += 1
                        misses.append(plan)
                        continue
                    stats.remote_hits += 1
                    plan.output = UnitCheckOutput(*found)
                    run.copies.append((plan.fingerprint, *found))
        stats.cache_s += probe_span.duration
        stats.cache_misses = len(misses)
        stats.cache_hits = len(run.plans) - len(misses)
        if stats.cache_hits:
            self.metrics.inc("cache.result.hit", stats.cache_hits)
        if stats.cache_misses:
            self.metrics.inc("cache.result.miss", stats.cache_misses)
        return misses

    def _symtab(self, run: _Run) -> None:
        """Stage 3: the merged program symbol table and enum constants.

        A unit whose memo slice does not decode is parsed here, and
        :meth:`_parse_plan` already counts that work in its own rows, so
        the symtab row leaves it out: each second lands in one row.
        """
        stats = run.stats
        counted = stats.rows_s()
        with self.tracer.span("symtab", cat="stage") as symtab_span:
            run.symtab = self._program_symtab(run, self.base_symtab)
            for plan in run.plans:
                run.enum_consts.update(plan.enum_consts)
        stats.symtab_s += symtab_span.duration - (stats.rows_s() - counted)

    def _program_symtab(
        self, run: _Run, base: SymbolTable | None
    ) -> SymbolTable:
        return build_program_symtab(
            [self._interface_of(p, run) for p in run.plans], base
        )

    def _check(self, run: _Run, misses: list[_UnitPlan]) -> None:
        """Stage 4: check the misses.

        A memo-hit unit whose result is stale (e.g. the flags changed)
        is parsed here: the memo saved preprocessing knowledge, but
        checking needs the AST.
        """
        symtab, enum_consts = run.symtab, run.enum_consts
        with self.tracer.span("check", cat="stage"):
            for plan in misses:
                if plan.parsed is None:
                    cancel_checkpoint()
                    with self.tracer.span(
                        "unit", cat="unit", unit=plan.name, stage="frontend",
                    ):
                        self._parse_plan(plan, run)
            with self.tracer.span(
                "analyze", cat="phase", units=len(misses)
            ) as check_span:
                for plan in misses:
                    cancel_checkpoint()
                    with self.tracer.span(
                        "unit", cat="unit", unit=plan.name, stage="analyze",
                    ) as unit_span:
                        plan.output = check_parsed_unit(
                            plan.parsed, symtab, self.flags, enum_consts,
                            crash_dir=self.crash_dir, tracer=self.tracer,
                            interface=plan.interface,
                        )
                    self.metrics.observe(
                        "engine.unit_check_s", unit_span.duration
                    )
        run.stats.check_s += check_span.duration

    def _write(self, run: _Run, misses: list[_UnitPlan]) -> None:
        """Stage 5: one local ``results/<fp>.json`` per result (remote
        hits + fresh results) and one remote publish (fresh memos +
        fresh results).

        Degraded results (parse recovery, skipped files, contained
        crashes) are never cached: the unit must be re-checked from
        scratch on every run until it is fixed.
        """
        fresh = [
            (p.fingerprint, p.output.messages, p.output.suppressed)
            for p in misses if not p.output.degraded
        ]
        with self.tracer.span("write", cat="stage") as write_span:
            if self.cache is not None:
                for entry in run.copies + fresh:
                    self.cache.put_result(*entry)
            if self._remote_alive():
                self.remote.put_memos(run.new_memos)
                self.remote.put_results(fresh)
        run.stats.cache_s += write_span.duration

    # -- unit identification -------------------------------------------------

    def _use_memo(self, plan: _UnitPlan, memo: UnitMemo) -> None:
        plan.memo = memo
        plan.token_digest = memo.token_digest
        plan.iface_digest = memo.iface_digest
        plan.enum_consts = dict(memo.enum_consts)

    def _parse_plan(
        self, plan: _UnitPlan, run: _Run, memo_key: str | None = None
    ) -> None:
        """Preprocess, digest and parse one unit; with *memo_key*, also
        record its memo (locally now, remotely in the write stage).

        Every failure stays inside the unit (see :meth:`_fail_plan`).
        """
        stats = run.stats
        try:
            tokens, included = self._preprocess(plan.name, plan.text, run)
        except Exception as exc:
            self._fail_plan(plan, exc, "preprocess", "preprocessing")
            return
        if self.incremental:
            with self.tracer.span(
                "fingerprint", cat="phase", unit=plan.name
            ) as digest_span:
                # Both digests in one pass over the token stream. The
                # interface digest is read straight off the tokens
                # (function bodies skipped) — the reflective symbol-table
                # walk it replaced dominated the cold run; see
                # fingerprint.py.
                plan.token_digest, plan.iface_digest = unit_digests(tokens)
            stats.fingerprint_s += digest_span.duration
        parse_span = self.tracer.span("parse", cat="phase", unit=plan.name)
        try:
            plan.parsed = self._parse(tokens, plan.name)
        except Exception as exc:
            stats.parse_s += parse_span.end()
            self._fail_plan(plan, exc, "parse", "parsing")
            return
        stats.parse_s += parse_span.end()
        plan.enum_consts = dict(plan.parsed.enum_consts)
        if plan.interface is None:  # a memo-hit unit keeps its decoded slice
            with self.tracer.span(
                "symtab", cat="phase", unit=plan.name
            ) as iface_span:
                plan.interface = unit_interface(plan.parsed)
            stats.symtab_s += iface_span.duration
        want_memo = self.cache is not None or self._remote_alive()
        if want_memo and memo_key is not None:
            with self.tracer.span(
                "cache", cat="phase", unit=plan.name
            ) as memo_span:
                closure = [
                    (*key, *self._include_digest(key, run))
                    for key in included
                ]
                memo = UnitMemo(
                    token_digest=plan.token_digest,
                    iface_digest=plan.iface_digest,
                    iface_pickle=encode_slice(plan.interface),
                    includes=closure,
                    enum_consts=plan.enum_consts,
                )
                if self.cache is not None:
                    self.cache.put_unit_memo(memo_key, memo)
                if self._remote_alive():
                    run.new_memos.append((memo_key, memo))
            stats.cache_s += memo_span.duration

    def _fail_plan(
        self, plan: _UnitPlan, exc: Exception, phase: str, doing: str
    ) -> None:
        """Fill a plan whose frontend gave up: an empty unit carrying the
        fatal record and no memo entry (the unit must be re-examined
        from scratch every run); an incremental run digests the raw
        text instead of the tokens.

        Malformed input — a lex or preprocess error, or a ParseError
        that escaped panic-mode recovery — is a frontend fatal: one
        ``Cannot parse this file`` message. Any other exception is a
        checker bug: an internal error and a crash bundle.
        """
        if isinstance(exc, (LexError, PreprocessError, ParseError)):
            fatal = frontend_fatal(exc, plan.name)
        else:
            write_crash_bundle(
                self.crash_dir, phase=phase, unit=plan.name, exc=exc,
                source_text=plan.text,
            )
            fatal = internal_fatal(exc, plan.name, doing)
        plan.parsed = failed_parsed_unit(plan.name, fatal)
        plan.enum_consts = {}
        plan.interface = unit_interface(plan.parsed)
        if self.incremental:
            plan.token_digest = text_digest("unparseable\0" + plan.text)
            plan.iface_digest = FAILED_INTERFACE_DIGEST

    def _preprocess(
        self, name: str, text: str, run: _Run
    ) -> tuple[list[Token], list[tuple]]:
        """The unit's tokens, and the includes it followed."""
        stats = run.stats
        with self.tracer.span("preprocess", cat="phase", unit=name) as sp:
            pp = Preprocessor(
                run.sources, defines=dict(self.defines),
                system_headers=SYSTEM_HEADERS,
                prelude_covered=PRELUDE_COVERED_HEADERS,
                resolved=run.resolved,
            )
            tokens = pp.preprocess_text(text, name)
            # The lexer's share is interleaved inside preprocessing and
            # only known after the fact; record it as a child interval.
            self.tracer.add_complete(
                "lex", start=sp.start, duration=pp.lex_s, cat="phase",
                unit=name,
            )
        stats.preprocess_s += sp.duration
        stats.lex_s += pp.lex_s
        return tokens, list(pp.followed)

    def _parse(self, tokens: list[Token], name: str) -> ParsedUnit:
        # .lcl files are LCL interface specifications: annotations appear
        # as bare words before types (paper section 4).
        parser = Parser(
            tokens, name, lcl_mode=name.endswith(".lcl"),
            preseed=prelude().scope,
        )
        unit = parser.parse_translation_unit()
        return ParsedUnit(
            unit=unit,
            controls=parser.controls,
            problems=parser.problems,
            enum_consts=dict(parser.scope.enum_consts),
            parse_errors=list(parser.parse_errors),
        )

    def _interface_of(self, plan: _UnitPlan, run: _Run) -> SymbolTable:
        """The unit's interface slice: decoded from its memo, or read off
        a unit :meth:`check_units` was handed. A slice that does not
        decode (corrupt, or naming a class no slice holds) drops the
        memo like any corrupt entry, and the unit is parsed instead,
        recording a fresh memo in its place.

        The symtab stage publishes that memo to the cache service in
        the write stage; a :attr:`CheckResult.symtab` read after the run
        only puts it in the local cache.
        """
        if plan.interface is None and plan.memo is not None:
            plan.interface = decode_slice(plan.memo.iface_pickle)
            if plan.interface is None:
                if self.cache is not None:
                    self.cache.drop_unit_memo(plan.key)
                else:
                    self.metrics.inc("cache.entries.dropped")
                plan.memo = None
                self._parse_plan(plan, run, memo_key=plan.key)
        if plan.interface is None:
            plan.interface = unit_interface(plan.parsed)
        return plan.interface

    def _includes_unchanged(self, closure: list[tuple], run: _Run) -> bool:
        """Every include the memo followed names the same file and text."""
        checks = run.include_checks
        for record in closure:
            holds = checks.get(record)
            if holds is None:
                holds = checks[record] = (
                    self._include_digest(record[:3], run) == record[3:]
                )
            if not holds:
                return False
        return True

    def _include_digest(self, key: tuple, run: _Run) -> tuple | None:
        """(file name, text digest) of what the include *key* names in
        this run, or ``None``: resolved and digested once per run, so
        recording a memo and validating one see the same file."""
        if key not in run.include_digests:
            if key not in run.resolved:
                run.resolved[key] = resolve_include(
                    run.sources, SYSTEM_HEADERS, *key
                )
            source = run.resolved[key]
            run.include_digests[key] = (
                None if source is None
                else (source.name, text_digest(source.text))
            )
        return run.include_digests[key]
