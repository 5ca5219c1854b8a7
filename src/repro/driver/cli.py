"""Command-line driver, usable as ``pylclint`` or ``python -m repro.driver.cli``.

Usage follows LCLint's conventions::

    pylclint [options] file.c [file2.c ...]

    -flagname / +flagname   turn a named check or behaviour off / on
                            (e.g. -allimponly, +gcmode; see -flags)
    -dump lib.lcd           write an interface library after checking
    -load lib.lcd           load interface libraries before checking
    -dot function           print the control-flow graph in DOT form
    -trace function         print the per-point dataflow trace (section 5)
    -stats                  print checking statistics
    --profile               print a per-phase timing table
                            (lex / preprocess / parse / analyze,
                            cold vs warm units)
    -flags                  list all flags with their defaults
    -quiet                  suppress the summary line

Observability (see docs/internals.md section 8):

    --trace-out FILE        write nested spans (batch > unit > phase >
                            function) for this run; messages and exit
                            status are unchanged
    --trace-format FMT      trace file format: jsonl (default; one JSON
                            object per span) or chrome (a Chrome
                            trace-event file for about:tracing/Perfetto)
    --metrics-out FILE      write a JSON dump of the metrics registry
                            (cache traffic, dropped entries, degraded
                            units, scheduler fallbacks) after the run

Differential fault injection (see docs/internals.md):

    difftest [...]          as first argument: run the static-vs-dynamic
                            fault-injection campaign, or --replay a
                            persisted discrepancy (repro difftest --help)

Incremental & parallel checking (see docs/internals.md):

    --jobs N                check translation units on N worker processes
    --cache                 cache per-unit results under .pylclint-cache/
    --cache-dir DIR         cache per-unit results under DIR
    --no-cache              disable the result cache
    --shard-strategy S      how units are batched across workers:
                            interface (default; interface-dependency
                            clusters travel together), size (best
                            balance), or round-robin
    --cache-server ADDR     consult a shared cache service on local
                            misses (HOST:PORT or unix:PATH; start one
                            with python -m repro.incremental.cacheserver)

Checking service (see docs/internals.md section 9):

    --serve                 run the async multi-client checking service
                            (cache on by default; combine with --addr,
                            --max-inflight, --request-timeout, --workers,
                            --jobs, --cache-dir, --no-cache)
    --addr ADDR             listen address: HOST:PORT for TCP on
                            localhost, or unix:PATH for a UNIX socket;
                            give one of each to listen on both (a later
                            address of the same kind replaces the
                            earlier one; default 127.0.0.1:0, port
                            printed in the ready line)
    --max-inflight N        bound on admitted (queued + running)
                            requests; beyond it clients get a busy
                            reply with retry_after_ms (default 64)
    --request-timeout S     default per-request deadline in seconds
                            (a request's own "timeout" field overrides;
                            0 means none)
    --workers N             threads running checks (default 4)
    --daemon                legacy single-client stdin/stdout server
                            (kept as a compatibility shim over the same
                            protocol; prefer --serve)

Header files named on the command line are registered for ``#include``
resolution; every other file is checked as a translation unit.

Exit-code contract (stable; build systems may rely on it):

    0   clean — no warnings
    1   warnings were emitted (including parse-error messages for
        malformed inputs; the rest of the batch is still checked)
    2   usage or input error (unknown flag, unreadable file, ...)
    3   an internal checker error was contained — the run completed,
        a crash bundle was written under the cache's ``crashes/``
        directory, and all other results are valid
"""

from __future__ import annotations

import sys
import threading
import time

from ..analysis.cfg import build_cfg
from ..flags.registry import FLAG_REGISTRY, Flags, UnknownFlag
from ..core.api import Checker, CheckResult, unit_symtab
from ..frontend.symtab import SymbolTable
from ..incremental.engine import IncrementalChecker

USAGE = __doc__ or ""

#: Exit statuses of the contract above.
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL_CONTAINED = 3

#: Engine statistics of the most recent run on *this thread* (None
#: only while a run is starting or after it failed). The daemon shim
#: and the checking service read this — as ``cli.LAST_RUN_STATS``, via
#: the module ``__getattr__`` below — to report per-request cache
#: traffic without changing run()'s (status, output) contract.
#: Thread-local because the service runs requests on worker threads.
_RUN_STATS = threading.local()


def __getattr__(name: str):
    if name == "LAST_RUN_STATS":
        return getattr(_RUN_STATS, "value", None)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    pass


def _read_source_files(paths: list[str]) -> dict[str, str]:
    """Read the named files, converting IO and encoding failures into
    clean :class:`CliError`\\ s (a missing or non-UTF-8 input must never
    surface as a raw traceback)."""
    files: dict[str, str] = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                files[path] = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise CliError(
                f"cannot read {path}: not a UTF-8 text file ({exc.reason} "
                f"at byte {exc.start})"
            ) from exc
    return files


def _print_flags() -> str:
    lines = ["flag defaults:"]
    by_category: dict[str, list] = {}
    for info in FLAG_REGISTRY.values():
        by_category.setdefault(info.category, []).append(info)
    for category in sorted(by_category):
        lines.append(f"  [{category}]")
        for info in sorted(by_category[category], key=lambda i: i.name):
            default = "+" if info.default else "-"
            lines.append(f"    {default}{info.name:<16} {info.description}")
    return "\n".join(lines)


def run(argv: list[str], cache=None, jobs: int | None = None) -> tuple[int, str]:
    """Run the driver; returns (exit_status, output_text).

    *cache* and *jobs* let the daemon inject its persistent
    :class:`~repro.incremental.cache.ResultCache` and worker count; the
    command line can still override both per request.
    """
    _RUN_STATS.value = None
    run_t0 = time.perf_counter()
    paths: list[str] = []
    flag_args: list[str] = []
    dump_path: str | None = None
    load_paths: list[str] = []
    dot_function: str | None = None
    trace_function_name: str | None = None
    want_stats = False
    want_profile = False
    quiet = False
    cache_dir: str | None = None
    no_cache = False
    shard_strategy = "interface"
    cache_server: str | None = None
    trace_out: str | None = None
    trace_format = "jsonl"
    metrics_out: str | None = None

    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help", "-help"):
            return 0, USAGE
        if arg == "-flags":
            return 0, _print_flags()
        if arg in ("--daemon", "-daemon"):
            raise CliError(
                "--daemon starts a server session; invoke it through the "
                "pylclint entry point or python -m repro.incremental.server"
            )
        if arg in ("--serve", "-serve"):
            raise CliError(
                "--serve starts the checking service; invoke it through "
                "the pylclint entry point or python -m repro.service"
            )
        if arg == "-dump":
            i += 1
            if i >= len(argv):
                raise CliError("-dump requires a file argument")
            dump_path = argv[i]
        elif arg == "-load":
            i += 1
            if i >= len(argv):
                raise CliError("-load requires a file argument")
            load_paths.append(argv[i])
        elif arg == "-dot":
            i += 1
            if i >= len(argv):
                raise CliError("-dot requires a function name")
            dot_function = argv[i]
        elif arg == "-trace":
            i += 1
            if i >= len(argv):
                raise CliError("-trace requires a function name")
            trace_function_name = argv[i]
        elif arg in ("--jobs", "-jobs", "-j"):
            i += 1
            if i >= len(argv):
                raise CliError("--jobs requires a worker count")
            jobs = _parse_jobs(argv[i])
        elif arg.startswith("--jobs="):
            jobs = _parse_jobs(arg.split("=", 1)[1])
        elif arg in ("--cache-dir", "-cache-dir"):
            i += 1
            if i >= len(argv):
                raise CliError("--cache-dir requires a directory")
            cache_dir = argv[i]
        elif arg.startswith("--cache-dir="):
            cache_dir = arg.split("=", 1)[1]
        elif arg in ("--cache", "-cache"):
            from ..incremental.cache import DEFAULT_CACHE_DIR

            cache_dir = DEFAULT_CACHE_DIR
        elif arg in ("--no-cache", "-no-cache"):
            no_cache = True
        elif arg in ("--shard-strategy", "-shard-strategy"):
            i += 1
            if i >= len(argv):
                raise CliError("--shard-strategy requires a strategy name")
            shard_strategy = argv[i]
        elif arg.startswith("--shard-strategy="):
            shard_strategy = arg.split("=", 1)[1]
        elif arg in ("--cache-server", "-cache-server"):
            i += 1
            if i >= len(argv):
                raise CliError("--cache-server requires an address")
            cache_server = argv[i]
        elif arg.startswith("--cache-server="):
            cache_server = arg.split("=", 1)[1]
        elif arg in ("--trace-out", "-trace-out"):
            i += 1
            if i >= len(argv):
                raise CliError("--trace-out requires a file argument")
            trace_out = argv[i]
        elif arg.startswith("--trace-out="):
            trace_out = arg.split("=", 1)[1]
        elif arg in ("--trace-format", "-trace-format"):
            i += 1
            if i >= len(argv):
                raise CliError("--trace-format requires a format name")
            trace_format = argv[i]
        elif arg.startswith("--trace-format="):
            trace_format = arg.split("=", 1)[1]
        elif arg in ("--metrics-out", "-metrics-out"):
            i += 1
            if i >= len(argv):
                raise CliError("--metrics-out requires a file argument")
            metrics_out = argv[i]
        elif arg.startswith("--metrics-out="):
            metrics_out = arg.split("=", 1)[1]
        elif arg == "-stats":
            want_stats = True
        elif arg in ("--profile", "-profile"):
            want_profile = True
        elif arg == "-quiet":
            quiet = True
        elif arg.startswith(("-", "+")) and len(arg) > 1:
            flag_args.append(arg)
        else:
            paths.append(arg)
        i += 1

    if not paths:
        raise CliError("no input files (try --help)")

    try:
        flags = Flags.from_args(flag_args)
    except UnknownFlag as exc:
        raise CliError(str(exc)) from exc

    jobs = jobs or 1
    if no_cache:
        cache = None
    elif cache_dir is not None:
        from ..incremental.cache import ResultCache

        cache = ResultCache(cache_dir)

    from ..incremental.shard import STRATEGIES

    if shard_strategy not in STRATEGIES:
        raise CliError(
            f"unknown shard strategy {shard_strategy!r} "
            f"(expected one of {', '.join(STRATEGIES)})"
        )

    remote = None
    if cache_server is not None:
        from ..incremental.cacheserver import CacheClient

        try:
            remote = CacheClient(cache_server)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    if trace_format not in ("jsonl", "chrome"):
        raise CliError(
            f"unknown trace format {trace_format!r} "
            f"(expected jsonl or chrome)"
        )

    files = _read_source_files(paths)
    out: list[str] = []

    from .library import LibraryError

    obs = None
    if trace_out is not None or metrics_out is not None:
        from ..obs.context import Observability

        try:
            obs = Observability.from_options(
                trace_out, trace_format, metrics_out
            )
        except OSError as exc:
            raise CliError(str(exc)) from exc

    tracer = obs.tracer if obs is not None else None
    incremental = cache is not None or remote is not None or jobs > 1
    try:
        try:
            checker = (
                IncrementalChecker(
                    flags=flags,
                    cache=cache,
                    jobs=jobs,
                    # -dump parses every unit too: a slice decoded from
                    # a memo has the same content, but shares fewer
                    # interned types, so its library pickle would differ
                    # from a cold run's.
                    keep_units=(
                        dot_function is not None
                        or trace_function_name is not None
                        or dump_path is not None
                    ),
                    tracer=tracer,
                    remote=remote,
                    shard_strategy=shard_strategy,
                )
                if incremental
                else Checker(flags=flags, tracer=tracer)
            )
            for lib in load_paths:
                checker.load_library(lib)
            prologue_s = time.perf_counter() - run_t0
            result = checker.check_sources(files)
        except LibraryError as exc:
            raise CliError(str(exc)) from exc
        except OSError as exc:
            raise CliError(str(exc)) from exc
    finally:
        if remote is not None:
            remote.close()
        # Flush the trace file and metrics dump even when the run died:
        # a partial trace of a failed run is exactly what gets debugged.
        if obs is not None:
            obs.finish()

    stats = checker.stats
    stats.prologue_s = prologue_s
    _RUN_STATS.value = stats
    for note in stats.notes:
        out.append(f"pylclint: warning: {note}")

    render_t0 = time.perf_counter()
    for message in result.messages:
        out.append(message.render())

    if dot_function is not None:
        out.append(_dot_for(result, dot_function))

    if trace_function_name is not None:
        out.append(_trace_for(checker, result, trace_function_name))

    if want_stats:
        out.append(_stats_for(result))
        if incremental:
            out.append(stats.render())

    if want_profile:
        stats.render_s = time.perf_counter() - render_t0
        out.append(stats.render_profile())

    if result.internal_errors and not quiet:
        out.append(
            f"pylclint: {result.internal_errors} internal error(s) contained "
            f"(crash bundle(s) written; run completed)"
        )

    if not quiet:
        out.append(f"{len(result.messages)} code warning(s)")

    if dump_path is not None:
        from .library import save_library

        assert result.symtab is not None
        save_library(result.symtab, dump_path)
        if not quiet:
            out.append(f"interface library written to {dump_path}")

    return _exit_status(result), "\n".join(out)


def _exit_status(result: CheckResult) -> int:
    """Map a completed run onto the documented exit-code contract."""
    if result.internal_errors:
        return EXIT_INTERNAL_CONTAINED
    if result.messages:
        return EXIT_WARNINGS
    return EXIT_CLEAN


def _parse_jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise CliError(f"--jobs expects an integer, got {value!r}") from None
    if jobs < 1:
        raise CliError("--jobs expects a count >= 1")
    return jobs


def _trace_for(
    checker: IncrementalChecker, result: CheckResult, name: str
) -> str:
    from ..analysis.checker import CheckContext
    from ..analysis.engine import trace_function
    from ..messages.reporter import Reporter

    for unit in result.units:
        for fdef in unit.functions():
            if fdef.name == name:
                # The unit's own view: its static entries win, as when
                # the unit was checked.
                interface = SymbolTable()
                interface.add_unit(unit)
                ctx = CheckContext(
                    symtab=unit_symtab(result.symtab, unit, interface),
                    reporter=Reporter(flags=checker.flags),
                    flags=checker.flags,
                )
                trace = trace_function(ctx, fdef)
                return "\n\n".join(point.render() for point in trace)
    raise CliError(f"no function named {name!r} in the checked files")


def _dot_for(result: CheckResult, name: str) -> str:
    for unit in result.units:
        for fdef in unit.functions():
            if fdef.name == name:
                return build_cfg(fdef).to_dot()
    raise CliError(f"no function named {name!r} in the checked files")


def _stats_for(result: CheckResult) -> str:
    functions = sum(len(u.functions()) for u in result.units)
    lines = ["statistics:"]
    lines.append(f"  translation units: {len(result.units)}")
    lines.append(f"  functions checked: {functions}")
    lines.append(f"  messages:          {len(result.messages)}")
    lines.append(f"  suppressed:        {result.suppressed}")
    by_code: dict[str, int] = {}
    for message in result.messages:
        by_code[message.code.slug] = by_code.get(message.code.slug, 0) + 1
    for slug in sorted(by_code):
        lines.append(f"    {slug:<20} {by_code[slug]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "difftest":
        from ..difftest.cli import main as difftest_main

        return difftest_main(args[1:])
    if "--serve" in args or "-serve" in args:
        from ..service.server import run_service

        return run_service(
            [a for a in args if a not in ("--serve", "-serve")]
        )
    if "--daemon" in args or "-daemon" in args:
        from ..incremental.server import run_daemon

        return run_daemon(
            [a for a in args if a not in ("--daemon", "-daemon")]
        )
    try:
        status, output = run(args)
    except CliError as exc:
        print(f"pylclint: {exc}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
