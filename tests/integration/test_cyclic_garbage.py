"""No reference cycles on the checking path.

A run's tokens, parsers, function checkers and parse errors must be
freed by reference counting as soon as the run lets go of them, not
left for the cyclic collector. Each case makes one run with automatic
collection off and then asks ``gc.collect()`` what it found
unreachable: no object of a type defined under ``repro``, and no frame
or traceback. ``repro.frontend.ctypes`` types, and what only they reach
(a field's annotations), are exempt: recursive struct types are cyclic
by nature. An interned type is freed when the pointer intern table is
reset; one decoded from a memo slice lives in the process's slice memo
(``cache.decode_slice``) until it is evicted. So a warm re-check whose
slices were decoded before leaves nothing at all, exemption off.

The lexing-scope tests pin who keeps a header's tokens: the run for its
own headers, the engine for the headers registered on it.
"""

import gc
import os
import re
import types
from collections import Counter

import pytest

from repro.bench.generator import generate_program
from repro.core.api import Checker, check_source, ensure_process_initialized
from repro.difftest.mutations import MutationEngine
from repro.driver import cli
from repro.frontend import ctypes, preprocessor
from repro.messages.message import MessageCode
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.lineserver import LineServerThread
from repro.service.server import CheckingService

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
DB_DIR = os.path.join(REPO_ROOT, "examples", "db")
DB_PATHS = sorted(
    os.path.join(DB_DIR, name)
    for name in os.listdir(DB_DIR)
    if name.endswith((".c", ".h"))
)

#: Three lines, two declarations the parser skips.
TWO_PARSE_ERRORS = "int x = 089;\nint y = ;\nint z;\n"

_EXEMPT_MODULE = "repro.frontend.ctypes"


def _forbidden(garbage: list, exempt_types: bool) -> Counter:
    """The forbidden objects of *garbage*, counted by type name; with
    *exempt_types*, the type graph is allowed."""
    members = {id(obj) for obj in garbage}
    # The type graph: exempt objects and the garbage they reach.
    exempt: set[int] = set()
    stack = [
        o for o in garbage
        if exempt_types and type(o).__module__ == _EXEMPT_MODULE
    ]
    while stack:
        obj = stack.pop()
        if id(obj) in exempt:
            continue
        exempt.add(id(obj))
        stack.extend(
            r for r in gc.get_referents(obj) if id(r) in members
        )
    return Counter(
        type(obj).__qualname__ for obj in garbage
        if isinstance(obj, (types.FrameType, types.TracebackType))
        or (type(obj).__module__.startswith("repro.")
            and id(obj) not in exempt)
    )


def cyclic_garbage(run, exempt_types: bool = True) -> Counter:
    """Call *run* with automatic collection off; count the forbidden
    objects ``gc.collect()`` then finds unreachable, by type name."""
    ensure_process_initialized()
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        run()
    finally:
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = _forbidden(gc.garbage, exempt_types)
        finally:
            del gc.garbage[:]
            gc.set_debug(debug)
            if enabled:
                gc.enable()
    return found


def _write(directory, files: dict[str, str]) -> list[str]:
    paths = []
    for name, text in files.items():
        path = os.path.join(str(directory), name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return sorted(paths)


def _cold(paths, tmp_path):
    """One cold cached check of *paths*."""
    argv = ["--cache-dir", str(tmp_path / "cold-cache"), "-quiet", *paths]
    return lambda: cli.run(argv)


def _two_modules(tmp_path) -> list[str]:
    program = generate_program(modules=2, filler_functions=2, seed=1)
    return _write(tmp_path, program.files)


def _edit_a_body(tmp_path) -> None:
    """Bump one constant in a function body of ``rec0.c``."""
    target = os.path.join(str(tmp_path), "rec0.c")
    with open(target, encoding="utf-8") as handle:
        text = handle.read()
    edited, count = re.subn(
        r"return acc \+ (\d+);",
        lambda m: f"return acc + {int(m.group(1)) + 1};", text, count=1,
    )
    assert count == 1
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(edited)


class TestNoCyclicGarbage:
    def test_plain_run_on_db(self):
        assert cyclic_garbage(lambda: cli.run(["-quiet", *DB_PATHS])) == {}

    def test_cold_cached_run_on_db(self, tmp_path):
        assert cyclic_garbage(_cold(DB_PATHS, tmp_path)) == {}

    def test_cold_cached_run_on_a_generated_program(self, tmp_path):
        program = generate_program(modules=2, filler_functions=2, seed=1)
        paths = _write(tmp_path, program.files)
        assert cyclic_garbage(_cold(paths, tmp_path)) == {}

    def test_warm_recheck_after_a_body_edit(self, tmp_path):
        paths = _two_modules(tmp_path)
        argv = ["--cache-dir", str(tmp_path / "cache"), "-quiet", *paths]
        cli.run(argv)
        _edit_a_body(tmp_path)

        def recheck():
            cli.run(argv)
            assert cli.LAST_RUN_STATS.cache_misses == 1

        assert cyclic_garbage(recheck) == {}

    def test_trace(self):
        assert cyclic_garbage(
            lambda: cli.run(["-quiet", "-trace", "erc_create", *DB_PATHS])
        ) == {}

    def test_dump(self, tmp_path):
        out = str(tmp_path / "db.lcd")
        assert cyclic_garbage(
            lambda: cli.run(["-quiet", "-dump", out, *DB_PATHS])
        ) == {}

    def test_check_source(self):
        text = (
            '#include "box.h"\n'
            "char *g(box *b) {\n"
            "  char *p = (char *) malloc(8);\n"
            "  if (p != NULL && b->n > 0) { *p = 'x'; }\n"
            "  return p;\n"
            "}\n"
        )
        header = "#include <stdlib.h>\ntypedef struct { int n; } box;\n"
        assert cyclic_garbage(
            lambda: check_source(text, "g.c", extra_sources={"box.h": header})
        ) == {}

    def test_mutation_variant(self, tmp_path):
        variant = MutationEngine().variant(3)
        paths = _write(tmp_path, variant.files)
        assert cyclic_garbage(lambda: cli.run(paths)) == {}

    def test_unit_with_parse_errors(self, tmp_path):
        paths = _write(tmp_path, {"bad.c": TWO_PARSE_ERRORS})
        assert cyclic_garbage(lambda: cli.run(["-quiet", *paths])) == {}

    def test_one_service_request(self, tmp_path):
        runner = LineServerThread(CheckingService(
            cache_dir=str(tmp_path / "svc"), workers=1,
            metrics=MetricsRegistry(),
        ))
        try:
            host, port = runner.server.bound_addr.rsplit(":", 1)
            with ServiceClient.connect_tcp(host, int(port)) as client:
                replies = []
                found = cyclic_garbage(lambda: replies.append(
                    client.check(["-quiet", *DB_PATHS], request_id=1)
                ))
        finally:
            runner.close()
        assert replies[0]["status"] == 0
        assert found == {}


class TestWarmPathLeavesNothing:
    """A body-edit re-check that follows an earlier one finds every
    unchanged unit's slice decoded already, so it leaves the collector
    nothing, struct types included. The pointer intern table is reset
    first, so that its own reset at its cap cannot fall inside the
    measured run."""

    def test_through_the_cli(self, tmp_path):
        paths = _two_modules(tmp_path)
        argv = ["--cache-dir", str(tmp_path / "cache"), "-quiet", *paths]

        def recheck():
            cli.run(argv)
            assert cli.LAST_RUN_STATS.cache_misses == 1

        cli.run(argv)
        _edit_a_body(tmp_path)
        recheck()
        _edit_a_body(tmp_path)
        ctypes._POINTER_INTERN.clear()
        assert cyclic_garbage(recheck, exempt_types=False) == {}

    def test_as_a_service_request(self, tmp_path):
        paths = _two_modules(tmp_path)
        runner = LineServerThread(CheckingService(
            cache_dir=str(tmp_path / "svc"), workers=1,
            metrics=MetricsRegistry(),
        ))
        replies = []
        try:
            host, port = runner.server.bound_addr.rsplit(":", 1)
            with ServiceClient.connect_tcp(host, int(port)) as client:

                def check():
                    replies.append(client.check(
                        ["-quiet", "-stats", *paths],
                        request_id=len(replies) + 1,
                    ))

                check()
                _edit_a_body(tmp_path)
                check()
                _edit_a_body(tmp_path)
                ctypes._POINTER_INTERN.clear()
                found = cyclic_garbage(check, exempt_types=False)
        finally:
            runner.close()
        assert [reply["status"] for reply in replies] == [0, 0, 0]
        assert "  result cache:      3 hit(s), 1 miss(es)" in (
            replies[-1]["output"].splitlines()
        )
        assert found == {}


class TestParseErrors:
    def test_messages_are_pinned(self):
        result = Checker().check_sources({"bad.c": TWO_PARSE_ERRORS})
        assert [m.code for m in result.messages] == [
            MessageCode.PARSE_ERROR, MessageCode.PARSE_ERROR,
        ]
        assert [m.location.column for m in result.messages] == [9, 9]
        assert [m.render() for m in result.messages] == [
            "bad.c:1: Parse error: malformed integer constant '089' "
            "(skipped to the next declaration)",
            "bad.c:2: Parse error: unexpected token ';' "
            "(skipped to the next declaration)",
        ]

    def test_stored_errors_keep_no_traceback(self):
        parsed = Checker().parse_unit(TWO_PARSE_ERRORS, "bad.c")
        assert len(parsed.parse_errors) == 2
        for error in parsed.parse_errors:
            assert error.__traceback__ is None
            assert error.__context__ is None


@pytest.fixture
def lexed(monkeypatch):
    """Lexings per source name, counted at the preprocessor's lexer."""
    counts: Counter = Counter()
    lexer = preprocessor.Lexer

    def counting(source, *args, **kwargs):
        counts[source.name] += 1
        return lexer(source, *args, **kwargs)

    monkeypatch.setattr(preprocessor, "Lexer", counting)
    return counts


class TestLexingScope:
    HEADER = "typedef struct { int n; } box;\nint box_size(box *b);\n"

    @staticmethod
    def _unit(i: int) -> str:
        return f'#include "box.h"\nint use{i}(box *b) {{ return b->n; }}\n'

    def test_a_runs_header_is_lexed_once_per_run(self, lexed):
        files = {"box.h": self.HEADER}
        files.update({f"u{i}.c": self._unit(i) for i in range(3)})
        checker = Checker()
        checker.check_sources(files)
        assert lexed["box.h"] == 1
        assert [lexed[f"u{i}.c"] for i in range(3)] == [1, 1, 1]
        checker.check_sources(files)
        assert lexed["box.h"] == 2

    def test_an_engine_header_is_lexed_once_per_engine(self, lexed):
        checker = Checker()
        checker.sources.add("box.h", self.HEADER)
        first = checker.parse_unit(self._unit(0), "u0.c")
        second = checker.parse_unit(self._unit(1), "u1.c")
        assert lexed["box.h"] == 1
        assert not first.parse_errors and not second.parse_errors
