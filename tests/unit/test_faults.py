"""Unit tests for the fault-containment layer: crash bundles, degraded
unit outputs, and the parallel scheduler's fallback bookkeeping."""

import json
import os

import pytest

from repro.core.api import (
    Checker,
    build_program_symtab,
    check_parsed_unit,
    failed_parsed_unit,
    unit_interface,
)
from repro.core.faults import (
    FatalError,
    MAX_CRASH_BUNDLES,
    frontend_fatal,
    write_crash_bundle,
)
from repro.frontend.lexer import LexError
from repro.frontend.source import Location
from repro.messages.message import MessageCode


def _bundles(directory):
    if not os.path.isdir(directory):
        return []
    return sorted(n for n in os.listdir(directory) if n.endswith(".json"))


class TestCrashBundles:
    def test_bundle_contents(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        try:
            raise ValueError("kaboom")
        except ValueError as exc:
            path = write_crash_bundle(
                crash_dir, phase="check", unit="u.c", function="f",
                exc=exc, source_text="int x;",
            )
        assert path is not None and os.path.isfile(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["phase"] == "check"
        assert payload["unit"] == "u.c"
        assert payload["function"] == "f"
        assert payload["exception"] == "ValueError: kaboom"
        assert "Traceback" in payload["traceback"]
        assert len(payload["source_digest"]) == 64

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        path = write_crash_bundle(
            str(blocker / "nested"), phase="check", unit="u.c",
            exc=RuntimeError("x"),
        )
        assert path is None

    def test_pruning_caps_bundle_count(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        os.makedirs(crash_dir)
        for i in range(MAX_CRASH_BUNDLES + 5):
            with open(os.path.join(crash_dir, f"crash-0-{i:04d}.json"),
                      "w") as handle:
                handle.write("{}")
        write_crash_bundle(crash_dir, phase="check", unit="u.c",
                           exc=RuntimeError("x"))
        assert len(_bundles(crash_dir)) <= MAX_CRASH_BUNDLES


class TestFrontendFatals:
    def test_lex_error_becomes_failed_unit(self):
        checker = Checker()
        pu = checker.parse_unit('char *s = "unterminated\n', "bad.c")
        assert pu.fatal_error is not None
        assert pu.fatal_error.kind == "frontend"
        assert pu.degraded
        assert pu.unit.functions() == []

    def test_failed_unit_reports_one_parse_error(self):
        fatal = frontend_fatal(
            LexError("unterminated string", Location("bad.c", 3, 1)), "bad.c"
        )
        pu = failed_parsed_unit("bad.c", fatal)
        iface = unit_interface(pu)
        symtab = build_program_symtab([iface])
        out = check_parsed_unit(pu, symtab, Checker().flags, interface=iface)
        assert out.degraded
        assert out.internal_errors == 0
        parse_errors = [
            m for m in out.messages if m.code is MessageCode.PARSE_ERROR
        ]
        assert len(parse_errors) == 1
        assert parse_errors[0].location.line == 3
        assert "unterminated string" in parse_errors[0].text

    def test_internal_fatal_reports_internal_error(self):
        fatal = FatalError(
            kind="internal", location=Location("u.c", 1, 0),
            description="Internal error while parsing this file: "
                        "RuntimeError: x (file skipped)",
        )
        pu = failed_parsed_unit("u.c", fatal)
        iface = unit_interface(pu)
        symtab = build_program_symtab([iface])
        out = check_parsed_unit(pu, symtab, Checker().flags, interface=iface)
        assert out.degraded
        assert out.internal_errors == 1
        assert [m.code for m in out.messages] == [MessageCode.INTERNAL_ERROR]


class TestPerFunctionContainment:
    def test_one_bad_function_does_not_hide_the_rest(self, tmp_path,
                                                     monkeypatch):
        from repro.analysis.checker import FunctionChecker

        original = FunctionChecker.check

        def selective(self):
            if self.fdef.name == "boom":
                raise RuntimeError("injected")
            return original(self)

        monkeypatch.setattr(FunctionChecker, "check", selective)
        crash_dir = str(tmp_path / "crashes")
        checker = Checker(crash_dir=crash_dir)
        pu = checker.parse_unit(
            "#include <stdlib.h>\n"
            "void boom(void) { }\n"
            "void leaky(char *p) { free(p); }\n",
            "u.c",
        )
        iface = unit_interface(pu)
        symtab = build_program_symtab([iface])
        out = check_parsed_unit(pu, symtab, checker.flags,
                                crash_dir=crash_dir, interface=iface)
        codes = [m.code for m in out.messages]
        assert MessageCode.INTERNAL_ERROR in codes
        assert out.degraded and out.internal_errors == 1
        # the other function's real warning survived
        assert any(c is not MessageCode.INTERNAL_ERROR for c in codes)
        assert _bundles(crash_dir)

    def test_clean_unit_is_not_degraded(self):
        checker = Checker()
        pu = checker.parse_unit("int f(int x) { return x; }\n", "u.c")
        iface = unit_interface(pu)
        symtab = build_program_symtab([iface])
        out = check_parsed_unit(pu, symtab, checker.flags, interface=iface)
        assert not out.degraded
        assert out.internal_errors == 0


class TestParallelFallback:
    def _parsed(self, texts):
        checker = Checker()
        return [
            checker.parse_unit(text, f"u{i}.c")
            for i, text in enumerate(texts)
        ]

    def test_unpicklable_state_no_longer_forces_serial(self):
        # Shared state travels through fork-inherited memory, so
        # unpicklable members (which used to force a serial fallback)
        # parallelize like anything else.
        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")
        units = self._parsed(["int f(void) { return 1; }",
                              "int g(void) { return 2; }"])
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        outputs, notes = parallel.check_units_parallel(
            units, symtab, Checker().flags,
            {"bad": lambda: None},  # unpicklable enum_consts
            jobs=2, interfaces=interfaces,
        )
        assert outputs is not None and len(outputs) == 2
        assert notes == []

    def test_single_unit_stays_serial_silently(self):
        from repro.incremental.parallel import check_units_parallel

        units = self._parsed(["int f(void) { return 1; }"])
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        outputs, notes = check_units_parallel(
            units, symtab, Checker().flags, {}, jobs=4,
            interfaces=interfaces,
        )
        assert outputs is None
        assert notes == []

    def test_dead_task_is_retried_serially(self, monkeypatch):
        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")

        # Workers inherit the monkeypatched task through fork; the
        # parent retries each shard with the real check function.
        monkeypatch.setattr(parallel, "_check_shard_task", _die_task)
        units = self._parsed(["int f(void) { return 1; }",
                              "int g(void) { return 2; }"])
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        outputs, notes = parallel.check_units_parallel(
            units, symtab, Checker().flags, {}, jobs=2,
            interfaces=interfaces,
        )
        assert outputs is not None and len(outputs) == 2
        assert all(out is not None for out in outputs)
        assert len(notes) == 2
        assert all("re-checked serially" in note for note in notes)

    def test_broken_pool_falls_back_serially_once(self, monkeypatch):
        # Satellite regression: a collapsed pool used to be recorded as
        # one retry per surviving unit. It must cost one fallback with
        # one note, and every unit must still be checked.
        from repro.incremental import parallel
        from repro.obs.metrics import MetricsRegistry

        if not parallel.fork_available():
            pytest.skip("needs fork")
        monkeypatch.setattr(parallel, "_check_shard_task", _break_pool_task)
        units = self._parsed([
            f"int f{i}(void) {{ return {i}; }}" for i in range(4)
        ])
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        metrics = MetricsRegistry()
        outputs, notes = parallel.check_units_parallel(
            units, symtab, Checker().flags, {}, jobs=2, metrics=metrics,
            interfaces=interfaces,
        )
        assert outputs is not None and len(outputs) == 4
        assert all(out is not None for out in outputs)
        assert len(notes) == 1
        assert "BrokenProcessPool" in notes[0]
        assert metrics.count("engine.parallel.fallbacks") == 1
        assert metrics.count("engine.parallel.unit_retries") == 0

    def test_task_payload_does_not_scale_with_unit_count(self, monkeypatch):
        # Satellite regression: shared state used to be pickled into
        # every worker via initargs, multiplying peak memory by the job
        # count. Tasks must now carry only shard indices, so the bytes
        # pickled per submit stay tiny however large the units are.
        import pickle as pickle_mod
        from concurrent.futures import ProcessPoolExecutor

        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")
        big_body = "".join(f"    int a{i} = {i};\n" for i in range(2000))
        units = self._parsed([
            f"int f{i}(void) {{\n{big_body}    return {i}; }}"
            for i in range(3)
        ])
        assert sum(len(u.unit.name) for u in units)  # parsed fine
        payload_sizes = []
        real_submit = ProcessPoolExecutor.submit

        def recording_submit(self, fn, *args, **kwargs):
            payload_sizes.append(len(pickle_mod.dumps((args, kwargs))))
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(
            ProcessPoolExecutor, "submit", recording_submit
        )
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        outputs, notes = parallel.check_units_parallel(
            units, symtab, Checker().flags, {}, jobs=2,
            interfaces=interfaces,
        )
        assert outputs is not None and len(outputs) == 3
        assert payload_sizes, "parallel path did not submit tasks"
        assert max(payload_sizes) < 4096, payload_sizes
        assert parallel._PARENT_STATE is None  # no lingering references

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        from repro.incremental import parallel

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", interrupt)
        units = self._parsed(["int f(void) { return 1; }",
                              "int g(void) { return 2; }"])
        interfaces = [unit_interface(u) for u in units]
        symtab = build_program_symtab(interfaces)
        with pytest.raises(KeyboardInterrupt):
            parallel.check_units_parallel(
                units, symtab, Checker().flags, {}, jobs=2,
                interfaces=interfaces,
            )


def _die_task(indices):
    raise RuntimeError(f"worker died on {indices}")


def _break_pool_task(indices):
    from concurrent.futures.process import BrokenProcessPool

    raise BrokenProcessPool(f"simulated collapse on {indices}")


class TestCancelScopes:
    def test_checkpoint_is_a_no_op_without_a_scope(self):
        from repro.core.faults import active_cancel_scope, cancel_checkpoint

        assert active_cancel_scope() is None
        cancel_checkpoint()  # must not raise

    def test_cancelled_scope_raises_at_the_checkpoint(self):
        from repro.core.faults import (
            CancelScope,
            RequestCancelled,
            cancel_checkpoint,
            cancel_scope,
        )

        scope = CancelScope()
        with cancel_scope(scope):
            cancel_checkpoint()  # not yet cancelled: passes
            scope.cancel("deadline exceeded")
            with pytest.raises(RequestCancelled, match="deadline exceeded"):
                cancel_checkpoint()

    def test_scope_restored_on_exit_and_nestable(self):
        from repro.core.faults import (
            CancelScope,
            active_cancel_scope,
            cancel_scope,
        )

        outer, inner = CancelScope(), CancelScope()
        with cancel_scope(outer):
            with cancel_scope(inner):
                assert active_cancel_scope() is inner
            assert active_cancel_scope() is outer
        assert active_cancel_scope() is None

    def test_cancellation_escapes_exception_containment(self):
        # RequestCancelled is a BaseException precisely so that the
        # per-unit `except Exception` containment cannot swallow it.
        from repro.core.faults import RequestCancelled

        assert not issubclass(RequestCancelled, Exception)
        assert issubclass(RequestCancelled, BaseException)

    def test_scopes_are_thread_local(self):
        import threading

        from repro.core.faults import (
            CancelScope,
            active_cancel_scope,
            cancel_scope,
        )

        seen = {}

        def probe():
            seen["other-thread"] = active_cancel_scope()

        with cancel_scope(CancelScope()):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
        assert seen["other-thread"] is None

    def test_engine_stops_at_a_unit_boundary(self, tmp_path):
        # Cancel between units of a batch: the engine raises out of its
        # unit loop instead of finishing the remaining units.
        from repro.core.faults import (
            CancelScope,
            RequestCancelled,
            cancel_scope,
        )
        from repro.driver import cli

        sources = []
        for index in range(4):
            src = tmp_path / f"u{index}.c"
            src.write_text(f"int f{index}(void) {{ return {index}; }}\n")
            sources.append(str(src))
        scope = CancelScope()
        scope.cancel("test cancel")
        with cancel_scope(scope):
            with pytest.raises(RequestCancelled):
                cli.run(["-quiet", *sources])
