"""Unit tests for the fault-containment layer: crash bundles, degraded
unit outputs, and the fork pool's fallback bookkeeping."""

import gc
import json
import os
import threading
import weakref

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

    def test_failed_unit_interface_digest_is_one_constant(
        self, tmp_path, monkeypatch
    ):
        from repro.incremental import IncrementalChecker, ResultCache
        from repro.incremental import fingerprint

        for name, exc in (("a.c", ValueError("x")), ("d/b.c", KeyError(1))):
            pu = failed_parsed_unit(name, frontend_fatal(exc, name))
            assert fingerprint.interface_digest(unit_interface(pu), {}) \
                == fingerprint.FAILED_INTERFACE_DIGEST
        # a cached check of a failed unit never walks an interface
        monkeypatch.setattr(fingerprint, "_stable", None)
        engine = IncrementalChecker(cache=ResultCache(str(tmp_path)))
        result = engine.check_sources({
            "bad.c": 'char *s = "unterminated\n',
            "good.c": "int f(void) { return 1; }\n",
        })
        assert result.internal_errors == 0
        assert [m.location.filename for m in result.messages] == ["bad.c"]

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


class _Shared:
    """A pool's shared state: weak-referenceable, so a test can watch it
    being freed."""

    def __init__(self, base, payload=()):
        self.base = base
        self.payload = payload


def _offset(shared, item):
    return shared.base + item


def _worker_pid(shared, item):
    return os.getpid()


def _fails_on_one(shared, item):
    if item == 1:
        raise ValueError(f"item {item} fails wherever it runs")
    return shared.base + item


def _layout(count, tasks):
    """*count* items dealt round-robin into at most *tasks* tasks, each
    task's items in descending order."""
    dealt = [
        tuple(reversed(range(start, count, tasks)))
        for start in range(min(tasks, count))
    ]
    assert sorted(i for task in dealt for i in task) == list(range(count))
    return dealt


class TestParallelFallback:
    """The fork pool's failure modes, driven through ``fork_map`` with a
    small module-level task function."""

    @pytest.fixture(autouse=True)
    def needs_fork(self):
        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")

    def _map(self, shared, tasks):
        from repro.incremental.parallel import fork_map

        return fork_map(
            _offset, shared, tasks, 2, name=lambda i: f"item {i}",
            noun="item",
        )

    @pytest.mark.parametrize(
        "count, tasks", [(1, 1), (2, 1), (5, 3), (7, 20), (10, 4), (48, 8)],
    )
    def test_results_follow_the_items_for_any_task_layout(
        self, count, tasks
    ):
        # Whatever tasks the items are dealt into, and in whatever
        # order a task lists them, results[item] is fn(shared, item).
        results, notes = self._map(_Shared(100), _layout(count, tasks))
        assert results == [100 + i for i in range(count)]
        assert notes == []

    @pytest.mark.parametrize(
        "jobs, tasks", [(1, 3), (2, 1), (4, 2)],
    )
    def test_never_more_workers_than_jobs_or_tasks(self, jobs, tasks):
        from repro.incremental.parallel import fork_map

        pids, notes = fork_map(
            _worker_pid, _Shared(0), _layout(2 * tasks, tasks), jobs,
            name=str, noun="item",
        )
        assert notes == []
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= min(jobs, tasks)

    def test_parent_keeps_no_worker_state(self):
        # The per-pool initializer runs in the workers only.
        from repro.incremental import parallel

        results, _ = self._map(_Shared(10), [(0,), (1,)])
        assert results == [10, 11]
        assert parallel._WORKER_STATE is None

    def test_no_fork_returns_none_with_one_note(self, monkeypatch):
        from repro.incremental import parallel

        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        assert self._map(_Shared(10), [(0, 2), (1,)]) == (None, [
            "parallel checking unavailable (no fork start method on this "
            "platform); checked 3 item(s) serially"
        ])

    def test_pool_that_cannot_start_returns_none_with_one_note(
        self, monkeypatch
    ):
        from repro.incremental import parallel

        def cannot_start(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", cannot_start)
        assert self._map(_Shared(10), [(0,), (1,)]) == (None, [
            "parallel checking unavailable (cannot start worker pool: "
            "OSError); checked 2 item(s) serially"
        ])

    def test_item_that_fails_serially_too_raises(self):
        # The serial re-run is the last word: an item that fails there
        # as well raises to the caller, as it would without a pool.
        from repro.incremental.parallel import fork_map

        with pytest.raises(ValueError, match="item 1 fails"):
            fork_map(
                _fails_on_one, _Shared(10), [(0,), (1,), (2,)], 2,
                name=str, noun="item",
            )

    def test_unpicklable_state_still_runs_pooled(self):
        # Shared state travels through fork-inherited memory, so
        # unpicklable members cannot force a serial fallback.
        shared = _Shared(10, (lambda: None, threading.Lock()))
        results, notes = self._map(shared, [(0,), (1,)])
        assert results == [10, 11]
        assert notes == []

    def test_dead_task_is_retried_serially(self, monkeypatch):
        from repro.incremental import parallel

        # Workers inherit the monkeypatched task through fork; the
        # parent re-runs each task's items with the real function.
        monkeypatch.setattr(parallel, "_run_task", _die_task)
        results, notes = self._map(_Shared(10), [(0, 2), (1,)])
        assert results == [10, 11, 12]
        assert sorted(notes) == [
            f"parallel check of item {i} failed (RuntimeError); "
            f"re-checked serially"
            for i in range(3)
        ]

    def test_broken_pool_falls_back_serially_once(self, monkeypatch):
        # A collapsed pool costs one note, not one retry per surviving
        # item, and every item still gets its result.
        from repro.incremental import parallel

        monkeypatch.setattr(parallel, "_run_task", _break_pool_task)
        results, notes = self._map(_Shared(10), [(i,) for i in range(4)])
        assert results == [10, 11, 12, 13]
        assert len(notes) == 1
        assert "BrokenProcessPool" in notes[0]

    def test_task_payload_does_not_scale_with_shared_state(
        self, monkeypatch
    ):
        # Tasks carry only their items, so the bytes pickled per submit
        # stay tiny however large the shared state is, and the pool
        # keeps no reference to the state once it is done.
        import pickle as pickle_mod
        from concurrent.futures import ProcessPoolExecutor

        payload_sizes = []
        real_submit = ProcessPoolExecutor.submit

        def recording_submit(self, fn, *args, **kwargs):
            payload_sizes.append(len(pickle_mod.dumps((args, kwargs))))
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(
            ProcessPoolExecutor, "submit", recording_submit
        )
        shared = _Shared(10, "x" * 1_000_000)
        results, notes = self._map(shared, [(0,), (1,), (2,)])
        assert results == [10, 11, 12]
        assert notes == []
        assert payload_sizes, "the pool submitted no task"
        assert max(payload_sizes) < 4096, payload_sizes
        freed = weakref.ref(shared)
        del shared
        gc.collect()
        assert freed() is None

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        from repro.incremental import parallel

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self._map(_Shared(10), [(0,), (1,)])

    def test_system_exit_propagates(self, monkeypatch):
        from repro.incremental import parallel

        def exit_now(*args, **kwargs):
            raise SystemExit(3)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", exit_now)
        with pytest.raises(SystemExit):
            self._map(_Shared(10), [(0,), (1,)])


def _die_task(items):
    raise RuntimeError(f"worker died on {items}")


def _break_pool_task(items):
    from concurrent.futures.process import BrokenProcessPool

    raise BrokenProcessPool(f"simulated collapse on {items}")


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
