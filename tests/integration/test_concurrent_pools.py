"""Concurrent callers: each thread's check, and each thread's fork pool,
runs its own work.

The checking service runs ``cli.run`` on worker threads, so two checks
run at once in one process. Each must report only its own program: a
check that saw the other thread's units would return their messages
under its own unit names, and a cache written from those results would
answer later runs with them.

Two threads that each run ``fork_map`` at once fork two pools. Each
pool's workers must run only their caller's shared state: a worker that
inherited the other caller's state would return its results under this
caller's items. A worker forked while another thread holds the prelude
lock must not wait on its inherited copy of that lock.
"""

import sys
import threading

import pytest

from repro.bench.dbexample import db_sources
from repro.bench.generator import generate_program
from repro.core.api import Checker
from repro.incremental import IncrementalChecker, ResultCache, parallel
from repro.obs.metrics import MetricsRegistry

ROUNDS = 12
ITEMS = 6


def _renders(result) -> list[str]:
    return [m.render() for m in result.messages]


def _run_in_threads(work, names) -> None:
    """Run ``work(name)`` on one thread per name, finely interleaved;
    re-raise the first error a thread hit."""
    errors: list[BaseException] = []
    start = threading.Barrier(len(names))

    def guarded(name: str) -> None:
        try:
            work(name, start)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            start.abort()

    threads = [
        threading.Thread(target=guarded, args=(name,)) for name in names
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two callers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


@pytest.fixture(scope="module")
def programs():
    return {
        "db": db_sources(0),
        "generated": dict(generate_program(modules=5, seed=3).stripped().files),
    }


@pytest.fixture(scope="module")
def serial(programs):
    return {
        name: _renders(Checker().check_sources(dict(files)))
        for name, files in programs.items()
    }


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_two_threads_each_get_their_own_results(
    programs, serial, tmp_path, cached
):
    outputs: dict[str, list] = {name: [] for name in programs}

    def check_repeatedly(name: str, start) -> None:
        for round_no in range(ROUNDS):
            cache_dir = str(tmp_path / f"{name}-{round_no}")
            start.wait(timeout=60)
            engine = IncrementalChecker(
                cache=ResultCache(cache_dir) if cached else None,
                metrics=MetricsRegistry(),
            )
            result = engine.check_sources(dict(programs[name]))
            outputs[name].append(
                (_renders(result), list(engine.stats.notes), cache_dir)
            )

    _run_in_threads(check_repeatedly, list(programs))
    for name, runs in outputs.items():
        assert len(runs) == ROUNDS
        for renders, notes, cache_dir in runs:
            assert notes == []
            assert renders == serial[name]
            if cached:
                # a warm re-run answers from what the thread's check wrote
                warm = IncrementalChecker(cache=ResultCache(cache_dir))
                assert _renders(warm.check_sources(dict(programs[name]))) \
                    == serial[name]
                assert warm.stats.cache_hits == warm.stats.units


class _State:
    def __init__(self, tag: str, step: int) -> None:
        self.tag = tag
        self.step = step


def _tagged(state: _State, item: int) -> tuple[str, int]:
    """One pool task: whose state the worker holds, and the item's value."""
    return state.tag, item * state.step


def test_two_threads_each_get_their_own_pool_results():
    if not parallel.fork_available():
        pytest.skip("needs fork")
    states = {"a": _State("a", 3), "b": _State("b", 7)}
    outputs: dict[str, list] = {tag: [] for tag in states}

    def map_repeatedly(tag: str, start) -> None:
        for _ in range(ROUNDS):
            start.wait(timeout=60)
            outputs[tag].append(parallel.fork_map(
                _tagged, states[tag],
                [(i, i + 1) for i in range(0, ITEMS, 2)], 2,
                name=str, noun="item",
            ))

    _run_in_threads(map_repeatedly, list(states))
    for tag, runs in outputs.items():
        expected = [(tag, i * states[tag].step) for i in range(ITEMS)]
        assert runs == [(expected, [])] * ROUNDS


def test_built_prelude_is_returned_without_the_lock():
    # A worker forked while another thread of its parent held the
    # prelude lock inherits the lock held; its initializer must not
    # wait on it.
    from repro.core import api

    built = api.ensure_process_initialized()
    got = []
    with api._PRELUDE_LOCK:
        waiter = threading.Thread(
            target=lambda: got.append(api.ensure_process_initialized()),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
    assert got == [built]
