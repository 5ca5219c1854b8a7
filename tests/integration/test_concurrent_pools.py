"""Concurrent sharded checks: each caller's fork pool runs its own work.

The checking service runs ``cli.run`` on worker threads, so two
``--jobs N`` requests fork two pools at once. Each pool's workers must
check only their caller's program: a worker that inherited the other
caller's units would return its messages under this caller's unit
names, and a cache written from those results would answer later runs
with them. A worker forked while another thread holds the prelude lock
must not wait on its inherited copy of that lock.
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


def _renders(result) -> list[str]:
    return [m.render() for m in result.messages]


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
    if not parallel.fork_available():
        pytest.skip("needs fork")
    outputs: dict[str, list] = {name: [] for name in programs}
    errors: list[BaseException] = []
    start = threading.Barrier(len(programs))

    def check_repeatedly(name: str) -> None:
        try:
            for round_no in range(ROUNDS):
                cache_dir = str(tmp_path / f"{name}-{round_no}")
                start.wait(timeout=60)
                engine = IncrementalChecker(
                    cache=ResultCache(cache_dir) if cached else None,
                    jobs=2, metrics=MetricsRegistry(),
                )
                result = engine.check_sources(dict(programs[name]))
                outputs[name].append(
                    (_renders(result), list(engine.stats.notes), cache_dir)
                )
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            start.abort()

    threads = [
        threading.Thread(target=check_repeatedly, args=(name,))
        for name in programs
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
    for name, runs in outputs.items():
        assert len(runs) == ROUNDS
        for renders, notes, cache_dir in runs:
            assert notes == []
            assert renders == serial[name]
            if cached:
                # a warm serial re-run answers from what the pool wrote
                warm = IncrementalChecker(cache=ResultCache(cache_dir))
                assert _renders(warm.check_sources(dict(programs[name]))) \
                    == serial[name]
                assert warm.stats.cache_hits == warm.stats.units


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
