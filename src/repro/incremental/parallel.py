"""The one fault-contained fork pool, for the difftest campaign.

:func:`fork_map` runs ``fn(shared, item)`` for every item of a list of
tasks on a pool of forked workers. Its one caller is
:func:`repro.difftest.campaign.run_campaign` (an item is a seed, a task
is one seed): seeds are independent, so a campaign spreads over worker
processes. Checking never forks; every check runs in one process.

Workers are created with the ``fork`` start method, and ``fn`` and
``shared`` travel to workers through fork-inherited memory: they are
the pool's initializer arguments, which a forked worker inherits
without pickling, and each task carries only its tuple of items.
Nothing shared is ever pickled, so per-worker memory does not scale
with the job count and unpicklable shared state cannot force a serial
fallback. Only the results travel back pickled. Each pool carries its
own caller's state, so threads that run pools at once never see each
other's.

Failure handling is fault-contained rather than all-or-nothing:

* if the pool cannot be used at all (no ``fork``, pool startup failed),
  the caller gets ``None`` plus a note saying *why* it ran serially;
* if one task dies (a crashed worker, an exception that escaped
  per-function containment), only that task is re-run serially in the
  parent — the rest of the pool's results are kept — and each of its
  items is recorded as a retry note;
* if the *pool itself* collapses (``BrokenProcessPool``: every
  remaining future raises the same error), finished tasks are salvaged
  and the remainder runs serially once, with a single note — one
  collapse is not N worker crashes.

``KeyboardInterrupt`` and ``SystemExit`` are deliberately never caught:
a user interrupt must abort the run, not demote it to serial work.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..core.api import ensure_process_initialized

#: A worker's ``(fn, shared)``, set by :func:`_init_worker`; always
#: None in the parent.
_WORKER_STATE: tuple | None = None


def _init_worker(fn, shared) -> None:
    """Runs once in each worker: keep the pool's ``(fn, shared)`` and
    warm the prelude (usually inherited)."""
    global _WORKER_STATE
    _WORKER_STATE = (fn, shared)
    ensure_process_initialized()


def _run_task(task: tuple) -> list:
    """Run one task's items; returns their results in task order."""
    fn, shared = _WORKER_STATE
    return [fn(shared, item) for item in task]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _no_pool(reason: str, count: int, noun: str) -> tuple:
    return None, [
        f"parallel checking unavailable ({reason}); "
        f"checked {count} {noun}(s) serially"
    ]


def fork_map(
    fn,
    shared,
    tasks: list[tuple],
    jobs: int,
    *,
    name,
    noun: str,
) -> tuple[list | None, list[str]]:
    """Run ``fn(shared, item)`` for every item of *tasks* on at most
    *jobs* forked workers, one task per submission.

    The tasks' items must partition ``range(n)``; ``results[item]`` is
    ``fn(shared, item)``. ``name(item)`` names an item in a retry note
    and *noun* counts items in the pool notes.

    Returns ``(results, notes)``. ``results`` is ``None`` when the pool
    never started (the caller runs everything serially); *notes* records
    every fallback and retry so the run can report why it did not go
    fully parallel.
    """
    count = sum(len(task) for task in tasks)
    if not fork_available():
        return _no_pool("no fork start method on this platform", count, noun)
    notes: list[str] = []
    results: list = [None] * count

    def finished(future) -> bool:
        return future.done() and future.exception() is None

    def run_serially(task: tuple) -> None:
        for item in task:
            results[item] = fn(shared, item)

    try:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(fn, shared),
        )
    except Exception as exc:
        return _no_pool(
            f"cannot start worker pool: {type(exc).__name__}", count, noun
        )
    with pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        broken = False
        for task, future in zip(tasks, futures):
            if broken and not finished(future):
                run_serially(task)
                continue
            try:
                outputs = future.result()
            except BrokenProcessPool:
                # The pool collapsed: every remaining future raises
                # this same error. One note, not one retry per
                # surviving item. Finished work is kept.
                broken = True
                remaining = sum(
                    len(t) for t, f in zip(tasks, futures)
                    if not finished(f)
                )
                notes.append(
                    f"worker pool collapsed (BrokenProcessPool); "
                    f"checked the remaining {remaining} {noun}(s) "
                    f"serially"
                )
                run_serially(task)
                continue
            except Exception as exc:
                # One dead task (a crashed task, an exception past
                # per-function containment) costs one serial re-run
                # of its items, not the whole pool's work.
                for item in task:
                    notes.append(
                        f"parallel check of {name(item)} failed "
                        f"({type(exc).__name__}); re-checked serially"
                    )
                run_serially(task)
                continue
            for item, output in zip(task, outputs):
                results[item] = output
    return results, notes
