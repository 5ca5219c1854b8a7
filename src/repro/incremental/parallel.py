"""The one fault-contained fork pool, and the engine's sharded check.

:func:`fork_map` runs ``fn(shared, item)`` for every item of a list of
tasks on a pool of forked workers. It has two callers:
:func:`check_units_parallel` (the engine's check stage: an item is a
unit index, a task is a shard of them, see :mod:`.shard`) and
:func:`repro.difftest.campaign.run_campaign` (an item is a seed, a task
is one seed). Checking is embarrassingly parallel once parsing is done:
each unit is a pure function of (its AST, the merged program symbol
table, the flags) — see :func:`repro.core.api.check_parsed_unit`.

Workers are created with the ``fork`` start method, and ``fn`` and
``shared`` travel to workers through fork-inherited memory: they are
the pool's initializer arguments, which a forked worker inherits
without pickling, and each task carries only its tuple of items.
Nothing shared is ever pickled, so per-worker memory does not scale
with the job count and unpicklable shared state cannot force a serial
fallback. Only the results travel back pickled. Each pool carries its
own caller's state, so threads that run pools at once (the checking
service's workers under ``--jobs``) never see each other's.

Failure handling is fault-contained rather than all-or-nothing:

* if the pool cannot be used at all (no ``fork``, pool startup failed),
  the caller gets ``None`` plus a note saying *why* serial checking ran;
* if one task dies (a crashed worker, an exception that escaped
  per-function containment), only that task is re-run serially in the
  parent — the rest of the pool's results are kept — and each of its
  items is recorded as a retry note;
* if the *pool itself* collapses (``BrokenProcessPool``: every
  remaining future raises the same error), finished tasks are salvaged
  and the remainder runs serially once, with a single note and one
  ``engine.parallel.fallbacks`` increment — one collapse is not N
  worker crashes.

``KeyboardInterrupt`` and ``SystemExit`` are deliberately never caught:
a user interrupt must abort the run, not demote it to serial checking.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..core.api import (
    ParsedUnit,
    UnitCheckOutput,
    check_parsed_unit,
    ensure_process_initialized,
)
from ..obs.metrics import GLOBAL_METRICS, MetricsRegistry
from .shard import partition_units, shard_balance, shard_count_for

#: A worker's ``(fn, shared)``, set by :func:`_init_worker`; always
#: None in the parent.
_WORKER_STATE: tuple | None = None


def _init_worker(fn, shared) -> None:
    """Runs once in each worker: keep the pool's ``(fn, shared)`` and
    warm the prelude (usually inherited)."""
    global _WORKER_STATE
    _WORKER_STATE = (fn, shared)
    ensure_process_initialized()


def _run_task(task: tuple) -> tuple[int, list]:
    """Run one task's items; returns (worker pid, results in task
    order). The pid lets the parent attribute tasks to workers for the
    steal metric without any extra plumbing."""
    fn, shared = _WORKER_STATE
    return os.getpid(), [fn(shared, item) for item in task]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _no_pool(reason: str, count: int, noun: str, metrics) -> tuple:
    metrics.inc("engine.parallel.fallbacks")
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
    noun: str = "unit",
    metrics=None,
) -> tuple[list | None, list[str]]:
    """Run ``fn(shared, item)`` for every item of *tasks* on at most
    *jobs* forked workers, one task per submission.

    The tasks' items must partition ``range(n)``; ``results[item]`` is
    ``fn(shared, item)``. ``name(item)`` names an item in a retry note
    and *noun* counts items in the pool notes. Fallbacks, retries and
    steals are counted in *metrics* (omitted, they are not kept).

    Returns ``(results, notes)``. ``results`` is ``None`` when the pool
    never started (the caller runs everything serially); *notes* records
    every fallback and retry so the run can report why it did not go
    fully parallel.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    count = sum(len(task) for task in tasks)
    workers = min(jobs, len(tasks))
    if not fork_available():
        return _no_pool(
            "no fork start method on this platform", count, noun, metrics
        )
    notes: list[str] = []
    results: list = [None] * count
    pids: list[int] = []

    def finished(future) -> bool:
        return future.done() and future.exception() is None

    def run_serially(task: tuple) -> None:
        for item in task:
            results[item] = fn(shared, item)

    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(fn, shared),
        )
    except Exception as exc:
        return _no_pool(
            f"cannot start worker pool: {type(exc).__name__}",
            count, noun, metrics,
        )
    with pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        broken = False
        for task, future in zip(tasks, futures):
            if broken and not finished(future):
                run_serially(task)
                continue
            try:
                pid, outputs = future.result()
            except BrokenProcessPool:
                # The pool collapsed: every remaining future raises
                # this same error. One fallback, one note — not one
                # retry per surviving item. Finished work is kept.
                broken = True
                remaining = sum(
                    len(t) for t, f in zip(tasks, futures)
                    if not finished(f)
                )
                metrics.inc("engine.parallel.fallbacks")
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
                    metrics.inc("engine.parallel.unit_retries")
                    notes.append(
                        f"parallel check of {name(item)} failed "
                        f"({type(exc).__name__}); re-checked serially"
                    )
                run_serially(task)
                continue
            pids.append(pid)
            for item, output in zip(task, outputs):
                results[item] = output
    if pids:
        metrics.inc("engine.shard.steals", _steals(pids, len(tasks), workers))
    return results, notes


def _steals(pids: list[int], tasks: int, workers: int) -> int:
    """Tasks a worker ran beyond its fair share were stolen from the
    queue after it finished its own allotment."""
    per_pid: dict[int, int] = {}
    for pid in pids:
        per_pid[pid] = per_pid.get(pid, 0) + 1
    fair = math.ceil(tasks / workers)
    return sum(max(0, count - fair) for count in per_pid.values())


def _check_unit(state: tuple, i: int) -> UnitCheckOutput:
    units, symtab, flags, enum_consts, crash_dir, interfaces = state
    return check_parsed_unit(
        units[i], symtab, flags, enum_consts, crash_dir=crash_dir,
        interface=interfaces[i],
    )


def check_units_parallel(
    units: list[ParsedUnit],
    symtab,
    flags,
    enum_consts: dict[str, int],
    jobs: int,
    crash_dir: str | None = None,
    metrics=None,
    weights: list[int] | None = None,
    *,
    interfaces: list,
) -> tuple[list[UnitCheckOutput] | None, list[str]]:
    """Check *units* on a pool of *jobs* workers, preserving unit order.

    *weights* (source sizes) balance the shards; see
    :func:`repro.incremental.shard.partition_units`. *interfaces* are
    the units' own slices, passed through to
    :func:`repro.core.api.check_parsed_unit`.

    Returns :func:`fork_map`'s ``(outputs, notes)``; ``(None, [])``
    when there is nothing to parallelize.
    """
    metrics = metrics if metrics is not None else GLOBAL_METRICS
    if jobs <= 1 or len(units) <= 1:
        return None, []
    if not fork_available():  # before partitioning: no shard metrics
        return _no_pool(
            "no fork start method on this platform", len(units), "unit",
            metrics,
        )
    shards = partition_units(
        len(units), shard_count_for(min(jobs, len(units)), len(units)),
        weights,
    )
    metrics.inc("engine.shard.count", len(shards))
    metrics.set_gauge("engine.shard.balance", shard_balance(shards, weights))
    return fork_map(
        _check_unit,
        (units, symtab, flags, enum_consts, crash_dir, interfaces),
        [shard.indices for shard in shards],
        jobs,
        metrics=metrics,
        name=lambda i: units[i].unit.name,
    )
