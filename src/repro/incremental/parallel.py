"""Fan per-unit checks out over a sharded process pool.

Checking is embarrassingly parallel once parsing is done: each unit is a
pure function of (its AST, the merged program symbol table, the flags) —
see :func:`repro.core.api.check_parsed_unit`. Units are grouped into
*shards* (see :mod:`.shard`): interface-dependency clusters packed into
more batches than workers, so the pool's task queue gives natural
work-stealing — a worker that finishes early pulls the next queued
shard.

Workers are created with the ``fork`` start method, and the shared
inputs (parsed units, symbol table, flags) travel to workers through
fork-inherited memory: the parent parks them in a module global before
building the pool and each task carries only its shard's index tuple.
Nothing unit-sized is ever pickled, so per-worker memory does not scale
with the job count and unpicklable shared state cannot force a serial
fallback.

Failure handling is fault-contained rather than all-or-nothing:

* if the pool cannot be used at all (no ``fork``, pool startup failed),
  the caller gets ``None`` plus a note saying *why* serial checking ran;
* if one shard's task dies (a crashed worker, an exception that escaped
  per-function containment), only that shard is re-checked serially in
  the parent — the rest of the pool's results are kept — and each of
  its units is recorded as a retry note;
* if the *pool itself* collapses (``BrokenProcessPool``: every
  remaining future raises the same error), the remainder falls back to
  serial once, with a single note and one ``engine.parallel.fallbacks``
  increment — one collapse is not N worker crashes.

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
from ..obs.metrics import GLOBAL_METRICS
from .shard import Shard, partition_units, shard_balance, shard_count_for

#: Shared inputs parked by the parent immediately before the pool forks;
#: workers read them back through inherited memory. Only ever non-None
#: inside check_units_parallel's pool window.
_PARENT_STATE: tuple | None = None


def _init_worker() -> None:
    """Runs once in each worker: warm the prelude (usually inherited)."""
    ensure_process_initialized()


def _check_shard_task(indices: tuple[int, ...]) -> tuple[int, list]:
    """Check one shard's units; returns (worker pid, outputs in shard
    order). The pid lets the parent attribute shards to workers for the
    steal/balance metrics without any extra plumbing."""
    assert _PARENT_STATE is not None, "fork did not inherit parent state"
    return os.getpid(), _check_indices(_PARENT_STATE, indices)


def _check_indices(state: tuple, indices) -> list[UnitCheckOutput]:
    units, symtab, flags, enum_consts, crash_dir, interfaces = state
    return [
        check_parsed_unit(
            units[i], symtab, flags, enum_consts, crash_dir=crash_dir,
            interface=interfaces[i],
        )
        for i in indices
    ]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def check_units_parallel(
    units: list[ParsedUnit],
    symtab,
    flags,
    enum_consts: dict[str, int],
    jobs: int,
    crash_dir: str | None = None,
    metrics=None,
    shard_strategy: str = "interface",
    cluster_keys: list[str] | None = None,
    weights: list[int] | None = None,
    *,
    interfaces: list,
) -> tuple[list[UnitCheckOutput] | None, list[str]]:
    """Check *units* on a pool of *jobs* workers, preserving unit order.

    *cluster_keys* (typically the units' interface digests) and
    *weights* (source sizes) feed the shard partitioner; see
    :func:`repro.incremental.shard.partition_units` for the strategies.
    *interfaces* are the units' own slices, passed through to
    :func:`repro.core.api.check_parsed_unit`.

    Returns ``(outputs, notes)``. ``outputs`` is ``None`` when parallel
    execution never started (the caller should check everything
    serially); *notes* records every fallback and retry so the run can
    report why it did not go fully parallel.
    """
    global _PARENT_STATE
    notes: list[str] = []
    metrics = metrics if metrics is not None else GLOBAL_METRICS
    if jobs <= 1 or len(units) <= 1:
        return None, notes
    if not fork_available():
        metrics.inc("engine.parallel.fallbacks")
        notes.append(
            f"parallel checking unavailable (no fork start method on this "
            f"platform); checked {len(units)} unit(s) serially"
        )
        return None, notes
    workers = min(jobs, len(units))
    shards = partition_units(
        len(units),
        shard_count_for(workers, len(units)),
        strategy=shard_strategy,
        cluster_keys=cluster_keys,
        weights=weights,
    )
    metrics.inc("engine.shard.count", len(shards))
    metrics.set_gauge("engine.shard.balance", shard_balance(shards, weights))
    state = (units, symtab, flags, enum_consts, crash_dir, interfaces)
    _PARENT_STATE = state
    try:
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
            )
        except Exception as exc:
            metrics.inc("engine.parallel.fallbacks")
            notes.append(
                f"parallel checking unavailable (cannot start worker pool: "
                f"{type(exc).__name__}); checked {len(units)} unit(s) serially"
            )
            return None, notes
        slots: list[UnitCheckOutput | None] = [None] * len(units)
        shard_pids: list[int] = []
        with pool:
            futures = [
                pool.submit(_check_shard_task, shard.indices)
                for shard in shards
            ]
            pool_broken = False
            for shard, future in zip(shards, futures):
                if pool_broken:
                    # Salvage finished work; everything else runs in the
                    # serial remainder below.
                    done = future.done() and future.exception() is None
                    if not done:
                        _check_shard_serial(shard, state, slots)
                        continue
                try:
                    pid, outputs = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BrokenProcessPool:
                    # The pool collapsed: every remaining future raises
                    # this same error. One fallback, one note — not one
                    # retry per surviving unit.
                    pool_broken = True
                    metrics.inc("engine.parallel.fallbacks")
                    remaining = sum(
                        len(s)
                        for s, f in zip(shards, futures)
                        if not (f.done() and f.exception() is None)
                    )
                    notes.append(
                        f"worker pool collapsed (BrokenProcessPool); "
                        f"checked the remaining {remaining} unit(s) serially"
                    )
                    _check_shard_serial(shard, state, slots)
                    continue
                except Exception as exc:
                    # One dead shard (a crashed task, an exception past
                    # per-function containment) costs one serial re-check
                    # of its units, not the whole pool's work.
                    for i in shard.indices:
                        metrics.inc("engine.parallel.unit_retries")
                        notes.append(
                            f"parallel check of {units[i].unit.name} failed "
                            f"({type(exc).__name__}); re-checked serially"
                        )
                    _check_shard_serial(shard, state, slots)
                    continue
                shard_pids.append(pid)
                for i, output in zip(shard.indices, outputs):
                    slots[i] = output
    finally:
        _PARENT_STATE = None
    _record_steals(shards, shard_pids, workers, metrics)
    assert all(output is not None for output in slots)
    return slots, notes


def _check_shard_serial(shard: Shard, state: tuple, slots: list) -> None:
    for i, output in zip(shard.indices, _check_indices(state, shard.indices)):
        slots[i] = output


def _record_steals(
    shards: list[Shard], shard_pids: list[int], workers: int, metrics
) -> None:
    """Shards a worker ran beyond its fair share were stolen from the
    queue after it finished its own allotment."""
    if not shard_pids:
        return
    per_pid: dict[int, int] = {}
    for pid in shard_pids:
        per_pid[pid] = per_pid.get(pid, 0) + 1
    fair = math.ceil(len(shards) / workers)
    steals = sum(max(0, count - fair) for count in per_pid.values())
    metrics.inc("engine.shard.steals", steals)
