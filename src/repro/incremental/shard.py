"""Shard partitioning for the parallel scheduler.

A *shard* is a batch of translation units dispatched to one worker as a
single task. Batching amortizes the per-task IPC cost of a
one-task-per-unit fan-out.

:func:`partition_units` balances shards by source size with the LPT
greedy rule: heaviest unit first, onto the currently lightest shard.
Each unit is checked against the merged program interface alone (paper
section 7), so no placement of units changes a result, and balance is
all a layout has to buy. The result is a **true partition**: each unit
index appears in exactly one shard, shards are non-empty, and it is a
pure function of its arguments (no hash-order or RNG dependence), so a
sharded run schedules identically across processes and machines.

The scheduler oversplits — more shards than workers, see
:data:`SHARD_OVERSPLIT` — which is what makes work-stealing happen: a
worker that finishes its shard pulls the next queued shard, so one
straggler shard cannot serialize the tail of the run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

#: Shards per worker. Oversplitting trades a little per-task IPC for
#: work-stealing granularity: with k shards queued per worker, a single
#: straggler costs at most ~1/k of the run tail instead of half of it.
SHARD_OVERSPLIT = 4


@dataclass(frozen=True)
class Shard:
    """One scheduled batch: positions into the scheduler's unit list."""

    index: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def shard_count_for(jobs: int, units: int) -> int:
    """How many shards to cut for *units* units on *jobs* workers."""
    return max(1, min(units, jobs * SHARD_OVERSPLIT))


def partition_units(
    count: int, shard_count: int, weights: list[int] | None = None
) -> list[Shard]:
    """Partition unit indices ``0..count-1`` into at most *shard_count*
    shards, balanced by *weights* (one per unit, e.g. source length;
    omitted, every unit weighs 1).

    Longest-processing-time greedy: heaviest unit first, onto the
    lightest shard. Deterministic: ties break by lower unit index and
    lower shard number, and units inside a shard keep ascending order
    (the merge step relies on index order only, so any order is
    output-identical; ascending keeps schedules reproducible and logs
    readable). Returns only non-empty shards.
    """
    if count <= 0:
        return []
    shard_count = max(1, min(shard_count, count))
    if weights is None:
        weights = [1] * count
    bins: list[list[int]] = [[] for _ in range(shard_count)]
    lightest = [(0, b) for b in range(shard_count)]
    for i in sorted(range(count), key=lambda i: (-weights[i], i)):
        load, b = heapq.heappop(lightest)
        bins[b].append(i)
        heapq.heappush(lightest, (load + weights[i], b))
    return [
        Shard(index=n, indices=tuple(sorted(bucket)))
        for n, bucket in enumerate(b for b in bins if b)
    ]


def shard_balance(shards: list[Shard], weights: list[int] | None) -> float:
    """Max-shard weight over mean-shard weight (1.0 = perfectly even).

    The scheduler publishes this as the ``engine.shard.balance`` gauge;
    a value far above ~1.5 means one shard dominates the run tail and
    the oversplit factor is mismatched to the corpus.
    """
    if not shards:
        return 1.0
    if weights is None:
        loads = [float(len(s)) for s in shards]
    else:
        loads = [float(sum(weights[i] for i in s.indices)) for s in shards]
    mean = sum(loads) / len(loads)
    if mean <= 0:
        return 1.0
    return max(loads) / mean
