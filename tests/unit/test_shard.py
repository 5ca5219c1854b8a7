"""Unit tests for shard partitioning (repro.incremental.shard)."""

import pytest

from repro.incremental.shard import (
    SHARD_OVERSPLIT,
    Shard,
    partition_units,
    shard_balance,
    shard_count_for,
)


def _flat(shards):
    return sorted(i for s in shards for i in s.indices)


class TestPartition:
    @pytest.mark.parametrize("count,shard_count", [
        (1, 1), (2, 1), (5, 3), (10, 4), (7, 20), (48, 8),
    ])
    def test_true_partition(self, count, shard_count):
        shards = partition_units(count, shard_count)
        assert _flat(shards) == list(range(count))
        assert all(len(s) > 0 for s in shards)
        assert len(shards) <= min(shard_count, count)

    def test_empty_input(self):
        assert partition_units(0, 4) == []

    def test_size_strategy_balances_weights(self):
        # One heavy unit and many light ones: LPT puts the heavy unit
        # alone and spreads the rest.
        weights = [100, 1, 1, 1, 1, 1]
        shards = partition_units(6, 2, weights=weights)
        loads = sorted(
            sum(weights[i] for i in s.indices) for s in shards
        )
        assert loads == [5, 100]

    def test_deterministic(self):
        weights = [(i * 7) % 13 + 1 for i in range(23)]
        first = partition_units(23, 6, weights)
        second = partition_units(23, 6, list(weights))
        assert first == second

    def test_indices_ascend_within_each_shard(self):
        shards = partition_units(
            12, 4, weights=[(i * 5) % 7 + 1 for i in range(12)],
        )
        for s in shards:
            assert list(s.indices) == sorted(s.indices)


class TestShardCount:
    def test_oversplits_per_worker(self):
        assert shard_count_for(2, 100) == 2 * SHARD_OVERSPLIT

    def test_never_more_shards_than_units(self):
        assert shard_count_for(4, 3) == 3

    def test_at_least_one(self):
        assert shard_count_for(1, 1) == 1


class TestBalance:
    def test_even_partition_is_one(self):
        shards = [Shard(0, (0, 1)), Shard(1, (2, 3))]
        assert shard_balance(shards, None) == 1.0

    def test_skew_shows_up(self):
        shards = [Shard(0, (0, 1, 2)), Shard(1, (3,))]
        assert shard_balance(shards, None) == 1.5

    def test_weighted(self):
        shards = [Shard(0, (0,)), Shard(1, (1,))]
        assert shard_balance(shards, [30, 10]) == 1.5

    def test_empty(self):
        assert shard_balance([], None) == 1.0
