"""Property tests: shard partitioning is a true partition laid out by
the LPT rule, shard-order execution merges back byte-identically to
serial, and the benchmark program generator is deterministic across
interpreter hash seeds."""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import (
    Checker,
    build_program_symtab,
    check_parsed_unit,
    unit_interface,
)
from repro.incremental.shard import partition_units, shard_balance


@st.composite
def _partition_inputs(draw):
    count = draw(st.integers(min_value=0, max_value=60))
    shard_count = draw(st.integers(min_value=1, max_value=24))
    weights = draw(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=5000), min_size=count,
                 max_size=count),
    ))
    return count, shard_count, weights


def _lpt_reference(count, shard_count, weights):
    """The LPT rule spelled out: heaviest unit first (ties by index),
    onto the lightest shard (ties by shard number)."""
    weights = weights or [1] * count
    bins = [[] for _ in range(max(1, min(shard_count, count)))]
    loads = [0] * len(bins)
    for i in sorted(range(count), key=lambda i: (-weights[i], i)):
        lightest = min(range(len(bins)), key=lambda b: (loads[b], b))
        bins[lightest].append(i)
        loads[lightest] += weights[i]
    return [tuple(sorted(b)) for b in bins if b]


class TestPartitionProperties:
    @given(_partition_inputs())
    @settings(max_examples=200, deadline=None)
    def test_every_index_lands_in_exactly_one_shard(self, inputs):
        count, shard_count, weights = inputs
        shards = partition_units(count, shard_count, weights)
        flat = [i for s in shards for i in s.indices]
        assert sorted(flat) == list(range(count))
        assert len(flat) == len(set(flat))
        assert all(len(s.indices) > 0 for s in shards)
        assert len(shards) <= min(shard_count, count) or count == 0

    @given(_partition_inputs())
    @settings(max_examples=100, deadline=None)
    def test_partition_is_deterministic(self, inputs):
        count, shard_count, weights = inputs
        first = partition_units(count, shard_count, weights)
        again = partition_units(
            count, shard_count,
            list(weights) if weights is not None else None,
        )
        assert first == again

    @given(_partition_inputs())
    @settings(max_examples=200, deadline=None)
    def test_layout_is_the_lpt_rule(self, inputs):
        count, shard_count, weights = inputs
        shards = partition_units(count, shard_count, weights)
        assert [s.indices for s in shards] == \
            _lpt_reference(count, shard_count, weights)
        assert [s.index for s in shards] == list(range(len(shards)))

    @given(_partition_inputs())
    @settings(max_examples=60, deadline=None)
    def test_balance_is_at_least_one(self, inputs):
        count, shard_count, weights = inputs
        shards = partition_units(count, shard_count, weights)
        assert shard_balance(shards, weights) >= 1.0


_UNIT_TEXTS = [
    "#include <stdlib.h>\n"
    "void f0(void) { char *p = (char *) malloc(4); }\n",
    "void f1(/*@null@*/ int *p) { *p = 1; }\n",
    "int f2(void) { int a[4]; a[4] = 1; return 0; }\n",
    "#include <stdlib.h>\n"
    "void f3(void) { char *p = (char *) malloc(2); free(p); free(p); }\n",
    "int f4(int x) { return x + 1; }\n",
    "void f5(/*@size(2)@*/ int *p) { p[3] = 9; }\n",
]


def _parsed_units():
    checker = Checker()
    units = [
        checker.parse_unit(text, f"u{i}.c")
        for i, text in enumerate(_UNIT_TEXTS)
    ]
    interfaces = [unit_interface(u) for u in units]
    symtab = build_program_symtab(interfaces)
    return units, interfaces, symtab, checker.flags


class TestShardedExecutionMergesToSerial:
    """Running the checker shard-by-shard, in any shard layout, then
    placing outputs back by unit index must reproduce the serial
    transcript byte for byte."""

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_merged_output_matches_serial(self, shard_count):
        units, interfaces, symtab, flags = _parsed_units()
        serial = [
            check_parsed_unit(u, symtab, flags, interface=iface)
            for u, iface in zip(units, interfaces)
        ]
        serial_render = [
            [m.render() for m in out.messages] for out in serial
        ]
        assert any(serial_render), "corpus must produce messages"

        shards = partition_units(
            len(units), shard_count,
            weights=[max(1, len(t)) for t in _UNIT_TEXTS],
        )
        slots = [None] * len(units)
        for shard in shards:
            for i in shard.indices:
                slots[i] = check_parsed_unit(
                    units[i], symtab, flags, interface=interfaces[i]
                )
        assert all(out is not None for out in slots)
        merged_render = [
            [m.render() for m in out.messages] for out in slots
        ]
        assert merged_render == serial_render


_GEN_SNIPPET = """\
import hashlib, sys
from repro.bench.generator import generate_program_of_size

program = generate_program_of_size(int(sys.argv[1]))
digest = hashlib.sha256()
for name in sorted(program.files):
    digest.update(name.encode())
    digest.update(program.files[name].encode())
print(digest.hexdigest())
"""


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("target_loc", [2000, 50000])
    def test_stable_across_hash_seeds(self, target_loc):
        # The scaling benchmark and the distributed byte-identity check
        # both lean on the generator producing the same corpus in every
        # process; a dict-ordering or hash-seed dependency would
        # silently break cross-process cache sharing.
        digests = set()
        for seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", _GEN_SNIPPET, str(target_loc)],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed,
                     "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1
