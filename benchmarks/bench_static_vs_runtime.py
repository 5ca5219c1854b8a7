"""STAT-DYN: static checking vs run-time tools under partial coverage.

Paper, section 1: run-time checking's "effectiveness depends entirely on
running the right test cases to reveal the problems"; section 7 adds the
complementary residue (run-time tools find the global-storage leaks the
modular static checker cannot). This bench sweeps test coverage over the
difftest campaign's planted-bug variants and prints the detection rates
of both tools, read off the campaign's confusion matrices.
"""

from repro.bench.harness import static_vs_runtime_experiment
from repro.bench.seeding import BugKind


def test_static_vs_runtime_sweep(benchmark, table_printer):
    outcome = benchmark.pedantic(
        static_vs_runtime_experiment,
        kwargs={"coverages": (0.25, 0.5, 0.75, 1.0)},
        rounds=1, iterations=1,
    )
    table_printer(
        f"STAT-DYN: detection vs coverage ({outcome['planted']} planted "
        f"bugs, {outcome['clean']} clean controls)",
        outcome["rows"],
    )
    table_printer("STAT-DYN: detection by error class", outcome["per_class"])

    rows = outcome["rows"]
    # Static detection is coverage-independent and complete on this corpus.
    assert all(r["static_rate"] == 1.0 for r in rows)
    # Runtime detection tracks coverage monotonically ...
    rates = [r["runtime_rate"] for r in rows]
    assert rates == sorted(rates)
    # ... and is strictly worse than static checking under partial coverage.
    assert rates[0] < 1.0
    assert rates[-1] == 1.0  # full coverage finds every planted bug
    # No false positives in the clean controls.
    assert outcome["static_false_positives_in_clean"] == 0


def test_every_bug_kind_planted(benchmark):
    """The sweep covers the paper's full error catalogue, including the
    section 7 residue classes (offset-pointer and static frees), and
    the static checker finds every plant of every class."""
    kinds = {k.value for k in BugKind}
    assert {"leak", "double-free", "use-after-free", "null-dereference",
            "uninitialized-read", "static-free", "offset-free"} <= kinds
    outcome = benchmark.pedantic(
        static_vs_runtime_experiment,
        kwargs={"coverages": (1.0,)},
        rounds=1, iterations=1,
    )
    assert set(outcome["plants_by_kind"]) == kinds, outcome["plants_by_kind"]
    assert outcome["excluded"] == 0
    assert all(
        row["static"] == row["planted"] for row in outcome["per_class"]
    ), outcome["per_class"]
