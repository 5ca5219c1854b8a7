"""BENCH-INC: cold vs warm incremental checking.

Measures the acceptance property of the incremental engine on the
section 6 employee-database program: a warm re-check of an unchanged
program must be at least 5x faster than a cold check, with
byte-identical messages.

Runs two ways:

* under pytest (collected with the rest of the benchmark suite), and
* as a script -- ``PYTHONPATH=src python benchmarks/bench_incremental.py``
  writes the cold/warm timing summary to ``BENCH_incremental.json``.
"""

import json
import os
import statistics
import sys
import tempfile
import time

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
    )

from repro.bench.dbexample import db_sources
from repro.incremental import IncrementalChecker, ResultCache

REQUIRED_SPEEDUP = 5.0


def _renders(result):
    return [m.render() for m in result.messages]


def measure_cold_vs_warm(files, rounds: int = 3) -> dict:
    """Time cold and warm checks of the same sources, each against a
    fresh cache directory, and return the median-based summary."""
    colds, warms = [], []
    renders_cold = renders_warm = None
    for _ in range(rounds):
        with tempfile.TemporaryDirectory(prefix="pylclint-bench-") as root:
            cold_engine = IncrementalChecker(cache=ResultCache(root))
            t0 = time.perf_counter()
            cold_result = cold_engine.check_sources(dict(files))
            colds.append(time.perf_counter() - t0)

            warm_engine = IncrementalChecker(cache=ResultCache(root))
            t0 = time.perf_counter()
            warm_result = warm_engine.check_sources(dict(files))
            warms.append(time.perf_counter() - t0)

            assert warm_engine.stats.cache_hits == warm_engine.stats.units
            renders_cold = _renders(cold_result)
            renders_warm = _renders(warm_result)
    cold = statistics.median(colds)
    warm = statistics.median(warms)
    return {
        "units": len([n for n in files if n.endswith(".c")]),
        "files": len(files),
        "cold_ms": round(cold * 1000, 2),
        "warm_ms": round(warm * 1000, 2),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
        "required_speedup": REQUIRED_SPEEDUP,
        "identical_output": renders_cold == renders_warm,
        "rounds": rounds,
    }


def test_warm_recheck_speedup(benchmark, table_printer):
    files = db_sources()  # final annotated stage, like the paper's re-check
    summary = benchmark.pedantic(
        measure_cold_vs_warm, args=(files,), rounds=1, iterations=1
    )
    table_printer("BENCH-INC: cold vs warm on examples/db", [summary])
    assert summary["identical_output"]
    assert summary["speedup"] >= REQUIRED_SPEEDUP, summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "BENCH_incremental.json"
    files = db_sources()
    report = {
        "benchmark": "incremental cold vs warm (examples/db, final stage)",
        "cold_vs_warm": measure_cold_vs_warm(files),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["cold_vs_warm"]
    print(
        f"cold {summary['cold_ms']}ms -> warm {summary['warm_ms']}ms "
        f"({summary['speedup']}x, required {REQUIRED_SPEEDUP}x); "
        f"wrote {out_path}"
    )
    ok = summary["speedup"] >= REQUIRED_SPEEDUP and summary["identical_output"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
