"""PERF-LIN: checking cost scales approximately linearly with program size.

Paper, section 2: "it is essential that the checking be efficient and
scale approximately linearly with the size of the program"; section 7:
100,000 lines in under four minutes on a DEC 3000/500. The absolute
numbers here come from a different machine and substrate (a Python
analysis instead of C); the *shape* — near-constant cost per kloc — is
the reproduced result.

Runs two ways:

* under pytest (the small linearity sweep below: per size, one untimed
  warm-up round, then the best of three timed rounds), and
* as a script -- ``PYTHONPATH=src python benchmarks/bench_scaling.py``
  measures cold / warm / distributed checking at large sizes (default
  one million lines) and writes ``BENCH_scaling.json``. The distributed
  column checks with a fresh local cache against a warm shared cache
  service (``--cache-server``), the headline workflow for CI fleets:
  one machine pays the cold cost, every other machine rides its cache.
"""

import json
import os
import sys
import tempfile
import time

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
    )

import pytest

from repro import Checker
from repro.bench.generator import generate_program_of_size
from repro.bench.harness import linearity_ratio

SIZES = (1000, 2000, 4000, 8000)

#: Timed rounds per size; the sweep keeps the fastest. A 1000-line check
#: takes well under 100 ms, so a single round moved with the machine by
#: more than a 20% change does. The untimed warm-up round in front also
#: keeps the process's own warm-up (imports, prelude) out of the first
#: size's time.
ROUNDS = 3

# The distributed column re-checks from a warm cache service instead of
# re-running the frontend + analysis, so it must land far under the cold
# time. 2x is a deliberately conservative floor; in practice the gap is
# one to two orders of magnitude.
REQUIRED_DISTRIBUTED_SPEEDUP = 2.0

_RESULTS: list[dict] = []


@pytest.mark.parametrize("target_loc", SIZES)
def test_scaling(benchmark, target_loc):
    program = generate_program_of_size(target_loc)
    files = dict(program.files)

    def check():
        return Checker().check_sources(dict(files))

    result = benchmark.pedantic(
        check, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert result.messages == [], "generated programs must check clean"
    seconds = benchmark.stats.stats.min
    _RESULTS.append(
        {
            "loc": program.loc,
            "seconds": seconds,
            "sec_per_kloc": seconds / (program.loc / 1000.0),
        }
    )


def test_scaling_is_roughly_linear(benchmark, table_printer):
    assert len(_RESULTS) == len(SIZES), "run the sweep first (same session)"
    table_printer("PERF-LIN: checking time vs program size", _RESULTS)
    ratio = benchmark(lambda: linearity_ratio(_RESULTS))
    print(f"per-kloc cost spread (max/min): {ratio:.2f}x")
    # 'Approximately linear': the per-kloc cost may drift, but must stay
    # far from quadratic (which would give ~8x spread over this sweep).
    assert ratio < 3.0, f"scaling looks super-linear: {_RESULTS}"


# -- script mode: cold / warm / distributed at scale ------------------------


def _renders(result):
    return [m.render() for m in result.messages]


def measure_at_size(target_loc: int) -> dict:
    """One row of the scaling table: cold serial, warm local, and
    distributed (fresh local cache + warm shared cache service)."""
    from repro.incremental import (
        CacheClient,
        CacheServerThread,
        IncrementalChecker,
        ResultCache,
    )
    from repro.obs.metrics import MetricsRegistry

    program = generate_program_of_size(target_loc)
    files = dict(program.files)
    row: dict = {"target_loc": target_loc, "loc": program.loc,
                 "units": len([n for n in files if n.endswith(".c")])}

    with tempfile.TemporaryDirectory(prefix="pylclint-scaling-") as tmp:
        shared = os.path.join(tmp, "shared")

        cold_engine = IncrementalChecker(cache=ResultCache(shared))
        t0 = time.perf_counter()
        cold_result = cold_engine.check_sources(dict(files))
        row["cold_s"] = round(time.perf_counter() - t0, 3)
        cold_renders = _renders(cold_result)

        warm_engine = IncrementalChecker(cache=ResultCache(shared))
        t0 = time.perf_counter()
        warm_result = warm_engine.check_sources(dict(files))
        row["warm_s"] = round(time.perf_counter() - t0, 3)
        assert warm_engine.stats.cache_hits == warm_engine.stats.units

        # Distributed: a "new machine" with an empty local cache pulls
        # everything from the cache service the cold run populated. The
        # server counts the requests it answered and the bytes it sent.
        served = MetricsRegistry()
        server = CacheServerThread(cache_dir=shared, metrics=served)
        try:
            client = CacheClient(server.addr)
            dist_engine = IncrementalChecker(
                cache=ResultCache(os.path.join(tmp, "local")),
                remote=client,
            )
            t0 = time.perf_counter()
            dist_result = dist_engine.check_sources(dict(files))
            row["distributed_s"] = round(time.perf_counter() - t0, 3)
            client.close()
        finally:
            server.close()

        row["remote_hits"] = dist_engine.stats.remote_hits
        row["remote_misses"] = dist_engine.stats.remote_misses
        row["remote_requests"] = served.count("cacheserver.requests")
        row["reply_bytes"] = served.count("cacheserver.reply_bytes")
        row["warm_speedup"] = round(row["cold_s"] / max(row["warm_s"], 1e-9), 1)
        row["distributed_speedup"] = round(
            row["cold_s"] / max(row["distributed_s"], 1e-9), 1
        )
        row["identical_output"] = (
            _renders(warm_result) == cold_renders
            and _renders(dist_result) == cold_renders
        )
    return row


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sizes = [1_000_000]
    out_path = "BENCH_scaling.json"
    it = iter(argv)
    for arg in it:
        if arg == "--sizes":
            sizes = [int(s) for s in next(it).split(",")]
        elif arg.startswith("--sizes="):
            sizes = [int(s) for s in arg.split("=", 1)[1].split(",")]
        elif arg == "--out":
            out_path = next(it)
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            print(f"unknown argument: {arg}", file=sys.stderr)
            return 2

    rows = []
    ok = True
    for target_loc in sizes:
        row = measure_at_size(target_loc)
        rows.append(row)
        print(
            f"{row['loc']:>9} loc: cold {row['cold_s']}s, "
            f"warm {row['warm_s']}s ({row['warm_speedup']}x), "
            f"distributed {row['distributed_s']}s "
            f"({row['distributed_speedup']}x, floor "
            f"{REQUIRED_DISTRIBUTED_SPEEDUP}x), "
            f"identical={row['identical_output']}"
        )
        ok = ok and row["identical_output"] and (
            row["distributed_speedup"] >= REQUIRED_DISTRIBUTED_SPEEDUP
        )

    report = {
        "benchmark": "scaling: cold vs warm vs distributed",
        "required_distributed_speedup": REQUIRED_DISTRIBUTED_SPEEDUP,
        "rows": rows,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
