#!/usr/bin/env python3
"""Static checking vs run-time tools (the paper's motivating comparison).

"Run-time checking also suffers from the flaw that its effectiveness
depends entirely on running the right test cases to reveal the
problems." (section 1)

This example runs the differential campaign (``repro difftest``) over
40 generated variants, each with one bug of a kind the paper catalogues
planted in one of its four scenarios (every eighth variant stays clean),
and compares:

* the static checker, which sees every scenario without running any, and
* the instrumented-heap interpreter (the dmalloc/Purify stand-in), which
  only reports errors in the scenarios the 'test suite' actually runs.

It prints the campaign's per-class table at 50% test coverage, then the
totals of the whole coverage sweep.

Run with::

    python examples/static_vs_dynamic.py
"""

from repro.bench.harness import static_vs_runtime_experiment


def main() -> None:
    outcome = static_vs_runtime_experiment()
    print(outcome["tables"][0.5])

    planted = outcome["planted"] - outcome["excluded"]
    print(f"\n{'coverage':>8} {'static (all paths)':>19} "
          f"{'runtime (executed paths)':>25}")
    for row in outcome["rows"]:
        static = f"{row['static_found']}/{planted}"
        runtime = f"{row['runtime_found']}/{planted}"
        print(f"{row['coverage']:>8.0%} {static:>19} {runtime:>25}")

    half = next(r for r in outcome["rows"] if r["coverage"] == 0.5)
    print(f"\nstatic:  {half['static_found']}/{planted} "
          "(all paths, no test cases needed)")
    print(f"runtime: {half['runtime_found']}/{planted} at 50% coverage "
          "(only errors on executed paths are visible)")


if __name__ == "__main__":
    main()
