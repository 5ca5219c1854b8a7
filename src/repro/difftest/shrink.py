"""Discrepancy shrinking: ddmin over the mutation's statement window.

When the static checker disagrees with observed ground truth, the
campaign minimizes the variant before persisting it: classic
delta-debugging (Zeller's ddmin) over the lines of the spliced
statement window, where a candidate is *interesting* iff the same
discrepancy — same class, same direction — still holds after the
reduction:

* ``static-fn``: the instrumented heap still observes the planted
  class when the target scenario runs, and the static checker still
  emits no witnessing message in the window.
* ``static-fp``: the static checker still claims the class, and the
  instrumented heap still observes nothing of the kind.

Candidates that no longer parse, or that the oracle can no longer
execute, are uninteresting by construction — the predicate demands a
clean parse and a completed oracle run, so shrinking can never "succeed"
by destroying the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mutations import STATIC_EQUIVALENTS, MutationEngine, Variant
from .runner import DualRunner
from .verdict import CORROBORATED_BY, Discrepancy


@dataclass
class ShrinkResult:
    variant: Variant            # the minimized variant
    window: tuple[str, ...]     # its statement window
    probes: int                 # interesting-predicate evaluations
    reduced: bool               # did any reduction hold?


def _still_discrepant(
    runner: DualRunner,
    variant: Variant,
    discrepancy: Discrepancy,
) -> bool:
    static = runner.check_static(variant)
    if static.parse_errors or static.internal_errors:
        return False
    oracle = runner.run_scenario(variant, variant.target)
    if oracle.failure is not None:
        return False
    observed = set(oracle.event_classes)
    cls = discrepancy.error_class
    if discrepancy.direction == "static-fn":
        if not (STATIC_EQUIVALENTS[cls] & observed):
            return False          # the bug itself shrank away
        return not static.window_hit
    if discrepancy.direction == "static-fp":
        if CORROBORATED_BY[cls] & observed:
            return False          # the claim became true
        return cls in static.classes
    raise ValueError(f"unknown discrepancy direction {discrepancy.direction!r}")


def shrink_discrepancy(
    engine: MutationEngine,
    runner: DualRunner,
    variant: Variant,
    discrepancy: Discrepancy,
    max_probes: int = 200,
) -> ShrinkResult:
    """Minimize *variant*'s statement window while the discrepancy holds."""
    window = list(variant.window_lines)
    probes = 0
    reduced = False

    def interesting(candidate: list[str]) -> bool:
        nonlocal probes
        if probes >= max_probes:
            return False
        probes += 1
        rebuilt = engine.rebuild_variant(variant, candidate)
        return _still_discrepant(runner, rebuilt, discrepancy)

    # ddmin: try removing chunks at decreasing granularity.
    chunks = 2
    while len(window) >= 2:
        size = max(1, len(window) // chunks)
        removed_any = False
        start = 0
        while start < len(window):
            candidate = window[:start] + window[start + size:]
            if candidate and interesting(candidate):
                window = candidate
                reduced = True
                removed_any = True
                chunks = max(chunks - 1, 2)
                # restart scan at the same offset against the new window
            else:
                start += size
        if removed_any:
            continue
        if size == 1:
            break
        chunks = min(len(window), chunks * 2)
        if probes >= max_probes:
            break

    final = engine.rebuild_variant(variant, window)
    return ShrinkResult(
        variant=final, window=tuple(window), probes=probes, reduced=reduced
    )
