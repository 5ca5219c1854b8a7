"""Verdict comparison: confusion matrices and the paper-style table.

The comparer aligns the two detectors through the shared error-class
vocabulary (:data:`repro.messages.message.MEMORY_ERROR_CLASSES` on the
static side, :attr:`repro.runtime.heap.RuntimeEventKind.error_class` on
the dynamic side) and scores each against ground truth:

* **TP/FN** are scored against the *plant*: the mutation engine knows
  which class it planted and where, and the instrumented-heap oracle
  confirms the plant actually manifests when the scenario executes.
* **FP** is scored against the *oracle*: a detector claiming class C is
  spurious only if executing the program shows no event of class C.
  Secondary truths are thereby honest — an offset free really does also
  leak the block, so a static leak message next to it is corroborated,
  not spurious.

A static message code can legitimately witness two dynamic classes
(``USE_AFTER_RELEASE`` covers both use-after-free and double free: a
second free *is* a use of released storage), so corroboration uses a
small equivalence table rather than string equality
(:data:`CORROBORATED_BY`); plants are witnessed through
:data:`repro.difftest.mutations.STATIC_EQUIVALENTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mutations import CAMPAIGN_CLASSES, STATIC_EQUIVALENTS
from .runner import DualVerdict

#: Oracle classes that corroborate a static claim of the key class: a
#: plant's witnesses (:data:`STATIC_EQUIVALENTS`), except that an
#: observed double free corroborates a use-after-free claim (the same
#: static message code witnesses both) and not the other way round.
CORROBORATED_BY: dict[str, frozenset[str]] = {
    **STATIC_EQUIVALENTS,
    "use-after-free": frozenset({"use-after-free", "double-free"}),
    "double-free": frozenset({"double-free"}),
}


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def recall(self) -> float | None:
        total = self.tp + self.fn
        return self.tp / total if total else None

    @property
    def precision(self) -> float | None:
        total = self.tp + self.fp
        return self.tp / total if total else None


@dataclass
class ConfusionMatrix:
    """Per-error-class TP/FP/FN/TN tallies for one detector."""

    detector: str
    counts: dict[str, ClassCounts] = field(default_factory=dict)

    def at(self, cls: str) -> ClassCounts:
        if cls not in self.counts:
            self.counts[cls] = ClassCounts()
        return self.counts[cls]

    def total(self) -> ClassCounts:
        out = ClassCounts()
        for c in self.counts.values():
            out.tp += c.tp
            out.fp += c.fp
            out.fn += c.fn
            out.tn += c.tn
        return out

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "counts": {
                cls: [c.tp, c.fp, c.fn, c.tn]
                for cls, c in sorted(self.counts.items())
            },
        }


@dataclass(frozen=True)
class Discrepancy:
    """One static-vs-ground-truth disagreement, pre-shrinking."""

    seed: int
    direction: str          # 'static-fn' | 'static-fp'
    error_class: str
    detail: str


@dataclass
class ComparisonOutcome:
    """What one variant contributes to the campaign."""

    seed: int
    planted_class: str | None
    plant_confirmed: bool
    discrepancies: list[Discrepancy] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _spurious_static_classes(verdict: DualVerdict) -> list[str]:
    """Static claims the oracle could not corroborate."""
    oracle = verdict.oracle_classes
    out = []
    for cls in sorted(verdict.static.classes):
        if cls not in CAMPAIGN_CLASSES:
            continue
        if not (CORROBORATED_BY[cls] & oracle):
            out.append(cls)
    return out


def score_verdict(
    verdict: DualVerdict,
    static_matrix: ConfusionMatrix,
    runtime_matrix: ConfusionMatrix,
) -> ComparisonOutcome:
    """Fold one dual verdict into both matrices; report discrepancies."""
    outcome = ComparisonOutcome(
        seed=verdict.seed,
        planted_class=verdict.planted_class,
        plant_confirmed=verdict.plant_confirmed,
    )
    if verdict.static.parse_errors or verdict.static.internal_errors:
        outcome.notes.append(
            f"seed {verdict.seed}: static run degraded "
            f"({verdict.static.parse_errors} parse error(s), "
            f"{verdict.static.internal_errors} internal error(s)); "
            f"variant excluded"
        )
        return outcome
    if verdict.oracle.failure is not None:
        outcome.notes.append(
            f"seed {verdict.seed}: oracle could not execute the target "
            f"scenario ({verdict.oracle.failure}); variant excluded"
        )
        return outcome

    planted = verdict.planted_class
    if planted is not None and not verdict.plant_confirmed:
        outcome.notes.append(
            f"seed {verdict.seed}: planted {planted} did not manifest "
            f"under the instrumented heap (plant failure); variant excluded"
        )
        return outcome

    # -- planted-class detection (TP/FN) -------------------------------
    if planted is not None:
        if verdict.static.window_hit:
            static_matrix.at(planted).tp += 1
        else:
            static_matrix.at(planted).fn += 1
            outcome.discrepancies.append(Discrepancy(
                seed=verdict.seed, direction="static-fn",
                error_class=planted,
                detail=(
                    f"planted {planted} in {verdict.oracle.scenario} was "
                    f"confirmed by the instrumented heap but drew no "
                    f"static message"
                ),
            ))
        target_run = next(
            (r for r in verdict.runs
             if r.scenario == verdict.oracle.scenario), None,
        )
        runtime_hit = target_run is not None and bool(
            STATIC_EQUIVALENTS[planted] & set(target_run.event_classes)
        )
        if runtime_hit:
            runtime_matrix.at(planted).tp += 1
        else:
            runtime_matrix.at(planted).fn += 1

    # -- spurious claims (FP) -------------------------------------------
    for cls in _spurious_static_classes(verdict):
        static_matrix.at(cls).fp += 1
        count = verdict.static.classes.get(cls, 0)
        outcome.discrepancies.append(Discrepancy(
            seed=verdict.seed, direction="static-fp", error_class=cls,
            detail=(
                f"{count} static {cls} message(s) but executing the "
                f"target scenario produced no such event"
            ),
        ))
    for run in verdict.runs:
        if run.failure is not None:
            outcome.notes.append(
                f"seed {verdict.seed}: run-time detector skipped "
                f"{run.scenario} ({run.failure})"
            )
            continue
        if run.scenario == verdict.oracle.scenario:
            continue  # scored above; events there are ground truth
        for cls in run.event_classes:
            if cls in CAMPAIGN_CLASSES:
                runtime_matrix.at(cls).fp += 1

    # -- true negatives -------------------------------------------------
    for cls in CAMPAIGN_CLASSES:
        if planted is None or cls not in STATIC_EQUIVALENTS[planted]:
            if cls not in verdict.static.classes:
                static_matrix.at(cls).tn += 1
    return outcome


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_rate(value: float | None) -> str:
    return "   -" if value is None else f"{value:4.2f}"


def render_matrix(
    static_matrix: ConfusionMatrix,
    runtime_matrix: ConfusionMatrix,
    coverage: float,
) -> str:
    """The paper-style static-vs-dynamic comparison table."""
    header = (
        f"{'error class':<20} {'static (all paths)':>26}   "
        f"{'runtime (%d%% coverage)' % round(coverage * 100):>26}"
    )
    sub = (
        f"{'':<20} {'TP':>6}{'FP':>5}{'FN':>5}{'recall':>9}   "
        f"{'TP':>6}{'FP':>5}{'FN':>5}{'recall':>9}"
    )
    lines = [header, sub]
    for cls in CAMPAIGN_CLASSES:
        s = static_matrix.at(cls)
        r = runtime_matrix.at(cls)
        lines.append(
            f"{cls:<20} {s.tp:>6}{s.fp:>5}{s.fn:>5}"
            f"{_fmt_rate(s.recall):>9}   "
            f"{r.tp:>6}{r.fp:>5}{r.fn:>5}{_fmt_rate(r.recall):>9}"
        )
    s = static_matrix.total()
    r = runtime_matrix.total()
    lines.append(
        f"{'overall':<20} {s.tp:>6}{s.fp:>5}{s.fn:>5}"
        f"{_fmt_rate(s.recall):>9}   "
        f"{r.tp:>6}{r.fp:>5}{r.fn:>5}{_fmt_rate(r.recall):>9}"
    )
    return "\n".join(lines)
