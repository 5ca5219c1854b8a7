"""Campaign orchestration: N seeds, two detectors, one comparison table.

A campaign maps seeds to variants, runs the dual runner over each
(optionally on the fork pool,
:func:`repro.incremental.parallel.fork_map`, one seed per task), folds
every verdict into the per-class confusion matrices, shrinks each
discrepancy with delta debugging, and persists the minimized cases to
the replay corpus.

Workers inherit the mutation engine and the runner through fork and
return plain picklable verdicts; scoring, shrinking and persistence
happen in the parent, in seed order, so a parallel campaign's output is
byte-identical to a serial one's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flags.registry import Flags
from ..incremental.parallel import fork_map
from ..obs.metrics import GLOBAL_METRICS
from .corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusCase,
    case_from_shrunk,
    save_case,
)
from .mutations import MutationEngine
from .runner import DualRunner, DualVerdict
from .shrink import shrink_discrepancy
from .verdict import (
    ComparisonOutcome,
    ConfusionMatrix,
    Discrepancy,
    render_matrix,
    score_verdict,
)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs."""

    seeds: int = 50
    jobs: int = 1
    coverage: float = 0.5
    modules: int = 1
    filler_functions: int = 1
    scenarios_per_module: int = 2
    clean_every: int = 8
    max_steps: int = 200_000
    flag_args: tuple[str, ...] = ()
    corpus_dir: str | None = DEFAULT_CORPUS_DIR
    shrink: bool = True
    max_shrink_probes: int = 200

    def engine(self) -> MutationEngine:
        return MutationEngine(
            modules=self.modules,
            filler_functions=self.filler_functions,
            scenarios_per_module=self.scenarios_per_module,
            clean_every=self.clean_every,
        )

    def runner(self) -> DualRunner:
        flags = Flags.from_args(list(self.flag_args)) if self.flag_args \
            else None
        return DualRunner(flags=flags, max_steps=self.max_steps)


@dataclass
class ShrunkDiscrepancy:
    discrepancy: Discrepancy
    case: CorpusCase
    probes: int
    reduced: bool
    original_window: int
    minimized_window: int
    path: str | None


@dataclass
class CampaignResult:
    config: CampaignConfig
    static_matrix: ConfusionMatrix
    runtime_matrix: ConfusionMatrix
    outcomes: list[ComparisonOutcome]
    shrunk: list[ShrunkDiscrepancy] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def planted_count(self) -> int:
        return sum(1 for o in self.outcomes if o.planted_class is not None)

    @property
    def clean_count(self) -> int:
        return sum(1 for o in self.outcomes if o.planted_class is None)

    @property
    def excluded_count(self) -> int:
        return sum(
            1 for o in self.outcomes
            if o.planted_class is not None and not o.plant_confirmed
        )

    @property
    def discrepancy_count(self) -> int:
        return sum(len(o.discrepancies) for o in self.outcomes)

    @property
    def clean_exit(self) -> bool:
        """True when no static false negative/positive survived."""
        return self.discrepancy_count == 0

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"differential fault injection: {cfg.seeds} variants "
            f"({self.planted_count} planted, {self.clean_count} clean"
            + (f", {self.excluded_count} excluded" if self.excluded_count
               else "")
            + ")",
            "",
            render_matrix(
                self.static_matrix, self.runtime_matrix, cfg.coverage
            ),
            "",
        ]
        if self.shrunk:
            lines.append(
                f"{len(self.shrunk)} discrepanc"
                f"{'y' if len(self.shrunk) == 1 else 'ies'} "
                f"minimized and persisted:"
            )
            for item in self.shrunk:
                where = item.path or "(not persisted)"
                lines.append(
                    f"  {item.case.name}: {item.discrepancy.detail} "
                    f"[window {item.original_window} -> "
                    f"{item.minimized_window} line(s), "
                    f"{item.probes} probe(s)] {where}"
                )
        else:
            lines.append("no static/ground-truth discrepancies")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _run_seed(shared: tuple, seed: int) -> DualVerdict:
    """Build and dual-run one seed's variant (serially or in a pool
    worker, which inherits *shared* through fork)."""
    engine, runner, coverage = shared
    return runner.run_variant(engine.variant(seed), coverage)


def run_campaign(
    config: CampaignConfig,
    progress=None,
    metrics=None,
) -> CampaignResult:
    """Execute a full campaign; *progress* is an optional callable(str)."""
    metrics = metrics if metrics is not None else GLOBAL_METRICS
    engine = config.engine()
    runner = config.runner()
    shared = (engine, runner, config.coverage)

    verdicts, notes = None, []
    if config.jobs > 1 and config.seeds > 1:
        verdicts, notes = fork_map(
            _run_seed, shared, [(seed,) for seed in range(config.seeds)],
            config.jobs, name=lambda seed: f"seed {seed}", noun="seed",
        )
    if verdicts is None:
        verdicts = []
        for seed in range(config.seeds):
            verdicts.append(_run_seed(shared, seed))
            if progress is not None and (seed + 1) % 25 == 0:
                progress(f"{seed + 1}/{config.seeds} variants")

    static_matrix = ConfusionMatrix("static")
    runtime_matrix = ConfusionMatrix("runtime")
    outcomes: list[ComparisonOutcome] = []
    for verdict in verdicts:
        outcome = score_verdict(verdict, static_matrix, runtime_matrix)
        outcomes.append(outcome)
        notes.extend(outcome.notes)

    shrunk: list[ShrunkDiscrepancy] = []
    for outcome in outcomes:
        for discrepancy in outcome.discrepancies:
            variant = engine.variant(discrepancy.seed)
            original = len(variant.window_lines)
            if config.shrink:
                if progress is not None:
                    progress(
                        f"shrinking seed {discrepancy.seed} "
                        f"({discrepancy.direction} {discrepancy.error_class})"
                    )
                result = shrink_discrepancy(
                    engine, runner, variant, discrepancy,
                    max_probes=config.max_shrink_probes,
                )
                minimized, probes, reduced = (
                    result.variant, result.probes, result.reduced
                )
            else:
                minimized, probes, reduced = variant, 0, False
            case = case_from_shrunk(minimized, discrepancy, runner)
            path = (
                save_case(case, config.corpus_dir)
                if config.corpus_dir else None
            )
            shrunk.append(ShrunkDiscrepancy(
                discrepancy=discrepancy,
                case=case,
                probes=probes,
                reduced=reduced,
                original_window=original,
                minimized_window=len(case.window),
                path=path,
            ))

    result = CampaignResult(
        config=config,
        static_matrix=static_matrix,
        runtime_matrix=runtime_matrix,
        outcomes=outcomes,
        shrunk=shrunk,
        notes=notes,
    )
    metrics.inc("difftest.variants", len(outcomes))
    metrics.inc("difftest.variants.clean", result.clean_count)
    metrics.inc("difftest.variants.planted", result.planted_count)
    metrics.inc("difftest.discrepancies", result.discrepancy_count)
    for matrix in (static_matrix, runtime_matrix):
        total = matrix.total()
        for verdict_kind in ("tp", "fp", "fn", "tn"):
            count = getattr(total, verdict_kind)
            if count:
                metrics.inc(
                    f"difftest.{matrix.detector}.{verdict_kind}", count
                )
    return result
