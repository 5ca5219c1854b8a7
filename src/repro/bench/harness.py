"""Experiment runners for every table and figure in the paper.

Each function reproduces one row-set of the paper's evaluation and
returns plain data structures; the ``benchmarks/`` suite times them and
prints the same rows the paper reports, and ``EXPERIMENTS.md`` records
paper-vs-measured. See DESIGN.md for the experiment index.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

from ..analysis.cfg import build_cfg
from ..core.api import Checker
from ..flags.registry import Flags
from ..messages.message import MessageCode
from ..obs.metrics import MetricsRegistry
from .dbexample import FINAL_STAGE, annotation_census, db_sources
from .generator import generate_program_of_size

NOIMP = Flags.from_args(["-allimponly"])


# ---------------------------------------------------------------------------
# FIG1-FIG8: the paper's figures
# ---------------------------------------------------------------------------

FIGURE_SOURCES: dict[str, tuple[str, Flags, int]] = {
    # figure id -> (source, flags, expected message count)
    "fig1": (
        "extern char *gname;\n\nvoid setName (char *pname)\n{\n"
        "  gname = pname;\n}\n",
        NOIMP, 0,
    ),
    "fig2": (
        "extern char *gname;\n\nvoid setName (/*@null@*/ char *pname)\n{\n"
        "  gname = pname;\n}\n",
        NOIMP, 1,
    ),
    "fig3": (
        "extern char *gname;\n\n"
        "extern /*@truenull@*/ int isNull (/*@null@*/ char *x);\n\n"
        "void setName (/*@null@*/ char *pname)\n{\n"
        "  if (!isNull (pname)) {\n    gname = pname;\n  }\n}\n",
        NOIMP, 0,
    ),
    "fig4": (
        "extern /*@only@*/ char *gname;\n\n"
        "void setName (/*@temp@*/ char *pname)\n{\n  gname = pname;\n}\n",
        NOIMP, 2,
    ),
    "fig5": (
        "typedef /*@null@*/ struct _list {\n"
        "  /*@only@*/ char *this;\n"
        "  /*@null@*/ /*@only@*/ struct _list *next;\n"
        "} *list;\n\n"
        "extern /*@out@*/ /*@only@*/ void *smalloc (size_t);\n\n"
        "void list_addh (/*@temp@*/ list l, /*@only@*/ char *e)\n{\n"
        "  if (l != NULL)\n  {\n"
        "    while (l->next != NULL)\n    {\n      l = l->next;\n    }\n"
        "    l->next = (list) smalloc (sizeof (*l->next));\n"
        "    l->next->this = e;\n  }\n}\n",
        Flags(), 2,
    ),
}


@dataclass
class FigureResult:
    figure: str
    expected: int
    actual: int
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def figure_experiments() -> list[FigureResult]:
    """Check each figure program; expect the paper's message counts."""
    out: list[FigureResult] = []
    for figure, (source, flags, expected) in FIGURE_SOURCES.items():
        result = Checker(flags=flags).check_sources({"sample.c": source})
        out.append(
            FigureResult(
                figure, expected, len(result.messages),
                [m.text for m in result.messages],
            )
        )
    return out


def figure6_cfg() -> dict:
    """Structural reproduction of Figure 6's control-flow graph."""
    source = FIGURE_SOURCES["fig5"][0]
    checker = Checker()
    parsed = checker.parse_unit(source, "list.c")
    fdef = parsed.unit.functions()[0]
    cfg = build_cfg(fdef)
    return {
        "function": cfg.function,
        "nodes": len(cfg.nodes),
        "edges": len(cfg.edges),
        "branches": cfg.branch_count,
        "acyclic": cfg.is_acyclic(),
        "paths": cfg.path_count(),
        "execution_points": cfg.execution_points(),
        "dot": cfg.to_dot(),
    }


# ---------------------------------------------------------------------------
# PERF-LIN: checking scales approximately linearly (sections 2, 7)
# ---------------------------------------------------------------------------


def scaling_experiment(
    targets: tuple[int, ...] = (1000, 2000, 4000, 8000), repeats: int = 1
) -> list[dict]:
    rows: list[dict] = []
    for target in targets:
        program = generate_program_of_size(target)
        best = math.inf
        messages = 0
        for _ in range(repeats):
            checker = Checker()
            start = time.perf_counter()
            result = checker.check_sources(dict(program.files))
            best = min(best, time.perf_counter() - start)
            messages = len(result.messages)
        rows.append(
            {
                "loc": program.loc,
                "seconds": best,
                "sec_per_kloc": best / (program.loc / 1000.0),
                "messages": messages,
            }
        )
    return rows


def linearity_ratio(rows: list[dict]) -> float:
    """max/min of per-kloc cost: ~1.0 means linear scaling."""
    costs = [r["sec_per_kloc"] for r in rows]
    return max(costs) / min(costs)


# ---------------------------------------------------------------------------
# PERF-MOD: modular re-checking with interface libraries (section 7)
# ---------------------------------------------------------------------------


def modular_experiment(target_loc: int = 4000, tmpdir: str = ".") -> dict:
    import os

    program = generate_program_of_size(target_loc)
    full_checker = Checker()
    start = time.perf_counter()
    full = full_checker.check_sources(dict(program.files))
    full_seconds = time.perf_counter() - start

    lib_path = os.path.join(tmpdir, "program.lcd")
    full_checker.save_library(full, lib_path)

    module_name = next(
        name for name in sorted(program.files) if name.endswith("0.c")
    )
    module_checker = Checker()
    for name, text in program.files.items():
        if name.endswith(".h"):
            module_checker.sources.add(name, text)
    module_checker.load_library(lib_path)
    start = time.perf_counter()
    module_checker.check_sources({module_name: program.files[module_name]})
    module_seconds = time.perf_counter() - start

    return {
        "loc": program.loc,
        "module": module_name,
        "module_loc": program.files[module_name].count("\n") + 1,
        "full_seconds": full_seconds,
        "module_seconds": module_seconds,
        "speedup": full_seconds / module_seconds if module_seconds else math.inf,
    }


# ---------------------------------------------------------------------------
# MSG-CENSUS: annotation burden (section 7: ~1000 messages unannotated)
# ---------------------------------------------------------------------------


def burden_experiment(target_loc: int = 6000) -> dict:
    program = generate_program_of_size(target_loc)
    annotated = Checker().check_sources(dict(program.files))
    stripped_prog = program.stripped()
    stripped = Checker().check_sources(dict(stripped_prog.files))
    return {
        "loc": program.loc,
        "messages_annotated": len(annotated.messages),
        "messages_unannotated": len(stripped.messages),
        "messages_per_kloc_unannotated": len(stripped.messages)
        / (program.loc / 1000.0),
    }


# ---------------------------------------------------------------------------
# TAB-S6: the section 6 annotation-iteration census on the db example
# ---------------------------------------------------------------------------


def section6_experiment() -> list[dict]:
    rows: list[dict] = []
    for stage in range(FINAL_STAGE + 1):
        files = db_sources(stage)
        noimp = Checker(flags=NOIMP).check_sources(files)
        default = Checker().check_sources(files)
        census = annotation_census(stage)
        alloc_codes = {
            MessageCode.LEAK_OVERWRITE, MessageCode.LEAK_RETURN,
            MessageCode.LEAK_SCOPE, MessageCode.LEAK_RESULT,
            MessageCode.TEMP_TO_ONLY, MessageCode.BAD_TRANSFER,
            MessageCode.IMPLICIT_TRANSFER, MessageCode.ONLY_NOT_RELEASED,
        }
        rows.append(
            {
                "stage": stage,
                "annotations": census.total,
                "null": census.null,
                "only": census.only,
                "out": census.out,
                "unique": census.unique,
                "relaxed": census.relaxed,
                "messages_allimponly": len(noimp.messages),
                "messages_default": len(default.messages),
                "alloc_messages_allimponly": sum(
                    1 for m in noimp.messages if m.code in alloc_codes
                ),
            }
        )
    return rows


def db_runtime_residue() -> dict:
    """Section 7's punchline: after static checking is clean, run-time
    tools still find leaks of storage reachable from globals at exit."""
    from ..runtime.interp import run_program

    files = db_sources(FINAL_STAGE)
    static = Checker().check_sources(files)
    dynamic = run_program(files, max_steps=5_000_000)
    return {
        "static_messages": len(static.messages),
        "runtime_leaked_blocks": dynamic.leaked_blocks,
        "runtime_events": len(dynamic.events),
        "exit_code": dynamic.exit_code,
    }


# ---------------------------------------------------------------------------
# STAT-DYN: static checking vs run-time tools under partial test coverage
# ---------------------------------------------------------------------------


def static_vs_runtime_experiment(
    coverages: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    seeds: int = 40,
) -> dict:
    """A test-coverage sweep of the difftest campaign.

    Each coverage runs :func:`repro.difftest.run_campaign` over the same
    seeds: one planted bug per variant, every eighth variant a clean
    control, and four scenarios per variant, so a 25% test suite runs
    one of them. Only the share of scenarios the run-time detector
    executes changes; the static checker executes none. Rows are read
    off the campaign's confusion matrices, and ``tables`` holds each
    campaign's rendered table.
    """
    # difftest.mutations imports bench.seeding, and this package's
    # __init__ imports this module: a top-level import is a cycle.
    from ..difftest import CampaignConfig, run_campaign
    from ..difftest.mutations import CAMPAIGN_CLASSES

    rows: list[dict] = []
    per_class = {cls: {"class": cls} for cls in CAMPAIGN_CLASSES}
    tables: dict[float, str] = {}
    for coverage in coverages:
        config = CampaignConfig(
            seeds=seeds, coverage=coverage, scenarios_per_module=4,
            corpus_dir=None, shrink=False,
        )
        campaign = run_campaign(config, metrics=MetricsRegistry())
        static = campaign.static_matrix.total()
        runtime = campaign.runtime_matrix.total()
        rows.append(
            {
                "coverage": coverage,
                "static_found": static.tp,
                "static_fp": static.fp,
                "static_rate": static.recall,
                "runtime_found": runtime.tp,
                "runtime_fp": runtime.fp,
                "runtime_rate": runtime.recall,
            }
        )
        for cls, entry in per_class.items():
            planted = campaign.static_matrix.at(cls)
            entry["planted"] = planted.tp + planted.fn
            entry["static"] = planted.tp
            entry[f"runtime@{round(coverage * 100)}%"] = (
                campaign.runtime_matrix.at(cls).tp
            )
        tables[coverage] = campaign.render()
    engine = config.engine()
    kinds = Counter(
        variant.planted.kind.value
        for variant in map(engine.variant, range(seeds))
        if variant.planted is not None
    )
    return {
        "planted": campaign.planted_count,
        "clean": campaign.clean_count,
        "excluded": campaign.excluded_count,
        "plants_by_kind": dict(sorted(kinds.items())),
        "rows": rows,
        "per_class": list(per_class.values()),
        "static_false_positives_in_clean": sum(
            len(outcome.discrepancies) for outcome in campaign.outcomes
            if outcome.planted_class is None
        ),
        "tables": tables,
    }
