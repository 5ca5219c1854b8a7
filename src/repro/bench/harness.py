"""Experiment runners for every table and figure in the paper.

Each function reproduces one row-set of the paper's evaluation and
returns plain data structures; the ``benchmarks/`` suite times them and
prints the same rows the paper reports, and ``EXPERIMENTS.md`` records
paper-vs-measured. See DESIGN.md for the experiment index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..analysis.cfg import build_cfg
from ..core.api import Checker
from ..flags.registry import Flags
from ..messages.message import MessageCode
from ..runtime.interp import load_program
from .dbexample import FINAL_STAGE, annotation_census, db_sources
from .generator import generate_program_of_size
from .seeding import (
    BugKind,
    function_line_ranges,
    generate_seeded_program,
    match_runtime_detection,
    match_static_detections,
)

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
    bugs_per_kind: int = 2,
    modules: int = 3,
    seed: int = 20260704,
) -> dict:
    seeded = generate_seeded_program(
        modules=modules, bugs_per_kind=bugs_per_kind, seed=seed
    )
    result = Checker().check_sources(dict(seeded.program.files))
    ranges = function_line_ranges(result.units)
    static_found = match_static_detections(seeded.bugs, result.messages, ranges)

    # false positives: messages attributed to clean scenarios
    clean_spans = [
        ranges[name] for name in seeded.clean_scenarios if name in ranges
    ]
    false_positives = sum(
        1
        for m in result.messages
        if any(
            f == m.location.filename and s <= m.location.line <= e
            for f, s, e in clean_spans
        )
    )

    program = load_program(seeded.program.files)
    total = len(seeded.bugs)
    rows: list[dict] = []
    for coverage in coverages:
        executed = max(1, round(coverage * total))
        covered_bugs = seeded.bugs[:executed]
        runtime_found = 0
        for bug in covered_bugs:
            run = program.interpreter(max_steps=2_000_000).run(bug.scenario)
            if match_runtime_detection(bug, run.events):
                runtime_found += 1
        rows.append(
            {
                "coverage": coverage,
                "scenarios_run": executed,
                "runtime_found": runtime_found,
                "runtime_rate": runtime_found / total,
                "static_found": sum(static_found.values()),
                "static_rate": sum(static_found.values()) / total,
            }
        )
    per_kind: dict[str, dict] = {}
    for bug in seeded.bugs:
        entry = per_kind.setdefault(
            bug.kind.value, {"total": 0, "static": 0}
        )
        entry["total"] += 1
        entry["static"] += int(static_found[bug.bug_id])
    return {
        "total_bugs": total,
        "rows": rows,
        "per_kind": per_kind,
        "static_false_positives_in_clean": false_positives,
    }
