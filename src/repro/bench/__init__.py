"""Benchmark workloads: program generation, bug recipes, experiment harness."""

from .dbexample import FINAL_STAGE, annotation_census, db_sources
from .generator import GeneratedProgram, generate_program, generate_program_of_size, strip_annotations
from .harness import (
    burden_experiment,
    db_runtime_residue,
    figure6_cfg,
    figure_experiments,
    linearity_ratio,
    modular_experiment,
    scaling_experiment,
    section6_experiment,
    static_vs_runtime_experiment,
)
from .seeding import BugKind

__all__ = [
    "FINAL_STAGE",
    "annotation_census",
    "db_sources",
    "GeneratedProgram",
    "generate_program",
    "generate_program_of_size",
    "strip_annotations",
    "burden_experiment",
    "db_runtime_residue",
    "figure6_cfg",
    "figure_experiments",
    "linearity_ratio",
    "modular_experiment",
    "scaling_experiment",
    "section6_experiment",
    "static_vs_runtime_experiment",
    "BugKind",
]
