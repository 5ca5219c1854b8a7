"""Tests for the benchmark substrate: generator and db example."""

from repro import Checker, Flags
from repro.bench.dbexample import FINAL_STAGE, annotation_census, db_sources
from repro.bench.generator import (
    generate_program,
    generate_program_of_size,
    strip_annotations,
)

NOIMP = Flags.from_args(["-allimponly"])


class TestGenerator:
    def test_deterministic(self):
        a = generate_program(modules=2, seed=7)
        b = generate_program(modules=2, seed=7)
        assert a.files == b.files

    def test_different_seeds_differ(self):
        a = generate_program(modules=2, seed=7)
        b = generate_program(modules=2, seed=8)
        assert a.files != b.files

    def test_checks_clean(self):
        program = generate_program(modules=2, filler_functions=3,
                                   scenarios_per_module=2)
        result = Checker().check_sources(dict(program.files))
        assert result.messages == []

    def test_size_targeting(self):
        for target in (800, 2500):
            program = generate_program_of_size(target)
            assert abs(program.loc - target) < target * 0.4

    def test_strip_annotations(self):
        text = "extern /*@null@*/ /*@only@*/ char *g;\n/* keep me */\n"
        stripped = strip_annotations(text)
        assert "/*@" not in stripped
        assert "keep me" in stripped
        assert "char *g;" in stripped

    def test_strip_annotations_strips_control_comments(self):
        # control comments are annotations too: an unannotated program
        # must not retain suppressions or checking-mode switches
        text = (
            "/*@ignore@*/\nchar *p = q;\n/*@end@*/\n"
            "/*@access mstring@*/\nint x;\n/*@-null@*/\nint y;\n"
        )
        stripped = strip_annotations(text)
        assert "/*@" not in stripped
        assert "char *p = q;" in stripped
        assert "int x;" in stripped and "int y;" in stripped

    def test_strip_annotations_preserves_line_structure(self):
        # line numbers in messages must stay comparable before and after
        # stripping, including for multi-line annotation payloads
        text = "int a;\n/*@null@*/ char *b;\n/*@access\n  mstring@*/\nint c;\n"
        stripped = strip_annotations(text)
        assert stripped.count("\n") == text.count("\n")
        assert stripped.splitlines()[4] == "int c;"

    def test_strip_annotations_handles_stars_and_ats_in_payload(self):
        text = "/*@only@*/ char **pp;\n/*@observer *p @*/ int z;\n"
        stripped = strip_annotations(text)
        assert "/*@" not in stripped and "@*/" not in stripped
        assert "char **pp;" in stripped
        assert "int z;" in stripped

    def test_strip_annotations_is_idempotent_and_total(self):
        for text in ("", "int x;\n", "/*@null@*/", "/* plain */ /*@out@*/"):
            once = strip_annotations(text)
            assert strip_annotations(once) == once
            assert "/*@" not in once

    def test_stripped_program_draws_messages(self):
        program = generate_program(modules=2, filler_functions=1,
                                   scenarios_per_module=1)
        stripped = program.stripped()
        result = Checker().check_sources(dict(stripped.files))
        assert len(result.messages) > 0

    def test_runs_clean_under_interpreter(self):
        from repro.runtime.interp import run_program

        program = generate_program(modules=1, filler_functions=1,
                                   scenarios_per_module=1)
        result = run_program(dict(program.files), max_steps=2_000_000)
        assert result.exit_code == 0
        assert result.events == []
        assert result.leaked_blocks == 0


class TestDbExample:
    def test_stages_render_distinct_programs(self):
        texts = [tuple(sorted(db_sources(s).items()))
                 for s in range(FINAL_STAGE + 1)]
        assert len(set(texts)) == FINAL_STAGE + 1

    def test_stage0_has_no_annotations(self):
        for text in db_sources(0).values():
            assert "/*@" not in text

    def test_final_stage_checks_clean_under_both_flag_settings(self):
        files = db_sources(FINAL_STAGE)
        assert Checker(flags=NOIMP).check_sources(files).messages == []
        assert Checker().check_sources(files).messages == []

    def test_intermediate_stages_have_messages(self):
        for stage in range(FINAL_STAGE):
            files = db_sources(stage)
            result = Checker().check_sources(files)
            assert len(result.messages) > 0, f"stage {stage} unexpectedly clean"

    def test_census_monotone(self):
        totals = [annotation_census(s).total for s in range(FINAL_STAGE + 1)]
        assert totals == sorted(totals)
        assert totals[0] == 0

    def test_census_composition_matches_paper_shape(self):
        census = annotation_census(FINAL_STAGE)
        # Paper: 15 = 1 null + 1 out + 13 only (plus the unique of §6).
        assert census.only >= census.null  # only dominates
        assert census.out == 1
        assert census.unique == 1

    def test_driver_leaks_present_before_final_stage(self):
        result = Checker(flags=NOIMP).check_sources(db_sources(3))
        driver_msgs = [
            m for m in result.messages if m.location.filename == "drive.c"
        ]
        assert len(driver_msgs) == 6  # the paper's six driver leaks

    def test_db_program_runs_correctly(self):
        from repro.runtime.interp import run_program

        result = run_program(db_sources(FINAL_STAGE), max_steps=5_000_000)
        assert result.exit_code == 0
        assert "hired 5" in result.output
        assert "alice" in result.output
        # section 7 residue: storage reachable from globals leaks at exit
        assert result.leaked_blocks > 0
