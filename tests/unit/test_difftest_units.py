"""Unit tests for the difftest subsystem's pieces in isolation."""

import json
from dataclasses import replace

import pytest

from repro.bench.seeding import GUARD_CLEAN_IDIOMS, BugKind, guard_clean_body
from repro.difftest.corpus import (
    SCHEMA_VERSION,
    CorpusCase,
    CorpusError,
    load_case,
    load_corpus,
    replay_case,
    save_case,
)
from repro.difftest.mutations import (
    CAMPAIGN_CLASSES,
    STATIC_EQUIVALENTS,
    MutationEngine,
    MutationError,
    PlantedBug,
    function_span,
)
from repro.difftest.runner import DualRunner, DualVerdict, ScenarioRun, StaticVerdict
from repro.difftest.verdict import (
    CORROBORATED_BY,
    ConfusionMatrix,
    render_matrix,
    score_verdict,
)
from repro.runtime.heap import RuntimeEventKind
from repro.messages.message import MEMORY_ERROR_CLASSES, MessageCode


# ---------------------------------------------------------------------------
# class vocabulary
# ---------------------------------------------------------------------------


def test_campaign_classes_cover_runtime_event_kinds():
    # Every run-time event class is plantable and scored; the campaign
    # additionally plants the static refinement classes, whose run-time
    # witness is a coarser event class (partial-struct field read ->
    # uninitialized read, aliased double free -> double free).
    runtime_classes = {k.error_class for k in RuntimeEventKind}
    assert runtime_classes <= set(CAMPAIGN_CLASSES)
    assert set(CAMPAIGN_CLASSES) - runtime_classes == {
        "uninit-field-read",
        "double-free-alias",
    }


def test_every_bug_kind_maps_to_a_campaign_class():
    for kind in BugKind:
        assert kind.error_class in CAMPAIGN_CLASSES


def test_static_class_map_targets_campaign_classes():
    assert set(MEMORY_ERROR_CLASSES.values()) <= set(CAMPAIGN_CLASSES)
    assert MessageCode.NULL_DEREF.error_class == "null-dereference"
    assert MessageCode.PARSE_ERROR.error_class is None


def test_equivalence_tables_are_symmetric():
    # a planted double free's static witness is the use-after-free code,
    # and a use-after-free claim is corroborated by an observed double free
    assert "use-after-free" in STATIC_EQUIVALENTS["double-free"]
    assert "double-free" in CORROBORATED_BY["use-after-free"]
    for cls in CAMPAIGN_CLASSES:
        assert cls in STATIC_EQUIVALENTS[cls]
        assert cls in CORROBORATED_BY[cls]


# ---------------------------------------------------------------------------
# mutation engine
# ---------------------------------------------------------------------------


def test_function_span_tracks_brace_depth():
    text = "int x;\nvoid f(void)\n{\n  if (p) { free(p); }\n  x = 1;\n}\nint y;"
    header, open_at, close_at = function_span(text, "f")
    assert (header, open_at, close_at) == (1, 2, 5)


def test_function_span_missing_function_raises():
    with pytest.raises(MutationError):
        function_span("int x;\n", "nope")


def test_variant_is_deterministic_per_seed():
    engine = MutationEngine()
    a, b = engine.variant(3), engine.variant(3)
    assert a.files == b.files
    assert a.planted == b.planted
    assert a.window_lines == b.window_lines


def test_clean_every_mixes_control_variants():
    engine = MutationEngine(clean_every=4)
    kinds = [engine.variant(seed).is_clean for seed in range(8)]
    assert kinds == [False, False, False, True, False, False, False, True]


def test_planted_window_contains_the_bug_lines():
    engine = MutationEngine()
    variant = engine.variant(0)
    assert variant.planted is not None
    driver = variant.files["driver.c"].split("\n")
    window = driver[variant.planted.line_start - 1 : variant.planted.line_end]
    assert [l for l in window] == list(variant.window_lines)


def test_rebuild_variant_respects_new_window():
    engine = MutationEngine()
    variant = engine.variant(0)
    reduced = list(variant.window_lines)[:1]
    rebuilt = engine.rebuild_variant(variant, reduced)
    assert list(rebuilt.window_lines) == reduced
    assert rebuilt.planted is not None
    driver = rebuilt.files["driver.c"].split("\n")
    start, end = rebuilt.planted.line_start, rebuilt.planted.line_end
    assert driver[start - 1 : end] == reduced


def test_clean_controls_cycle_through_guard_idioms():
    engine = MutationEngine(clean_every=4)
    # Clean ordinals 0..4 map to: unmutated, then each guard idiom.
    markers = {
        "ternary-guard-and": "&& r->count > 0) ? r->count : 0",
        "ternary-truth": "r ? r->count : 0",
        "assign-cond-eq": "malloc(4)) == NULL",
        "assign-cond-ne": "malloc(4)) != NULL",
        "index-loop-bounded": "a[i] = i * 2",
        "struct-full-init": "local.count = 4;",
        "alias-single-free": "free(q);",
    }
    clean_seeds = [4 * (k + 1) - 1 for k in range(1 + len(GUARD_CLEAN_IDIOMS))]
    plain = engine.variant(clean_seeds[0])
    assert plain.is_clean
    assert not any(m in plain.files["driver.c"] for m in markers.values())
    for ordinal, idiom in enumerate(GUARD_CLEAN_IDIOMS, start=1):
        variant = engine.variant(clean_seeds[ordinal])
        assert variant.is_clean
        assert markers[idiom] in variant.files["driver.c"], idiom
        # The window is the spliced body, ready for the shrinker.
        assert any(markers[idiom] in line for line in variant.window_lines)


def test_guard_clean_controls_are_clean_for_both_detectors():
    engine = MutationEngine(clean_every=4)
    runner = DualRunner()
    for ordinal in range(1, 1 + len(GUARD_CLEAN_IDIOMS)):
        variant = engine.variant(4 * (ordinal + 1) - 1)
        assert variant.is_clean
        static = runner.check_static(variant)
        assert static.messages == [], variant.seed
        run = runner.run_scenario(variant, variant.target)
        assert run.failure is None and run.event_kinds == [], variant.seed


def test_rebuild_variant_of_guard_clean_control():
    engine = MutationEngine(clean_every=4)
    variant = engine.variant(7)   # first guard-idiom control
    reduced = list(variant.window_lines)[:2]
    rebuilt = engine.rebuild_variant(variant, reduced)
    assert rebuilt.is_clean
    assert list(rebuilt.window_lines) == reduced


def test_guard_clean_body_rejects_unknown_idiom():
    with pytest.raises(ValueError):
        guard_clean_body("no-such-idiom", 0, "f")


def test_variants_cover_every_bug_kind():
    engine = MutationEngine()
    seen = set()
    for seed in range(60):
        variant = engine.variant(seed)
        if variant.planted is not None:
            seen.add(variant.planted.kind)
    assert seen == set(BugKind)


@pytest.mark.parametrize("kind", list(BugKind), ids=lambda kind: kind.value)
def test_each_plant_is_found_by_its_signature_in_its_scenario(kind):
    # An engine restricted to one kind plants that kind; the static
    # checker finds it through STATIC_SIGNATURES inside its scenario
    # function, and the same messages count for no other scenario.
    variant = MutationEngine(kinds=(kind,)).variant(0)
    assert variant.planted.kind is kind
    runner = DualRunner()
    assert runner.check_static(variant).window_hit
    other = next(s for s in variant.scenarios if s != variant.target)
    moved = replace(variant, planted=replace(variant.planted, scenario=other))
    assert not runner.check_static(moved).window_hit


# ---------------------------------------------------------------------------
# verdict scoring
# ---------------------------------------------------------------------------


def _verdict(
    planted=None,
    window_hit=False,
    static_classes=None,
    oracle_classes=(),
    runs=(),
    tested=(),
    parse_errors=0,
    oracle_failure=None,
):
    return DualVerdict(
        seed=7,
        planted_class=planted,
        static=StaticVerdict(
            messages=[],
            classes=dict(static_classes or {}),
            window_hit=window_hit,
            parse_errors=parse_errors,
        ),
        oracle=ScenarioRun(
            scenario="scenario_0_0",
            event_classes=sorted(oracle_classes),
            failure=oracle_failure,
        ),
        runs=list(runs),
        tested=list(tested),
    )


def test_score_confirmed_plant_detected_is_tp():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    run = ScenarioRun(scenario="scenario_0_0", event_classes=["leak"])
    outcome = score_verdict(
        _verdict(
            planted="leak", window_hit=True,
            static_classes={"leak": 1}, oracle_classes=["leak"],
            runs=[run], tested=["scenario_0_0"],
        ),
        sm, rm,
    )
    assert not outcome.discrepancies
    assert sm.at("leak").tp == 1 and sm.at("leak").fn == 0
    assert rm.at("leak").tp == 1


def test_score_missed_plant_is_static_fn_discrepancy():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(planted="leak", window_hit=False, oracle_classes=["leak"]),
        sm, rm,
    )
    assert sm.at("leak").fn == 1
    assert [d.direction for d in outcome.discrepancies] == ["static-fn"]


def test_score_uncorroborated_claim_is_static_fp():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(static_classes={"null-dereference": 2}), sm, rm,
    )
    assert sm.at("null-dereference").fp == 1
    assert [d.direction for d in outcome.discrepancies] == ["static-fp"]


def test_score_corroborated_secondary_claim_is_not_fp():
    # an offset free really does also leak: oracle corroborates both
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(
            planted="invalid-free", window_hit=True,
            static_classes={"invalid-free": 1, "leak": 1},
            oracle_classes=["invalid-free", "leak"],
        ),
        sm, rm,
    )
    assert not outcome.discrepancies
    assert sm.at("leak").fp == 0


def test_score_double_free_witnessed_by_uaf_message_is_runtime_tp():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    run = ScenarioRun(
        scenario="scenario_0_0", event_classes=["use-after-free"],
    )
    score_verdict(
        _verdict(
            planted="double-free", window_hit=True,
            static_classes={"use-after-free": 1},
            oracle_classes=["double-free", "use-after-free"],
            runs=[run], tested=["scenario_0_0"],
        ),
        sm, rm,
    )
    assert rm.at("double-free").tp == 1


def test_score_untested_scenario_is_runtime_fn():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    score_verdict(
        _verdict(
            planted="leak", window_hit=True,
            static_classes={"leak": 1}, oracle_classes=["leak"],
            runs=[], tested=[],           # the bug's test was never written
        ),
        sm, rm,
    )
    assert rm.at("leak").fn == 1 and rm.at("leak").tp == 0


def test_score_unconfirmed_plant_is_excluded_with_note():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(planted="leak", window_hit=False, oracle_classes=[]),
        sm, rm,
    )
    assert not outcome.discrepancies
    assert sm.total().fn == 0
    assert any("plant failure" in n for n in outcome.notes)


def test_score_degraded_static_run_is_excluded():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(planted="leak", oracle_classes=["leak"], parse_errors=1),
        sm, rm,
    )
    assert not outcome.discrepancies
    assert sm.total().fn == 0
    assert any("degraded" in n for n in outcome.notes)


def test_score_oracle_failure_is_excluded():
    sm, rm = ConfusionMatrix("static"), ConfusionMatrix("runtime")
    outcome = score_verdict(
        _verdict(planted="leak", oracle_failure="StepBudgetExceeded: ..."),
        sm, rm,
    )
    assert not outcome.discrepancies
    assert any("oracle" in n for n in outcome.notes)


def test_render_matrix_has_a_row_per_class():
    text = render_matrix(
        ConfusionMatrix("static"), ConfusionMatrix("runtime"), 0.5
    )
    for cls in CAMPAIGN_CLASSES:
        assert cls in text
    assert "overall" in text
    assert "50%" in text


# ---------------------------------------------------------------------------
# corpus round-trip and replay
# ---------------------------------------------------------------------------


def _small_case(tmp_path):
    engine = MutationEngine()
    runner = DualRunner()
    variant = engine.variant(0)
    static = runner.check_static(variant)
    oracle = runner.run_scenario(variant, variant.target)
    return CorpusCase(
        seed=variant.seed,
        direction="static-fn",
        error_class=variant.planted.error_class,
        detail="synthetic test case",
        scenario=variant.target,
        window=variant.window_lines,
        files=variant.files,
        planted=variant.planted,
        expected_static_classes=dict(static.classes),
        expected_static_window_hit=static.window_hit,
        expected_oracle_classes=tuple(oracle.event_classes),
    )


def test_corpus_case_round_trips_through_json(tmp_path):
    case = _small_case(tmp_path)
    path = save_case(case, str(tmp_path))
    loaded = load_case(path)
    assert loaded.to_dict() == case.to_dict()
    assert loaded.planted == case.planted
    assert load_corpus(str(tmp_path))[0].name == case.name


def test_corpus_rejects_unknown_schema(tmp_path):
    case = _small_case(tmp_path)
    data = case.to_dict()
    data["schema"] = SCHEMA_VERSION + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CorpusError):
        load_case(str(path))


def test_corpus_load_missing_file_raises(tmp_path):
    with pytest.raises(CorpusError):
        load_case(str(tmp_path / "absent.json"))
    assert load_corpus(str(tmp_path / "absent-dir")) == []


def test_replay_reproduces_a_fresh_recording(tmp_path):
    case = _small_case(tmp_path)
    report = replay_case(case, DualRunner())
    assert report.reproduced, report.problems


def test_replay_detects_divergence(tmp_path):
    case = _small_case(tmp_path)
    case.expected_static_window_hit = not case.expected_static_window_hit
    report = replay_case(case, DualRunner())
    assert not report.reproduced
    assert any("window hit" in p for p in report.problems)


def test_planted_bug_round_trip():
    bug = PlantedBug(
        kind=BugKind.USE_AFTER_FREE, error_class="use-after-free",
        scenario="scenario_0_0", file="driver.c",
        line_start=10, line_end=12,
    )
    assert PlantedBug.from_dict(bug.to_dict()) == bug
