"""End-to-end tests for the differential fault-injection campaign.

The expensive full pipeline runs once per flag configuration at small
seed counts; assertions then probe the resulting matrices, corpus and
exit codes from multiple angles.
"""

import json
import os

import pytest

from repro.difftest import (
    CampaignConfig,
    DualRunner,
    MutationEngine,
    load_corpus,
    replay_case,
    run_campaign,
    shrink_discrepancy,
)
from repro.difftest.cli import (
    EXIT_DISCREPANT,
    EXIT_OK,
    EXIT_USAGE,
    DifftestCliError,
    parse_args,
    run_difftest,
)
from repro.difftest.mutations import CAMPAIGN_CLASSES
from repro.driver.cli import main as driver_main


@pytest.fixture(scope="module")
def default_campaign():
    return run_campaign(CampaignConfig(seeds=16, jobs=1, corpus_dir=None))


@pytest.fixture(scope="module")
def blinded_campaign(tmp_path_factory):
    """The forced discrepancy: -usereleased blinds static UAF detection."""
    corpus = tmp_path_factory.mktemp("corpus")
    result = run_campaign(CampaignConfig(
        seeds=16, jobs=1, corpus_dir=str(corpus),
        flag_args=("-usereleased",),
    ))
    return result, str(corpus)


def test_default_campaign_has_no_discrepancies(default_campaign):
    assert default_campaign.clean_exit
    assert default_campaign.discrepancy_count == 0
    assert not default_campaign.shrunk


def test_default_campaign_static_recall_is_total(default_campaign):
    total = default_campaign.static_matrix.total()
    assert total.fn == 0 and total.fp == 0
    assert total.tp == default_campaign.planted_count


def test_default_campaign_runtime_misses_untested_scenarios(default_campaign):
    # at 50% coverage the run-time detector must miss roughly half the
    # plants; at minimum it cannot see everything static sees
    total = default_campaign.runtime_matrix.total()
    assert total.fn > 0
    assert total.tp + total.fn == default_campaign.planted_count


def test_campaign_includes_clean_control_variants(default_campaign):
    assert default_campaign.clean_count > 0


def test_campaign_render_mentions_every_class(default_campaign):
    text = default_campaign.render()
    for cls in CAMPAIGN_CLASSES:
        assert cls in text
    assert "no static/ground-truth discrepancies" in text


def test_parallel_campaign_matches_serial(default_campaign):
    parallel = run_campaign(
        CampaignConfig(seeds=16, jobs=2, corpus_dir=None)
    )
    assert parallel.render() == default_campaign.render()


@pytest.mark.parametrize(
    "seeds, jobs", [(1, 4), (3, 1)], ids=["one-seed", "one-job"],
)
def test_campaign_without_work_to_spread_never_forks(
    monkeypatch, seeds, jobs
):
    # One seed, or one job, runs in the caller's process without a pool
    # and without a note about one.
    from repro.difftest import campaign

    def no_pool(*args, **kwargs):
        raise AssertionError("the campaign started a pool")

    monkeypatch.setattr(campaign, "fork_map", no_pool)
    result = run_campaign(
        CampaignConfig(seeds=seeds, jobs=jobs, corpus_dir=None)
    )
    assert len(result.outcomes) == seeds
    assert not [n for n in result.notes if "serially" in n], result.notes


def test_collapsed_pool_writes_one_note_and_keeps_the_table(monkeypatch):
    # The campaign runs on the engine's pool: a worker that dies takes
    # the pool down, and the campaign salvages finished seeds, re-runs
    # the rest serially, and says so once (not once per seed).
    from repro.incremental import parallel

    if not parallel.fork_available():
        pytest.skip("needs fork")
    serial = run_campaign(CampaignConfig(seeds=12, jobs=1, corpus_dir=None))
    parent = os.getpid()
    real_run_variant = DualRunner.run_variant

    def dies_on_seed_3(self, variant, *args, **kwargs):
        if variant.seed == 3 and os.getpid() != parent:
            os._exit(1)
        return real_run_variant(self, variant, *args, **kwargs)

    monkeypatch.setattr(DualRunner, "run_variant", dies_on_seed_3)
    collapsed = run_campaign(
        CampaignConfig(seeds=12, jobs=2, corpus_dir=None)
    )
    pool_notes = [n for n in collapsed.notes if n not in serial.notes]
    assert len(pool_notes) == 1, pool_notes
    assert pool_notes[0].startswith(
        "worker pool collapsed (BrokenProcessPool)"
    )
    table = collapsed.render().replace(f"\nnote: {pool_notes[0]}", "")
    assert table == serial.render()


def test_dead_seed_task_is_rerun_serially_with_one_note(monkeypatch):
    # A seed whose task raises in a worker costs one serial re-run of
    # that seed and one note naming it; the other seeds keep their
    # pooled verdicts.
    from repro.incremental import parallel

    if not parallel.fork_available():
        pytest.skip("needs fork")
    serial = run_campaign(CampaignConfig(seeds=6, jobs=1, corpus_dir=None))
    parent = os.getpid()
    real_run_variant = DualRunner.run_variant

    def raises_on_seed_3(self, variant, *args, **kwargs):
        if variant.seed == 3 and os.getpid() != parent:
            raise RuntimeError("seed 3 fails in a worker")
        return real_run_variant(self, variant, *args, **kwargs)

    monkeypatch.setattr(DualRunner, "run_variant", raises_on_seed_3)
    retried = run_campaign(CampaignConfig(seeds=6, jobs=2, corpus_dir=None))
    pool_notes = [n for n in retried.notes if n not in serial.notes]
    assert pool_notes == [
        "parallel check of seed 3 failed (RuntimeError); re-checked serially"
    ]
    table = retried.render().replace(f"\nnote: {pool_notes[0]}", "")
    assert table == serial.render()


def test_campaign_without_fork_runs_serially_with_one_note(monkeypatch):
    from repro.incremental import parallel

    serial = run_campaign(CampaignConfig(seeds=4, jobs=1, corpus_dir=None))
    monkeypatch.setattr(parallel, "fork_available", lambda: False)
    fallback = run_campaign(CampaignConfig(seeds=4, jobs=2, corpus_dir=None))
    pool_notes = [n for n in fallback.notes if n not in serial.notes]
    assert pool_notes == [
        "parallel checking unavailable (no fork start method on this "
        "platform); checked 4 seed(s) serially"
    ]
    table = fallback.render().replace(f"\nnote: {pool_notes[0]}", "")
    assert table == serial.render()


def test_blinded_campaign_surfaces_static_fns(blinded_campaign):
    result, _ = blinded_campaign
    assert not result.clean_exit
    directions = {
        d.direction for o in result.outcomes for d in o.discrepancies
    }
    assert directions == {"static-fn"}
    classes = {
        d.error_class for o in result.outcomes for d in o.discrepancies
    }
    assert classes <= {"use-after-free", "double-free"}
    assert result.static_matrix.at("use-after-free").fn > 0


def test_blinded_campaign_leaves_other_classes_intact(blinded_campaign):
    result, _ = blinded_campaign
    for cls in ("null-dereference", "invalid-free", "leak"):
        assert result.static_matrix.at(cls).fn == 0


def test_blinded_campaign_shrinks_and_persists(blinded_campaign):
    result, corpus = blinded_campaign
    assert result.shrunk
    cases = load_corpus(corpus)
    assert len(cases) == len(result.shrunk)
    for item in result.shrunk:
        assert item.minimized_window <= item.original_window
        assert item.path is not None and os.path.exists(item.path)
    # at least one window genuinely reduced (the double-free recipe
    # carries a removable printf) whenever a double free was planted
    if any(i.discrepancy.error_class == "double-free" for i in result.shrunk):
        assert any(
            i.minimized_window < i.original_window for i in result.shrunk
        )


def test_persisted_cases_replay_under_matching_flags(blinded_campaign):
    _, corpus = blinded_campaign
    from repro.flags.registry import Flags

    runner = DualRunner(flags=Flags.from_args(["-usereleased"]))
    for case in load_corpus(corpus):
        report = replay_case(case, runner)
        assert report.reproduced, (case.name, report.problems)


def test_persisted_case_diverges_under_default_flags(blinded_campaign):
    _, corpus = blinded_campaign
    cases = load_corpus(corpus)
    report = replay_case(cases[0], DualRunner())
    assert not report.reproduced


def test_corpus_json_is_self_contained(blinded_campaign):
    result, corpus = blinded_campaign
    name = result.shrunk[0].case.name
    with open(os.path.join(corpus, f"{name}.json")) as handle:
        data = json.load(handle)
    assert data["schema"] == 1
    assert "driver.c" in data["files"]
    assert data["expected"]["oracle_classes"]
    assert data["direction"] == "static-fn"


def test_shrink_predicate_rejects_destroyed_programs(blinded_campaign):
    result, _ = blinded_campaign
    item = result.shrunk[0]
    engine = MutationEngine()
    runner = DualRunner()
    # shrinking with default flags: the discrepancy does not hold at all,
    # so nothing can be removed and the original window survives
    variant = engine.variant(item.discrepancy.seed)
    shrunk = shrink_discrepancy(
        engine, runner, variant, item.discrepancy, max_probes=20
    )
    assert not shrunk.reduced
    assert shrunk.window == variant.window_lines


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_campaign_smoke(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    status, output = run_difftest([
        "--seeds", "8", "--corpus", str(corpus), "--quiet",
    ])
    assert status == EXIT_OK
    assert "differential fault injection: 8 variants" in output
    assert not corpus.exists()   # nothing to persist


def test_cli_blinded_campaign_exits_nonzero(tmp_path):
    corpus = tmp_path / "corpus"
    status, output = run_difftest([
        "--seeds", "8", "--corpus", str(corpus), "--quiet", "-usereleased",
    ])
    assert status == EXIT_DISCREPANT
    assert "minimized and persisted" in output
    assert list(corpus.glob("*.json"))


def test_cli_replay_all(tmp_path):
    corpus = tmp_path / "corpus"
    run_difftest([
        "--seeds", "8", "--corpus", str(corpus), "--quiet", "-usereleased",
    ])
    status, output = run_difftest([
        "--replay", "--corpus", str(corpus), "-usereleased",
    ])
    assert status == EXIT_OK
    assert "reproduced" in output
    # replaying under the wrong flags must fail loudly
    status, output = run_difftest(["--replay", "--corpus", str(corpus)])
    assert status == EXIT_DISCREPANT
    assert "DIVERGED" in output


def test_cli_replay_empty_corpus_is_ok(tmp_path):
    status, output = run_difftest(
        ["--replay", "--corpus", str(tmp_path / "none")]
    )
    assert status == EXIT_OK
    assert "no corpus cases" in output


def test_cli_rejects_bad_arguments():
    with pytest.raises(DifftestCliError):
        parse_args(["--seeds", "zero"])
    with pytest.raises(DifftestCliError):
        parse_args(["--coverage", "1.5"])
    with pytest.raises(DifftestCliError):
        parse_args(["bogus-positional"])
    with pytest.raises(DifftestCliError):
        run_difftest(["--seeds", "1", "-notarealflag"])


@pytest.mark.parametrize(
    "argv", [["--jobs", "2"], ["--jobs=2"], ["-j", "2"]],
    ids=["jobs", "jobs-equals", "j"],
)
def test_cli_jobs_forms_parse(argv):
    # The campaign is the one command with a worker count.
    assert parse_args(argv)["jobs"] == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_jobs_rejects_garbage(value):
    with pytest.raises(DifftestCliError, match="--jobs expects"):
        parse_args(["--jobs", value])


def test_cli_jobs_prints_the_serial_table():
    argv = ["--seeds", "8", "--no-corpus", "--quiet"]
    assert run_difftest([*argv, "--jobs", "2"]) == run_difftest(
        [*argv, "--jobs", "1"]
    )


def test_cli_help():
    status, output = run_difftest(["--help"])
    assert status == EXIT_OK
    assert "--replay" in output


def test_driver_dispatches_difftest_subcommand(capsys):
    status = driver_main(["difftest", "--seeds", "2", "--no-corpus"])
    assert status == EXIT_OK
    assert "differential fault injection" in capsys.readouterr().out


def test_driver_difftest_usage_error(capsys):
    status = driver_main(["difftest", "--seeds", "nope"])
    assert status == EXIT_USAGE
    assert "repro difftest" in capsys.readouterr().err
