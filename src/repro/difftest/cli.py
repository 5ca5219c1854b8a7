"""The ``difftest`` subcommand: differential fault injection from the shell.

::

    repro difftest [--seeds N] [--jobs N] [--coverage F]
                   [--corpus DIR | --no-corpus] [--max-steps N]
                   [--no-shrink] [--metrics-out FILE] [-flag | +flag ...]
    repro difftest --replay [PATH | all] [--corpus DIR]

Options follow ``pylclint``'s grammar (``-name`` or ``--name``, a value
next or after ``--name=``); ``-j`` is ``--jobs``.

Campaign mode generates N seeded variants, runs the static checker and
the instrumented-heap oracle over each, prints the per-class TP/FP/FN
comparison table, and shrinks + persists every static/ground-truth
disagreement under the corpus directory.

Replay mode re-runs persisted minimized cases (one file, or every
``*.json`` in the corpus) and verifies both detectors still produce the
recorded verdicts.

``--metrics-out FILE`` writes a JSON dump of the metrics registry after
the campaign (variant/discrepancy counts, per-detector verdict totals).

Exit codes extend the driver's contract:

    0   campaign finished with no surviving discrepancy / all replays
        reproduced
    1   at least one static FN/FP survived shrinking (it was minimized
        and persisted), or a replay diverged from its recording
    2   usage error
"""

from __future__ import annotations

import sys

from ..driver.options import (
    UsageError,
    integer,
    number,
    optional,
    parse,
    switch,
    value,
)
from ..flags.registry import Flags, UnknownFlag
from .campaign import CampaignConfig, run_campaign
from .corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusError,
    load_case,
    load_corpus,
    replay_case,
)

USAGE = __doc__ or ""

EXIT_OK = 0
EXIT_DISCREPANT = 1
EXIT_USAGE = 2


class DifftestCliError(Exception):
    pass


def _positive(text: str) -> int:
    out = integer(text)
    if out < 1:
        raise ValueError("expects a value >= 1")
    return out


def _fraction(text: str) -> float:
    out = number(text)
    if not 0.0 <= out <= 1.0:
        raise ValueError("expects a value in [0, 1]")
    return out


#: The subcommand's options (see :mod:`repro.driver.options` for the
#: grammar); most fill the :class:`CampaignConfig` field they name, and
#: ``-flag`` / ``+flag`` operands pass through to the checker.
OPTIONS = {
    "help": switch("help", ends=True),
    "h": switch("help", ends=True),
    "seeds": value("seeds", _positive),
    "jobs": value("jobs", _positive),
    "j": value("jobs", _positive),
    "coverage": value("coverage", _fraction),
    "max-steps": value("max_steps", _positive),
    "corpus": value("corpus_dir"),
    "no-corpus": switch("corpus_dir", None),
    "no-shrink": switch("shrink", False),
    "metrics-out": value("metrics_out"),
    "replay": optional("replay", "all"),  # a path, or every case
    "quiet": switch("quiet"),
}


def parse_args(argv: list[str]) -> dict:
    """Walk *argv* through :data:`OPTIONS`: the settings given, and the
    checker flag arguments as ``flag_args``."""
    opts: dict = {}
    try:
        operands = parse(argv, OPTIONS, opts)
    except UsageError as exc:
        raise DifftestCliError(str(exc)) from None
    stray = [a for a in operands if len(a) < 2 or a[0] not in "-+"]
    if stray:
        raise DifftestCliError(f"unexpected argument {stray[0]!r}")
    opts["flag_args"] = tuple(operands)
    return opts


def run_difftest(argv: list[str]) -> tuple[int, str]:
    """Run the subcommand; returns (exit_status, output_text)."""
    opts = parse_args(argv)
    if opts.pop("help", False):
        return EXIT_OK, USAGE
    try:
        Flags.from_args(list(opts["flag_args"]))
    except UnknownFlag as exc:
        raise DifftestCliError(str(exc)) from exc
    replay = opts.pop("replay", None)
    quiet = opts.pop("quiet", False)
    metrics_out = opts.pop("metrics_out", None)
    config = CampaignConfig(**opts)
    if replay is not None:
        return _run_replay(config, replay)

    out: list[str] = []
    result = run_campaign(config, progress=None if quiet else out.append)
    out.append(result.render())
    if metrics_out is not None:
        from ..obs.metrics import GLOBAL_METRICS

        GLOBAL_METRICS.dump_json(metrics_out)
    return (
        EXIT_OK if result.clean_exit else EXIT_DISCREPANT,
        "\n".join(out),
    )


def _run_replay(config: CampaignConfig, replay: str) -> tuple[int, str]:
    runner = config.runner()
    corpus = config.corpus_dir or DEFAULT_CORPUS_DIR
    try:
        if replay == "all":
            cases = load_corpus(corpus)
            if not cases:
                return EXIT_OK, f"no corpus cases under {corpus}/"
        else:
            cases = [load_case(replay)]
    except CorpusError as exc:
        raise DifftestCliError(str(exc)) from exc
    reports = [replay_case(case, runner) for case in cases]
    out = [report.render() for report in reports]
    failed = sum(1 for r in reports if not r.reproduced)
    out.append(
        f"{len(reports) - failed}/{len(reports)} case(s) reproduced"
    )
    return (EXIT_DISCREPANT if failed else EXIT_OK), "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        status, output = run_difftest(args)
    except DifftestCliError as exc:
        print(f"repro difftest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if output:
        print(output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
