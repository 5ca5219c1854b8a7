"""The one option grammar (``repro.driver.options``) and the three
tables over it: ``pylclint``, ``repro difftest`` and the servers.

The spelling tables collect the command lines of README, docs/, CI,
``perfbench/workloads.py`` and the tests, plus every spelling of every
option. Their expected settings are the ones each command's own argv
loop produced before the commands shared one grammar; the spellings
that loop rejected and the grammar accepts are listed apart.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.difftest import cli as difftest_cli
from repro.difftest.campaign import CampaignConfig
from repro.driver import cli
from repro.driver.options import (
    UsageError,
    integer,
    optional,
    parse,
    repeated,
    switch,
    value,
)
from repro.incremental.cacheserver import CacheServer
from repro.incremental.server import DaemonServer
from repro.service.lineserver import parse_options
from repro.service.server import CheckingService

# -- the grammar -------------------------------------------------------------

_TABLE = {
    "n": value("n", integer),
    "out": value("out"),
    "lib": repeated("lib"),
    "on": switch("on"),
    "off": switch("on", False),
    "help": switch("help", ends=True),
    "replay": optional("replay", "all"),
}


def _walk(argv):
    settings: dict = {}
    return settings, parse(argv, _TABLE, settings)


class TestGrammar:
    @pytest.mark.parametrize("argv", [
        ["-n", "3"], ["--n", "3"], ["--n=3"],
    ])
    def test_every_spelling_of_a_value(self, argv):
        assert _walk(argv) == ({"n": 3}, [])

    def test_operands_come_back_in_order(self):
        assert _walk(["a", "-x", "--on", "+y", "-", "--", "b"]) == (
            {"on": True}, ["a", "-x", "+y", "-", "--", "b"],
        )

    def test_equals_splits_only_the_double_dash_spelling(self):
        assert _walk(["-out=f", "--out=a=b"]) == ({"out": "a=b"}, ["-out=f"])

    def test_a_value_may_start_with_a_dash(self):
        assert _walk(["--out", "-on"]) == ({"out": "-on"}, [])

    def test_repeated_values_append_and_switches_set_constants(self):
        assert _walk(["-lib", "a", "--lib=b", "-on", "--off"]) == (
            {"lib": ["a", "b"], "on": False}, [],
        )

    def test_an_ending_switch_stops_where_it_stands(self):
        assert _walk(["a", "-on", "--help", "-n", "x", "b"]) == (
            {"on": True, "help": True}, ["a"],
        )

    @pytest.mark.parametrize("argv, replay, rest", [
        (["--replay"], "all", []),
        (["--replay", "case.json"], "case.json", []),
        (["--replay=case.json"], "case.json", []),
        (["--replay", "-usereleased"], "all", ["-usereleased"]),
        (["--replay", "+gcmode"], "all", ["+gcmode"]),
    ])
    def test_an_optional_value_may_be_left_out(self, argv, replay, rest):
        assert _walk(argv) == ({"replay": replay}, rest)

    @pytest.mark.parametrize("argv, message", [
        (["-n"], "-n requires a value"),
        (["--out"], "--out requires a value"),
        (["--n", "x"], "--n expects an integer, got 'x'"),
        (["-n=3"], None),  # an operand, not an error
        (["--on=1"], "--on takes no value"),
        (["--help=1"], "--help takes no value"),
    ])
    def test_usage_errors_name_the_option(self, argv, message):
        if message is None:
            assert _walk(argv) == ({}, argv)
            return
        with pytest.raises(UsageError) as info:
            _walk(argv)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)


# -- pylclint ----------------------------------------------------------------

#: argv -> (settings given, LCLint flag arguments, files).
DRIVER_SPELLINGS = [
    # README
    (["examples/db/eref.c", "-stats"], {"stats": True}, [], ["examples/db/eref.c"]),
    (["-allimponly", "file.c"], {}, ["-allimponly"], ["file.c"]),
    (["-dump", "prog.lcd", "a.c", "b.c"], {"dump": "prog.lcd"}, [], ["a.c", "b.c"]),
    (["-load", "prog.lcd", "module.c"], {"load": ["prog.lcd"]}, [], ["module.c"]),
    (["-dot", "list_addh", "file.c"], {"dot": "list_addh"}, [], ["file.c"]),
    (["-trace", "list_addh", "file.c"], {"trace": "list_addh"}, [], ["file.c"]),
    (["--profile", "a.c"], {"profile": True}, [], ["a.c"]),
    (["--cache", "a.c"], {"cache_dir": ".pylclint-cache"}, [], ["a.c"]),
    (["--cache-dir", "/tmp/cc", "a.c"], {"cache_dir": "/tmp/cc"}, [], ["a.c"]),
    (["--cache", "-stats", "a.c"],
     {"stats": True, "cache_dir": ".pylclint-cache"}, [], ["a.c"]),
    (["--no-cache", "a.c"], {"no_cache": True}, [], ["a.c"]),
    (["--cache-dir", "/tmp/local", "--cache-server", "127.0.0.1:7417", "a.c"],
     {"cache_dir": "/tmp/local", "cache_server": "127.0.0.1:7417"}, [], ["a.c"]),
    (["--cache", "--trace-out", "trace.jsonl", "--metrics-out", "metrics.json",
      "a.c"],
     {"cache_dir": ".pylclint-cache", "trace_out": "trace.jsonl",
      "metrics_out": "metrics.json"}, [], ["a.c"]),
    (["--trace-out", "trace.json", "--trace-format", "chrome", "a.c"],
     {"trace_out": "trace.json", "trace_format": "chrome"}, [], ["a.c"]),
    (["-flags"], {"mode": "flags"}, [], []),
    # CI
    (["--cache-dir", "obs-cache", "--trace-out", "obs/trace.jsonl",
      "--metrics-out", "obs/metrics.json", "a.c"],
     {"cache_dir": "obs-cache", "trace_out": "obs/trace.jsonl",
      "metrics_out": "obs/metrics.json"}, [], ["a.c"]),
    (["-quiet", "a.c", "b.c"], {"quiet": True}, [], ["a.c", "b.c"]),
    (["-quiet", "--cache-dir", "c", "a.c", "a.h"],
     {"quiet": True, "cache_dir": "c"}, [], ["a.c", "a.h"]),
    # perfbench/workloads.py
    (["--cache-dir", "c", "-quiet", "a.c"],
     {"quiet": True, "cache_dir": "c"}, [], ["a.c"]),
    (["--cache-dir", "f", "--cache-server", "127.0.0.1:7417", "-quiet", "a.c"],
     {"quiet": True, "cache_dir": "f", "cache_server": "127.0.0.1:7417"},
     [], ["a.c"]),
    (["--no-cache", "--cache-server", "unix:/s", "-quiet", "a.c"],
     {"quiet": True, "no_cache": True, "cache_server": "unix:/s"}, [], ["a.c"]),
    # the tests
    (["+gcmode", "a.c"], {}, ["+gcmode"], ["a.c"]),
    (["-mustfree", "-memtrans", "a.c"], {}, ["-mustfree", "-memtrans"], ["a.c"]),
    (["--cache-dir", "c", "--no-cache", "a.c"],
     {"cache_dir": "c", "no_cache": True}, [], ["a.c"]),
    (["-stats", "--cache-dir", "c", "a.c"],
     {"stats": True, "cache_dir": "c"}, [], ["a.c"]),
    (["--cache-dir", "c", "-dump", "lib.lcd", "a.c"],
     {"dump": "lib.lcd", "cache_dir": "c"}, [], ["a.c"]),
    (["-quiet", "-trace", "f", "a.c"], {"trace": "f", "quiet": True}, [], ["a.c"]),
    (["-quiet", "-load", "lib.lcd", "a.c"],
     {"load": ["lib.lcd"], "quiet": True}, [], ["a.c"]),
    (["--cache-dir", "c", "--trace-out", "t.jsonl", "--metrics-out", "m.json",
      "a.c"],
     {"cache_dir": "c", "trace_out": "t.jsonl", "metrics_out": "m.json"},
     [], ["a.c"]),
    (["--trace-out", "t", "--trace-format", "xml", "a.c"],
     {"trace_out": "t", "trace_format": "xml"}, [], ["a.c"]),
    (["--cache-dir", "c", "--cache-server", "127.0.0.1:1", "a.c"],
     {"cache_dir": "c", "cache_server": "127.0.0.1:1"}, [], ["a.c"]),
    # the modes end the walk where they stand
    (["--help"], {"mode": "help"}, [], []),
    (["-h"], {"mode": "help"}, [], []),
    (["-help"], {"mode": "help"}, [], []),
    (["a.c", "--help", "-dump"], {"mode": "help"}, [], ["a.c"]),
    (["-flags", "a.c"], {"mode": "flags"}, [], []),
    (["--daemon", "a.c"], {"mode": "--daemon"}, [], []),
    (["-daemon"], {"mode": "--daemon"}, [], []),
    (["--serve"], {"mode": "--serve"}, [], []),
    (["-serve", "a.c"], {"mode": "--serve"}, [], []),
    # removed options are LCLint flag arguments, which Flags rejects
    (["--jobs", "2", "a.c"], {}, ["--jobs"], ["2", "a.c"]),
    (["--jobs=2", "a.c"], {}, ["--jobs=2"], ["a.c"]),
    (["-j", "2", "a.c"], {}, ["-j"], ["2", "a.c"]),
    (["--shard-strategy", "size", "a.c"], {}, ["--shard-strategy"], ["size", "a.c"]),
    (["-definitelynotaflag", "a.c"], {}, ["-definitelynotaflag"], ["a.c"]),
    # every spelling of every option
    (["--cache-dir=c", "a.c"], {"cache_dir": "c"}, [], ["a.c"]),
    (["-cache-dir", "c", "a.c"], {"cache_dir": "c"}, [], ["a.c"]),
    (["-cache", "a.c"], {"cache_dir": ".pylclint-cache"}, [], ["a.c"]),
    (["-no-cache", "a.c"], {"no_cache": True}, [], ["a.c"]),
    (["-cache-server", "h:1", "a.c"], {"cache_server": "h:1"}, [], ["a.c"]),
    (["--cache-server=h:1", "a.c"], {"cache_server": "h:1"}, [], ["a.c"]),
    (["-trace-out", "t", "a.c"], {"trace_out": "t"}, [], ["a.c"]),
    (["--trace-out=t", "a.c"], {"trace_out": "t"}, [], ["a.c"]),
    (["-trace-format", "chrome", "a.c"], {"trace_format": "chrome"}, [], ["a.c"]),
    (["--trace-format=chrome", "a.c"], {"trace_format": "chrome"}, [], ["a.c"]),
    (["-metrics-out", "m", "a.c"], {"metrics_out": "m"}, [], ["a.c"]),
    (["--metrics-out=m", "a.c"], {"metrics_out": "m"}, [], ["a.c"]),
    (["-profile", "a.c"], {"profile": True}, [], ["a.c"]),
    (["-load", "a.lcd", "-load", "b.lcd", "a.c"],
     {"load": ["a.lcd", "b.lcd"]}, [], ["a.c"]),
    (["-dump", "-x", "a.c"], {"dump": "-x"}, [], ["a.c"]),
    (["-dump", "--help", "a.c"], {"dump": "--help"}, [], ["a.c"]),
    (["-trace=f", "a.c"], {}, ["-trace=f"], ["a.c"]),
    (["-cache-dir=c", "a.c"], {}, ["-cache-dir=c"], ["a.c"]),
    (["-", "a.c"], {}, [], ["-", "a.c"]),
    (["--", "a.c"], {}, ["--"], ["a.c"]),
    (["+", "a.c"], {}, [], ["+", "a.c"]),
    (["--cache-dir=", "a.c"], {"cache_dir": ""}, [], ["a.c"]),
    (["--cache-dir", "a=b", "a.c"], {"cache_dir": "a=b"}, [], ["a.c"]),
    ([], {}, [], []),
]

#: Spellings the driver rejected as unknown flags and now parses.
DRIVER_NOW_PARSE = [
    (["--dump", "lib.lcd", "a.c"], {"dump": "lib.lcd"}, [], ["a.c"]),
    (["--dump=lib.lcd", "a.c"], {"dump": "lib.lcd"}, [], ["a.c"]),
    (["--stats", "a.c"], {"stats": True}, [], ["a.c"]),
    (["--quiet", "--load", "x.lcd", "--dot=f", "--trace", "g", "a.c"],
     {"load": ["x.lcd"], "dot": "f", "trace": "g", "quiet": True}, [], ["a.c"]),
]


def _driver(argv):
    return cli.parse_args(argv)


class TestDriverSpellings:
    @pytest.mark.parametrize(
        "argv, settings, flag_args, paths",
        DRIVER_SPELLINGS + DRIVER_NOW_PARSE,
    )
    def test_parses_to_the_same_settings(self, argv, settings, flag_args, paths):
        if "mode" in settings:
            assert _driver(argv)[0] == settings
        else:
            assert _driver(argv) == (settings, flag_args, paths)

    @pytest.mark.parametrize("option", [
        "-dump", "-load", "-dot", "-trace", "--cache-dir", "--cache-server",
        "--trace-out", "--trace-format", "--metrics-out",
    ])
    def test_a_missing_value_is_a_usage_error(self, option, capsys):
        assert cli.main([option]) == 2
        assert f"{option} requires a value" in capsys.readouterr().err

    def test_a_switch_given_a_value_is_a_usage_error(self, capsys):
        assert cli.main(["--stats=1", "a.c"]) == 2
        assert "--stats takes no value" in capsys.readouterr().err

    def test_double_dash_dump_and_stats_run(self, tmp_path, capsys):
        source = tmp_path / "a.c"
        source.write_text("int f(void) { return 0; }\n")
        lib = tmp_path / "a.lcd"
        assert cli.main(["--stats", "--dump", str(lib), str(source)]) == 0
        out = capsys.readouterr().out
        assert "functions checked: 1" in out
        assert lib.stat().st_size > 0


# -- repro difftest ----------------------------------------------------------

#: argv -> the settings that differ from the defaults.
DIFFTEST_SPELLINGS = [
    # README, docs/ and CI
    (["--seeds", "50", "--metrics-out", "difftest-metrics.json"],
     {"metrics_out": "difftest-metrics.json"}),
    (["--seeds", "200", "--jobs", "4"], {"seeds": 200, "jobs": 4}),
    (["--replay"], {"replay": "all"}),
    (["--seeds", "60", "--jobs", "2", "--corpus", "difftest-corpus"],
     {"seeds": 60, "jobs": 2}),
    (["--seeds", "20", "--no-corpus", "--metrics-out",
      "obs/difftest-metrics.json"],
     {"seeds": 20, "corpus_dir": None, "metrics_out": "obs/difftest-metrics.json"}),
    (["--seeds", "24", "--jobs", "2", "--corpus", "d", "-usereleased"],
     {"seeds": 24, "jobs": 2, "corpus_dir": "d", "flag_args": ("-usereleased",)}),
    (["--replay", "--corpus", "d", "-usereleased"],
     {"corpus_dir": "d", "replay": "all", "flag_args": ("-usereleased",)}),
    (["--seeds", "200", "--jobs", "2", "--no-corpus"],
     {"seeds": 200, "jobs": 2, "corpus_dir": None}),
    # the tests, and every spelling of every option
    (["--seeds", "2", "--no-corpus"], {"seeds": 2, "corpus_dir": None}),
    (["--replay", "case.json"], {"replay": "case.json"}),
    (["--replay", "+gcmode"], {"replay": "all", "flag_args": ("+gcmode",)}),
    (["--replay", "all", "--corpus=d"], {"corpus_dir": "d", "replay": "all"}),
    (["--jobs", "2"], {"jobs": 2}),
    (["--jobs=2"], {"jobs": 2}),
    (["-j", "2"], {"jobs": 2}),
    (["--seeds=3"], {"seeds": 3}),
    (["--coverage", "0.25"], {"coverage": 0.25}),
    (["--coverage=1"], {"coverage": 1.0}),
    (["--max-steps", "1000"], {"max_steps": 1000}),
    (["--max-steps=5"], {"max_steps": 5}),
    (["--corpus=d"], {"corpus_dir": "d"}),
    (["--no-shrink"], {"shrink": False}),
    (["--quiet"], {"quiet": True}),
    (["--metrics-out=m"], {"metrics_out": "m"}),
    (["--help"], {"help": True}),
    (["-h"], {"help": True}),
    (["-help"], {"help": True}),
    (["--seeds", "5", "--help", "bogus"], {"seeds": 5, "help": True}),
    (["+gcmode", "-usereleased", "--seeds", "2"],
     {"seeds": 2, "flag_args": ("+gcmode", "-usereleased")}),
    (["--seeds", "1", "-notarealflag"],
     {"seeds": 1, "flag_args": ("-notarealflag",)}),
]

#: Spellings the subcommand rejected and now parses.
DIFFTEST_NOW_PARSE = [
    (["-seeds", "3"], {"seeds": 3}),
    (["-jobs", "2", "-corpus", "d", "-quiet"],
     {"jobs": 2, "corpus_dir": "d", "quiet": True}),
    (["--replay=case.json"], {"replay": "case.json"}),
]


def _difftest(argv):
    """Every setting a command line leaves the campaign with."""
    opts = dict(difftest_cli.parse_args(argv))
    extra = {
        k: opts.pop(k, None) for k in ("help", "replay", "quiet", "metrics_out")
    }
    return {**dataclasses.asdict(CampaignConfig(**opts)), **extra}


class TestDifftestSpellings:
    @pytest.mark.parametrize(
        "argv, settings", DIFFTEST_SPELLINGS + DIFFTEST_NOW_PARSE
    )
    def test_parses_to_the_same_settings(self, argv, settings):
        assert _difftest(argv) == {**_difftest([]), **settings}

    @pytest.mark.parametrize("argv, message", [
        (["--seeds", "zero"], "--seeds expects an integer, got 'zero'"),
        (["--coverage", "1.5"], "--coverage expects a value in [0, 1]"),
        (["--coverage", "x"], "--coverage expects a number, got 'x'"),
        (["--jobs", "abc"], "--jobs expects an integer, got 'abc'"),
        (["--jobs", "0"], "--jobs expects a value >= 1"),
        (["--max-steps", "0"], "--max-steps expects a value >= 1"),
        (["--seeds"], "--seeds requires a value"),
        (["bogus-positional"], "unexpected argument 'bogus-positional'"),
        (["--no-shrink=1"], "--no-shrink takes no value"),
    ])
    def test_usage_errors(self, argv, message):
        with pytest.raises(difftest_cli.DifftestCliError) as info:
            difftest_cli.parse_args(argv)
        assert str(info.value) == message


# -- the servers -------------------------------------------------------------

_SERVERS = {
    "service": CheckingService.OPTIONS,
    "cache": CacheServer.OPTIONS,
    "daemon": DaemonServer.OPTIONS,
}

#: (server, argv) -> constructor settings.
SERVER_SPELLINGS = [
    # README, docs/ and perfbench/workloads.py
    ("service", ["--addr", "127.0.0.1:7317", "--cache-dir", "/tmp/cc"],
     {"cache_dir": "/tmp/cc", "host": "127.0.0.1", "port": 7317}),
    ("service", ["--addr", "127.0.0.1:0", "--workers", "1", "--cache-dir", "d"],
     {"workers": 1, "cache_dir": "d", "host": "127.0.0.1", "port": 0}),
    ("cache", ["--cache-dir", "/tmp/cc", "--addr", "127.0.0.1:7417"],
     {"cache_dir": "/tmp/cc", "host": "127.0.0.1", "port": 7417}),
    ("cache", ["--cache-dir", "d", "--addr", "127.0.0.1:0"],
     {"cache_dir": "d", "host": "127.0.0.1", "port": 0}),
    # the tests, and every spelling of every option
    ("service", ["--cache-dir=/c", "-workers", "3", "--workers", "0",
                 "--max-inflight=7", "--request-timeout", "1.5"],
     {"cache_dir": "/c", "workers": 1, "max_inflight": 7,
      "request_timeout": 1.5}),
    ("service", ["--request-timeout", "0", "--max-inflight", "64", "--no-cache"],
     {"request_timeout": None, "max_inflight": 64, "cache_dir": None}),
    ("service", ["--addr", "unix:/s"], {"unix_path": "/s", "port": None}),
    ("service", ["--addr", "unix:/s", "-addr", "h:1", "--addr=h:2"],
     {"unix_path": "/s", "host": "h", "port": 2}),
    ("service", ["--addr", "h:1", "--addr", "unix:/s"],
     {"host": "h", "port": 1, "unix_path": "/s"}),
    ("daemon", ["--cache-dir", "d"], {"cache_dir": "d"}),
    ("daemon", ["--no-cache"], {"cache_dir": None}),
    ("daemon", ["--cache-dir", "/c", "--no-cache"], {"cache_dir": None}),
]


class TestServerSpellings:
    @pytest.mark.parametrize("server, argv, settings", SERVER_SPELLINGS)
    def test_parses_to_the_same_settings(self, server, argv, settings):
        assert parse_options(argv, _SERVERS[server]) == settings

    @pytest.mark.parametrize("server, argv, message", [
        ("service", ["--workers", "abc"],
         "--workers expects an integer, got 'abc'"),
        ("service", ["--request-timeout", "soon"],
         "--request-timeout expects a number, got 'soon'"),
        ("service", ["--no-cache=1"], "--no-cache takes no value"),
        ("service", ["--jobs=2"], "unknown option '--jobs'"),
        ("cache", ["--no-cache"], "unknown option '--no-cache'"),
    ])
    def test_usage_errors(self, server, argv, message):
        with pytest.raises(ValueError) as info:
            parse_options(argv, _SERVERS[server])
        assert str(info.value) == message
