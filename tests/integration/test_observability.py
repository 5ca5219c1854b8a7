"""End-to-end observability: traces, metrics, and the untouched default.

The acceptance bar: a traced run of the db example produces properly
nested batch > stage > unit > phase > function spans plus a metrics dump with
non-zero cache and phase counters, while a run *without* ``--trace-out``
is byte-identical to a traced one.
"""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.driver.cli import CliError, run
from repro.flags.registry import Flags
from repro.incremental import DaemonServer, IncrementalChecker, ResultCache
from repro.obs import MemorySink, Tracer

DB_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "db")


@pytest.fixture()
def db_paths(tmp_path):
    paths = []
    for name, text in db_sources(1).items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return sorted(paths)


def _read_events(path):
    return [json.loads(line) for line in
            path.read_text().strip().splitlines()]


def _example_db() -> dict[str, str]:
    files = {}
    for name in sorted(os.listdir(DB_DIR)):
        if name.endswith((".c", ".h")):
            with open(os.path.join(DB_DIR, name), encoding="utf-8") as handle:
                files[name] = handle.read()
    return files


def _span_tree(events) -> list[tuple]:
    """Spans as nested ``(name, cat, args, children)`` in the order they
    opened, leaving out the cache and fingerprint phases."""
    children: dict = {}
    for event in sorted(events, key=lambda e: e["id"]):
        if event["cat"] == "phase" and event["name"] in ("cache",
                                                         "fingerprint"):
            continue
        children.setdefault(event["parent"], []).append(event)

    def node(event):
        return (
            event["name"], event["cat"],
            sorted(event.get("args", {}).items()),
            [node(child) for child in children.get(event["id"], [])],
        )

    return [node(root) for root in children.get(None, [])]


class TestTraceOutput:
    def test_spans_nest_batch_unit_phase_function(self, db_paths, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        status, _ = run(
            ["--cache-dir", str(tmp_path / "cache"),
             "--trace-out", str(trace),
             "--metrics-out", str(metrics)] + db_paths
        )
        assert status in (0, 1)
        events = _read_events(trace)
        by_id = {e["id"]: e for e in events}
        by_cat: dict = {}
        for event in events:
            by_cat.setdefault(event["cat"], []).append(event)

        batches = by_cat.get("batch", [])
        assert len(batches) == 1
        batch_id = batches[0]["id"]
        assert batches[0]["parent"] is None

        # A cold run goes through every engine stage once, in order.
        stages = by_cat.get("stage", [])
        assert [e["name"] for e in sorted(stages, key=lambda e: e["id"])] \
            == ["plan", "probe", "symtab", "check", "write"]
        assert all(e["parent"] == batch_id for e in stages)
        stage_ids = {e["name"]: e["id"] for e in stages}

        units = by_cat.get("unit", [])
        assert len(units) >= len(db_paths)
        analyze_ids = {
            e["id"] for e in by_cat.get("phase", []) if e["name"] == "analyze"
        }
        for unit in units:
            assert unit["parent"] in (
                stage_ids["probe"], stage_ids["check"]
            ) or unit["parent"] in analyze_ids

        unit_ids = {u["id"] for u in units}
        phases = by_cat.get("phase", [])
        # lex events stream out before their preprocess parent closes, so
        # collect parent ids before checking containment.
        preprocess_ids = {
            e["id"] for e in phases if e["name"] == "preprocess"
        }
        for event in phases:
            if event["name"] in ("preprocess", "parse"):
                assert event["parent"] in unit_ids, event
            elif event["name"] == "lex":
                assert event["parent"] in preprocess_ids, event
            elif event["name"] == "analyze":
                assert event["parent"] == stage_ids["check"]

        functions = by_cat.get("function", [])
        assert functions, "expected per-function spans in an emitting trace"
        for event in functions:
            assert event["parent"] in unit_ids
            assert by_id[event["parent"]]["args"].get("stage") == "analyze"

    def test_warm_run_has_no_symtab_or_check_stage(self, db_paths, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert run(cache + db_paths)[0] in (0, 1)
        trace = tmp_path / "warm.jsonl"
        assert run(cache + ["--trace-out", str(trace)] + db_paths)[0] \
            in (0, 1)
        events = _read_events(trace)
        stages = sorted(
            (e for e in events if e["cat"] == "stage"), key=lambda e: e["id"]
        )
        assert [e["name"] for e in stages] == ["plan", "probe", "write"]
        assert not [e for e in events if e["cat"] == "unit"]

    def test_metrics_dump_has_cache_and_phase_counters(
        self, db_paths, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        status, _ = run(
            ["--cache-dir", str(tmp_path / "cache"),
             "--metrics-out", str(metrics)] + db_paths
        )
        assert status in (0, 1)
        payload = json.loads(metrics.read_text())
        counters = payload["counters"]
        assert counters.get("engine.runs", 0) >= 1
        assert counters.get("engine.units", 0) >= len(db_paths)
        assert counters.get("cache.result.miss", 0) >= len(db_paths)
        assert payload["histograms"].get("engine.run_s", {}).get("count", 0) \
            >= 1

    def test_chrome_export_is_loadable_shape(self, db_paths, tmp_path):
        trace = tmp_path / "trace.json"
        status, _ = run(
            ["--trace-out", str(trace), "--trace-format", "chrome"]
            + db_paths
        )
        assert status in (0, 1)
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events
        assert all(e["ph"] == "X" for e in events)
        assert all("span_id" in e["args"] for e in events)

    def test_unknown_trace_format_is_a_usage_error(self, db_paths, tmp_path):
        with pytest.raises(CliError):
            run(["--trace-out", str(tmp_path / "t"),
                 "--trace-format", "xml"] + db_paths)


class TestOneDriver:
    """Checker is the engine with no cache: it runs the same stages,
    and a run skips the keys, digests and cache traffic nothing reads."""

    def test_checker_emits_the_cold_cached_span_tree(self, tmp_path):
        plain, cached = MemorySink(), MemorySink()
        Checker(tracer=Tracer(plain)).check_sources(_example_db())
        IncrementalChecker(
            cache=ResultCache(str(tmp_path / "cache")), tracer=Tracer(cached)
        ).check_sources(_example_db())
        tree = _span_tree(plain.events)
        assert tree == _span_tree(cached.events)
        [(name, _, _, stages)] = tree
        assert name == "batch"
        assert [s[0] for s in stages] == \
            ["prelude", "plan", "probe", "symtab", "check", "write"]
        probe = stages[2][3]
        assert {child[0] for child in probe} == {"unit"}
        assert [p[0] for p in probe[0][3]] == \
            ["preprocess", "parse", "symtab"]
        [analyze] = stages[4][3]
        functions = [f for unit in analyze[3] for f in unit[3]]
        assert functions and {f[1] for f in functions} == {"function"}

    def test_plain_run_computes_no_keys_or_digests(
        self, tmp_path, monkeypatch
    ):
        from repro.incremental import engine

        calls = []
        for name in ("source_key", "unit_digests"):
            def counting(*args, _original=getattr(engine, name), _name=name,
                         **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counting)
        Checker().check_sources(_example_db())
        assert calls == []
        IncrementalChecker(
            cache=ResultCache(str(tmp_path / "cache"))
        ).check_sources(_example_db())
        assert set(calls) == {"source_key", "unit_digests"}

    def test_difftest_counts_runs_but_no_cache_traffic(self, tmp_path):
        metrics = tmp_path / "m.json"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "difftest", "--seeds", "3",
             "--no-corpus", "--metrics-out", str(metrics)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("engine.runs", 0) >= 3
        assert [k for k in counters if k.startswith("cache.")] == []


class TestDefaultPathUntouched:
    @pytest.mark.parametrize("stats", [[], ["-stats"]])
    def test_output_identical_with_and_without_tracing(
        self, db_paths, tmp_path, stats
    ):
        plain_status, plain_out = run(stats + db_paths)
        traced_status, traced_out = run(
            stats
            + ["--trace-out", str(tmp_path / "trace.jsonl"),
               "--metrics-out", str(tmp_path / "metrics.json")] + db_paths
        )
        assert traced_status == plain_status
        assert traced_out == plain_out
        assert "incremental statistics:" not in traced_out


class TestDaemonMetricsVerb:
    def test_metrics_request_reports_registry_snapshot(self, tmp_path):
        paths = []
        for name, text in db_sources(1).items():
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        request = json.dumps(["-quiet"] + sorted(paths))
        stdin = io.BytesIO((request + "\nmetrics\nshutdown\n").encode("utf-8"))
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "cache"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        reply = lines[2]
        assert reply["status"] == 0
        counters = reply["metrics"]["counters"]
        assert counters.get("daemon.requests.metrics", 0) >= 1
        assert counters.get(f"daemon.requests.status.{lines[1]['status']}",
                            0) >= 1
        assert counters.get("engine.runs", 0) >= 1


class TestDroppedEntrySurfacing:
    def test_corrupt_memo_becomes_a_run_note(self, tmp_path):
        files = db_sources(1)
        root = str(tmp_path / "cache")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
        units_dir = os.path.join(root, "units")
        victims = os.listdir(units_dir)
        assert victims
        with open(os.path.join(units_dir, victims[0]), "wb") as handle:
            handle.write(b"\x00 corrupt")
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(dict(files))
        assert any("dropped 1 corrupt" in note for note in
                   engine.stats.notes)


class TestDifftestMetrics:
    def test_campaign_metrics_out(self, tmp_path):
        from repro.difftest.cli import run_difftest

        metrics = tmp_path / "difftest-metrics.json"
        status, _ = run_difftest(
            ["--seeds", "3", "--no-corpus", "--quiet",
             "--metrics-out", str(metrics)]
        )
        assert status in (0, 1)
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("difftest.variants", 0) >= 3


class TestProfileRows:
    def test_a_unit_parsed_for_its_slice_is_counted_once(self, tmp_path):
        # Every memo slice garbled and a flag flipped, so every result
        # misses and the symtab stage parses each unit again: the
        # preprocess and parse rows count that work, the symtab row not.
        files = _example_db()
        root = str(tmp_path / "cache")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
        cache = ResultCache(root)
        keys = [n[:-4] for n in os.listdir(os.path.join(root, "units"))]
        assert len(keys) == 6
        for key in keys:
            cache.put_unit_memo(key, dataclasses.replace(
                cache.get_unit_memo(key), iface_pickle=b"garbled"
            ))
        checker = IncrementalChecker(
            flags=Flags.from_args(["-mustfree"]), cache=ResultCache(root)
        )
        checker.check_sources(dict(files))
        stats = checker.stats
        assert (stats.memo_hits, stats.cache_misses) == (6, 6)
        assert any("dropped 6 corrupt" in note for note in stats.notes)
        timings = stats.phase_timings()
        assert sum(timings[p] for p in stats.PHASES) <= timings["total"]


class TestProfileCollector:
    def test_cold_profile_run_prints_the_collector_line(self, tmp_path):
        paths = sorted(
            os.path.join(DB_DIR, name) for name in _example_db()
        )
        status, output = run(
            ["--profile", "--cache-dir", str(tmp_path / "cache"), "-quiet",
             *paths]
        )
        assert status == 0
        lines = output.splitlines()
        total = next(
            i for i, line in enumerate(lines)
            if line.startswith("  total ")
        )
        assert re.fullmatch(
            r"  collector:   \d+ collection\(s\) \[\d+, \d+, \d+\], "
            r"\d+\.\d ms, \d+ found \(inside the phases above\)",
            lines[total + 1],
        ), lines[total + 1]

    def test_the_run_counts_collections_and_removes_its_hook(
        self, monkeypatch
    ):
        import gc

        hooks = list(gc.callbacks)
        checker = Checker()
        original = checker._check

        def collecting(run, misses):
            cycle = []
            cycle.append(cycle)
            del cycle
            gc.collect()  # a full collection that finds the list
            original(run, misses)

        monkeypatch.setattr(checker, "_check", collecting)
        checker.check_sources(db_sources(1))
        stats = checker.stats
        assert stats.gc_generations[2] >= 1
        assert stats.gc_collections == sum(stats.gc_generations)
        assert stats.gc_found >= 1
        assert stats.gc_s > 0
        assert gc.callbacks == hooks
