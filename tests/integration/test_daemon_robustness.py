"""The daemon must answer an error reply — and keep serving — no matter
what one request throws at it: malformed JSON, oversized lines, inputs
that crash the checker internals."""

import io
import json
import tracemalloc

from repro.core.api import ensure_process_initialized
from repro.incremental.server import DaemonServer, MAX_REQUEST_BYTES
from repro.obs.metrics import GLOBAL_METRICS


def _serve(tmp_path, lines):
    stdin = io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))
    stdout = io.StringIO()
    server = DaemonServer(
        cache_dir=str(tmp_path / "cache"), stdin=stdin, stdout=stdout
    )
    assert server.serve() == 0
    return server, [json.loads(l) for l in stdout.getvalue().splitlines()]


def _good_request(tmp_path):
    src = tmp_path / "ok.c"
    src.write_text("int f(int x) { return x + 1; }\n")
    return json.dumps(["-quiet", str(src)])


class TestDaemonRobustness:
    def test_malformed_json_gets_error_reply_and_daemon_lives(self, tmp_path):
        _, replies = _serve(tmp_path, [
            "[this is not json",
            _good_request(tmp_path),
            "shutdown",
        ])
        assert replies[1]["status"] == 2
        assert "malformed" in replies[1]["error"]
        assert replies[2]["status"] == 0  # next request served normally
        assert replies[-1]["bye"] is True

    def test_oversized_request_rejected_not_fatal(self, tmp_path):
        huge = "[" + "\"x\"," * (MAX_REQUEST_BYTES // 4) + "\"x\"]"
        assert len(huge) > MAX_REQUEST_BYTES
        _, replies = _serve(tmp_path, [
            huge,
            _good_request(tmp_path),
            "shutdown",
        ])
        assert replies[1]["status"] == 2
        assert "too large" in replies[1]["error"]
        assert replies[2]["status"] == 0
        assert replies[-1]["bye"] is True

    def test_huge_line_costs_bounded_memory(self):
        # The line is dropped as it streams in: the shim never holds it.
        size = 64 << 20
        stdin = io.BytesIO(b"x" * size + b"\nshutdown\n")
        stdout = io.StringIO()
        server = DaemonServer(cache_dir=None, stdin=stdin, stdout=stdout)
        ensure_process_initialized()
        tracemalloc.start()
        try:
            assert server.serve() == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        replies = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert replies[1]["kind"] == "oversized"
        assert f"({size} bytes;" in replies[1]["error"]
        assert peak < 8 << 20

    def test_requests_count_on_the_daemon_counters(self, tmp_path):
        names = ("total", "rejected.protocol", "rejected.oversized")
        before = {n: GLOBAL_METRICS.count(f"daemon.requests.{n}")
                  for n in names}
        _serve(tmp_path, [
            "[this is not json",
            "x" * (MAX_REQUEST_BYTES + 1),
            _good_request(tmp_path),
            "shutdown",
        ])
        after = {n: GLOBAL_METRICS.count(f"daemon.requests.{n}")
                 for n in names}
        # An oversized line is never parsed, so it is not in the total.
        assert {n: after[n] - before[n] for n in names} == {
            "total": 2, "rejected.protocol": 1, "rejected.oversized": 1,
        }

    def test_internal_error_reply_is_status_3(self, tmp_path, monkeypatch):
        from repro.driver import cli

        original = cli.run

        def sometimes_broken(argv, cache=None):
            if any("trigger.c" in a for a in argv):
                raise RuntimeError("checker blew up")
            return original(argv, cache=cache)

        monkeypatch.setattr(cli, "run", sometimes_broken)
        trigger = tmp_path / "trigger.c"
        trigger.write_text("int x;\n")
        server, replies = _serve(tmp_path, [
            json.dumps([str(trigger)]),
            _good_request(tmp_path),
            "shutdown",
        ])
        assert replies[1]["status"] == 3
        assert "internal error" in replies[1]["error"]
        assert "RuntimeError" in replies[1]["error"]
        assert replies[2]["status"] == 0  # daemon survived
        assert server.stats.errors == 1
        assert replies[-1]["errors"] == 1

    def test_contained_unit_crash_reported_in_stats(self, tmp_path,
                                                    monkeypatch):
        # A crash *inside* per-function analysis is contained by the
        # checking layer itself: the daemon reply is a normal status-3
        # run with output, not an error reply.
        from repro.analysis.checker import FunctionChecker

        def boom(self):
            raise RuntimeError("injected")

        monkeypatch.setattr(FunctionChecker, "check", boom)
        src = tmp_path / "boom.c"
        src.write_text("void f(void) { }\n")
        _, replies = _serve(tmp_path, [
            json.dumps(["-quiet", "--cache-dir", str(tmp_path / "cache"),
                        str(src)]),
            "shutdown",
        ])
        assert replies[1]["status"] == 3
        assert "Internal error" in replies[1]["output"]
        assert replies[1]["stats"]["internal_errors"] == 1
        assert replies[1]["stats"]["degraded_units"] == 1
