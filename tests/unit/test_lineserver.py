"""The line-server core: push-style framing, the one option table behind
``--serve``, ``--daemon`` and the cache service, the background-thread
runner, and the servers launched as programs."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.driver.cli import main
from repro.incremental.cacheserver import CacheServer, run_cache_server
from repro.incremental.server import DaemonServer, run_daemon
from repro.service.client import ServiceClient
from repro.service.lineserver import (
    CannotStart,
    LineServerThread,
    parse_options,
)
from repro.service import protocol
from repro.service.protocol import LineFramer
from repro.service.server import CheckingService, run_service

SRC = os.path.dirname(os.path.dirname(repro.__file__))


# -- framing -----------------------------------------------------------------


def _frame(chunks, max_bytes):
    framer = LineFramer(max_bytes)
    events = []
    for chunk in chunks:
        events.extend(framer.feed(chunk))
    return events + framer.close()


_STREAMS = st.lists(
    st.one_of(
        st.binary(max_size=12),
        st.just(b"\n"),
        st.just(b"\xff"),
        st.just("é".encode("utf-8")),
    ),
    max_size=12,
).map(b"".join)


class TestLineFramer:
    @settings(max_examples=200, deadline=None)
    @given(data=_STREAMS, cuts=st.lists(st.integers(0, 200), max_size=6))
    def test_chunking_never_changes_the_lines(self, data, cuts):
        bounds = sorted({min(cut, len(data)) for cut in cuts})
        chunks = [data[a:b] for a, b in zip([0] + bounds, bounds + [len(data)])]
        # The kept prefix is shorter than the cap, as it is at real caps.
        with mock.patch.object(protocol, "_OVERSIZE_KEEP", 4):
            assert _frame(chunks, max_bytes=8) == _frame([data], max_bytes=8)

    def test_oversized_line_spanning_chunks_reports_its_size(self):
        line = b'{"id": 5, "argv": ["' + b"x" * 9000
        chunks = [line[:10], line[10:6000], line[6000:] + b'"]}\nok\n']
        assert _frame(chunks, 5000) == [
            ("oversized", (line[:4096].decode(), len(line) + 3)),
            ("line", "ok"),
        ]

    def test_final_unterminated_line_is_kept_and_blank_tail_dropped(self):
        assert _frame([b"a\nb"], 16) == [("line", "a"), ("line", "b")]
        assert _frame([b"a\n  "], 16) == [("line", "a")]
        assert _frame([b"x" * 20], 16) == [("oversized", ("x" * 20, 20))]

    def test_cap_counts_bytes_and_bad_utf8_is_replaced(self):
        assert _frame(["é".encode("utf-8") * 4 + b"\n"], 8) == [
            ("line", "éééé"),
        ]
        assert _frame(["é".encode("utf-8") * 4 + b"!\n"], 8)[0][0] == (
            "oversized"
        )
        assert _frame([b"\xff\xfe.c\n"], 8) == [("line", "��.c")]


# -- the option table --------------------------------------------------------


class TestOptionTable:
    def test_spellings(self):
        assert parse_options(
            ["--cache-dir=/c", "-workers", "3", "--workers", "0",
             "--max-inflight=7", "--request-timeout", "1.5"],
            CheckingService.OPTIONS,
        ) == {
            "cache_dir": "/c", "workers": 1, "max_inflight": 7,
            "request_timeout": 1.5,
        }
        assert parse_options(
            ["--cache-dir", "/c", "--no-cache"], DaemonServer.OPTIONS
        ) == {"cache_dir": None}

    def test_addresses(self):
        assert parse_options(["--addr", "unix:/s"], ("addr",)) == {
            "unix_path": "/s", "port": None,
        }
        assert parse_options(
            ["--addr", "unix:/s", "-addr", "h:1", "--addr=h:2"], ("addr",)
        ) == {"unix_path": "/s", "host": "h", "port": 2}

    @pytest.mark.parametrize("entry, argv, message", [
        (run_service, ["--workers"], "--workers requires a value"),
        (run_service, ["--workers", "abc"], "'abc'"),
        (run_service, ["--addr", "nope"],
         "pylclint: --addr expects HOST:PORT or unix:PATH, got 'nope'"),
        (run_service, ["--bogus"], "unknown option '--bogus'"),
        (run_service, ["stray.c"], "unknown option 'stray.c'"),
        (run_cache_server, ["--workers", "2"], "unknown option '--workers'"),
        (run_cache_server, ["--cache-dir"], "--cache-dir requires a value"),
        (run_daemon, ["--addr", "h:1"], "unknown option '--addr'"),
        (run_daemon, ["--workers", "2"], "unknown option '--workers'"),
        # Checks run in one process, so no server takes a worker count.
        (main, ["--serve", "--jobs", "2"], "unknown option '--jobs'"),
        (main, ["--serve", "-j", "2"], "unknown option '-j'"),
        (main, ["--daemon", "--jobs=2"], "unknown option '--jobs'"),
        (main, ["--daemon", "-j", "2"], "unknown option '-j'"),
    ])
    def test_bad_usage_exits_2_before_serving(
        self, entry, argv, message, capsys
    ):
        assert entry(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry, argv, message", [
        (main, ["--cache-server", "nope", "f.c"],
         "pylclint: --cache-server expects HOST:PORT or unix:PATH, "
         "got 'nope'\n"),
        (main, ["--cache-server=unix:", "f.c"],
         "pylclint: --cache-server expects a socket path after 'unix:'\n"),
        (main, ["--serve", "--addr=nope"],
         "pylclint: --addr expects HOST:PORT or unix:PATH, got 'nope'\n"),
        (run_cache_server, ["-addr", "unix:"],
         "pylclint-cacheserver: -addr expects a socket path after "
         "'unix:'\n"),
        (run_cache_server, ["--addr", "nope"],
         "pylclint-cacheserver: --addr expects HOST:PORT or unix:PATH, "
         "got 'nope'\n"),
    ])
    def test_a_bad_address_names_the_option_given(
        self, entry, argv, message, capsys
    ):
        assert entry(argv) == 2
        assert capsys.readouterr().err == message


# -- the runner --------------------------------------------------------------


class TestLineServerThread:
    def test_close_joins_a_drain_already_under_way(self, tmp_path):
        runner = LineServerThread(CacheServer(cache_dir=str(tmp_path / "c")))
        runner._loop.call_soon_threadsafe(runner.server.drain_soon)
        runner.close()
        assert not runner._thread.is_alive()
        runner.close()  # the loop is gone: nothing to drain or join

    def test_unix_only_server_has_no_tcp_listener(self, tmp_path):
        path = str(tmp_path / "cache.sock")
        runner = LineServerThread(CacheServer(
            cache_dir=str(tmp_path / "c"), port=None, unix_path=path
        ))
        try:
            assert runner.addr == f"unix:{path}"
            assert runner.server.bound_addr is None
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(path)
                assert json.loads(sock.makefile("rb").readline())["ready"]
        finally:
            runner.close()
        assert not os.path.exists(path)


# -- the servers as programs -------------------------------------------------


def _launch(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, **kwargs,
    )


def _announce_then_drain(argv, while_serving=None):
    """The announce line of a server started as a program, after a
    SIGTERM drained it: it must exit 0 with nothing on stderr."""
    proc = _launch(argv)
    try:
        announce = json.loads(proc.stdout.readline())
        if while_serving is not None:
            while_serving(announce)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, out, err) == (0, b"", b"")
    return announce


class TestLaunch:
    def test_cache_server_module(self, tmp_path):
        announce = _announce_then_drain([
            "-m", "repro.incremental.cacheserver",
            "--cache-dir", str(tmp_path / "c"), "--addr", "127.0.0.1:0",
        ])
        assert announce["cacheserver"] is True
        assert "addr" in announce and "unix" not in announce

    def test_daemon_module(self, tmp_path):
        proc = _launch(
            ["-m", "repro.incremental.server",
             f"--cache-dir={tmp_path / 'c'}"],
            stdin=subprocess.PIPE,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            out, err = proc.communicate(b"shutdown\n", timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert ready == {"ready": True, "cache": str(tmp_path / "c")}
        assert json.loads(out)["bye"] is True
        assert (proc.returncode, err) == (0, b"")

    def test_service_unix_address_alone_opens_no_tcp(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        announce = _announce_then_drain([
            "-m", "repro.service", f"--addr=unix:{path}",
            "--no-cache", "--request-timeout", "0",
        ])
        assert announce["unix"] == path
        assert "addr" not in announce
        assert "jobs" not in announce
        assert announce["cache"] is None
        assert announce["request_timeout"] is None

    def test_service_tcp_and_unix_addresses_open_both(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        def both_greet(announce):
            host, port = announce["addr"].rsplit(":", 1)
            for client in (ServiceClient.connect_tcp(host, int(port)),
                           ServiceClient.connect_unix(path)):
                with client:
                    assert client.ready["ready"] is True

        announce = _announce_then_drain([
            "-m", "repro.service", "--addr", "127.0.0.1:0",
            "-addr", f"unix:{path}", "--cache-dir", str(tmp_path / "c"),
        ], both_greet)
        assert announce["unix"] == path


# -- a server that cannot start ----------------------------------------------


@pytest.fixture()
def busy_port():
    """A TCP port this test holds bound and listening."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]


@pytest.fixture()
def a_file(tmp_path):
    """A regular file, given where a cache directory is expected."""
    path = tmp_path / "a-file"
    path.write_text("not a directory\n")
    return str(path)


class TestCannotStart:
    """An unusable cache directory or listen address is usage, not a
    crash: one line on stderr and exit 2 (exit 1 means warnings)."""

    @pytest.mark.parametrize("entry, argv, prog", [
        (run_cache_server, ["--addr", "127.0.0.1:0"], "pylclint-cacheserver"),
        (run_service, ["--addr", "127.0.0.1:0"], "pylclint"),
        (run_daemon, [], "pylclint"),
        (main, ["--serve", "--addr", "127.0.0.1:0"], "pylclint"),
        (main, ["--daemon"], "pylclint"),
        (main, ["f.c"], "pylclint"),
    ])
    def test_a_cache_dir_that_is_a_file(self, entry, argv, prog, a_file,
                                        capsys):
        assert entry(argv + ["--cache-dir", a_file]) == 2
        assert capsys.readouterr().err == (
            f"{prog}: cannot open cache directory {a_file}: Not a directory\n"
        )

    @pytest.mark.parametrize("entry, argv, prog", [
        (run_cache_server, [], "pylclint-cacheserver"),
        (run_service, ["--no-cache"], "pylclint"),
        (main, ["--serve", "--no-cache"], "pylclint"),
    ])
    def test_a_port_already_bound(self, entry, argv, prog, busy_port,
                                  tmp_path, capsys):
        argv = argv + ["--addr", f"127.0.0.1:{busy_port}"]
        if entry is run_cache_server:
            argv += ["--cache-dir", str(tmp_path / "c")]
        assert entry(argv) == 2
        assert capsys.readouterr().err == (
            f"{prog}: cannot listen on 127.0.0.1:{busy_port}: "
            "Address already in use\n"
        )

    @pytest.mark.parametrize("entry, argv, prog", [
        (run_cache_server, [], "pylclint-cacheserver"),
        # The TCP listener binds first, and is closed when the UNIX one
        # cannot bind.
        (run_service, ["--no-cache", "--addr", "127.0.0.1:0"], "pylclint"),
    ])
    def test_a_socket_path_in_a_missing_directory(self, entry, argv, prog,
                                                   tmp_path, capsys):
        path = tmp_path / "missing" / "s.sock"
        argv = argv + ["--addr", f"unix:{path}"]
        if entry is run_cache_server:
            argv += ["--cache-dir", str(tmp_path / "c")]
        assert entry(argv) == 2
        assert capsys.readouterr().err == (
            f"{prog}: cannot listen on unix:{path}: No such file or directory\n"
        )

    def test_a_served_check_with_a_cache_dir_that_is_a_file_is_usage(
        self, a_file
    ):
        reply = protocol.execute_check(
            protocol.Request(verb="check", argv=["--cache-dir", a_file, "f.c"],
                             id=1),
            None,
        )
        assert (reply["kind"], reply["status"]) == ("usage", 2)
        assert reply["error"] == (
            f"cannot open cache directory {a_file}: Not a directory"
        )

    @pytest.mark.parametrize("make", [
        lambda cache_dir, port: CacheServer(cache_dir=cache_dir, port=port),
        lambda cache_dir, port: CheckingService(
            cache_dir=cache_dir, port=port, workers=1
        ),
    ], ids=["cache-server", "checking-service"])
    def test_a_server_thread_that_cannot_bind_raises_at_once(
        self, make, busy_port, tmp_path, capfd
    ):
        server = make(str(tmp_path / "c"), busy_port)
        before = set(threading.enumerate())
        started = time.monotonic()
        with pytest.raises(CannotStart) as raised:
            LineServerThread(server)
        assert time.monotonic() - started < 2
        assert str(raised.value) == (
            f"cannot listen on 127.0.0.1:{busy_port}: Address already in use"
        )
        assert set(threading.enumerate()) <= before
        assert capfd.readouterr().err == ""

    def test_the_cache_server_program_prints_no_traceback(self, tmp_path):
        path = tmp_path / "missing" / "s.sock"
        proc = _launch(["-m", "repro.incremental.cacheserver",
                        "--cache-dir", str(tmp_path / "c"),
                        "--addr", f"unix:{path}"])
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")
        assert err.decode() == (
            f"pylclint-cacheserver: cannot listen on unix:{path}: "
            "No such file or directory\n"
        )
