"""Integration tests for the asyncio checking service: concurrency,
backpressure, deadlines, prioritization, graceful drain, and reply
parity with the one-shot CLI — all over real sockets against an
in-process server."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.driver import cli
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.lineserver import LineServerThread
from repro.service.server import CheckingService

WARNING_SOURCE = (
    "#include <stdlib.h>\n"
    "char *g(void) { char *p = (char *) malloc(8); *p = 'x'; return p; }\n"
)


class _ServiceHandle(LineServerThread):
    """A CheckingService running on its own event-loop thread."""

    @property
    def service(self) -> CheckingService:
        return self.server

    def client(self) -> ServiceClient:
        host, port = self.service.bound_addr.rsplit(":", 1)
        return ServiceClient.connect_tcp(host, int(port))

    def shutdown(self) -> None:
        self.close()

    @property
    def metrics(self) -> MetricsRegistry:
        return self.service.metrics


@pytest.fixture
def start_service(tmp_path):
    handles = []

    def _start(**kwargs) -> _ServiceHandle:
        kwargs.setdefault("cache_dir", str(tmp_path / "svc-cache"))
        kwargs.setdefault("metrics", MetricsRegistry())
        handle = _ServiceHandle(CheckingService(**kwargs))
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.shutdown()


@pytest.fixture
def warning_file(tmp_path):
    src = tmp_path / "warn.c"
    src.write_text(WARNING_SOURCE)
    return str(src)


def _block_until(event: threading.Event, reply=(0, "blocked-done")):
    """A fake ``cli.run`` that parks the worker until *event* is set."""

    def fake_run(argv, cache=None, jobs=None):
        event.wait(30)
        return reply

    return fake_run


class TestServiceBasics:
    def test_ready_line_and_check_matches_one_shot(
        self, start_service, warning_file
    ):
        oracle_status, oracle_output = cli.run(["-quiet", warning_file])
        handle = start_service()
        with handle.client() as client:
            assert client.ready["ready"] is True
            assert client.ready["max_inflight"] == handle.service.max_inflight
            reply = client.check(["-quiet", warning_file], request_id=1)
        assert reply["id"] == 1
        assert reply["status"] == oracle_status
        assert reply["output"] == oracle_output  # byte-identical
        assert reply["stats"]["cache_misses"] >= 1

    def test_unix_socket_transport(self, start_service, tmp_path,
                                    warning_file):
        path = str(tmp_path / "svc.sock")
        handle = start_service(port=None, unix_path=path)
        with ServiceClient.connect_unix(path) as client:
            reply = client.check(["-quiet", warning_file], request_id="u1")
        assert reply["id"] == "u1"
        assert reply["status"] in (0, 1)

    def test_shared_cache_across_sessions(self, start_service, warning_file):
        handle = start_service()
        with handle.client() as first:
            cold = first.check(["-quiet", warning_file], request_id=1)
        with handle.client() as second:
            warm = second.check(["-quiet", warning_file], request_id=2)
        assert cold["output"] == warm["output"]
        assert warm["stats"]["cache_hits"] >= 1
        assert warm["stats"]["cache_misses"] == 0

    def test_session_bye_reports_counts(self, start_service, warning_file):
        handle = start_service()
        with handle.client() as client:
            client.check(["-quiet", warning_file], request_id=1)
            client.send_line('check "unterminated quote')
            error = client.recv_reply()
            assert error["kind"] == "protocol"
            bye = client.shutdown()
        assert bye["bye"] is True
        assert bye["requests"] == 2
        assert bye["errors"] == 1

    def test_metrics_verb_reports_latency_percentiles(
        self, start_service, warning_file
    ):
        handle = start_service()
        with handle.client() as client:
            client.check(["-quiet", warning_file], request_id=1)
            reply = client.metrics(request_id="m")
        assert reply["id"] == "m"
        assert reply["status"] == 0
        assert reply["metrics"]["counters"]["service.requests.admitted"] >= 1
        assert reply["latency"]["count"] >= 1
        assert reply["latency"]["p99_ms"] >= reply["latency"]["p50_ms"]


class TestServiceConcurrency:
    def test_many_concurrent_clients_all_served(
        self, start_service, warning_file
    ):
        oracle_status, oracle_output = cli.run(["-quiet", warning_file])
        handle = start_service(workers=4, max_inflight=256)
        results = {}
        errors = []

        def one_client(index: int) -> None:
            try:
                with handle.client() as client:
                    for n in range(3):
                        request_id = f"c{index}-{n}"
                        reply = client.check(
                            ["-quiet", warning_file], request_id=request_id
                        )
                        results[request_id] = reply
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert len(results) == 16 * 3
        for request_id, reply in results.items():
            assert reply["id"] == request_id
            assert reply["status"] == oracle_status
            assert reply["output"] == oracle_output

    def test_busy_backpressure_with_retry_after(
        self, start_service, monkeypatch
    ):
        release = threading.Event()
        monkeypatch.setattr(cli, "run", _block_until(release))
        handle = start_service(max_inflight=1, workers=1)
        blocker = handle.client()
        try:
            blocker.send_line(json.dumps(
                {"id": "hog", "argv": ["x.c"]}
            ))
            deadline = time.time() + 10
            while (time.time() < deadline
                   and handle.metrics.count("service.requests.admitted") < 1):
                time.sleep(0.01)  # wait for the hog to occupy the slot
            with handle.client() as second:
                reply = second.check(["x.c"], request_id="turned-away")
                assert reply["kind"] == "busy"
                assert reply["status"] == 2
                assert reply["id"] == "turned-away"
                assert reply["retry_after_ms"] >= 1
            release.set()
            assert blocker.recv_reply()["id"] == "hog"
        finally:
            release.set()
            blocker.close()

    def test_queued_deadline_expires_without_running(
        self, start_service, monkeypatch
    ):
        release = threading.Event()
        monkeypatch.setattr(cli, "run", _block_until(release))
        handle = start_service(workers=1, max_inflight=8)
        hog = handle.client()
        victim = handle.client()
        try:
            hog.send_line(json.dumps({"id": "hog", "argv": ["x.c"]}))
            time.sleep(0.2)  # let the hog reach the worker
            victim.send_line(json.dumps(
                {"id": "late", "argv": ["x.c"], "timeout": 0.05}
            ))
            time.sleep(0.3)  # deadline passes while queued
            release.set()
            reply = victim.recv_reply()
            assert reply["id"] == "late"
            assert reply["kind"] == "deadline"
            assert reply["status"] == 3
            assert "queued" in reply["error"]
            assert hog.recv_reply()["id"] == "hog"
        finally:
            release.set()
            hog.close()
            victim.close()

    def test_running_request_cancelled_at_unit_boundary(
        self, start_service, monkeypatch
    ):
        from repro.core.faults import cancel_checkpoint

        def slow_cooperative_run(argv, cache=None, jobs=None):
            for _ in range(500):
                cancel_checkpoint()
                time.sleep(0.01)
            return 0, "never finished"

        monkeypatch.setattr(cli, "run", slow_cooperative_run)
        handle = start_service(workers=1)
        with handle.client() as client:
            reply = client.check(["x.c"], request_id="doomed", timeout=0.2)
        assert reply["id"] == "doomed"
        assert reply["kind"] == "deadline"
        assert reply["status"] == 3
        assert handle.metrics.count("service.requests.timed_out") == 1

    def test_interactive_beats_batch_in_the_queue(
        self, start_service, monkeypatch
    ):
        release = threading.Event()
        started_order = []
        lock = threading.Lock()

        def recording_run(argv, cache=None, jobs=None):
            with lock:
                started_order.append(argv[0])
            release.wait(30)
            return 0, "done"

        monkeypatch.setattr(cli, "run", recording_run)
        handle = start_service(workers=1, max_inflight=16)
        hog = handle.client()
        queued = handle.client()
        try:
            hog.send_line(json.dumps({"id": "hog", "argv": ["hog.c"]}))
            time.sleep(0.2)  # hog occupies the only worker
            queued.send_line(json.dumps(
                {"id": "b", "argv": ["batch.c"], "priority": "batch"}
            ))
            queued.send_line(json.dumps(
                {"id": "i", "argv": ["inter.c"], "priority": "interactive"}
            ))
            time.sleep(0.2)  # both are queued behind the hog
            release.set()
            first = queued.recv_reply()
            second = queued.recv_reply()
            assert first["id"] == "i"
            assert second["id"] == "b"
            assert started_order == ["hog.c", "inter.c", "batch.c"]
        finally:
            release.set()
            hog.close()
            queued.close()


class TestServiceRobustness:
    def test_malformed_line_echoes_recoverable_id(self, start_service):
        handle = start_service()
        with handle.client() as client:
            client.send_line('{"id": "req-7", "argv": ["a.c"')  # truncated
            reply = client.recv_reply()
            assert reply["id"] == "req-7"
            assert reply["kind"] == "protocol"
            assert reply["status"] == 2

    def test_oversized_line_echoes_recoverable_id(self, start_service):
        from repro.service.protocol import MAX_REQUEST_BYTES

        handle = start_service()
        with handle.client() as client:
            huge = ('{"id": 42, "argv": ["'
                    + "x" * (MAX_REQUEST_BYTES + 10) + '"]}')
            client.send_line(huge)
            reply = client.recv_reply()
            assert reply["id"] == 42
            assert reply["kind"] == "oversized"
            # The session survives oversized abuse:
            second = client.metrics(request_id="after")
            assert second["id"] == "after"

    def test_internal_error_contained_to_one_request(
        self, start_service, warning_file, monkeypatch
    ):
        original = cli.run

        def sometimes_broken(argv, cache=None, jobs=None):
            if any("trigger.c" in a for a in argv):
                raise RuntimeError("checker blew up")
            return original(argv, cache=cache, jobs=jobs)

        monkeypatch.setattr(cli, "run", sometimes_broken)
        handle = start_service()
        with handle.client() as client:
            bad = client.check(["trigger.c"], request_id=1)
            good = client.check(["-quiet", warning_file], request_id=2)
        assert bad["status"] == 3
        assert bad["kind"] == "internal"
        assert "RuntimeError" in bad["error"]
        assert good["id"] == 2
        assert "error" not in good

    def test_mid_request_disconnect_is_contained(
        self, start_service, monkeypatch
    ):
        # A client that vanishes mid-request must not take the service
        # (or its worker) with it: the job completes into a dead socket
        # and every other session keeps being served.
        release = threading.Event()
        monkeypatch.setattr(cli, "run", _block_until(release))
        handle = start_service(workers=1)
        doomed = handle.client()
        doomed.send_line(json.dumps({"id": 1, "argv": ["x.c"]}))
        time.sleep(0.2)  # the request reaches the worker
        doomed.close()  # vanish mid-request
        release.set()
        monkeypatch.setattr(
            cli, "run", lambda argv, cache=None, jobs=None: (0, "ok")
        )
        with handle.client() as other:
            reply = other.check(["y.c"], request_id="alive")
        assert reply["id"] == "alive"
        assert reply["status"] == 0

    def test_disconnects_count_on_the_service_registry(self, start_service):
        handle = start_service()
        for _ in range(3):
            client = handle.client()
            # Linger 0: close() resets the connection instead of ending it.
            client.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
        deadline = time.time() + 10
        while (time.time() < deadline
               and handle.metrics.count("service.sessions.disconnected") < 3):
            time.sleep(0.01)
        assert handle.metrics.count("service.sessions.disconnected") == 3

    def test_lines_after_shutdown_do_not_reset_the_session(
        self, start_service
    ):
        # The client may still be writing when its session ends. Closing
        # with those lines unread would reset the connection, and a reset
        # can destroy the replies and the bye before the client reads them.
        handle = start_service()
        for _ in range(30):
            with handle.client() as client:
                for line in ('["shutdown"]', '["zz_no_such_file.c"]',
                             "shutdown"):
                    client.send_line(line)
                replies = []
                while (reply := client.recv_reply()) is not None:
                    replies.append(reply)
            assert replies[0]["shutdown"] is True
            assert replies[-1]["bye"] is True

    def test_drain_sends_bye_then_refuses_connections(
        self, start_service, warning_file
    ):
        handle = start_service()
        client = handle.client()
        try:
            reply = client.check(["-quiet", warning_file], request_id=1)
            assert reply["id"] == 1
            handle.shutdown()
            bye = client.recv_reply()
            assert bye["bye"] is True
            assert bye["requests"] == 1
            host, port = handle.service.bound_addr.rsplit(":", 1)
            with pytest.raises(OSError):
                socket.create_connection((host, int(port)), timeout=2)
        finally:
            client.close()
