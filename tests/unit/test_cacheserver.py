"""Unit tests for the shared cache service (repro.incremental.cacheserver)."""

import json
import socket
import threading
import time

import pytest

from repro.frontend.source import Location
from repro.incremental.cache import ResultCache, UnitMemo
from repro.incremental import cacheserver
from repro.incremental.cacheserver import (
    CacheClient,
    CacheServerThread,
    _decode_memo,
    _encode_memo,
)
from repro.messages.message import Message, MessageCode
from repro.obs.metrics import MetricsRegistry

FP = "ab" * 32
KEY = "cd" * 32


def _message():
    return Message(
        code=MessageCode.NULL_DEREF,
        location=Location("u.c", 3, 1),
        text="possible null dereference of p",
    )


def _memo():
    return UnitMemo(
        token_digest="11" * 32,
        iface_digest="22" * 32,
        iface_pickle=b"\x80\x04N.",  # pickled None: payload is opaque bytes
        includes=[("u.h", "33" * 32)],
        enum_consts={"N": 4},
    )


@pytest.fixture()
def server(tmp_path):
    thread = CacheServerThread(cache_dir=str(tmp_path / "shared"))
    try:
        yield thread
    finally:
        thread.close()


class TestRoundTrips:
    def test_ping(self, server):
        client = CacheClient(server.addr)
        assert client.ping()
        client.close()

    def test_result_round_trip(self, server):
        writer = CacheClient(server.addr)
        writer.put_result(FP, [_message()], suppressed=2)
        writer.close()
        reader = CacheClient(server.addr)
        found = reader.get_result(FP)
        assert found is not None
        messages, suppressed = found
        assert suppressed == 2
        assert [m.render() for m in messages] == [_message().render()]
        reader.close()

    def test_memo_round_trip(self, server):
        client = CacheClient(server.addr)
        client.put_memo(KEY, _memo())
        back = client.get_memo(KEY)
        assert back is not None
        assert back.token_digest == _memo().token_digest
        assert back.iface_pickle == _memo().iface_pickle
        assert back.includes == _memo().includes
        assert back.enum_consts == {"N": 4}
        client.close()

    def test_miss_is_not_an_error(self, server):
        client = CacheClient(server.addr)
        assert client.get_result(FP) is None
        assert client.get_memo(KEY) is None
        assert not client.dead
        client.close()

    def test_puts_land_in_the_backing_cache(self, server, tmp_path):
        client = CacheClient(server.addr)
        client.put_result(FP, [_message()], suppressed=0)
        client.close()
        cache = ResultCache(str(tmp_path / "shared"))
        assert cache.get_result(FP) is not None

    def test_stats_op(self, server):
        client = CacheClient(server.addr)
        client.get_result(FP)  # one miss
        stats = client.stats()
        assert stats is not None
        assert stats["counters"]["cacheserver.misses"] >= 1
        client.close()


class TestServerRobustness:
    def _raw(self, server, *lines):
        host, port = server.addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            file = sock.makefile("rwb")
            file.readline()  # ready line
            replies = []
            for line in lines:
                file.write(line + b"\n")
                file.flush()
                replies.append(json.loads(file.readline()))
            return replies

    def test_garbage_line_gets_error_reply_and_connection_survives(
        self, server
    ):
        replies = self._raw(
            server, b"not json", json.dumps({"op": "ping"}).encode()
        )
        assert replies[0]["ok"] is False
        assert replies[1] == {"ok": True, "pong": True}

    def test_unknown_op_is_rejected(self, server):
        (reply,) = self._raw(server, json.dumps({"op": "explode"}).encode())
        assert reply["ok"] is False and "unknown op" in reply["error"]

    def test_non_hex_key_is_rejected(self, server):
        (reply,) = self._raw(
            server,
            json.dumps(
                {"op": "get", "kind": "result", "key": "../escape"}
            ).encode(),
        )
        assert reply["ok"] is False

    def test_malformed_put_payload_is_rejected(self, server):
        (reply,) = self._raw(
            server,
            json.dumps(
                {"op": "put", "kind": "result", "key": FP,
                 "payload": {"messages": "nope"}}
            ).encode(),
        )
        assert reply["ok"] is False


class TestClientDegradation:
    def test_unreachable_server_degrades_to_miss_with_one_note(self):
        metrics = MetricsRegistry()
        client = CacheClient("127.0.0.1:1", metrics=metrics, timeout=0.5)
        assert client.get_result(FP) is None
        assert client.dead
        # Once dead, further probes are free local misses: no more
        # connect attempts, no more notes.
        assert client.get_memo(KEY) is None
        client.put_result(FP, [], 0)
        notes = client.drain_notes()
        assert len(notes) == 1 and "unavailable" in notes[0]
        assert client.drain_notes() == []
        assert metrics.count("cacheserver.client.errors") == 1

    def test_protocol_garbage_marks_client_dead(self, server):
        client = CacheClient(server.addr)
        assert client.ping()
        # Inject garbage by pointing the buffered file at a closed pipe.
        client._file.close()
        assert client.get_result(FP) is None
        assert client.dead
        client.close()

    def test_bad_address_raises_value_error(self):
        with pytest.raises(ValueError):
            CacheClient("not-an-address")


class TestShutdown:
    def test_close_with_a_connected_client_is_prompt(self, tmp_path):
        """Shutdown closes live connections as well as the listeners, so
        it neither waits for clients to leave nor abandons their handlers
        on a closed loop."""
        thread = CacheServerThread(cache_dir=str(tmp_path / "shared"))
        host, port = thread.addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            file = sock.makefile("rb")
            assert json.loads(file.readline())["ready"] is True
            started = time.perf_counter()
            thread.close()
            assert time.perf_counter() - started < 1.0
            assert not thread._thread.is_alive()
            assert file.readline() == b""  # the server closed our end
            file.close()


def _key(i: int) -> str:
    return f"{i:064x}"


def _shape(found):
    if found is None:
        return None
    messages, suppressed = found
    return [m.render() for m in messages], suppressed


class DyingServer:
    """A cache server that announces itself, answers the first *answer*
    requests of its one connection with misses, and then drops the
    connection while the client's window is still in flight."""

    def __init__(self, answer: int) -> None:
        self.answer = answer
        self.received = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.write(b'{"ready": true, "cacheserver": true}\n')
            stream.flush()
            while self.received < self.answer:
                if not stream.readline():
                    break
                self.received += 1
                stream.write(b'{"ok": true, "hit": false}\n')
                stream.flush()
        self._listener.close()

    def join(self) -> None:
        self._thread.join(10)


class GarblingServer:
    """A cache server whose one connection announces itself with
    *ready*, answers its first request with *reply*, and then holds on
    until the client hangs up."""

    def __init__(self, ready: bytes, reply: bytes) -> None:
        self.ready, self.reply = ready, reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.write(self.ready)
            stream.flush()
            if stream.readline():
                stream.write(self.reply)
                stream.flush()
            stream.read()  # until the client closes its end
        self._listener.close()

    def join(self) -> None:
        self._thread.join(10)


READY = b'{"ready": true, "cacheserver": true}\n'
PADDED = b'{"ok": true, "ready": true, "hit": false, "pad": "%s"}\n' % (
    b"x" * 200
)


class TestPipelining:
    def test_batches_match_per_key_probes_across_many_windows(
        self, server, tmp_path, monkeypatch
    ):
        # A window of a few hundred bytes holds two or three get lines,
        # and every put line is longer than it, so these batches span
        # many windows and put lines travel alone.
        monkeypatch.setattr(cacheserver, "PIPELINE_WINDOW_BYTES", 300)
        writer = CacheClient(server.addr)
        stored = range(0, 24, 2)  # every other key is a miss
        writer.put_results([(_key(i), [_message()], i) for i in stored])
        writer.put_memos([(_key(i), _memo()) for i in stored])
        assert not writer.dead
        writer.close()

        keys = [_key(i) for i in range(24)]
        batch = CacheClient(server.addr)
        results = batch.get_results(keys)
        memos = batch.get_memos(keys)
        single = CacheClient(server.addr)
        assert [_shape(r) for r in results] == [
            _shape(single.get_result(key)) for key in keys
        ]
        assert memos == [single.get_memo(key) for key in keys]
        backing = ResultCache(str(tmp_path / "shared"))
        assert [r is not None for r in results] == [
            backing.get_result(key) is not None for key in keys
        ]
        assert [m is not None for m in memos] == [i % 2 == 0 for i in range(24)]
        assert not batch.dead and not single.dead
        batch.close()
        single.close()

    def test_one_window_is_one_write(self, server, monkeypatch):
        client = CacheClient(server.addr)
        assert client.ping()
        writes = []
        real_write = client._file.write
        monkeypatch.setattr(
            client._file, "write",
            lambda data: writes.append(len(data)) or real_write(data),
        )
        assert client.get_results([_key(i) for i in range(50)]) == [None] * 50
        assert len(writes) == 1
        client.close()

    def test_empty_batch_does_not_connect(self):
        client = CacheClient("127.0.0.1:1", timeout=0.5)
        assert client.get_memos([]) == []
        client.put_results([])
        assert not client.dead and client.drain_notes() == []

    def test_server_dying_mid_window_leaves_one_note(self):
        dying = DyingServer(answer=2)
        metrics = MetricsRegistry()
        client = CacheClient(dying.addr, metrics=metrics, timeout=5)
        keys = [_key(i) for i in range(6)]
        assert client.get_memos(keys) == [None] * 6
        dying.join()
        assert dying.received == 2
        assert client.dead
        # Later probes are free misses: no reconnect, no second note.
        assert client.get_results(keys) == [None] * 6
        client.put_memos([(keys[0], _memo())])
        notes = client.drain_notes()
        assert len(notes) == 1 and "unavailable" in notes[0]
        assert metrics.count("cacheserver.client.errors") == 1
        assert metrics.count("cacheserver.client.misses") == 12


class TestReplyCap:
    @pytest.mark.parametrize("ready, reply", [
        (READY, PADDED),         # a well-formed reply over the cap
        (READY, b"x" * 1000),    # an unterminated reply, connection held
        (PADDED, b""),           # a ready line over the cap
    ], ids=["long-reply", "unterminated-reply", "long-ready"])
    def test_an_overlong_line_is_one_failure(self, monkeypatch, ready, reply):
        monkeypatch.setattr(cacheserver, "CACHE_LINE_MAX_BYTES", 100)
        garbling = GarblingServer(ready, reply)
        metrics = MetricsRegistry()
        client = CacheClient(garbling.addr, metrics=metrics, timeout=5)
        keys = [_key(i) for i in range(3)]
        assert client.get_memos(keys) == [None] * 3
        assert client.dead
        garbling.join()
        # Later probes are free misses: no reconnect, no second note.
        assert client.get_results(keys) == [None] * 3
        notes = client.drain_notes()
        assert len(notes) == 1 and "100-byte line cap" in notes[0]
        assert metrics.count("cacheserver.client.errors") == 1


class TestMemoCodec:
    def test_round_trip(self):
        assert _decode_memo(_encode_memo(_memo())) == _memo()

    @pytest.mark.parametrize("broken", [
        None,
        [],
        {},
        {"token_digest": "x"},
        {**_encode_memo(_memo()), "iface_pickle": "!!not base64!!"},
        {**_encode_memo(_memo()), "enum_consts": {"N": "wat"}},
    ])
    def test_malformed_payloads_decode_to_none(self, broken):
        assert _decode_memo(broken) is None
