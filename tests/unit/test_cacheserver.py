"""Unit tests for the shared cache service (repro.incremental.cacheserver)."""

import base64
import json
import os
import socket
import threading
import time

import pytest

from repro.frontend.source import Location
from repro.incremental import cache as cache_mod
from repro.incremental.cache import (
    ResultCache,
    UnitMemo,
    encode_memo,
    encode_result,
)
from repro.incremental import cacheserver
from repro.incremental.cacheserver import CacheClient, CacheServerThread
from repro.messages.message import Message, MessageCode
from repro.obs.metrics import MetricsRegistry

FP = "ab" * 32
KEY = "cd" * 32


def _message(text="possible null dereference of p"):
    return Message(
        code=MessageCode.NULL_DEREF,
        location=Location("u.c", 3, 1),
        text=text,
    )


def _memo(iface_pickle=b"\x80\x04N."):  # pickled None: opaque bytes
    return UnitMemo(
        token_digest="11" * 32,
        iface_digest="22" * 32,
        iface_pickle=iface_pickle,
        includes=[("", "u.h", False, "u.h", "33" * 32)],
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

    def test_entries_holding_newlines_round_trip(self, server):
        # The entries travel as raw bytes after a header line, so a
        # newline inside one must not end it.
        memo = _memo(iface_pickle=b"\n" * 40 + b"\x80\x04N.\n")
        assert b"\n" in encode_memo(memo)
        message = _message("one line\nand the next")
        client = CacheClient(server.addr)
        client.put_memos([(KEY, memo), (FP, _memo())])
        client.put_results([(FP, [message], 1), (KEY, [message], 0)])
        assert client.get_memos([KEY, FP]) == [memo, _memo()]
        found = client.get_results([KEY, FP])
        assert [_shape(r) for r in found] == [
            ([message.render()], 0), ([message.render()], 1),
        ]
        assert client.ping() and not client.dead
        client.close()

    def test_an_empty_message_result_is_a_hit(self, server):
        client = CacheClient(server.addr)
        client.put_result(FP, [], 0)
        assert client.get_result(FP) == ([], 0)
        client.close()

    def test_an_entry_larger_than_a_read_chunk_round_trips(
        self, server, tmp_path
    ):
        memo = _memo(iface_pickle=os.urandom(200_000))  # > 64 KiB
        client = CacheClient(server.addr)
        client.put_memos([(KEY, memo), (FP, _memo())])
        assert client.get_memos([FP, KEY, FP]) == [_memo(), memo, _memo()]
        client.close()
        shared = ResultCache(str(tmp_path / "shared"))
        assert shared.read_entry("memo", KEY) == encode_memo(memo)


class Raw:
    """One raw connection to a cache server at *addr*: requests out,
    replies (and the entry bytes after them) in."""

    def __init__(self, addr: str) -> None:
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=5)
        self.file = self.sock.makefile("rwb")
        self.ready = json.loads(self.file.readline())

    def ask(self, request, tail: bytes = b""):
        """Send one request line (a dict, or raw bytes) and *tail*;
        return its reply and the entry bytes its ``sizes`` announce."""
        if isinstance(request, dict):
            request = json.dumps(request).encode()
        self.file.write(request + b"\n" + tail)
        self.file.flush()
        reply = json.loads(self.file.readline())
        sizes = reply.get("sizes") or []
        return reply, self.file.read(sum(n for n in sizes if n))

    def closed_by_server(self) -> bool:
        return self.file.read() == b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()
        self.sock.close()


def _put(kind, entries):
    """A put request for ``(key, bytes)`` *entries*, and its tail."""
    return (
        {"op": "put", "kind": kind, "keys": [key for key, _ in entries],
         "sizes": [len(data) for _, data in entries]},
        b"".join(data for _, data in entries),
    )


class TestServerRobustness:
    def test_garbage_line_gets_error_reply_and_connection_survives(
        self, server
    ):
        with Raw(server.addr) as raw:
            assert raw.ask(b"not json")[0]["ok"] is False
            assert raw.ask(b"[1, 2]")[0]["ok"] is False
            assert raw.ask({"op": "ping"}) == ({"ok": True, "pong": True}, b"")

    def test_unknown_op_is_rejected(self, server):
        with Raw(server.addr) as raw:
            reply, _ = raw.ask({"op": "explode"})
        assert reply["ok"] is False and "unknown op" in reply["error"]

    @pytest.mark.parametrize("op", ["get", "put"])
    @pytest.mark.parametrize("kind", [None, "unit", [], {}])
    def test_a_bad_kind_is_rejected(self, server, tmp_path, op, kind):
        request, tail = _put(kind, [(FP, encode_result([], 0))])
        if op == "get":
            request, tail = {"op": "get", "kind": kind, "keys": [FP]}, b""
        with Raw(server.addr) as raw:
            reply, body = raw.ask(request, tail)
            assert raw.ask({"op": "ping"})[0] == {"ok": True, "pong": True}
        assert reply["ok"] is False and body == b""
        assert reply["error"].startswith(f"{op} needs kind result|memo + keys")
        shared = ResultCache(str(tmp_path / "shared"))
        assert shared.read_entry("result", FP) is None

    def test_a_put_with_keys_and_sizes_of_different_lengths_is_rejected(
        self, server, tmp_path
    ):
        request, tail = _put("result", [(FP, encode_result([], 0))])
        request["keys"].append(KEY)
        with Raw(server.addr) as raw:
            reply, _ = raw.ask(request, tail)
            assert raw.ask({"op": "ping"})[0] == {"ok": True, "pong": True}
        assert reply["ok"] is False
        assert ResultCache(str(tmp_path / "shared")).read_entry(
            "result", FP
        ) is None

    def test_non_hex_key_is_rejected(self, server):
        entry = encode_result([], 0)
        with Raw(server.addr) as raw:
            reply, body = raw.ask(
                {"op": "get", "kind": "result", "keys": [FP, "../escape"]}
            )
            assert reply["ok"] is False and body == b""
            reply, _ = raw.ask(
                *_put("result", [("../escape", entry), (FP, entry)])
            )
            assert reply == {"ok": True, "stored": [False, True]}

    def test_malformed_put_payload_is_rejected(self, server, tmp_path):
        good = encode_result([_message()], 1)
        with Raw(server.addr) as raw:
            reply, _ = raw.ask(*_put("result", [
                (FP, good), (KEY, b'{"messages": "nope"}'), ("ef" * 32, good),
            ]))
        assert reply == {"ok": True, "stored": [True, False, True]}
        shared = ResultCache(str(tmp_path / "shared"))
        assert shared.read_entry("result", FP) == good
        assert shared.read_entry("result", KEY) is None

    @pytest.mark.parametrize("sizes", [
        "missing", None, 7, [-1], ["7"], [1.5], [True], [None],
        [32 << 20, 0, (32 << 20) + 1],
    ])
    def test_a_put_with_untrusted_sizes_closes_the_connection(
        self, server, tmp_path, sizes
    ):
        # The server cannot tell where the next request starts, so it
        # answers once and hangs up rather than read entry bytes as lines.
        request = {"op": "put", "kind": "result", "keys": [FP], "sizes": sizes}
        if sizes == "missing":
            del request["sizes"]
        with Raw(server.addr) as raw:
            reply, _ = raw.ask(request, encode_result([], 0) + b"\n")
            assert raw.closed_by_server()
        assert reply["ok"] is False and "closing the connection" in \
            reply["error"]
        assert ResultCache(str(tmp_path / "shared")).read_entry(
            "result", FP
        ) is None

    def test_put_sizes_at_the_cap_and_one_over(
        self, server, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cacheserver, "CACHE_LINE_MAX_BYTES", 100)
        at_cap = encode_result([], 0).ljust(100)  # JSON allows the blanks
        with Raw(server.addr) as raw:
            reply, _ = raw.ask(*_put("result", [(FP, at_cap)]))
            assert reply == {"ok": True, "stored": [True]}
            reply, _ = raw.ask(*_put("result", [(KEY, at_cap + b" ")]))
            assert reply["ok"] is False and raw.closed_by_server()
        shared = ResultCache(str(tmp_path / "shared"))
        assert shared.read_entry("result", FP) == at_cap
        assert shared.read_entry("result", KEY) is None


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
        assert metrics.count("cacheserver.client.requests") == 1

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


READY = b'{"ready": true, "cacheserver": true, "wire": 2}\n'
ENTRY = encode_result([], 0)


class DyingServer:
    """A wire 2 cache server whose one connection answers its first
    *answer* requests with misses (or stores), and answers the next with
    a reply header that promises every key's entry, then drops the
    connection after half of them."""

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
            stream.write(READY)
            stream.flush()
            while line := stream.readline():
                request = json.loads(line)
                keys = request["keys"]
                stream.read(sum(request.get("sizes", ())))  # a put's entries
                self.received += 1
                if self.received > self.answer:
                    header = {"ok": True, "sizes": [len(ENTRY)] * len(keys)}
                    stream.write(json.dumps(header).encode() + b"\n"
                                 + ENTRY * (len(keys) // 2))
                    stream.flush()
                    break
                reply = {"ok": True, "sizes": [None] * len(keys)} \
                    if request["op"] == "get" \
                    else {"ok": True, "stored": [True] * len(keys)}
                stream.write(json.dumps(reply).encode() + b"\n")
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
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.write(self.ready)
            stream.flush()
            if line := stream.readline():
                self.requests.append(line)
                stream.write(self.reply)
                stream.flush()
            stream.read()  # until the client closes its end
        self._listener.close()

    def join(self) -> None:
        self._thread.join(10)


PADDED = b'{"ok": true, "ready": true, "wire": 2, "pad": "%s"}\n' % (
    b"x" * 200
)


class TestBatches:
    def test_batches_match_per_key_probes(self, server, tmp_path):
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

    def test_one_batch_is_one_request_and_one_write(self, tmp_path):
        served = MetricsRegistry()
        thread = CacheServerThread(str(tmp_path / "shared"), metrics=served)
        metrics = MetricsRegistry()
        client = CacheClient(thread.addr, metrics=metrics)
        try:
            assert client.ping()
            writes = []
            real_write = client._file.write
            client._file.write = (
                lambda data: writes.append(len(data)) or real_write(data)
            )
            keys = [_key(i) for i in range(50)]
            client.put_results([(key, [], 0) for key in keys[::2]])
            assert client.get_results(keys) == [([], 0), None] * 25
        finally:
            client.close()
            thread.close()
        assert len(writes) == 2
        assert metrics.count("cacheserver.client.requests") == 3
        assert served.count("cacheserver.requests") == 3
        # Hits, misses and puts still count keys.
        assert (metrics.count("cacheserver.client.hits"),
                metrics.count("cacheserver.client.misses"),
                metrics.count("cacheserver.client.puts")) == (25, 25, 25)
        assert (served.count("cacheserver.hits"),
                served.count("cacheserver.misses"),
                served.count("cacheserver.puts")) == (25, 25, 25)

    def test_empty_batch_does_not_connect(self):
        client = CacheClient("127.0.0.1:1", timeout=0.5)
        assert client.get_memos([]) == []
        client.put_results([])
        assert not client.dead and client.drain_notes() == []

    def test_server_dying_mid_reply_leaves_one_note_and_all_misses(self):
        dying = DyingServer(answer=1)
        metrics = MetricsRegistry()
        client = CacheClient(dying.addr, metrics=metrics, timeout=5)
        keys = [_key(i) for i in range(6)]
        assert client.get_memos(keys) == [None] * 6
        # Three whole results arrive before the cut: still all misses.
        assert client.get_results(keys) == [None] * 6
        dying.join()
        assert dying.received == 2
        assert client.dead
        # Later probes are free misses: no reconnect, no second note.
        assert client.get_results(keys) == [None] * 6
        client.put_memos([(keys[0], _memo())])
        notes = client.drain_notes()
        assert len(notes) == 1 and "unavailable" in notes[0]
        assert metrics.count("cacheserver.client.errors") == 1
        assert metrics.count("cacheserver.client.misses") == 18
        assert metrics.count("cacheserver.client.hits") == 0


class TestReplyCap:
    @pytest.mark.parametrize("ready, reply", [
        (READY, PADDED),         # a well-formed reply over the cap
        (READY, b"x" * 1000),    # an unterminated reply, connection held
        (PADDED, b""),           # a ready line over the cap
        (READY, b'{"ok": true, "sizes": [101, null, 0]}\n' + b" " * 101),
        (READY, b'{"ok": true, "sizes": [-1, null, 0]}\n'),
        (READY, b'{"ok": true, "sizes": ["7", null, 0]}\n'),
        (READY, b'{"ok": true, "sizes": [0, 0]}\n'),
        (READY, b'{"ok": true}\n'),
    ], ids=["long-reply", "unterminated-reply", "long-ready",
            "entry-over-cap", "negative-size", "text-size", "sizes-short",
            "no-sizes"])
    def test_an_over_cap_or_malformed_reply_is_one_failure(
        self, monkeypatch, ready, reply
    ):
        monkeypatch.setattr(cacheserver, "CACHE_LINE_MAX_BYTES", 100)
        garbling = GarblingServer(ready, reply)
        metrics = MetricsRegistry()
        client = CacheClient(garbling.addr, metrics=metrics, timeout=5)
        keys = [_key(i) for i in range(3)]
        assert client.get_results(keys) == [None] * 3
        assert client.dead
        garbling.join()
        # Later probes are free misses: no reconnect, no second note.
        assert client.get_memos(keys) == [None] * 3
        notes = client.drain_notes()
        assert len(notes) == 1 and "unavailable" in notes[0]
        if ready == READY and b"sizes" in reply:
            assert "100-byte cap" in notes[0]
        elif reply != b'{"ok": true}\n':
            assert "100-byte line cap" in notes[0]
        assert metrics.count("cacheserver.client.errors") == 1

    def test_an_entry_at_the_cap_is_a_hit(self, monkeypatch):
        monkeypatch.setattr(cacheserver, "CACHE_LINE_MAX_BYTES", 100)
        at_cap = ENTRY.ljust(100)
        garbling = GarblingServer(
            READY, b'{"ok": true, "sizes": [null, 100]}\n' + at_cap
        )
        client = CacheClient(garbling.addr, timeout=5)
        assert client.get_results([FP, KEY]) == [None, ([], 0)]
        assert not client.dead
        client.close()
        garbling.join()


class TestStoredBytesOnTheWire:
    """An entry's wire form is its stored bytes: a put lands on disk as
    a local put writes it, and a get serves the file undecoded."""

    def _get(self, server, kind, key):
        with Raw(server.addr) as raw:
            return raw.ask({"op": "get", "kind": kind, "keys": [key]})

    def test_puts_land_byte_identical_to_local_puts(self, server, tmp_path):
        client = CacheClient(server.addr)
        client.put_memo(KEY, _memo())
        client.put_result(FP, [_message()], suppressed=2)
        client.close()
        local = ResultCache(str(tmp_path / "local"))
        local.put_unit_memo(KEY, _memo())
        local.put_result(FP, [_message()], suppressed=2)
        shared = ResultCache(str(tmp_path / "shared"))
        for kind, key in (("memo", KEY), ("result", FP)):
            stored = shared.read_entry(kind, key)
            assert stored == local.read_entry(kind, key)
            reply, body = self._get(server, kind, key)
            assert reply == {"ok": True, "sizes": [len(stored)]}
            assert body == stored

    def test_a_get_decodes_nothing(self, server, monkeypatch):
        client = CacheClient(server.addr)
        client.put_memo(KEY, _memo())
        client.put_result(FP, [_message()], suppressed=2)

        def refuse(data):
            raise AssertionError("the server decoded an entry on a get")

        kinds = dict(cache_mod.ENTRY_KINDS)
        for kind, entry_kind in kinds.items():
            monkeypatch.setitem(
                cache_mod.ENTRY_KINDS, kind, entry_kind._replace(decode=refuse)
            )
        for name in ("decode_memo", "decode_result", "decode_slice"):
            monkeypatch.setattr(cache_mod, name, refuse)
        for kind, key in (("memo", KEY), ("result", FP)):
            reply, body = self._get(server, kind, key)
            assert reply["ok"] and reply["sizes"] == [len(body)]
            assert kinds[kind].decode(body)
        client.close()

    @pytest.mark.parametrize("kind", ["memo", "result"])
    @pytest.mark.parametrize("payload", [
        b"", b"null", b"7", b'{"messages": "nope"}', b"\xff\xfe not UTF-8",
        b"\x80\x04 truncated", "the other kind",
    ], ids=["empty", "null", "number", "object", "not-utf8", "garbage",
            "other-kind"])
    def test_a_malformed_put_is_rejected_and_writes_nothing(
        self, server, tmp_path, kind, payload
    ):
        if payload == "the other kind":
            payload = ENTRY if kind == "memo" else encode_memo(_memo())
        with Raw(server.addr) as raw:
            reply, _ = raw.ask(*_put(kind, [(KEY, payload)]))
        assert reply == {"ok": True, "stored": [False]}
        shared = ResultCache(str(tmp_path / "shared"))
        assert shared.read_entry(kind, KEY) is None


class TestWireVersions:
    """A client and a server of different wire versions give misses and
    one note, or a refusal that names wire 2: never a wrong answer."""

    def test_the_ready_line_announces_wire_2(self, server):
        with Raw(server.addr) as raw:
            assert raw.ready["wire"] == cacheserver.WIRE_VERSION == 2

    def test_a_client_refuses_a_wire_1_server(self):
        # A wire 1 server announces no version, and would answer a one-key
        # get with a base64 payload: a "hit" the client must never see.
        payload = base64.b64encode(ENTRY).decode()
        old = GarblingServer(
            b'{"ready": true, "cacheserver": true}\n',
            b'{"ok": true, "hit": true, "payload": "%s"}\n' % payload.encode(),
        )
        metrics = MetricsRegistry()
        client = CacheClient(old.addr, metrics=metrics, timeout=5)
        assert client.get_results([FP, KEY]) == [None, None]
        assert client.dead
        old.join()
        assert old.requests == []  # it refused at the ready line
        client.put_result(FP, [], 0)
        notes = client.drain_notes()
        assert len(notes) == 1
        assert "wire 1" in notes[0] and "wire 2" in notes[0]
        assert metrics.count("cacheserver.client.misses") == 2
        assert metrics.count("cacheserver.client.errors") == 1

    def test_a_wire_1_request_is_refused_and_writes_nothing(
        self, server, tmp_path
    ):
        put = {"op": "put", "kind": "result", "key": FP,
               "payload": base64.b64encode(ENTRY).decode()}
        get = {"op": "get", "kind": "result", "key": FP}
        with Raw(server.addr) as raw:
            replies = [raw.ask(put), raw.ask(get)]
            assert raw.ask({"op": "ping"})[0] == {"ok": True, "pong": True}
        for reply, body in replies:
            assert reply["ok"] is False and body == b""
            assert "wire 2" in reply["error"]
        assert ResultCache(str(tmp_path / "shared")).read_entry(
            "result", FP
        ) is None
