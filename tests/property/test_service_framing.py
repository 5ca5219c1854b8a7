"""Property tests for the checking-service line protocol.

Two invariants are fuzzed here, per the reply-schema contract in
``repro.service.protocol``:

* **totality** — whatever bytes arrive (truncated JSON, NUL bytes,
  interleaved verbs, cap-boundary lines), every request line gets
  exactly one well-formed JSON reply and the server survives;
* **transport parity** — the legacy stdin/stdout shim and the asyncio
  service produce the same replies for the same request lines, modulo
  volatile fields (timings, latency summaries, metric snapshots).
"""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.incremental.server import DaemonServer
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.lineserver import LineServerThread
from repro.service.protocol import MAX_REQUEST_BYTES
from repro.service.server import CheckingService

# -- strategies --------------------------------------------------------------

# Tokens that are deterministic to "check": flags, missing files, and
# option-looking noise. None of these name a real file.
_TOKENS = st.sampled_from([
    "-quiet", "zz_no_such_file.c", "zz_also_missing.c", "--not-an-option",
    "metrics", "shutdown", "plain", "-stats",
])

_IDS = st.one_of(
    st.integers(-999999, 999999),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",),
            blacklist_characters='"\\\n\r',
        ),
        min_size=1, max_size=8,
    ),
)

_ARGVS = st.lists(_TOKENS, max_size=3)


@st.composite
def _object_lines(draw):
    obj = {"argv": draw(_ARGVS)}
    if draw(st.booleans()):
        obj["id"] = draw(_IDS)
    if draw(st.booleans()):
        obj["priority"] = draw(
            st.sampled_from(["interactive", "batch", "metrics", "bogus"])
        )
    if draw(st.booleans()):
        obj["op"] = draw(st.sampled_from(["check", "metrics", "reticulate"]))
    return json.dumps(obj)


@st.composite
def _truncated_object_lines(draw):
    whole = draw(_object_lines())
    cut = draw(st.integers(1, max(1, len(whole) - 1)))
    return whole[:cut]


_GARBAGE = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\n\r",
    ),
    max_size=30,
)

_ARRAY_LINES = _ARGVS.map(json.dumps)

_LINES = st.one_of(
    _ARRAY_LINES,
    _object_lines(),
    _truncated_object_lines(),
    _GARBAGE,
    st.just("metrics"),
)

def _ends_session(line):
    """True for any spelling of the shutdown verb (bare, array, object)."""
    from repro.service.protocol import ProtocolError, parse_request_line

    try:
        return parse_request_line(line).verb == "shutdown"
    except ProtocolError:
        return False  # malformed lines get an error reply, not a bye


#: Lines guaranteed not to end the session (for reply-count properties).
_NON_ENDING_LINES = _LINES.filter(
    lambda line: line.strip() and not _ends_session(line)
)


# -- helpers -----------------------------------------------------------------


def _run_shim(lines):
    stdin = io.BytesIO(
        ("\n".join(list(lines) + ["shutdown"]) + "\n").encode("utf-8")
    )
    stdout = io.StringIO()
    server = DaemonServer(cache_dir=None, stdin=stdin, stdout=stdout)
    assert server.serve() == 0
    return [json.loads(l) for l in stdout.getvalue().splitlines()]


def _normalize(reply):
    """Strip volatile fields so transports can be compared exactly."""
    out = dict(reply)
    out.pop("stats", None)
    out.pop("latency", None)
    out.pop("retry_after_ms", None)
    if "metrics" in out:
        out["metrics"] = "<snapshot>"
    if "ready" in out:
        return {"ready": True}
    return out


def _multiset(replies):
    return sorted(
        json.dumps(_normalize(r), sort_keys=True, ensure_ascii=False)
        for r in replies
    )


@pytest.fixture(scope="module")
def service():
    runner = LineServerThread(CheckingService(
        cache_dir=None, workers=1, metrics=MetricsRegistry(),
        max_inflight=64,
    ))
    yield runner.server
    runner.close()


def _run_service(service, lines):
    host, port = service.bound_addr.rsplit(":", 1)
    replies = []
    with ServiceClient.connect_tcp(host, int(port)) as client:
        replies.append(client.ready)
        try:
            for line in lines:
                client.send_line(line)
            client.send_line("shutdown")
        except OSError:
            # A line mid-stream ended the session server-side; the
            # shim drops post-shutdown lines the same way.
            pass
        while True:
            reply = client.recv_reply()
            if reply is None:
                break
            replies.append(reply)
    return replies


# -- properties --------------------------------------------------------------


class TestFramingTotality:
    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(_NON_ENDING_LINES, max_size=5))
    def test_one_well_formed_reply_per_request(self, lines):
        replies = _run_shim(lines)
        served = [l for l in lines if l.strip()]
        # ready + one reply per non-blank line + bye; every line of
        # output parsed as JSON already (json.loads in _run_shim).
        assert len(replies) == len(served) + 2
        assert replies[0]["ready"] is True
        assert replies[-1]["bye"] is True
        for reply in replies[1:-1]:
            assert "id" in reply
            assert "status" in reply

    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(_LINES, max_size=5))
    def test_shim_never_dies_and_always_says_bye(self, lines):
        replies = _run_shim(lines)
        assert replies[0]["ready"] is True
        assert replies[-1]["bye"] is True

    @settings(max_examples=30, deadline=None)
    @given(line=_truncated_object_lines())
    def test_truncated_object_recovers_declared_id(self, line):
        from repro.service.protocol import recover_request_id

        replies = _run_shim([line])
        reply = replies[1]
        recovered = recover_request_id(line)
        if recovered is not None:
            assert reply["id"] == recovered


class TestTransportParity:
    @settings(max_examples=30, deadline=None)
    @given(lines=st.lists(_LINES, max_size=5))
    def test_shim_and_service_replies_agree(self, service, lines):
        shim_replies = _run_shim(lines)
        service_replies = _run_service(service, lines)
        # Replies may arrive in a different order over the async
        # transport (errors are replied inline, checks via the queue),
        # so compare as multisets after stripping volatile fields.
        assert _multiset(shim_replies) == _multiset(service_replies)


class TestCapBoundary:
    def _padded_object(self, target_len: int) -> str:
        line = '{"id": 77, "argv": ["zz_no_such_file.c"]'
        return line + " " * (target_len - len(line) - 1) + "}"

    def test_line_at_exact_cap_is_served_normally(self, service):
        line = self._padded_object(MAX_REQUEST_BYTES)
        assert len(line) == MAX_REQUEST_BYTES
        for replies in (_run_shim([line]), _run_service(service, [line])):
            body = [r for r in replies if r.get("id") == 77]
            assert len(body) == 1
            assert body[0]["kind"] == "usage"  # parsed + executed

    def test_line_one_over_cap_is_rejected_with_id(self, service):
        line = self._padded_object(MAX_REQUEST_BYTES + 1)
        assert len(line) == MAX_REQUEST_BYTES + 1
        for replies in (_run_shim([line]), _run_service(service, [line])):
            body = [r for r in replies if r.get("id") == 77]
            assert len(body) == 1
            assert body[0]["kind"] == "oversized"
            assert body[0]["status"] == 2

    def test_nul_bytes_get_one_reply_each(self, service):
        lines = ["\x00", "a\x00b", '{"id": 1, "argv": ["\x00"]}']
        shim_replies = _run_shim(lines)
        service_replies = _run_service(service, lines)
        assert len(shim_replies) == len(lines) + 2
        assert _multiset(shim_replies) == _multiset(service_replies)

    def _multibyte_object(self, target_bytes: int) -> str:
        head = '{"id": 77, "argv": ["zz_no_such_file.c"], "pad": "'
        room = target_bytes - len(head) - len('"}')
        return head + "é" * (room // 2) + "x" * (room % 2) + '"}'

    def test_multibyte_line_at_exact_byte_cap_is_served(self, service):
        line = self._multibyte_object(MAX_REQUEST_BYTES)
        assert len(line.encode("utf-8")) == MAX_REQUEST_BYTES
        for replies in (_run_shim([line]), _run_service(service, [line])):
            body = [r for r in replies if r.get("id") == 77]
            assert len(body) == 1
            assert body[0]["kind"] == "usage"

    def test_multibyte_line_one_byte_over_is_rejected(self, service):
        # Half as many characters as bytes: a cap counted in characters
        # would run this line.
        line = self._multibyte_object(MAX_REQUEST_BYTES + 1)
        assert len(line.encode("utf-8")) == MAX_REQUEST_BYTES + 1
        assert len(line) < MAX_REQUEST_BYTES
        for replies in (_run_shim([line]), _run_service(service, [line])):
            body = [r for r in replies if r.get("id") == 77]
            assert len(body) == 1
            assert body[0]["kind"] == "oversized"
            assert f"({MAX_REQUEST_BYTES + 1} bytes;" in body[0]["error"]

    def test_invalid_utf8_decodes_alike_on_both_transports(self, service):
        raw = b'["\xff\xfe.c"]\n'
        stdout = io.StringIO()
        DaemonServer(
            cache_dir=None, stdin=io.BytesIO(raw + b"shutdown\n"),
            stdout=stdout,
        ).serve()
        shim_reply = json.loads(stdout.getvalue().splitlines()[1])
        host, port = service.bound_addr.rsplit(":", 1)
        with ServiceClient.connect_tcp(host, int(port)) as client:
            client.send_bytes(raw)
            service_reply = client.recv_reply()
        assert shim_reply == service_reply
        assert "\ufffd\ufffd.c" in shim_reply["error"]
