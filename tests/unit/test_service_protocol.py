"""Units for the checking-service protocol layer: request parsing,
correlation-id recovery and the reply builders. These are the pieces the
stdin shim and the asyncio service share, so pinning them here pins both
transports at once."""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    PRIORITIES,
    ProtocolError,
    Request,
    error_reply,
    metrics_reply,
    oversized_reply,
    parse_request_line,
    recover_request_id,
)


class TestParseRequestLine:
    def test_shell_line(self):
        request = parse_request_line("-quiet src/a.c")
        assert request.verb == "check"
        assert request.argv == ["-quiet", "src/a.c"]
        assert request.id is None
        assert request.priority == "interactive"

    def test_json_array(self):
        request = parse_request_line('["-quiet", "src/a.c"]')
        assert request.verb == "check"
        assert request.argv == ["-quiet", "src/a.c"]

    def test_json_array_must_hold_strings(self):
        with pytest.raises(ProtocolError, match="array of strings"):
            parse_request_line('["-quiet", 7]')

    def test_object_form_full(self):
        request = parse_request_line(json.dumps({
            "id": 7, "argv": ["-quiet", "a.c"],
            "priority": "batch", "timeout": 2.5,
        }))
        assert request.verb == "check"
        assert request.id == 7
        assert request.priority == "batch"
        assert request.timeout_s == 2.5

    def test_object_form_defaults(self):
        request = parse_request_line('{"argv": ["a.c"]}')
        assert request.id is None
        assert request.priority == "interactive"
        assert request.timeout_s is None

    def test_object_metrics_and_shutdown_ops(self):
        metrics = parse_request_line('{"op": "metrics", "id": "m1"}')
        assert metrics.verb == "metrics"
        assert metrics.id == "m1"
        assert metrics.priority == "metrics"
        shutdown = parse_request_line('{"op": "shutdown", "id": 9}')
        assert shutdown.verb == "shutdown"
        assert shutdown.id == 9

    def test_bare_verbs(self):
        assert parse_request_line("metrics").verb == "metrics"
        for verb in ("shutdown", "quit", "exit"):
            assert parse_request_line(verb).verb == "shutdown"
        # ... in array spelling too.
        assert parse_request_line('["metrics"]').verb == "metrics"
        assert parse_request_line('["shutdown"]').verb == "shutdown"

    def test_unknown_op_keeps_the_client_id(self):
        with pytest.raises(ProtocolError) as info:
            parse_request_line('{"id": 41, "op": "reticulate"}')
        assert info.value.request_id == 41
        assert "reticulate" in str(info.value)

    def test_bad_priority_and_timeout_keep_the_client_id(self):
        with pytest.raises(ProtocolError) as info:
            parse_request_line('{"id": 5, "argv": [], "priority": "urgent"}')
        assert info.value.request_id == 5
        with pytest.raises(ProtocolError) as info:
            parse_request_line('{"id": 6, "argv": [], "timeout": -1}')
        assert info.value.request_id == 6

    def test_bad_id_type_rejected(self):
        with pytest.raises(ProtocolError, match="integer or string"):
            parse_request_line('{"id": [1], "argv": []}')

    def test_truncated_object_recovers_id(self):
        with pytest.raises(ProtocolError) as info:
            parse_request_line('{"id": 77, "argv": ["-quiet", "a.')
        assert info.value.request_id == 77

    def test_unbalanced_quote_shell_line(self):
        with pytest.raises(ProtocolError, match="malformed request line"):
            parse_request_line('check "unterminated')


class TestRecoverRequestId:
    def test_numeric(self):
        assert recover_request_id('{"id": 123, "argv"') == 123
        assert recover_request_id('{"id":-4,') == -4

    def test_string(self):
        assert recover_request_id('{"id": "req-9", bro') == "req-9"

    def test_escaped_string(self):
        assert recover_request_id('{"id": "a\\"b", ...') == 'a"b'

    def test_nothing_recoverable(self):
        assert recover_request_id("[1, 2, 3") is None
        assert recover_request_id("plain shell line") is None
        assert recover_request_id('{"id": {"nested": 1}}') is None


class TestReplyBuilders:
    def test_client_fixable_kinds_are_status_2(self):
        for kind in ("protocol", "oversized", "usage", "busy",
                     "shutting-down"):
            assert error_reply(1, kind, "x")["status"] == 2

    def test_service_side_kinds_are_status_3(self):
        for kind in ("deadline", "internal"):
            assert error_reply(1, kind, "x")["status"] == 3

    def test_error_reply_shape(self):
        reply = error_reply("r1", "busy", "full", retry_after_ms=250)
        assert reply == {
            "id": "r1", "status": 2, "error": "full", "kind": "busy",
            "retry_after_ms": 250,
        }
        assert "retry_after_ms" not in error_reply("r1", "busy", "full")

    def test_oversized_reply_names_the_limit(self):
        reply = oversized_reply(3, MAX_REQUEST_BYTES + 1)
        assert reply["kind"] == "oversized"
        assert str(MAX_REQUEST_BYTES) in reply["error"]

    def test_metrics_reply_shape(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("a.b")
        reply = metrics_reply(2, registry)
        assert reply["status"] == 0
        assert reply["metrics"]["counters"]["a.b"] == 1


class TestPriorities:
    def test_rank_ordering(self):
        assert (Request("check", [], priority="interactive").rank
                < Request("check", [], priority="batch").rank
                < Request("metrics", [], priority="metrics").rank)

    def test_unknown_priority_ranks_as_batch(self):
        assert Request("check", [], priority="??").rank == PRIORITIES["batch"]


class TestFreshInterpreterImports:
    """The service, its package, and the cache service each import
    cleanly as the first ``repro`` module of a new process: the cache
    service takes its framing from ``protocol``, which imports nothing
    from ``repro``, so no import cycle runs through the service. The
    facade, the engine and the driver do too: ``core.api`` and the
    engine import each other (``Checker`` is the engine's subclass)."""

    @pytest.mark.parametrize("module", [
        "repro.service.server",
        "repro.service.lineserver",
        "repro.service",
        "repro.incremental.cacheserver",
        "repro.service.protocol",
        "repro.core.api",
        "repro.incremental.engine",
        "repro.driver.cli",
    ])
    def test_module_imports_first(self, module):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_protocol_imports_nothing_from_repro_at_module_level(self):
        import ast

        from repro.service import protocol

        with open(protocol.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, ast.unparse(node)
                assert not (node.module or "").startswith("repro")
            elif isinstance(node, ast.Import):
                assert not any(
                    alias.name.startswith("repro") for alias in node.names
                ), ast.unparse(node)
