"""End-to-end tests for distributed checking: the shared cache service.

Pins the acceptance properties: a cache-server-assisted run emits
byte-identical output to a plain run; a warm cache server lets a
checker with a fresh local cache skip the frontend entirely; and a dead
or dying server degrades to plain checking with a single note, never
an error.
"""

import pytest

from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.incremental import (
    CacheClient,
    CacheServerThread,
    IncrementalChecker,
    ResultCache,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def corpus():
    # The unannotated db example keeps real messages in play across
    # several units, many with sub-locations, so byte-identity is a
    # meaningful comparison.
    return db_sources(0)


@pytest.fixture(scope="module")
def serial_renders(corpus):
    result = Checker().check_sources(dict(corpus))
    renders = [m.render() for m in result.messages]
    units = {m.location.filename for m in result.messages}
    assert len(renders) > 20 and len(units) > 1, renders
    assert any(m.subs for m in result.messages)
    return renders


def _renders(result):
    return [m.render() for m in result.messages]


class TestCacheServerFlow:
    def test_distributed_run_is_byte_identical_and_skips_frontend(
        self, corpus, serial_renders, tmp_path
    ):
        # Producer: cold serial run populating the shared cache dir.
        shared = str(tmp_path / "shared")
        producer = IncrementalChecker(cache=ResultCache(shared))
        producer.check_sources(dict(corpus))

        server = CacheServerThread(cache_dir=shared)
        try:
            # Consumer: fresh local cache, warm server. Every unit
            # should resolve via remote memo + result without parsing.
            metrics = MetricsRegistry()
            client = CacheClient(server.addr, metrics=metrics)
            consumer = IncrementalChecker(
                cache=ResultCache(str(tmp_path / "local")),
                remote=client,
                metrics=metrics,
            )
            result = consumer.check_sources(dict(corpus))
            assert _renders(result) == serial_renders
            assert consumer.stats.remote_misses == 0
            assert consumer.stats.remote_hits >= consumer.stats.units
            assert consumer.stats.memo_hits == consumer.stats.units
            assert "cache server:" in consumer.stats.render()

            # Remote hits were copied into the local cache: a second
            # run is fully local-warm with zero server traffic.
            before = metrics.count("cacheserver.client.hits")
            again = IncrementalChecker(
                cache=ResultCache(str(tmp_path / "local")),
                remote=CacheClient(server.addr, metrics=metrics),
            )
            rerun = again.check_sources(dict(corpus))
            assert _renders(rerun) == serial_renders
            assert again.stats.cache_hits == again.stats.units
            assert metrics.count("cacheserver.client.hits") == before
            client.close()
            again.remote.close()
        finally:
            server.close()

    def test_fresh_server_gets_populated_by_the_first_run(
        self, corpus, serial_renders, tmp_path
    ):
        server = CacheServerThread(cache_dir=str(tmp_path / "shared"))
        clients = [CacheClient(server.addr), CacheClient(server.addr)]
        try:
            first = IncrementalChecker(
                cache=ResultCache(str(tmp_path / "a")), remote=clients[0],
            )
            first.check_sources(dict(corpus))
            assert first.stats.remote_hits == 0

            second = IncrementalChecker(
                cache=ResultCache(str(tmp_path / "b")), remote=clients[1],
            )
            result = second.check_sources(dict(corpus))
            assert _renders(result) == serial_renders
            assert second.stats.remote_misses == 0
            assert second.stats.remote_hits >= second.stats.units
        finally:
            for client in clients:
                client.close()
            server.close()

    def test_dead_server_degrades_to_plain_checking(
        self, corpus, serial_renders, tmp_path
    ):
        client = CacheClient("127.0.0.1:1", timeout=0.5)
        engine = IncrementalChecker(
            cache=ResultCache(str(tmp_path / "c")), remote=client
        )
        result = engine.check_sources(dict(corpus))
        assert _renders(result) == serial_renders
        assert client.dead
        notes = [n for n in engine.stats.notes if "unavailable" in n]
        assert len(notes) == 1

    def test_server_dying_mid_run_degrades_cleanly(
        self, corpus, serial_renders, tmp_path
    ):
        server = CacheServerThread(cache_dir=str(tmp_path / "shared"))
        client = CacheClient(server.addr)
        assert client.ping()
        server.close()  # server goes away while the client holds a socket
        engine = IncrementalChecker(
            cache=ResultCache(str(tmp_path / "c")), remote=client
        )
        result = engine.check_sources(dict(corpus))
        assert _renders(result) == serial_renders
        assert client.dead


def _content(symtab) -> str:
    # A slice decoded from a memo equals the parsed one but shares fewer
    # interned objects, so compare content, not pickle bytes.
    from repro.incremental.fingerprint import interface_digest

    return interface_digest(symtab, {})


@pytest.fixture()
def count_decodes(monkeypatch):
    """Counts the engine's calls to the slice decoder
    (``cache.decode_slice``): each decodes one unit memo's interface
    slice."""
    from repro.incremental import engine

    calls = []
    real = engine.decode_slice
    monkeypatch.setattr(
        engine, "decode_slice", lambda data: calls.append(1) or real(data)
    )
    return calls


class TestWarmPulls:
    """A fully-warm run answers every unit from the caches: two
    requests to the cache service, no interface decoded, no program
    symbol table built until a caller asks for it."""

    def test_remote_only_pull(
        self, corpus, serial_renders, tmp_path, count_decodes
    ):
        shared = str(tmp_path / "shared")
        cold = IncrementalChecker(cache=ResultCache(shared))
        cold_result = cold.check_sources(dict(corpus))
        cold_content = _content(cold_result.symtab)

        served = MetricsRegistry()
        server = CacheServerThread(cache_dir=shared, metrics=served)
        try:
            metrics = MetricsRegistry()
            client = CacheClient(server.addr, metrics=metrics)
            del count_decodes[:]
            pull = IncrementalChecker(remote=client)
            result = pull.check_sources(dict(corpus))
            client.close()
        finally:
            server.close()
        units = pull.stats.units
        assert _renders(result) == serial_renders
        assert pull.stats.remote_hits == 2 * units
        assert pull.stats.remote_misses == 0
        assert pull.stats.symtab_s == 0.0
        # One request of memo probes, one of result probes; the write
        # stage has nothing to publish (an empty batch sends nothing).
        assert metrics.count("cacheserver.client.requests") == 2
        assert served.count("cacheserver.requests") == 2
        assert served.count("cacheserver.hits") == 2 * units
        assert count_decodes == []
        # Reading the symbol table builds it from the memos' slices.
        assert _content(result.symtab) == cold_content
        assert len(count_decodes) == units

    def test_local_warm_run(self, corpus, serial_renders, tmp_path,
                            count_decodes):
        shared = str(tmp_path / "c")
        cold_result = IncrementalChecker(cache=ResultCache(shared)) \
            .check_sources(dict(corpus))
        cold_content = _content(cold_result.symtab)
        del count_decodes[:]
        warm = IncrementalChecker(cache=ResultCache(shared))
        result = warm.check_sources(dict(corpus))
        assert _renders(result) == serial_renders
        assert warm.stats.cache_hits == warm.stats.units
        assert count_decodes == []
        assert _content(result.symtab) == cold_content

    def test_entries_garbled_on_the_server_are_misses_then_replaced(
        self, corpus, serial_renders, tmp_path
    ):
        shared = tmp_path / "shared"
        server = CacheServerThread(cache_dir=str(shared))
        client = CacheClient(server.addr)
        try:
            IncrementalChecker(remote=client).check_sources(dict(corpus))
            entries = sorted(shared.glob("units/*.pkl")) + sorted(
                shared.glob("results/*.json")
            )
            for path in entries:
                path.write_bytes(path.read_bytes()[:-7])  # torn writes
            garbled = IncrementalChecker(remote=client)
            result = garbled.check_sources(dict(corpus))
            units = garbled.stats.units
            assert _renders(result) == serial_renders
            assert (garbled.stats.remote_hits, garbled.stats.remote_misses) \
                == (0, 2 * units)
            assert len(entries) == 2 * units
            pull = IncrementalChecker(remote=client)
            assert _renders(pull.check_sources(dict(corpus))) \
                == serial_renders
            assert (pull.stats.remote_hits, pull.stats.remote_misses) \
                == (2 * units, 0)
            assert not client.dead
        finally:
            client.close()
            server.close()

    def test_undecodable_slices_on_the_server_are_replaced(
        self, corpus, tmp_path, monkeypatch
    ):
        # Memos whose interface slice does not decode: every run that
        # checks a unit decodes all slices, drops each bad one and
        # parses its unit. The first such run must publish fresh memos,
        # so later runs parse only the unit that was edited.
        from dataclasses import replace

        from repro.incremental.cache import decode_slice

        local = tmp_path / "local"
        cold = ResultCache(str(local))
        IncrementalChecker(cache=cold).check_sources(dict(corpus))
        keys = sorted(p.stem for p in local.glob("units/*.pkl"))
        parsed = []
        real = IncrementalChecker._parse
        monkeypatch.setattr(
            IncrementalChecker, "_parse",
            lambda self, tokens, name: parsed.append(name)
            or real(self, tokens, name),
        )
        server = CacheServerThread(cache_dir=str(tmp_path / "shared"))
        client = CacheClient(server.addr)
        try:
            client.put_memos([
                (key, replace(cold.get_unit_memo(key), iface_pickle=b"garbled"))
                for key in keys
            ])
            runs = []
            for edit in range(3):
                files = dict(corpus)
                files["drive.c"] = files["drive.c"].replace(
                    "60000", str(60001 + edit)
                )
                expected = _renders(Checker().check_sources(dict(files)))
                metrics = MetricsRegistry()
                del parsed[:]
                result = IncrementalChecker(
                    remote=client, metrics=metrics
                ).check_sources(dict(files))
                assert _renders(result) == expected
                runs.append(
                    (sorted(parsed), metrics.count("cache.entries.dropped"))
                )
            still_bad = [
                key for key in keys
                if decode_slice(client.get_memo(key).iface_pickle) is None
            ]
        finally:
            client.close()
            server.close()
        units = sorted(name for name in corpus if name.endswith(".c"))
        assert len(keys) == len(units) == 6
        assert runs == [
            (units, len(units) - 1), (["drive.c"], 0), (["drive.c"], 0),
        ]
        # Only the unedited drive.c's memo, which no run probes, is left.
        assert len(still_bad) == 1

    def test_server_dying_mid_reply(self, corpus, serial_renders, tmp_path):
        from tests.unit.test_cacheserver import DyingServer

        dying = DyingServer(answer=1)
        client = CacheClient(dying.addr, timeout=5)
        engine = IncrementalChecker(
            cache=ResultCache(str(tmp_path / "c")), remote=client
        )
        result = engine.check_sources(dict(corpus))
        dying.join()
        assert _renders(result) == serial_renders
        assert client.dead
        notes = [n for n in engine.stats.notes if "unavailable" in n]
        assert len(notes) == 1
        assert engine.stats.remote_hits == 0


class TestDumpAndTraceAfterWarmRuns:
    """``-dump`` and ``-trace`` read the program symbol table, which a
    warm run builds only on demand: both must match a cold run byte for
    byte."""

    @pytest.fixture()
    def db_paths(self, tmp_path):
        from repro.bench.dbexample import db_sources

        paths = []
        for name, text in db_sources().items():
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        return sorted(paths)

    def test_dump_matches_cold(self, db_paths, tmp_path):
        from repro.driver.cli import run

        cache = ["--cache-dir", str(tmp_path / "cache"), "-quiet"]
        libs = [tmp_path / f"{run_name}.lcd"
                for run_name in ("cold", "warm", "pull")]
        assert run(cache + ["-dump", str(libs[0])] + db_paths) == (0, "")
        assert run(cache + ["-dump", str(libs[1])] + db_paths) == (0, "")
        server = CacheServerThread(cache_dir=str(tmp_path / "cache"))
        try:
            status = run(["--no-cache", "--cache-server", server.addr,
                          "-quiet", "-dump", str(libs[2])] + db_paths)
        finally:
            server.close()
        assert status == (0, "")
        assert libs[0].read_bytes() == libs[1].read_bytes() \
            == libs[2].read_bytes()

    def test_trace_matches_cold(self, db_paths, tmp_path):
        from repro.driver.cli import run

        argv = ["--cache-dir", str(tmp_path / "cache"), "-stats",
                "-trace", "eref_alloc"] + db_paths
        cold = run(argv)
        warm = run(argv)
        assert cold[1].startswith("point 0 (")
        assert "result cache:      0 hit(s)" in cold[1]
        assert "result cache:      6 hit(s), 0 miss(es)" in warm[1]

        def without_stats(output: str) -> str:
            return output.split("incremental statistics:")[0]

        assert without_stats(warm[1]) == without_stats(cold[1])
        assert warm[0] == cold[0]
