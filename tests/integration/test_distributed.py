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
    """Counts ``pickle.loads`` calls: the engine decodes an interface
    slice from a unit memo with it, and nothing else on a warm run
    does."""
    import pickle

    calls = []
    real = pickle.loads
    monkeypatch.setattr(
        pickle, "loads", lambda data, **kw: calls.append(1) or real(data, **kw)
    )
    return calls


class TestWarmPulls:
    """A fully-warm run answers every unit from the caches: two
    pipelined exchanges with the cache service, no interface decoded,
    no program symbol table built until a caller asks for it."""

    def test_remote_only_pull(
        self, corpus, serial_renders, tmp_path, count_decodes, monkeypatch
    ):
        shared = str(tmp_path / "shared")
        cold = IncrementalChecker(cache=ResultCache(shared))
        cold_result = cold.check_sources(dict(corpus))
        cold_content = _content(cold_result.symtab)

        server = CacheServerThread(cache_dir=shared)
        try:
            exchanges = []
            real = CacheClient._exchange
            monkeypatch.setattr(
                CacheClient, "_exchange",
                lambda self, requests: exchanges.append(len(requests))
                or real(self, requests),
            )
            client = CacheClient(server.addr)
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
        # One exchange of memo probes, one of result probes; the write
        # stage has nothing to publish (empty exchanges send nothing).
        assert [n for n in exchanges if n] == [units, units]
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

    def test_server_dying_mid_window(self, corpus, serial_renders, tmp_path):
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
