"""A memo is data: every pickle the checker reads back (unit memos, the
interface slices inside them, ``-load`` libraries) goes through one
unpickler that admits only the classes those payloads hold."""

from __future__ import annotations

import dataclasses
import glob
import io
import os
import pickle

import pytest

from repro.bench.dbexample import db_sources
from repro.bench.generator import generate_program_of_size
from repro.core.api import ensure_process_initialized, prelude
from repro.driver.cli import CliError, run
from repro.driver.library import LIBRARY_MAGIC, LibraryError, load_library
from repro.flags.registry import Flags
from repro.frontend.safe_pickle import ALLOWED_CLASSES
from repro.incremental import CacheServerThread
from repro.incremental.cache import ResultCache, decode_memo, decode_slice
from repro.incremental.cacheserver import CacheClient
from repro.incremental.engine import IncrementalChecker

#: What db, the prelude and the generator lack: a function-pointer
#: parameter and global (``FunctionType``), and a globals clause
#: (``GlobalUse``).
EXTRA_SHAPES = {
    "x.c": "int counter;\n"
           "int (*hook)(int);\n"
           "int apply(int (*f)(int), int x) /*@globals counter@*/\n"
           "{ return f(x) + counter; }\n",
}


def _named(data: bytes) -> set[tuple[str, str]]:
    """The ``(module, name)`` of every class the pickle *data* names."""
    seen: set[tuple[str, str]] = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            seen.add((module, name))
            return super().find_class(module, name)

    Recorder(io.BytesIO(data)).load()
    return seen


def _memo_classes(files: dict[str, str], root: str) -> set[tuple[str, str]]:
    IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
    seen: set[tuple[str, str]] = set()
    for path in glob.glob(os.path.join(root, "units", "*.pkl")):
        with open(path, "rb") as handle:
            data = handle.read()
        seen |= _named(data)
        seen |= _named(decode_memo(data).iface_pickle)
    return seen


def test_the_allow_list_is_what_the_payloads_hold(tmp_path):
    seen = _memo_classes(db_sources(), str(tmp_path / "db"))
    seen |= _memo_classes(
        generate_program_of_size(3000, seed=5).files, str(tmp_path / "gen")
    )
    seen |= _memo_classes(EXTRA_SHAPES, str(tmp_path / "x"))
    ensure_process_initialized()
    seen |= _named(pickle.dumps(prelude().symtab))
    paths = []
    for name, text in db_sources().items():
        path = tmp_path / os.path.basename(name)
        path.write_text(text)
        paths.append(str(path))
    lib = tmp_path / "db.lcd"
    assert run(["-quiet", "-dump", str(lib), *paths])[0] == 0
    seen |= _named(lib.read_bytes()[len(LIBRARY_MAGIC):])
    assert seen == {
        (module, name)
        for module, names in ALLOWED_CLASSES.items() for name in names
    }


class _RunsACommand:
    """Unpickling this runs ``touch <marker>`` under a plain unpickler."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __reduce__(self):
        return os.system, (f"touch {self.marker}",)


SOURCES = {
    "a.c": "#include <stdlib.h>\n"
           "extern /*@null@*/ char *get(void);\n"
           "char first(void) { char *p = get(); return *p; }\n",
    "b.c": "int twice(int x) { return x + x; }\n",
}

#: A flag setting the cold runs did not use: every result misses, so the
#: symtab stage decodes every memo's interface slice.
OTHER_FLAGS = Flags.from_args(["-mustfree"])


def _plain_renders():
    result = IncrementalChecker(flags=OTHER_FLAGS).check_sources(dict(SOURCES))
    return [m.render() for m in result.messages]


def _poisoned(memo, marker):
    return dataclasses.replace(
        memo, iface_pickle=pickle.dumps((_RunsACommand(marker), {}))
    )


class TestPoisonedPayloads:
    def test_a_local_memo_slice_naming_os_system_is_dropped(self, tmp_path):
        marker = tmp_path / "ran"
        root = str(tmp_path / "cache")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(SOURCES))
        cache = ResultCache(root)
        keys = [os.path.basename(p)[:-4]
                for p in glob.glob(os.path.join(root, "units", "*.pkl"))]
        assert len(keys) == 2
        for key in keys:
            cache.put_unit_memo(key, _poisoned(cache.get_unit_memo(key), marker))
        checker = IncrementalChecker(flags=OTHER_FLAGS, cache=ResultCache(root))
        result = checker.check_sources(dict(SOURCES))
        assert not marker.exists()
        assert [m.render() for m in result.messages] == _plain_renders()
        assert checker.stats.memo_hits == 2
        assert any("dropped 2 corrupt" in n for n in checker.stats.notes)
        # Each poisoned memo was dropped, and the parse that replaced
        # its slice recorded a fresh memo under the same key.
        fresh = ResultCache(root)
        assert sorted(
            os.path.basename(p)[:-4]
            for p in glob.glob(os.path.join(root, "units", "*.pkl"))
        ) == sorted(keys)
        for key in keys:
            assert decode_slice(fresh.get_unit_memo(key).iface_pickle) \
                is not None
        assert not marker.exists()

    def test_a_memo_file_naming_os_system_is_dropped(self, tmp_path):
        marker = tmp_path / "ran"
        root = str(tmp_path / "cache")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(SOURCES))
        for path in glob.glob(os.path.join(root, "units", "*.pkl")):
            with open(path, "wb") as handle:
                pickle.dump(_RunsACommand(str(marker)), handle)
        checker = IncrementalChecker(flags=OTHER_FLAGS, cache=ResultCache(root))
        result = checker.check_sources(dict(SOURCES))
        assert not marker.exists()
        assert [m.render() for m in result.messages] == _plain_renders()
        assert checker.stats.memo_hits == 0
        assert any("dropped 2 corrupt" in n for n in checker.stats.notes)

    def test_a_memo_put_through_the_cache_service_is_dropped(self, tmp_path):
        marker = tmp_path / "ran"
        server = CacheServerThread(cache_dir=str(tmp_path / "shared"))
        try:
            client = CacheClient(server.addr)
            IncrementalChecker(remote=client).check_sources(dict(SOURCES))
            keys = [os.path.basename(p)[:-4] for p in glob.glob(
                str(tmp_path / "shared" / "units" / "*.pkl"))]
            memos = client.get_memos(keys)
            client.put_memos([
                (key, _poisoned(memo, marker))
                for key, memo in zip(keys, memos)
            ])
            checker = IncrementalChecker(flags=OTHER_FLAGS, remote=client)
            result = checker.check_sources(dict(SOURCES))
            client.close()
        finally:
            server.close()
        assert not marker.exists()
        assert [m.render() for m in result.messages] == _plain_renders()
        assert checker.stats.memo_hits == 2

    def test_a_library_naming_os_system_is_a_library_error(self, tmp_path):
        marker = tmp_path / "ran"
        lib = tmp_path / "evil.lcd"
        lib.write_bytes(
            LIBRARY_MAGIC + pickle.dumps(_RunsACommand(str(marker)))
        )
        with pytest.raises(LibraryError, match="may not name"):
            load_library(str(lib))
        source = tmp_path / "b.c"
        source.write_text(SOURCES["b.c"])
        with pytest.raises(CliError, match="may not name"):
            run(["-load", str(lib), str(source)])
        assert not marker.exists()
