"""Tests for source files and location mapping."""

from repro.frontend.source import BUILTIN_LOCATION, Location, SourceFile, SourceManager


class TestLocation:
    def test_str_is_lclint_style(self):
        assert str(Location("sample.c", 6, 3)) == "sample.c:6"

    def test_ordering_by_file_then_line(self):
        a = Location("a.c", 10, 1)
        b = Location("b.c", 1, 1)
        assert a < b
        assert Location("a.c", 2, 1) < Location("a.c", 10, 1)

    def test_with_column(self):
        loc = Location("f.c", 3, 1).with_column(9)
        assert loc.column == 9
        assert loc.line == 3

    def test_builtin_location(self):
        assert BUILTIN_LOCATION.filename == "<builtin>"


class TestSourceFile:
    def test_offset_to_location_first_line(self):
        sf = SourceFile("t.c", "abc\ndef\n")
        loc = sf.location(1)
        assert (loc.line, loc.column) == (1, 2)

    def test_offset_to_location_later_line(self):
        sf = SourceFile("t.c", "abc\ndef\nghi")
        loc = sf.location(8)
        assert (loc.line, loc.column) == (3, 1)

    def test_line_text(self):
        sf = SourceFile("t.c", "first\nsecond\nthird")
        assert sf.line_text(2) == "second"
        assert sf.line_text(3) == "third"
        assert sf.line_text(99) == ""
        assert sf.line_text(0) == ""

    def test_line_count(self):
        assert SourceFile("t.c", "a\nb\nc").line_count == 3
        assert SourceFile("t.c", "").line_count == 1

    def test_negative_offset_clamped(self):
        sf = SourceFile("t.c", "xyz")
        assert sf.location(-5).line == 1


class TestSourceManager:
    def test_add_and_get(self):
        mgr = SourceManager()
        mgr.add("a.c", "int x;")
        assert mgr.get("a.c") is not None
        assert mgr.get("missing.c") is None

    def test_names_sorted(self):
        mgr = SourceManager()
        mgr.add("z.c", "")
        mgr.add("a.c", "")
        assert mgr.names() == ["a.c", "z.c"]

    def test_read_from_disk(self, tmp_path):
        path = tmp_path / "disk.c"
        path.write_text("int y;\n")
        mgr = SourceManager()
        sf = mgr.read(str(path))
        assert sf.text == "int y;\n"
        # Cached: same object on second read.
        assert mgr.read(str(path)) is sf
        # Read, not registered: no later lookup by name finds it.
        assert mgr.get(str(path)) is None
        assert mgr.read(str(tmp_path / "missing.h")) is None
        assert mgr.read(str(tmp_path)) is None  # a directory is no file
