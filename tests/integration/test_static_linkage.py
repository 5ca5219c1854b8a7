"""Internal linkage across units: a ``static`` function or file-scope
object is private to its translation unit.

The merged program symbol table keeps one entry per name, so two units
that each define ``static int helper(int *p)`` used to collide there:
whichever came last decided the signature both units were checked
against, and a clean program got a false "Null value passed as non-null
param" (or a false dereference warning in the other unit, in the other
order). Every checking path now checks a unit against its own
internal-linkage entries.
"""

import pytest

from repro.core.api import Checker
from repro.driver.cli import run

NULL_HELPER = """\
#include <stdlib.h>

static int helper(/*@null@*/ int *p)
{
  if (p == NULL)
    return 0;
  return *p;
}

int a_entry(void)
{
  return helper(NULL);
}
"""

PLAIN_HELPER = """\
static int helper(int *p)
{
  return *p;
}

int b_entry(int *q)
{
  return helper(q);
}
"""

NULL_GLOBAL = """\
#include <stdlib.h>

static /*@null@*/ int *gp = NULL;

int ga_get(void)
{
  if (gp == NULL)
    return 0;
  return *gp;
}
"""

PLAIN_GLOBAL = """\
static int gp_storage;
static int *gp = &gp_storage;

int gb_get(void)
{
  return *gp;
}
"""

PAIRS = {
    "function": {"a.c": NULL_HELPER, "b.c": PLAIN_HELPER},
    "object": {"ga.c": NULL_GLOBAL, "gb.c": PLAIN_GLOBAL},
}


def _ordered(pair: str, reverse: bool) -> dict[str, str]:
    items = list(PAIRS[pair].items())
    return dict(reversed(items) if reverse else items)


def _write(tmp_path, files: dict[str, str]) -> list[str]:
    paths = []
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("reverse", [False, True])
class TestStaticsStayInTheirUnit:
    def test_each_unit_alone_is_clean(self, pair, reverse):
        for name, text in _ordered(pair, reverse).items():
            assert Checker().check_sources({name: text}).messages == []

    def test_checker_api(self, pair, reverse):
        result = Checker().check_sources(_ordered(pair, reverse))
        assert [m.render() for m in result.messages] == []

    def test_cli_without_cache(self, pair, reverse, tmp_path):
        paths = _write(tmp_path, _ordered(pair, reverse))
        assert run(paths) == (0, "0 code warning(s)")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_with_cache_cold_and_warm(self, pair, reverse, jobs, tmp_path):
        paths = _write(tmp_path, _ordered(pair, reverse))
        argv = ["--cache-dir", str(tmp_path / "cache"), "--jobs", jobs]
        assert run(argv + paths) == (0, "0 code warning(s)")  # cold
        assert run(argv + paths) == (0, "0 code warning(s)")  # warm


def test_a_units_own_static_still_reports_real_bugs():
    # b.c passes NULL to *its own* non-null helper: a true positive that
    # a.c's null-accepting helper of the same name must not hide.
    files = {
        "a.c": NULL_HELPER,
        "b.c": PLAIN_HELPER.replace("helper(q)", "helper(NULL)")
        .replace("static int helper", "#include <stdlib.h>\n\n"
                 "static int helper", 1),
    }
    for ordered in (files, dict(reversed(list(files.items())))):
        renders = [m.render() for m in Checker().check_sources(ordered).messages]
        assert len(renders) == 1
        assert renders[0].startswith("b.c:")
        assert "Null value passed as non-null param p of helper" in renders[0]


NULL_PICK = """\
#include <stdlib.h>

static /*@null@*/ char *pick(void)
{
  return NULL;
}

char fa(void)
{
  char *p = pick();
  return *p;
}
"""

PLAIN_PICK = """\
static char buffer[4];

static char *pick(void)
{
  return buffer;
}

char fb(void)
{
  return *pick();
}
"""


def test_trace_uses_the_traced_units_own_view(tmp_path):
    # -trace follows fa through a.c's own null-returning pick, whichever
    # unit's pick the program table kept.
    a, b = _write(tmp_path, {"a.c": NULL_PICK, "b.c": PLAIN_PICK})
    status, forward = run(["-trace", "fa", a, b])
    assert status == 1
    assert "p: completely defined / possibly null / fresh" in forward
    assert "Dereference of possibly null pointer p" in forward
    assert run(["-trace", "fa", b, a]) == (status, forward)
