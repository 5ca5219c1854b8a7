"""Incremental soundness: no sequence of edits serves a stale answer.

A hypothesis state machine edits a small generated program (two to four
units and a shared header, ``common.h``, plus ``extra.h``), one rule
per edit kind: a same-line and a line-inserting body edit; an interface
edit (a return annotation or a signature) and an edit to a declaration
only some units use; a header edit, a macro change, a flag flip and an
include reorder; a unit added and a unit removed. The units call each
other, so an interface edit in one changes another's messages.

After every step the program is checked three ways: from scratch by a
plain ``Checker``; by an engine on a local cache directory that persists
across the steps; and by a remote-only engine (no local cache) on a live
cache server that also persists. All three must render the same
messages and give the same exit status.

Cost: 40 examples of up to 15 steps each: about 420 edits, 460 states
checked three ways (about 1,400 checks), in 5-10 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.api import Checker
from repro.driver.cli import _exit_status
from repro.flags.registry import Flags
from repro.incremental import (
    CacheClient,
    CacheServerThread,
    IncrementalChecker,
    ResultCache,
)

#: Flags a flip toggles; each changes which messages a unit gets.
FLIPPABLE = ("-null", "-mustfree", "-compdef")

#: The include reorder target: whichever of the two headers comes first
#: defines LIMIT, and ``#if LIMIT > 3`` picks a unit's cleanup code.
EXTRA_H = "#ifndef LIMIT\n#define LIMIT 2\n#endif\n"

#: Picks a unit: an index into the live units, modulo their number.
UNIT = st.integers(min_value=0, max_value=7)


@dataclass
class Unit:
    """One unit ``u<id>.c``: ``make<id>`` allocates, and ``use<id>``
    calls another unit's ``make`` and dereferences what it returns."""

    callee: int
    uses_lookup: bool
    null_return: bool = False
    takes_arg: bool = False
    constant: int = 1
    body_lines: int = 0
    extra_first: bool = False

    def text(self, uid: int) -> str:
        includes = ['#include "common.h"\n', '#include "extra.h"\n']
        if self.extra_first:
            includes.reverse()
        null = "/*@null@*/ " if self.null_return else ""
        param = "int k" if self.takes_arg else "void"
        lookup = (
            "  char *s = lookup(r);\n  r = r + *s;\n" if self.uses_lookup
            else ""
        )
        return (
            "".join(includes)
            + f"{null}int *make{uid}({param})\n"
            "{\n"
            "  int *p = (int *) malloc(sizeof(int));\n"
            "  return p;\n"
            "}\n"
            f"int use{uid}(void)\n"
            "{\n"
            + "\n" * self.body_lines
            + f"  int *q = make{self.callee}();\n"
            f"  int r = *q + {self.constant};\n"
            + lookup
            + "#if LIMIT > 3\n"
            "  free(q);\n"
            "#endif\n"
            "  return r;\n"
            "}\n"
        )


def common_h(limit: int, lookup_null: bool, lines_above: int) -> str:
    null = "/*@null@*/ " if lookup_null else ""
    return (
        "\n" * lines_above
        + "#ifndef COMMON_H\n#define COMMON_H\n#include <stdlib.h>\n"
        "#ifndef LIMIT\n"
        f"#define LIMIT {limit}\n"
        "#endif\n"
        f"extern {null}char *lookup(int k);\n"
        "#endif\n"
    )


def _outcome(result) -> tuple[list[str], int]:
    return [m.render() for m in result.messages], _exit_status(result)


class EditSequences(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="soundness-")
        self.server = CacheServerThread(cache_dir=f"{self.root}/shared")
        self.client = CacheClient(self.server.addr)
        self.units: dict[int, Unit] = {}
        self.next_id = 0
        self.limit = 4
        self.lookup_null = True
        self.header_lines = 0
        self.flags: set[str] = set()

    def teardown(self) -> None:
        self.client.close()
        self.server.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _files(self) -> dict[str, str]:
        files = {
            "common.h": common_h(
                self.limit, self.lookup_null, self.header_lines
            ),
            "extra.h": EXTRA_H,
        }
        for uid, unit in self.units.items():
            files[f"u{uid}.c"] = unit.text(uid)
        return files

    def _add(self, callee: int, uses_lookup: bool, null_return: bool) -> None:
        self.units[self.next_id] = Unit(callee, uses_lookup, null_return)
        self.next_id += 1

    def _unit(self, pick: int) -> Unit:
        return self.units[sorted(self.units)[pick % len(self.units)]]

    @initialize(count=st.integers(min_value=2, max_value=3))
    def program(self, count: int) -> None:
        for i in range(count):
            self._add((i + 1) % count, i % 2 == 0, i % 2 == 0)

    # -- body edits -------------------------------------------------------

    @rule(pick=UNIT, constant=st.integers(min_value=0, max_value=9))
    def same_line_body_edit(self, pick: int, constant: int) -> None:
        self._unit(pick).constant = constant

    @rule(pick=UNIT)
    def line_inserting_body_edit(self, pick: int) -> None:
        self._unit(pick).body_lines += 1

    # -- interface edits ----------------------------------------------------

    @rule(pick=UNIT, signature=st.booleans())
    def interface_edit(self, pick: int, signature: bool) -> None:
        unit = self._unit(pick)
        if signature:
            unit.takes_arg = not unit.takes_arg
        else:
            unit.null_return = not unit.null_return

    @rule()
    def edit_a_declaration_some_units_use(self) -> None:
        self.lookup_null = not self.lookup_null

    # -- headers, macros, flags and includes --------------------------------

    @rule()
    def header_edit(self) -> None:
        self.header_lines += 1

    @rule()
    def macro_change(self) -> None:
        self.limit = 7 - self.limit  # 4 <-> 3: either side of LIMIT > 3

    @rule(flag=st.sampled_from(FLIPPABLE))
    def flag_flip(self, flag: str) -> None:
        self.flags ^= {flag}

    @rule(pick=UNIT)
    def include_reorder(self, pick: int) -> None:
        unit = self._unit(pick)
        unit.extra_first = not unit.extra_first

    # -- units come and go ----------------------------------------------------

    @precondition(lambda self: len(self.units) < 4)
    @rule(pick=UNIT, uses_lookup=st.booleans(), null_return=st.booleans())
    def add_unit(self, pick: int, uses_lookup: bool, null_return: bool) -> None:
        callee = sorted(self.units)[pick % len(self.units)]
        self._add(callee, uses_lookup, null_return)

    @precondition(lambda self: len(self.units) > 1)
    @rule(pick=UNIT)
    def remove_unit(self, pick: int) -> None:
        del self.units[sorted(self.units)[pick % len(self.units)]]

    # -- the invariant ------------------------------------------------------

    @invariant()
    def incremental_runs_match_a_fresh_check(self) -> None:
        if not self.units:
            return  # before the program is generated
        files = self._files()
        flags = Flags.from_args(sorted(self.flags))
        expected = _outcome(Checker(flags=flags).check_sources(dict(files)))
        local = IncrementalChecker(
            flags=flags, cache=ResultCache(f"{self.root}/local")
        )
        assert _outcome(local.check_sources(dict(files))) == expected
        remote = IncrementalChecker(flags=flags, remote=self.client)
        assert _outcome(remote.check_sources(dict(files))) == expected
        assert not self.client.dead, self.client.drain_notes()


EditSequences.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEditSequences = EditSequences.TestCase
