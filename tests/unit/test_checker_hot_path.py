"""Invariants of the checker's per-function fast path.

A function check interns its base references, memoizes each reference's
declaration facts, and dispatches statements and expressions through a
handler table. None of that may change what is reported, how references
compare, or which methods a wrapper installed on the class sees.
"""

import pickle
import sys
from collections import Counter

from repro.analysis.calls import CallMixin
from repro.analysis.checker import CheckContext, FunctionChecker
from repro.analysis.storage import Ref
from repro.analysis.transfer import ExprMixin
from repro.bench.dbexample import FINAL_STAGE, db_sources
from repro.bench.generator import generate_program_of_size
from repro.core.api import (
    Checker,
    build_program_symtab,
    check_parsed_unit,
    unit_interface,
)
from repro.frontend.source import SourceFile
from repro.messages.reporter import Reporter

# The outer q is an unannotated local, so it takes the obligation of
# malloc's result. The inner q has another type and is temp. The binding
# made last wins for the rest of the function, also after its block
# closes, so both later assignments report the lost obligation.
SHADOWING_SOURCE = """\
#include <stdlib.h>

void shadow(void)
{
  char *q = (char *) malloc(10);
  if (q != NULL) { *q = 'a'; }
  free(q);
  {
    /*@temp@*/ int *q;
    q = (int *) malloc(sizeof(int));
  }
  q = (char *) malloc(10);
}
"""

SHADOWING_MESSAGES = [
    "shadow.c:10: Fresh storage assigned to temp q (obligation to release "
    "is lost): q = (int *) malloc(sizeof(int))",
    "shadow.c:12: Fresh storage assigned to temp q (obligation to release "
    "is lost): q = (char *) malloc(10)",
]


def test_redeclared_name_uses_the_latest_declaration():
    result = Checker().check_sources({"shadow.c": SHADOWING_SOURCE})
    assert [m.render() for m in result.messages] == SHADOWING_MESSAGES


def _function_checker(source="int f(int *p) { return 0; }\nint g;\n"):
    checker = Checker()
    parsed = checker.parse_unit(source, "t.c")
    result = checker.check_units([parsed])
    ctx = CheckContext(
        symtab=result.symtab, reporter=Reporter(flags=checker.flags),
        flags=checker.flags,
    )
    return FunctionChecker(ctx, parsed.unit.functions()[0])


class TestInternedRefs:
    def _pairs(self):
        fc = _function_checker()
        return fc, [
            (fc.local_ref("p"), Ref.local("p")),
            (fc.global_ref("g"), Ref.global_("g")),
            (fc.arg_ref(0, "p"), Ref.arg(0, "p")),
            (fc.local_ref("p").arrow("f"), Ref.local("p").arrow("f")),
            (fc.local_ref("p").deref(), Ref.local("p").deref()),
        ]

    def test_interned_once_per_check(self):
        fc = _function_checker()
        assert fc.local_ref("p") is fc.local_ref("p")
        assert fc.global_ref("g") is fc.global_ref("g")
        assert fc.arg_ref(0, "p") is fc.arg_ref(0, "p")
        assert fc.local_ref("p") is not _function_checker().local_ref("p")

    def test_equal_and_same_hash(self):
        _, pairs = self._pairs()
        for interned, fresh in pairs:
            assert interned == fresh and fresh == interned
            assert not interned != fresh
            assert hash(interned) == hash(fresh)
        fc, _ = self._pairs()
        assert fc.local_ref("g") != Ref.global_("g")
        assert fc.arg_ref(0, "p") != Ref.local("p")

    def test_find_each_others_dict_entries(self):
        _, pairs = self._pairs()
        by_interned = {interned: i for i, (interned, _) in enumerate(pairs)}
        by_fresh = {fresh: i for i, (_, fresh) in enumerate(pairs)}
        for i, (interned, fresh) in enumerate(pairs):
            assert by_interned[fresh] == i
            assert by_fresh[interned] == i

    def test_sort_the_same(self):
        _, pairs = self._pairs()
        interned = [a for a, _ in pairs]
        fresh = [b for _, b in pairs]
        assert sorted(interned) == sorted(fresh)
        assert [str(r) for r in sorted(interned)] == [
            str(r) for r in sorted(fresh)
        ]

    def test_pickle_round_trip(self):
        _, pairs = self._pairs()
        for interned, fresh in pairs:
            copy = pickle.loads(pickle.dumps(interned))
            assert copy == fresh and copy == interned
            assert hash(copy) == hash(fresh)
            assert {fresh: 1}[copy] == 1


#: Methods that perfbench/tracer.py wraps on the class after import.
HOOKS = [
    (ExprMixin, "handle_assignment"),
    (CallMixin, "handle_call"),
    (FunctionChecker, "exec_stmt"),
    (FunctionChecker, "eval_condition"),
    (FunctionChecker, "check_exit"),
]


def test_methods_patched_after_import_see_every_call(monkeypatch):
    """Every execution of each hooked method's code enters through the
    attribute installed on the class: no handler bound it early."""
    names = {}
    through_patch: Counter = Counter()
    for owner, name in HOOKS:
        original = getattr(owner, name)
        names[original.__code__] = name

        def patched(self, *args, _original=original, _name=name, **kwargs):
            through_patch[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, patched)

    executed: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                executed[name] += 1

    sys.setprofile(profile)
    try:
        for stage in (0, FINAL_STAGE):
            result = Checker().check_sources(db_sources(stage))
            assert result.internal_errors == 0
    finally:
        sys.setprofile(None)
    assert set(executed) == {name for _, name in HOOKS}
    assert through_patch == executed



def _analyze_counting_locations(files, monkeypatch):
    """Parse *files* as the engine does, then check every unit while
    counting the ``Location``s built (``SourceFile.location`` calls).
    Returns the count and the messages."""
    checker = Checker()
    for name, text in files.items():
        checker.sources.add(name, text)
    units = [
        checker.parse_unit(files[name], name)
        for name in sorted(files) if name.endswith(".c")
    ]
    interfaces = [unit_interface(pu) for pu in units]
    symtab = build_program_symtab(interfaces)
    built = 0
    original = SourceFile.location

    def counting(self, offset):
        nonlocal built
        built += 1
        return original(self, offset)

    monkeypatch.setattr(SourceFile, "location", counting)
    messages = []
    for pu, interface in zip(units, interfaces):
        messages += check_parsed_unit(
            pu, symtab, checker.flags, pu.enum_consts, interface=interface,
        ).messages
    monkeypatch.undo()
    return built, messages


class TestAnalyzeBuildsLocationsOnlyToReport:
    """Analysis passes on the positions nodes store; a ``Location`` is
    built only for a message or sub-location that is reported."""

    def test_clean_generated_program_builds_none(self, monkeypatch):
        files = dict(generate_program_of_size(2000, seed=1).files)
        built, messages = _analyze_counting_locations(files, monkeypatch)
        assert messages == []
        assert built == 0

    def test_clean_db_builds_none(self, monkeypatch):
        built, messages = _analyze_counting_locations(
            db_sources(FINAL_STAGE), monkeypatch
        )
        assert messages == []
        assert built == 0


#: Messages whose location and sub-locations come from positions the
#: analysis carried: a store site, a declaration, an assignment recorded
#: for the modifies check. Pinned to the output of the checker that built
#: every Location eagerly.
POSITION_CASES = {
    "null.c": ("""#include <stdlib.h>

int first(void)
{
  int *p = (int *) malloc(sizeof(int));
  int v = *p;
  free(p);
  return v;
}
""", [
        {"code": "null-deref", "location": ["null.c", 6, 11],
         "text": "Dereference of possibly null pointer p: *p",
         "subs": [[["null.c", 5, 10], "Storage p may become null"]]},
        {"code": "use-before-def", "location": ["null.c", 6, 11],
         "text": "Value *p used before definition", "subs": []},
    ]),
    "merge.c": ("""#include <stdlib.h>

void drop(/*@only@*/ int *p, int c)
{
  if (c) {
    free(p);
  } else {
    free(p);
  }
  *p = 1;
}
""", [
        {"code": "use-after-release", "location": ["merge.c", 10, 4],
         "text": "Storage p used after release",
         "subs": [[["merge.c", 6, 9], "Storage p is released"]]},
    ]),
    "scope.c": ("""#include <stdlib.h>

void spill(void)
{
  {
    char *s = (char *) malloc(10);
    if (s != NULL) { *s = 'a'; }
  }
}
""", [
        {"code": "leak-scope", "location": ["scope.c", 8, 3],
         "text": "Fresh storage s not released before scope exit "
                 "(memory leak)",
         "subs": [[["scope.c", 6, 13], "Fresh storage s allocated"]]},
    ]),
    "modifies.c": ("""extern int counter;
extern int other;

void f(void) /*@globals counter, other@*/ /*@modifies counter@*/
{
  counter = 1;
  other = 2;
}
""", [
        {"code": "modifies", "location": ["modifies.c", 7, 9],
         "text": "Undocumented modification of global other (not listed "
                 "in the modifies clause of f)", "subs": []},
    ]),
}


class TestReportedPositions:
    def test_messages_keep_text_location_and_sub_locations(self):
        for name, (source, expected) in POSITION_CASES.items():
            result = Checker().check_sources({name: source})
            assert [m.to_dict() for m in result.messages] == expected, name

    def test_only_reported_positions_build_a_location(self, monkeypatch):
        files = {name: source for name, (source, _) in POSITION_CASES.items()}
        built, messages = _analyze_counting_locations(files, monkeypatch)
        reported = {m.location for m in messages} | {
            sub.location for m in messages for sub in m.subs
        }
        assert 0 < built <= len(reported)
