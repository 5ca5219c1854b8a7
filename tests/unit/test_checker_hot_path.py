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
from repro.core.api import Checker
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
            hash(interned)  # cache the hash before pickling
            assert interned.__getstate__() == (interned.base, interned.path)
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

