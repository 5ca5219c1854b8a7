"""Bug seeding: the paper's error catalogue as plantable recipes.

The paper's central comparison (sections 1 and 7) is that static
checking finds errors on *all* paths without running the program, while
run-time tools "depend entirely on running the right test cases". The
difftest mutation engine (:mod:`repro.difftest.mutations`) measures it
by splicing one of these recipes into each generated program variant;
the STAT-DYN experiment is a coverage sweep of that campaign
(:func:`repro.bench.harness.static_vs_runtime_experiment`).

The kinds mirror the paper's error catalogue, including the two
residual classes section 7 says the 1996 tool handled poorly (freeing
offset pointers, freeing static storage — "LCLint has since been
improved to detect" them; this reproduction detects both).
"""

from __future__ import annotations

import enum

from ..messages.message import MessageCode


class BugKind(enum.Enum):
    LEAK = "leak"
    DOUBLE_FREE = "double-free"
    USE_AFTER_FREE = "use-after-free"
    NULL_DEREF = "null-dereference"
    UNINIT_READ = "uninitialized-read"
    STATIC_FREE = "static-free"
    OFFSET_FREE = "offset-free"
    OUT_OF_BOUNDS = "out-of-bounds"
    UNINIT_FIELD = "uninit-field-read"
    DOUBLE_FREE_ALIAS = "double-free-alias"

    @property
    def error_class(self) -> str:
        """The detector-neutral error class this plant manifests as.

        ``static-free`` and ``offset-free`` are distinct plant recipes but
        both surface as an ``invalid-free`` at run time (and as a
        ``BAD_TRANSFER`` statically), so they share one class; every other
        kind's value already is its class slug.
        """
        if self in (BugKind.STATIC_FREE, BugKind.OFFSET_FREE):
            return "invalid-free"
        return self.value


#: Static message codes that count as detecting each bug kind inside its
#: scenario function. Narrower than the classes of
#: :data:`repro.messages.message.MEMORY_ERROR_CLASSES` on purpose: a
#: planted leak is not found by a ``LEAK_RETURN`` or ``ONLY_NOT_RELEASED``
#: message, and the refinement plants need their own codes rather than a
#: coarser ``USE_BEFORE_DEF`` or ``USE_AFTER_RELEASE``.
STATIC_SIGNATURES: dict[BugKind, set[MessageCode]] = {
    BugKind.LEAK: {MessageCode.LEAK_SCOPE, MessageCode.LEAK_OVERWRITE,
                   MessageCode.LEAK_RESULT},
    BugKind.DOUBLE_FREE: {MessageCode.USE_AFTER_RELEASE},
    BugKind.USE_AFTER_FREE: {MessageCode.USE_AFTER_RELEASE},
    BugKind.NULL_DEREF: {MessageCode.NULL_DEREF},
    BugKind.UNINIT_READ: {MessageCode.USE_BEFORE_DEF},
    BugKind.STATIC_FREE: {MessageCode.BAD_TRANSFER},
    BugKind.OFFSET_FREE: {MessageCode.BAD_TRANSFER},
    BugKind.OUT_OF_BOUNDS: {MessageCode.ARRAY_BOUNDS},
    BugKind.UNINIT_FIELD: {MessageCode.UNINIT_FIELD},
    BugKind.DOUBLE_FREE_ALIAS: {MessageCode.DOUBLE_RELEASE},
}


def bug_body(kind: BugKind, module: int, name: str) -> tuple[str, str]:
    """Return (helper declarations, scenario body) for one bug kind.

    The difftest mutation engine splices the body into a scenario
    function of generator output, and the helpers above it.
    """
    rec = f"rec{module}"
    helpers = ""
    if kind is BugKind.LEAK:
        body = f"""
  {rec} head = {rec}_create("leaked", 3);
  head = {rec}_push(head, "more", 4);
  printf("{name}: %d\\n", {rec}_total(head));
"""
    elif kind is BugKind.DOUBLE_FREE:
        body = f"""
  {rec} head = {rec}_create("twice", 5);
  printf("{name}: %d\\n", {rec}_total(head));
  {rec}_destroy(head);
  {rec}_destroy(head);
"""
    elif kind is BugKind.USE_AFTER_FREE:
        body = f"""
  {rec} head = {rec}_create("gone", 7);
  {rec}_destroy(head);
  printf("{name}: %d\\n", {rec}_total(head));
"""
    elif kind is BugKind.NULL_DEREF:
        helpers = f"""
static /*@null@*/ /*@only@*/ {rec} maybe_{name}(int n)
{{
  if (n > 0) {{
    return {rec}_create("maybe", n);
  }}
  return NULL;
}}
"""
        body = f"""
  {rec} r = maybe_{name}(-1);
  printf("{name}: %d\\n", r->count);
  {rec}_destroy(r);
"""
    elif kind is BugKind.UNINIT_READ:
        body = f"""
  struct _rec{module} local;
  int t;
  t = local.count;
  printf("{name}: %d\\n", t);
"""
    elif kind is BugKind.STATIC_FREE:
        body = f"""
  char *msg = "immortal";
  printf("{name}: %s\\n", msg);
  free(msg);
"""
    elif kind is BugKind.OFFSET_FREE:
        body = f"""
  char *buf = (char *) malloc(16);
  if (buf == NULL) {{ exit(EXIT_FAILURE); }}
  buf[0] = 'a';
  buf[1] = 0;
  printf("{name}: %s\\n", buf);
  free(buf + 1);
"""
    elif kind is BugKind.OUT_OF_BOUNDS:
        # The canonical off-by-one loop: the last store lands one past
        # the extent (the body only writes, so the zero-iteration path
        # never reads undefined elements).
        body = f"""
  int a[4];
  int i;
  for (i = 0; i <= 4; i++) {{
    a[i] = i * 2;
  }}
  printf("{name}: %d\\n", i);
"""
    elif kind is BugKind.UNINIT_FIELD:
        # Two of three fields written: the struct is partially defined
        # when the unwritten counter is read.
        body = f"""
  struct _rec{module} local;
  int t;
  local.name = "fixed";
  local.next = NULL;
  t = local.count;
  printf("{name}: %d\\n", t);
"""
    elif kind is BugKind.DOUBLE_FREE_ALIAS:
        body = f"""
  char *p = (char *) malloc(8);
  char *q;
  if (p == NULL) {{ exit(EXIT_FAILURE); }}
  p[0] = 'a';
  p[1] = 0;
  q = p;
  printf("{name}: %s\\n", q);
  free(p);
  free(q);
"""
    else:  # pragma: no cover
        raise ValueError(kind)
    return helpers, body


#: Clean scenario recipes guarding the checkers' false-positive rate:
#: guard idioms that historically drew spurious messages (?: arms checked
#: against the unguarded store; assignment-in-condition results not
#: refined by the comparison), plus the benign twin of each of the three
#: refinement checkers (an in-bounds counting loop, a fully-initialized
#: struct, an alias freed exactly once). No static message and no runtime
#: event is correct for any entry, so a checker regression shows up as a
#: static-fp discrepancy in the differential campaign instead of only in
#: unit tests.
GUARD_CLEAN_IDIOMS: tuple[str, ...] = (
    "ternary-guard-and",    # (p != NULL && ...) ? use p : fallback
    "ternary-truth",        # p ? use p : fallback
    "assign-cond-eq",       # if ((p = malloc(..)) == NULL) return;
    "assign-cond-ne",       # if ((p = malloc(..)) != NULL) { use p }
    "index-loop-bounded",   # for (i = 0; i < N; i++) a[i] = ...  (in range)
    "struct-full-init",     # every field written before the read
    "alias-single-free",    # q = p; free(q);  (freed exactly once)
)


def guard_clean_body(idiom: str, module: int, name: str) -> tuple[str, str]:
    """Return (helper declarations, scenario body) for one clean guard
    idiom from :data:`GUARD_CLEAN_IDIOMS`.

    Every body frees what it allocates and never reads memory it has not
    written, so both the static checker and the instrumented heap must
    stay silent on it.
    """
    rec = f"rec{module}"
    maybe_helper = f"""
static /*@null@*/ /*@only@*/ {rec} opt_{name}(int n)
{{
  if (n > 0) {{
    return {rec}_create("opt", n);
  }}
  return NULL;
}}
"""
    if idiom == "ternary-guard-and":
        helpers = maybe_helper
        body = f"""
  {rec} r;
  int v;
  r = opt_{name}(3);
  v = (r != NULL && r->count > 0) ? r->count : 0;
  printf("{name}: %d\\n", v);
  if (r != NULL) {{
    {rec}_destroy(r);
  }}
"""
    elif idiom == "ternary-truth":
        helpers = maybe_helper
        body = f"""
  {rec} r;
  int v;
  r = opt_{name}(2);
  v = r ? r->count : 0;
  printf("{name}: %d\\n", v);
  if (r != NULL) {{
    {rec}_destroy(r);
  }}
"""
    elif idiom == "assign-cond-eq":
        helpers = ""
        body = f"""
  char *s;
  if ((s = (char *) malloc(4)) == NULL) {{
    return;
  }}
  s[0] = 'x';
  s[1] = 0;
  printf("{name}: %s\\n", s);
  free(s);
"""
    elif idiom == "assign-cond-ne":
        helpers = ""
        body = f"""
  char *t;
  int v;
  v = 0;
  if ((t = (char *) malloc(4)) != NULL) {{
    t[0] = 'y';
    v = 1;
    free(t);
  }}
  printf("{name}: %d\\n", v);
"""
    elif idiom == "index-loop-bounded":
        helpers = ""
        body = f"""
  int a[4];
  int i;
  for (i = 0; i < 4; i++) {{
    a[i] = i * 2;
  }}
  printf("{name}: %d\\n", i);
"""
    elif idiom == "struct-full-init":
        helpers = ""
        body = f"""
  struct _rec{module} local;
  int t;
  local.name = "fixed";
  local.next = NULL;
  local.count = 4;
  t = local.count;
  printf("{name}: %d\\n", t);
"""
    elif idiom == "alias-single-free":
        helpers = ""
        body = f"""
  char *p = (char *) malloc(8);
  char *q;
  if (p == NULL) {{ exit(EXIT_FAILURE); }}
  p[0] = 'a';
  p[1] = 0;
  q = p;
  printf("{name}: %s\\n", q);
  free(q);
"""
    else:
        raise ValueError(f"unknown guard idiom {idiom!r}")
    return helpers, body
