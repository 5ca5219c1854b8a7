"""Synthetic annotated C program generator for the scaling experiments.

The paper's performance evaluation (section 7) is a case study on
LCLint's own 100k-line source, which is not available here; this
generator is the substitution (see DESIGN.md). It produces multi-module
C programs of a controllable size with the same interface texture as the
paper's code: annotated abstract record types, constructors that
allocate, destructors that release, list traversals, and drivers that
exercise them across module boundaries.

Two properties are load-bearing:

* A fully-annotated generated program checks **clean** — so checker time
  on it measures analysis cost, not message formatting, and so planted
  bugs (the recipes of :mod:`repro.bench.seeding`, spliced in by
  :mod:`repro.difftest.mutations`) are the only true positives.
* The same program can be emitted **without annotations** to reproduce
  the "on the order of a thousand messages" burden experiment.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass
class GeneratedProgram:
    """A multi-file C program plus its generation statistics."""

    files: dict[str, str]
    modules: int
    functions: int
    scenarios: list[str] = field(default_factory=list)

    @property
    def loc(self) -> int:
        return sum(text.count("\n") + 1 for text in self.files.values())

    def stripped(self) -> "GeneratedProgram":
        """The same program with every annotation comment removed."""
        stripped = {
            name: strip_annotations(text) for name, text in self.files.items()
        }
        return GeneratedProgram(
            stripped, self.modules, self.functions, list(self.scenarios)
        )


#: Any stylized ``/*@...@*/`` comment: annotations (``/*@only@*/``) and
#: control comments alike (``/*@ignore@*/``, ``/*@i3@*/``,
#: ``/*@-mustfree@*/``). The payload may contain ``*`` and ``@`` (only
#: the closing ``@*/`` terminates it) and may span lines.
_ANNOTATION_RE = re.compile(r"/\*@(?:[^@]|@(?!\*/))*@\*/[ \t]?", re.DOTALL)


def strip_annotations(text: str) -> str:
    """Remove stylized ``/*@...@*/`` comments (the burden experiment).

    Both annotation comments and control comments are stripped: difftest
    mutants and suppression tests contain ``/*@i@*/``-style controls, and
    an "unannotated" program must not keep its suppressions either. Line
    structure is preserved — a comment is replaced by the newlines it
    contained, never by eating the one that follows it — so line-ranged
    ground truth computed on the annotated text stays valid.
    """
    return _ANNOTATION_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)


_UTIL_H = """#ifndef UTIL_H
#define UTIL_H
#include <stdlib.h>
#include <string.h>

extern /*@only@*/ char *dup_string(/*@temp@*/ char *s);
extern void fatal(/*@temp@*/ char *msg);

#endif
"""

_UTIL_C = """#include <stdlib.h>
#include <string.h>
#include <stdio.h>
#include "util.h"

/*@only@*/ char *dup_string(/*@temp@*/ char *s)
{
  char *copy = (char *) malloc(strlen(s) + 1);
  if (copy == NULL) {
    exit(EXIT_FAILURE);
  }
  strcpy(copy, s);
  return copy;
}

void fatal(/*@temp@*/ char *msg)
{
  printf("fatal: %s", msg);
  exit(EXIT_FAILURE);
}
"""


def _module_header(i: int) -> str:
    return f"""#ifndef REC{i}_H
#define REC{i}_H
#include <stdlib.h>

typedef /*@null@*/ struct _rec{i} {{
  /*@only@*/ char *name;
  int count;
  /*@null@*/ /*@only@*/ struct _rec{i} *next;
}} *rec{i};

extern /*@only@*/ rec{i} rec{i}_create(/*@temp@*/ char *name, int count);
extern void rec{i}_destroy(/*@null@*/ /*@only@*/ rec{i} r);
extern /*@only@*/ rec{i} rec{i}_push(/*@only@*/ rec{i} head,
                                     /*@temp@*/ char *name, int count);
extern int rec{i}_total(/*@null@*/ /*@temp@*/ rec{i} r);
extern int rec{i}_weight(int seed);

#endif
"""


def _module_source(i: int, rng: random.Random, filler_functions: int) -> str:
    parts: list[str] = []
    parts.append(f'#include <stdlib.h>\n#include <stdio.h>\n'
                 f'#include "util.h"\n#include "rec{i}.h"\n')

    parts.append(f"""
/*@only@*/ rec{i} rec{i}_create(/*@temp@*/ char *name, int count)
{{
  rec{i} r = (rec{i}) malloc(sizeof(*r));
  if (r == NULL) {{
    exit(EXIT_FAILURE);
  }}
  r->name = dup_string(name);
  r->count = count;
  r->next = NULL;
  return r;
}}

void rec{i}_destroy(/*@null@*/ /*@only@*/ rec{i} r)
{{
  if (r != NULL) {{
    rec{i}_destroy(r->next);
    free(r->name);
    free(r);
  }}
}}

/*@only@*/ rec{i} rec{i}_push(/*@only@*/ rec{i} head,
                              /*@temp@*/ char *name, int count)
{{
  rec{i} r = rec{i}_create(name, count);
  r->next = head;
  return r;
}}

int rec{i}_total(/*@null@*/ /*@temp@*/ rec{i} r)
{{
  int total = 0;
  while (r != NULL) {{
    total = total + r->count;
    r = r->next;
  }}
  return total;
}}
""")

    # Filler functions: pure arithmetic, annotation-free, always clean.
    weight_terms: list[str] = []
    for j in range(filler_functions):
        a = rng.randint(2, 9)
        b = rng.randint(1, 97)
        c = rng.randint(2, 13)
        lines = [f"static int filler{i}_{j}(int x)", "{", "  int acc = x;"]
        for k in range(rng.randint(3, 7)):
            op = rng.choice(["+", "*", "^", "-"])
            lines.append(f"  acc = (acc {op} {a + k}) % {b + 7 * k + 1};")
        lines.append(f"  if (acc < 0) {{ acc = -acc; }}")
        lines.append(f"  return acc + {c};")
        lines.append("}")
        parts.append("\n".join(lines) + "\n")
        weight_terms.append(f"filler{i}_{j}(seed + {j})")

    body_terms = weight_terms or ["seed"]
    sum_expr = ";\n  total = total + ".join(body_terms)
    parts.append(f"""
int rec{i}_weight(int seed)
{{
  int total = 0;
  total = total + {sum_expr};
  return total;
}}
""")
    return "\n".join(parts)


def _driver_source(modules: int, scenarios_per_module: int) -> tuple[str, list[str]]:
    parts = ['#include <stdlib.h>\n#include <stdio.h>\n#include "util.h"\n']
    for i in range(modules):
        parts.append(f'#include "rec{i}.h"\n')
    scenario_names: list[str] = []
    for i in range(modules):
        for s in range(scenarios_per_module):
            name = f"scenario_{i}_{s}"
            scenario_names.append(name)
            parts.append(f"""
void {name}(void)
{{
  rec{i} head = rec{i}_create("base", {s});
  int total;
  head = rec{i}_push(head, "first", {s + 1});
  head = rec{i}_push(head, "second", {s + 2});
  total = rec{i}_total(head) + rec{i}_weight({s});
  printf("{name}: %d\\n", total);
  rec{i}_destroy(head);
}}
""")
    calls = "\n".join(f"  {name}();" for name in scenario_names)
    parts.append(f"""
int main(void)
{{
{calls}
  return EXIT_SUCCESS;
}}
""")
    return "\n".join(parts), scenario_names


def generate_program(
    modules: int = 4,
    filler_functions: int = 6,
    scenarios_per_module: int = 2,
    seed: int = 20260704,
) -> GeneratedProgram:
    """Generate a clean, fully-annotated multi-module program."""
    rng = random.Random(seed)
    files: dict[str, str] = {"util.h": _UTIL_H, "util.c": _UTIL_C}
    for i in range(modules):
        files[f"rec{i}.h"] = _module_header(i)
        files[f"rec{i}.c"] = _module_source(i, rng, filler_functions)
    driver, scenarios = _driver_source(modules, scenarios_per_module)
    files["driver.c"] = driver
    functions = modules * (5 + filler_functions) + len(scenarios) + 3
    return GeneratedProgram(files, modules, functions, scenarios)


def generate_program_of_size(
    target_loc: int, seed: int = 20260704
) -> GeneratedProgram:
    """Generate a program whose total line count approximates *target_loc*.

    A module with the default filler density is ~60 + 9*filler lines; the
    solver picks module/filler counts and then refines filler count on
    the actual output.
    """
    modules = max(1, min(48, target_loc // 400))
    filler = 4
    program = generate_program(modules=modules, filler_functions=filler,
                               seed=seed)
    # refine filler count toward the target (two rounds is plenty)
    for _ in range(4):
        actual = program.loc
        if abs(actual - target_loc) < max(60, target_loc // 20):
            break
        per_filler = 11 * modules  # approx lines added per +1 filler/module
        delta = (target_loc - actual) // per_filler
        if delta == 0:
            break
        filler = max(1, filler + delta)
        program = generate_program(modules=modules, filler_functions=filler,
                                   seed=seed)
    return program
