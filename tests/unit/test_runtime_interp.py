"""Tests for the C interpreter (the run-time checking baseline)."""

import pytest

from repro.runtime.heap import RuntimeEventKind
from repro.runtime.interp import InterpreterError, run_program


def run(body, entry="main", **kw):
    return run_program(body, entry=entry, **kw)


class TestBasics:
    def test_return_value_is_exit_code(self):
        assert run("int main(void) { return 7; }").exit_code == 7

    def test_arithmetic(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int a = 6;
            int b = 7;
            printf("%d", a * b + (a - b) / 1 + (a % b));
            return 0;
        }""")
        assert res.output == "47"

    def test_division_by_zero_exits(self):
        res = run("int main(void) { int z = 0; return 1 / z; }")
        assert res.exit_code == 136

    @pytest.mark.parametrize("body", [
        "int z = 0; return 1 % z;",
        "int x = 1; x /= 0; return x;",
        "int x = 1; x %= 0; return x;",
    ])
    def test_every_zero_divisor_exits(self, body):
        # x op= y computes as x op y, so x /= 0 traps like x / 0.
        assert run(f"int main(void) {{ {body} }}").exit_code == 136

    @pytest.mark.parametrize("body, value", [
        ("return -7 / 2 == -3 && -7 % 2 == -1;", 1),
        ("int x = -7; x /= 2; return x;", -3),
        ("int x = -7; x %= 2; return x;", -1),
        ("return '\\x41' + '\\101';", 130),
        ('return "\\x41"[0] + "\\101"[0];', 130),
        ('char *s = "\\x41\\101"; return s[0] + s[1] + s[2];', 130),
    ])
    def test_c_division_and_character_escapes(self, body, value):
        assert run(f"int main(void) {{ {body} }}").exit_code == value

    def test_bitwise_and_shifts(self):
        res = run("""#include <stdio.h>
        int main(void) {
            printf("%d %d %d %d", 6 & 3, 6 | 3, 6 ^ 3, 1 << 4);
            return 0;
        }""")
        assert res.output == "2 7 5 16"

    def test_comparisons_and_logic(self):
        res = run("""#include <stdio.h>
        int main(void) {
            printf("%d%d%d%d", 1 < 2, 2 <= 1, 3 == 3, !0 && (0 || 1));
            return 0;
        }""")
        assert res.output == "1011"

    def test_ternary_and_comma(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int x = (1, 2, 3);
            printf("%d", x > 2 ? 10 : 20);
            return 0;
        }""")
        assert res.output == "10"

    def test_char_arithmetic(self):
        res = run("""#include <stdio.h>
        int main(void) { printf("%c", 'a' + 1); return 0; }""")
        assert res.output == "b"


class TestControlFlow:
    def test_while_loop(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int i = 0;
            int total = 0;
            while (i < 5) { total += i; i++; }
            printf("%d", total);
            return 0;
        }""")
        assert res.output == "10"

    def test_for_with_break_continue(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int i;
            int total = 0;
            for (i = 0; i < 100; i++) {
                if (i % 2 == 0) { continue; }
                if (i > 8) { break; }
                total += i;
            }
            printf("%d", total);
            return 0;
        }""")
        assert res.output == "16"  # 1+3+5+7

    def test_do_while(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int i = 10;
            do { i--; } while (i > 3);
            printf("%d", i);
            return 0;
        }""")
        assert res.output == "3"

    def test_switch_with_fallthrough(self):
        res = run("""#include <stdio.h>
        static int classify(int x) {
            switch (x) {
            case 0:
            case 1: return 10;
            case 2: return 20;
            default: return 30;
            }
        }
        int main(void) {
            printf("%d %d %d %d", classify(0), classify(1), classify(2),
                   classify(9));
            return 0;
        }""")
        assert res.output == "10 10 20 30"

    def test_recursion(self):
        res = run("""#include <stdio.h>
        static int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
        int main(void) { printf("%d", fib(12)); return 0; }""")
        assert res.output == "144"

    def test_step_budget(self):
        res = run("int main(void) { while (1) { } return 0; }",
                  max_steps=10_000)
        assert res.exit_code == -1


class TestPointersAndStructs:
    def test_address_of_and_deref(self):
        res = run("""#include <stdio.h>
        static void bump(int *p) { *p = *p + 1; }
        int main(void) {
            int x = 41;
            bump(&x);
            printf("%d", x);
            return 0;
        }""")
        assert res.output == "42"

    def test_struct_by_value_copy(self):
        res = run("""#include <stdio.h>
        typedef struct { int a; int b; } pair;
        static pair swap(pair p) {
            pair q;
            q.a = p.b;
            q.b = p.a;
            return q;
        }
        int main(void) {
            pair p;
            pair q;
            p.a = 1;
            p.b = 2;
            q = swap(p);
            printf("%d%d%d%d", p.a, p.b, q.a, q.b);
            return 0;
        }""")
        assert res.output == "1221"

    def test_array_indexing(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) { a[i] = i * i; }
            printf("%d %d", a[2], a[3]);
            return 0;
        }""")
        assert res.output == "4 9"

    def test_pointer_arithmetic(self):
        res = run("""#include <stdio.h>
        int main(void) {
            int a[3];
            int *p = a;
            a[0] = 10; a[1] = 20; a[2] = 30;
            p = p + 2;
            printf("%d %d", *p, *(p - 1));
            return 0;
        }""")
        assert res.output == "30 20"

    def test_linked_structure(self):
        res = run("""#include <stdlib.h>
        #include <stdio.h>
        typedef struct _n { int v; struct _n *next; } node;
        int main(void) {
            node *a = (node *) malloc(sizeof(node));
            node *b = (node *) malloc(sizeof(node));
            if (a == NULL || b == NULL) { return 1; }
            a->v = 1; a->next = b;
            b->v = 2; b->next = NULL;
            printf("%d%d", a->v, a->next->v);
            free(b);
            free(a);
            return 0;
        }""")
        assert res.output == "12"
        assert res.leaked_blocks == 0

    def test_globals(self):
        res = run("""#include <stdio.h>
        int counter = 100;
        static void tick(void) { counter++; }
        int main(void) { tick(); tick(); printf("%d", counter); return 0; }""")
        assert res.output == "102"


class TestStringsAndStdlib:
    def test_string_functions(self):
        res = run("""#include <string.h>
        #include <stdio.h>
        int main(void) {
            char buf[32];
            strcpy(buf, "hello");
            strcat(buf, " world");
            printf("%s %d %d", buf, (int) strlen(buf),
                   strcmp(buf, "hello world"));
            return 0;
        }""")
        assert res.output == "hello world 11 0"

    def test_sprintf(self):
        res = run("""#include <stdio.h>
        int main(void) {
            char buf[64];
            sprintf(buf, "%d-%s", 7, "seven");
            printf("%s", buf);
            return 0;
        }""")
        assert res.output == "7-seven"

    def test_calloc_zeroed(self):
        res = run("""#include <stdlib.h>
        #include <stdio.h>
        int main(void) {
            int *p = (int *) calloc(4, sizeof(int));
            printf("%d", p[0] + p[3]);
            free(p);
            return 0;
        }""")
        assert res.output == "0"
        assert not res.events

    def test_realloc_preserves(self):
        res = run("""#include <stdlib.h>
        #include <stdio.h>
        int main(void) {
            int *p = (int *) malloc(2 * sizeof(int));
            p[0] = 5;
            p[1] = 6;
            p = (int *) realloc(p, 4 * sizeof(int));
            printf("%d%d", p[0], p[1]);
            free(p);
            return 0;
        }""")
        assert res.output == "56"
        assert res.leaked_blocks == 0

    def test_atoi_and_abs(self):
        res = run("""#include <stdlib.h>
        #include <stdio.h>
        int main(void) {
            printf("%d %d", atoi("-42x"), abs(-7));
            return 0;
        }""")
        assert res.output == "-42 7"

    def test_rand_deterministic(self):
        a = run("""#include <stdlib.h>
        #include <stdio.h>
        int main(void) { srand(1); printf("%d %d", rand(), rand()); return 0; }""")
        b = run("""#include <stdlib.h>
        #include <stdio.h>
        int main(void) { srand(1); printf("%d %d", rand(), rand()); return 0; }""")
        assert a.output == b.output

    def test_assert_failure_aborts(self):
        res = run("""#include <assert.h>
        int main(void) { assert(1 == 2); return 0; }""")
        assert res.exit_code == 134

    def test_exit(self):
        res = run("""#include <stdlib.h>
        int main(void) { exit(3); }""")
        assert res.exit_code == 3


class TestDetectors:
    def test_null_deref_detected(self):
        res = run("""#include <stdlib.h>
        int main(void) { int *p = NULL; return *p; }""")
        assert RuntimeEventKind.NULL_DEREF in res.error_kinds()
        assert res.exit_code == 139

    def test_leak_detected_with_site(self):
        res = run("""#include <stdlib.h>
        int main(void) { (void) malloc(16); return 0; }""")
        leaks = res.events_of(RuntimeEventKind.LEAK)
        assert len(leaks) == 1
        assert leaks[0].alloc_site.line == 2

    def test_uninit_read_detected(self):
        res = run("int main(void) { int x; return x; }")
        assert RuntimeEventKind.UNINIT_READ in res.error_kinds()

    def test_clean_program_has_no_events(self):
        res = run("""#include <stdlib.h>
        int main(void) {
            char *p = (char *) malloc(4);
            if (p == NULL) { return 1; }
            p[0] = 'x';
            free(p);
            return 0;
        }""")
        assert res.events == []

    def test_goto_unsupported(self):
        with pytest.raises(InterpreterError):
            run("int main(void) { goto out; out: return 0; }")

    def test_unknown_function(self):
        with pytest.raises(InterpreterError):
            run("int main(void) { return mystery(); }")


class TestEntryPoints:
    def test_alternate_entry(self):
        res = run("""#include <stdio.h>
        void scenario_a(void) { printf("a"); }
        void scenario_b(void) { printf("b"); }
        int main(void) { scenario_a(); scenario_b(); return 0; }""",
                  entry="scenario_b")
        assert res.output == "b"


class TestMoreBuiltins:
    def test_memcmp_strrchr_strstr(self):
        res = run(r"""#include <string.h>
        #include <stdio.h>
        int main(void) {
            printf("%d %s %s", memcmp("ab", "ac", 2),
                   strrchr("ababa", 'b'), strstr("haystack", "st"));
            return 0;
        }""")
        assert res.output == "-1 ba stack"

    def test_ctype_functions(self):
        res = run(r"""#include <ctype.h>
        #include <stdio.h>
        int main(void) {
            printf("%d%d%d%d %c%c", isalpha('a'), isdigit('7'),
                   isupper('Q'), islower('q'),
                   (char) toupper('x'), (char) tolower('Y'));
            return 0;
        }""")
        assert res.output == "1111 Xy"

    def test_strchr_returns_null_on_miss(self):
        res = run(r"""#include <string.h>
        #include <stdio.h>
        int main(void) {
            if (strchr("abc", 'z') == NULL) { printf("missing"); }
            return 0;
        }""")
        assert res.output == "missing"

    def test_enum_constants_at_runtime(self):
        res = run(r"""#include <stdio.h>
        typedef enum { LOW = 1, MID = 5, HIGH = 9 } level;
        int main(void) {
            level v = MID;
            printf("%d %d", v, v == HIGH ? 1 : 0);
            return 0;
        }""")
        assert res.output == "5 0"

    def test_global_initializers(self):
        res = run(r"""#include <stdio.h>
        int base = 40;
        int offsets[3] = {1, 2, 3};
        int main(void) { printf("%d", base + offsets[1]); return 0; }""")
        assert res.output == "42"

    def test_nested_struct_access(self):
        res = run(r"""#include <stdio.h>
        typedef struct { int x; int y; } point;
        typedef struct { point a; point b; } segment;
        int main(void) {
            segment s;
            s.a.x = 1; s.a.y = 2; s.b.x = 3; s.b.y = 4;
            printf("%d", s.a.x + s.a.y + s.b.x + s.b.y);
            return 0;
        }""")
        assert res.output == "10"

    def test_array_of_structs(self):
        res = run(r"""#include <stdio.h>
        typedef struct { int v; } cell;
        int main(void) {
            cell cells[3];
            int i;
            int total = 0;
            for (i = 0; i < 3; i++) { cells[i].v = i * 10; }
            for (i = 0; i < 3; i++) { total += cells[i].v; }
            printf("%d", total);
            return 0;
        }""")
        assert res.output == "30"


class TestStructCopySemantics:
    def test_struct_copy_through_deref(self):
        res = run(r"""#include <stdio.h>
        typedef struct { int a; int b; } pair;
        static void clone(pair *dst, pair *src) { *dst = *src; }
        int main(void) {
            pair x;
            pair y;
            x.a = 7; x.b = 8;
            clone(&y, &x);
            x.a = 0;
            printf("%d%d", y.a, y.b);
            return 0;
        }""")
        assert res.output == "78"

    def test_struct_assignment_is_a_copy(self):
        res = run(r"""#include <stdio.h>
        typedef struct { int v; } box;
        int main(void) {
            box a;
            box b;
            a.v = 5;
            b = a;
            a.v = 9;
            printf("%d%d", a.v, b.v);
            return 0;
        }""")
        assert res.output == "95"

    def test_struct_in_struct_copy(self):
        res = run(r"""#include <stdio.h>
        typedef struct { int x; int y; } point;
        typedef struct { point p; int tag; } node;
        int main(void) {
            node n;
            node m;
            n.p.x = 1; n.p.y = 2; n.tag = 3;
            m = n;
            printf("%d%d%d", m.p.x, m.p.y, m.tag);
            return 0;
        }""")
        assert res.output == "123"


class TestContainedFailures:
    """What the interpreter cannot model is an InterpreterError at the
    expression, never a raw Python exception out of the interpreter: the
    difftest runner and the fuzz smoke accept only contained failures."""

    _NODE = "typedef struct node { int v; struct node *next; } node;\n"

    @pytest.mark.parametrize("expr", [
        "-a", "~a", "a == 1", "a << 1", "a + 1", "x += a",
    ])
    def test_struct_operand_is_an_interpreter_error(self, expr):
        source = (
            self._NODE
            + "int main(void) {\n  node a;\n  int x = 0;\n  a.v = 1;\n"
            + f"  x = 0;\n  {expr};\n  return x;\n}}\n"
        )
        with pytest.raises(InterpreterError) as caught:
            run(source)
        assert caught.value.location is not None
        assert caught.value.location.line == 7

    def test_fuzz_redeclared_struct_loop_is_contained(self):
        # The fuzz smoke's falsifying program: `i` is redeclared as a
        # struct, so the loop compares a struct with an int.
        source = self._NODE + (
            "int main(void) {\n  int i = 0;\n  node i = 0;\n"
            "  while (i < 10) { i = i + 1; }\n  return 0;\n}\n"
        )
        with pytest.raises(InterpreterError, match="struct operand"):
            run(source)

    def test_compound_assignment_evaluates_only_its_operator(self):
        # Computing every operator for `x += -1` would also compute
        # `x << -1`, which raises.
        res = run("int main(void) { int x = 5; x += -1; x -= -2; return x; }")
        assert res.exit_code == 6

    @pytest.mark.parametrize("body", [
        "int x = 5; return x << -1;",
        "int x = 5; x >>= -2; return x;",
    ])
    def test_negative_shift_count_is_an_interpreter_error(self, body):
        with pytest.raises(InterpreterError, match="negative shift count"):
            run(f"int main(void) {{ {body} }}")

    def test_exit_while_initializing_globals_is_contained(self):
        # Another fuzz-smoke find: a global initializer calls a function
        # that dereferences null, before run() can catch the exit.
        source = (
            "int f(void) { int *p = 0; return *p; }\n"
            "int g = f();\n"
            "int main(void) { return g; }\n"
        )
        with pytest.raises(
            InterpreterError, match="initializing 'g'"
        ) as caught:
            run(source)
        assert caught.value.location.line == 2

    @pytest.mark.parametrize("stmt, problem", [
        ("x = g + 1;", "function operand of '\\+'"),
        ("x += g;", "function operand of '\\+'"),
        ("x = -g;", "non-arithmetic operand"),
        ("break;", "break outside a loop"),
        ("continue;", "continue outside a loop"),
        ("x = x << 1099511627776;", "shift count 1099511627776 exceeds 63"),
        ("x <<= 64;", "shift count 64 exceeds 63"),
    ])
    def test_uncomputable_operations_are_interpreter_errors(self, stmt, problem):
        source = (
            "int g(void) { return 1; }\n"
            f"int main(void) {{\n  int x = 1;\n  {stmt}\n  return x;\n}}\n"
        )
        with pytest.raises(InterpreterError, match=problem) as caught:
            run(source)
        assert caught.value.location.line == 4

    @pytest.mark.parametrize("call", [
        # A fuzz-smoke find: NULL expands to a parenthesized pointer, so
        # `malloc NULL` is a call with a pointer for the size.
        "char *p = malloc NULL;",
        "char *p = calloc(2, NULL);",
        "char *p = realloc(NULL, NULL);",
    ])
    def test_pointer_for_an_allocation_size_is_contained(self, call):
        source = (
            "#include <stdlib.h>\n"
            f"int main(void) {{\n  {call}\n  return 0;\n}}\n"
        )
        with pytest.raises(InterpreterError, match="expected a size") as caught:
            run(source)
        assert caught.value.location.line == 3

    def test_function_designators_still_compare_for_equality(self):
        source = (
            "int g(void) { return 1; }\n"
            "int main(void) { int (*f)(void) = g; return (f == g) + (f != 0); }"
        )
        assert run(source).exit_code == 2

    @pytest.mark.parametrize("body", [
        "int main(void) { return sizeof(node); }",
        "node g;\nint main(void) { return 0; }",
        "int main(void) { node x; return 0; }",
    ])
    def test_struct_containing_itself_is_contained(self, body):
        # A fuzz-smoke find too: such a struct has no layout.
        with pytest.raises(InterpreterError, match="nesting too deep"):
            run("typedef struct node { int v; struct node self; } node;\n"
                + body)
