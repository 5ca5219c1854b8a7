"""Null-pointer checking behaviour (paper section 4, 'Null Pointers')."""

import pytest

from repro import Flags, check_source
from repro.messages.message import MessageCode

NOIMP = Flags.from_args(["-allimponly"])


def codes(source, flags=NOIMP):
    return [m.code for m in check_source(source, "t.c", flags=flags).messages]


def texts(source, flags=NOIMP):
    return [m.text for m in check_source(source, "t.c", flags=flags).messages]


class TestDereference:
    def test_deref_possibly_null_param(self):
        src = "int f(/*@null@*/ int *p) { return *p; }"
        assert MessageCode.NULL_DEREF in codes(src)

    @pytest.mark.parametrize("decl", [
        "extern /*@null@*/ char *gp;", "extern char * /*@null@*/ gp;",
    ])
    def test_null_global_either_side_of_the_star(self, decl):
        src = f"{decl}\nchar f(void) {{ return *gp; }}"
        assert texts(src) == ["Dereference of possibly null pointer gp: *gp"]

    @pytest.mark.parametrize("param", [
        "/*@null@*/ char *p", "char * /*@null@*/ p",
    ])
    def test_null_param_either_side_of_the_star(self, param):
        src = f"char f({param}) {{ return *p; }}"
        assert texts(src) == ["Dereference of possibly null pointer p: *p"]

    def test_deref_after_comparison_guard(self):
        src = """int f(/*@null@*/ int *p) {
            if (p != NULL) { return *p; }
            return 0;
        }"""
        assert codes(src) == []

    def test_deref_after_bare_truth_test(self):
        src = "int f(/*@null@*/ int *p) { if (p) { return *p; } return 0; }"
        assert codes(src) == []

    def test_deref_in_wrong_branch(self):
        src = """int f(/*@null@*/ int *p) {
            if (p == NULL) { return *p; }
            return 0;
        }"""
        assert MessageCode.NULL_DEREF in codes(src)

    def test_negated_guard(self):
        src = "int f(/*@null@*/ int *p) { if (!p) { return 0; } return *p; }"
        assert codes(src) == []

    def test_double_negation_guards_the_true_branch(self):
        src = "int f(/*@null@*/ int *p) { if (!!p) { return *p; } return 0; }"
        assert codes(src) == []
        src = "int f(/*@null@*/ int *p) { if (!!p) { return 0; } return *p; }"
        assert MessageCode.NULL_DEREF in codes(src)

    def test_arrow_access_message_shape(self):
        src = """struct s { int v; };
        int f(/*@null@*/ struct s *p) { return p->v; }"""
        msgs = texts(src)
        assert any(m.startswith("Arrow access from possibly null pointer p") for m in msgs)

    def test_index_of_possibly_null(self):
        src = "int f(/*@null@*/ int *p) { return p[0]; }"
        msgs = texts(src)
        assert any("Index of possibly null pointer" in m for m in msgs)

    def test_guard_with_and_short_circuit(self):
        src = "int f(/*@null@*/ int *p) { if (p != NULL && *p > 0) return 1; return 0; }"
        assert codes(src) == []

    def test_guard_with_or_on_false_branch(self):
        src = """int f(/*@null@*/ int *p) {
            if (p == NULL || *p == 0) { return 0; }
            return *p;
        }"""
        assert codes(src) == []

    def test_assert_guard(self):
        src = """#include <assert.h>
        int f(/*@null@*/ int *p) { assert(p != NULL); return *p; }"""
        assert codes(src) == []

    def test_unannotated_param_assumed_notnull(self):
        src = "int f(int *p) { return *p; }"
        assert codes(src) == []

    def test_malloc_result_possibly_null(self):
        src = """#include <stdlib.h>
        void f(void) { int *p = (int *) malloc(sizeof(int)); *p = 1; free(p); }"""
        assert MessageCode.NULL_DEREF in codes(src)

    def test_malloc_result_checked(self):
        src = """#include <stdlib.h>
        void f(void) {
            int *p = (int *) malloc(sizeof(int));
            if (p == NULL) { exit(1); }
            *p = 1;
            free(p);
        }"""
        assert codes(src) == []

    def test_relnull_deref_allowed(self):
        src = "int f(/*@relnull@*/ int *p) { return *p; }"
        assert codes(src) == []

    def test_null_reported_once_per_ref(self):
        src = """struct s { int a; int b; };
        int f(/*@null@*/ struct s *p) { return p->a + p->b; }"""
        assert codes(src).count(MessageCode.NULL_DEREF) == 1


class TestNullPredicates:
    def test_truenull_guard(self):
        src = """extern /*@truenull@*/ int isNull(/*@null@*/ char *x);
        char f(/*@null@*/ char *p) { if (!isNull(p)) { return *p; } return 'x'; }"""
        assert codes(src) == []

    def test_falsenull_guard(self):
        src = """extern /*@falsenull@*/ int nonNull(/*@null@*/ char *x);
        char f(/*@null@*/ char *p) { if (nonNull(p)) { return *p; } return 'x'; }"""
        assert codes(src) == []

    def test_truenull_true_branch_still_null(self):
        src = """extern /*@truenull@*/ int isNull(/*@null@*/ char *x);
        char f(/*@null@*/ char *p) { if (isNull(p)) { return *p; } return 'x'; }"""
        assert MessageCode.NULL_DEREF in codes(src)


class TestNullAtInterfaces:
    def test_possibly_null_passed_as_notnull_param(self):
        src = """extern void use(char *p);
        void f(/*@null@*/ char *p) { use(p); }"""
        assert MessageCode.NULL_PARAM in codes(src)

    def test_null_literal_passed_as_notnull_param(self):
        src = "extern void use(char *p);\nvoid f(void) { use(NULL); }"
        assert MessageCode.NULL_PARAM in codes(src)

    def test_null_ok_for_null_param(self):
        src = """extern void use(/*@null@*/ char *p);
        void f(/*@null@*/ char *p) { use(p); use(NULL); }"""
        assert codes(src) == []

    def test_figure2_global_null_at_exit(self):
        src = """extern char *gname;
        void setName(/*@null@*/ char *pname) { gname = pname; }"""
        result = check_source(src, "sample.c", flags=NOIMP)
        assert [m.code for m in result.messages] == [MessageCode.NULL_RET_GLOBAL]
        msg = result.messages[0]
        assert "non-null global gname referencing null storage" in msg.text
        assert msg.subs[0].text == "Storage gname may become null"

    def test_global_reassigned_before_exit_ok(self):
        src = """extern char *gname;
        void setName(/*@null@*/ char *pname) {
            gname = pname;
            gname = "fallback";
        }"""
        assert codes(src) == []

    def test_null_annotated_global_ok(self):
        src = """extern /*@null@*/ char *gname;
        void setName(/*@null@*/ char *pname) { gname = pname; }"""
        assert codes(src) == []

    def test_possibly_null_return_as_notnull(self):
        src = "char *f(/*@null@*/ char *p) { return p; }"
        assert MessageCode.NULL_RET_VALUE in codes(src)

    def test_null_return_annotated_ok(self):
        src = "/*@null@*/ char *f(/*@null@*/ char *p) { return p; }"
        assert codes(src) == []

    def test_null_field_derivable_from_return(self):
        src = """#include <stdlib.h>
        typedef struct { /*@null@*/ char *name; int n; } rec;
        rec *mk(void) {
            rec *r = (rec *) malloc(sizeof(rec));
            if (r == NULL) { exit(1); }
            r->name = NULL;
            r->n = 0;
            return r;
        }"""
        # name is annotated null: deriving null storage is fine.
        assert MessageCode.NULL_RET_VALUE not in codes(src)

    def test_unannotated_null_field_derivable_from_return(self):
        src = """#include <stdlib.h>
        typedef struct { char *name; int n; } rec;
        rec *mk(void) {
            rec *r = (rec *) malloc(sizeof(rec));
            if (r == NULL) { exit(1); }
            r->name = NULL;
            r->n = 0;
            return r;
        }"""
        result = check_source(src, "erc.c", flags=NOIMP)
        assert any(
            "derivable from return value" in m.text for m in result.messages
        )


class TestTernaryGuards:
    """The ?: condition guards each arm exactly like an if/else."""

    def test_guard_and_deref_in_true_arm(self):
        src = ("int f(/*@null@*/ int *p) "
               "{ return (p != NULL && *p > 0) ? 1 : 0; }")
        assert codes(src) == []

    def test_bare_truth_guard_in_true_arm(self):
        src = "int f(/*@null@*/ int *p) { return p ? *p : 0; }"
        assert codes(src) == []

    def test_negated_guard_in_false_arm(self):
        src = "int f(/*@null@*/ int *p) { return (p == NULL) ? 0 : *p; }"
        assert codes(src) == []

    def test_deref_in_wrong_arm_is_definitely_null(self):
        src = "int f(/*@null@*/ int *p) { return p ? 0 : *p; }"
        msgs = texts(src)
        assert any("null pointer" in m for m in msgs)

    def test_unrelated_condition_does_not_guard(self):
        src = "int f(/*@null@*/ int *p, int c) { return c ? *p : 0; }"
        assert MessageCode.NULL_DEREF in codes(src)

    def test_guarded_index_in_true_arm(self):
        src = "int f(/*@null@*/ int *p) { return (p != NULL) ? p[0] : 0; }"
        assert codes(src) == []

    def test_nested_ternary_keeps_refinement(self):
        src = ("int f(/*@null@*/ int *p) "
               "{ return p ? (*p > 0 ? *p : 1) : 0; }")
        assert codes(src) == []


class TestAssignmentInCondition:
    """if ((p = e) == NULL) refines p, the assignment's target."""

    def test_malloc_eq_null_early_return(self):
        src = """#include <stdlib.h>
        int f(void) {
            char *s;
            if ((s = (char *) malloc(4)) == NULL) { return 1; }
            s[0] = 'x';
            free(s);
            return 0;
        }"""
        assert codes(src) == []

    def test_malloc_ne_null_block_form(self):
        src = """#include <stdlib.h>
        int f(void) {
            char *t;
            if ((t = (char *) malloc(4)) != NULL) {
                t[0] = 'y';
                free(t);
                return 0;
            }
            return 1;
        }"""
        assert codes(src) == []

    def test_bare_truth_of_assignment(self):
        src = """#include <stdlib.h>
        int f(void) {
            char *s;
            if ((s = (char *) malloc(4))) {
                s[0] = 'x';
                free(s);
            }
            return 0;
        }"""
        assert codes(src) == []

    def test_use_outside_the_guarded_branch_still_flagged(self):
        src = """#include <stdlib.h>
        int f(void) {
            char *s;
            if ((s = (char *) malloc(4)) != NULL) { free(s); return 0; }
            s[0] = 'x';
            return 1;
        }"""
        assert MessageCode.NULL_DEREF in codes(src)

    def test_unchecked_malloc_still_flagged(self):
        src = """#include <stdlib.h>
        int f(void) {
            char *s;
            s = (char *) malloc(4);
            s[0] = 'x';
            free(s);
            return 0;
        }"""
        assert MessageCode.NULL_DEREF in codes(src)
