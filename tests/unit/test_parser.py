"""Tests for the recursive-descent C parser."""

import subprocess
import sys

import pytest

from repro.frontend import cast as A
from repro.frontend import parse_source
from repro.frontend.ctypes import (
    Array,
    FunctionType,
    Pointer,
    Primitive,
    StructType,
    TypedefType,
    strip_typedefs,
)
from repro.frontend.parser import ParseError


def parse(text):
    unit, _, _ = parse_source(text, "t.c")
    return unit


def first_decl(text):
    unit = parse(text)
    decl = unit.items[0]
    assert isinstance(decl, A.Declaration)
    return decl.declarators[0]


def only_function(text):
    unit = parse(text)
    fns = unit.functions()
    assert len(fns) == 1
    return fns[0]


class TestDeclarations:
    def test_simple_int(self):
        d = first_decl("int x;")
        assert d.name == "x"
        assert isinstance(d.ctype, Primitive)
        assert d.ctype.name == "int"

    def test_pointer(self):
        d = first_decl("char *p;")
        assert isinstance(d.ctype, Pointer)
        assert d.ctype.to == Primitive("char")

    def test_pointer_to_pointer(self):
        d = first_decl("char **pp;")
        assert isinstance(d.ctype, Pointer)
        assert isinstance(d.ctype.to, Pointer)

    def test_unsigned_long(self):
        d = first_decl("unsigned long ul;")
        assert d.ctype.name == "unsigned long"

    def test_multi_word_order_insensitive(self):
        assert first_decl("long unsigned x;").ctype.name == "unsigned long"
        assert first_decl("int long x;").ctype.name == "long"

    def test_array(self):
        d = first_decl("int a[10];")
        assert isinstance(d.ctype, Array)
        assert d.ctype.size == 10

    def test_array_of_pointers(self):
        d = first_decl("char *a[4];")
        assert isinstance(d.ctype, Array)
        assert isinstance(d.ctype.of, Pointer)

    def test_pointer_to_array(self):
        d = first_decl("char (*p)[4];")
        assert isinstance(d.ctype, Pointer)
        assert isinstance(d.ctype.to, Array)

    def test_function_returning_pointer(self):
        d = first_decl("void *f(int n);")
        assert isinstance(d.ctype, FunctionType)
        assert isinstance(d.ctype.ret, Pointer)

    def test_function_pointer(self):
        d = first_decl("int (*fp)(char c);")
        assert isinstance(d.ctype, Pointer)
        assert isinstance(d.ctype.to, FunctionType)

    def test_multiple_declarators(self):
        unit = parse("int a, *b, c[2];")
        decl = unit.items[0]
        names = [d.name for d in decl.declarators]
        assert names == ["a", "b", "c"]
        assert isinstance(decl.declarators[1].ctype, Pointer)

    def test_storage_classes(self):
        unit = parse("extern int e; static int s;")
        assert unit.items[0].storage == "extern"
        assert unit.items[1].storage == "static"

    def test_initializer(self):
        d = first_decl("int x = 42;")
        assert isinstance(d.init, A.IntLit)
        assert d.init.value == 42

    def test_brace_initializer(self):
        d = first_decl("int a[2] = {1, 2};")
        assert isinstance(d.init, A.InitList)
        assert len(d.init.items) == 2

    def test_variadic_function(self):
        d = first_decl("int printf(char *fmt, ...);")
        assert d.ctype.variadic

    def test_void_parameter_list(self):
        d = first_decl("int f(void);")
        assert d.ctype.params == []
        assert not d.ctype.old_style

    def test_old_style_empty_params(self):
        d = first_decl("int f();")
        assert d.ctype.old_style


class TestTypedefs:
    def test_typedef_then_use(self):
        unit = parse("typedef unsigned long size_t;\nsize_t n;")
        d = unit.items[1].declarators[0]
        assert isinstance(d.ctype, TypedefType)
        assert d.ctype.name == "size_t"

    def test_typedef_pointer(self):
        unit = parse("typedef struct _s { int x; } *sp;\nsp v;")
        d = unit.items[1].declarators[0]
        actual = strip_typedefs(d.ctype)
        assert isinstance(actual, Pointer)
        assert isinstance(strip_typedefs(actual.to), StructType)

    def test_typedef_annotations_carried(self):
        unit = parse("typedef /*@null@*/ char *maybe;\nmaybe m;")
        d = unit.items[1].declarators[0]
        assert isinstance(d.ctype, TypedefType)
        assert "null" in d.ctype.annotations.names


class TestStructsAndEnums:
    def test_struct_fields(self):
        unit = parse("struct point { int x; int y; };")
        decl = unit.items[0]
        # tag-only declaration has no declarators but registers the type
        assert decl.declarators == []

    def test_struct_variable(self):
        d = first_decl("struct point { int x; int y; } p;")
        st = strip_typedefs(d.ctype)
        assert isinstance(st, StructType)
        assert [f.name for f in st.fields] == ["x", "y"]

    def test_self_referential_struct(self):
        d = first_decl("struct node { int v; struct node *next; } n;")
        st = strip_typedefs(d.ctype)
        next_field = st.field_named("next")
        assert isinstance(next_field.ctype, Pointer)
        assert strip_typedefs(next_field.ctype.to) is st

    def test_union(self):
        d = first_decl("union u { int i; char c; } v;")
        assert strip_typedefs(d.ctype).is_union

    def test_field_annotations(self):
        d = first_decl("struct s { /*@null@*/ char *p; } v;")
        fld = strip_typedefs(d.ctype).field_named("p")
        assert "null" in fld.annotations.names

    def test_enum_values(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE } c;")
        d = unit.items[0].declarators[0]
        et = strip_typedefs(d.ctype)
        assert et.enumerators == {"RED": 0, "GREEN": 5, "BLUE": 6}

    def test_bitfields_accepted(self):
        d = first_decl("struct flags { unsigned a : 1; unsigned b : 2; } f;")
        st = strip_typedefs(d.ctype)
        assert len(st.fields) == 2


class TestConstantFolding:
    """Array sizes and enumerators fold with C's operators (the ones the
    interpreter and #if compute with); what C leaves undefined folds to
    unknown, never to an exception."""

    @staticmethod
    def enum_value(expr):
        unit = parse(f"enum {{ X = {expr} }} e;")
        return strip_typedefs(unit.items[0].declarators[0].ctype).enumerators["X"]

    @staticmethod
    def array_size(text):
        decl = parse(text).items[-1].declarators[0]
        return strip_typedefs(decl.ctype).size

    @pytest.mark.parametrize("expr, value", [
        ("-7 / 2", -3), ("-7 % 2", -1), ("7 / -2", -3), ("7 % -2", 1),
        ("'\\x41'", 65), ("'\\101'", 65), ("'\\0'", 0), ("'\\n'", 10),
        ("'\\xff'", 255), ("'\\377'", 255),
        ("1 ? 2 : 1 / 0", 2), ("0 && 1 / 0", 0), ("1 || 1 << -1", 1),
        ("3 >= 2", 1), ("(char) 2 * 3", 6), ("~0", -1),
    ])
    def test_enumerators_fold_with_c_semantics(self, expr, value):
        assert self.enum_value(expr) == value

    @pytest.mark.parametrize("expr", [
        "1 / 0", "5 % 0", "1 << -1", "1 << 1099511627776", "1 >> 64",
    ])
    def test_an_undefined_enumerator_keeps_its_implicit_value(self, expr):
        assert self.enum_value(expr) == 0

    def test_an_undefined_array_size_is_unknown(self):
        assert self.array_size("int a[1 << 1099511627776];") is None

    def test_sizeof_folds_by_the_layout_rules(self):
        assert self.array_size(
            "int a[sizeof(union { char c; double d; })];"
        ) == 8
        assert self.array_size(
            "struct T { double d[4]; char c; };\nint a[sizeof(struct T)];"
        ) == 33

    def test_sizeof_of_a_struct_containing_itself_is_unknown(self):
        assert self.array_size(
            "struct S { struct S s; int x; };\nint a[sizeof(struct S)];"
        ) is None

    def test_sizeof_folds_leave_the_layout_cache_alone(self):
        from repro.runtime import layout

        before = len(layout._CACHE)
        for n in range(5):
            self.array_size(
                f"struct T{n} {{ int v[{n + 1}]; }};\n"
                f"int a[sizeof(struct T{n})];"
            )
        assert len(layout._CACHE) == before

    def test_import_repro_does_not_load_the_interpreter(self):
        code = "import sys, repro; sys.exit('repro.runtime' in sys.modules)"
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_a_malformed_constant_is_a_parse_error(self):
        errors = parse_errors_of("int x = 089;\nint y;")
        assert len(errors) == 1
        assert "malformed integer constant '089'" in str(errors[0])

    @pytest.mark.parametrize("literal, escape", [
        ("'\\x1ff'", "\\x1ff"), ("'\\777'", "\\777"),
        ('"\\x110000"', "\\x110000"), ('"ok" "\\x100"', "\\x100"),
    ])
    def test_an_escape_above_0xff_is_a_parse_error(self, literal, escape):
        # C99 6.4.4.4p9: a numeric escape must fit in an unsigned char.
        errors = parse_errors_of(f"int x = sizeof {literal};\nint y;")
        assert len(errors) == 1
        assert f"escape sequence '{escape}' out of range" in str(errors[0])


class TestAnnotationsOnDeclarations:
    def test_param_annotation(self):
        f = only_function("void f(/*@null@*/ char *p) { }")
        assert "null" in f.params[0].annotations.names

    def test_return_annotation(self):
        unit = parse("extern /*@null@*/ /*@only@*/ void *mk(void);")
        d = unit.items[0].declarators[0]
        assert set(d.annotations.names) == {"null", "only"}

    def test_multiword_annotation_comment(self):
        unit = parse("extern /*@null out only@*/ void *m(unsigned long s);")
        d = unit.items[0].declarators[0]
        assert set(d.annotations.names) == {"null", "out", "only"}

    def test_global_annotation(self):
        d = first_decl("extern /*@only@*/ char *gname;")
        assert "only" in d.annotations.names

    def test_incompatible_annotations_reported(self):
        _, _, problems = parse_source("extern /*@null@*/ /*@notnull@*/ char *p;", "t.c")
        assert any("incompatible" in p.description for p in problems)

    def test_unrecognized_annotation_reported(self):
        _, _, problems = parse_source("extern /*@bogus@*/ char *p;", "t.c")
        assert any("unrecognized" in p.description for p in problems)

    def test_globals_clause(self):
        code = "extern int g;\nvoid f(void) /*@globals g@*/ { }"
        unit = parse(code)
        f = unit.functions()[0]
        assert [g.name for g in f.globals_list] == ["g"]

    def test_globals_clause_undef(self):
        code = "extern int g;\nvoid f(void) /*@globals undef g@*/ { }"
        f = parse(code).functions()[0]
        assert f.globals_list[0].undef


class TestStatements:
    def test_if_else(self):
        f = only_function("void f(int x) { if (x) x = 1; else x = 2; }")
        stmt = f.body.items[0]
        assert isinstance(stmt, A.If)
        assert stmt.orelse is not None

    def test_while(self):
        f = only_function("void f(int x) { while (x) x = x - 1; }")
        assert isinstance(f.body.items[0], A.While)

    def test_do_while(self):
        f = only_function("void f(int x) { do { x = 1; } while (x); }")
        assert isinstance(f.body.items[0], A.DoWhile)

    def test_for(self):
        f = only_function("void f(void) { int i; for (i = 0; i < 3; i++) ; }")
        stmt = f.body.items[1]
        assert isinstance(stmt, A.For)
        assert stmt.cond is not None
        assert stmt.step is not None

    def test_switch_cases(self):
        code = """void f(int x) {
            switch (x) {
            case 1: x = 10; break;
            default: x = 0;
            }
        }"""
        f = only_function(code)
        sw = f.body.items[0]
        assert isinstance(sw, A.Switch)
        cases = [i for i in sw.body.items if isinstance(i, A.Case)]
        assert len(cases) == 2
        assert cases[1].value is None

    def test_return_value(self):
        f = only_function("int f(void) { return 7; }")
        ret = f.body.items[0]
        assert isinstance(ret, A.Return)
        assert ret.value.value == 7

    def test_goto_and_label(self):
        f = only_function("void f(void) { goto out; out: ; }")
        assert isinstance(f.body.items[0], A.Goto)
        assert isinstance(f.body.items[1], A.Label)

    def test_break_continue(self):
        f = only_function("void f(int x) { while (x) { if (x) break; continue; } }")
        body = f.body.items[0].body
        assert isinstance(body.items[0].then, A.Break)
        assert isinstance(body.items[1], A.Continue)

    def test_block_end_location(self):
        f = only_function("void f(void)\n{\n  ;\n}\n")
        assert f.body.end_location.line == 4

    def test_local_declarations(self):
        f = only_function("void f(void) { int x; char *p; x = 1; }")
        decls = [i for i in f.body.items if isinstance(i, A.Declaration)]
        assert len(decls) == 2


class TestExpressions:
    def expr(self, text):
        f = only_function(f"void f(int a, int b, int *p) {{ {text}; }}")
        stmt = f.body.items[0]
        assert isinstance(stmt, A.ExprStmt)
        return stmt.expr

    def test_precedence_mul_over_add(self):
        e = self.expr("a = 1 + 2 * 3")
        assert isinstance(e.value, A.Binary)
        assert e.value.op == "+"
        assert e.value.rhs.op == "*"

    def test_assignment_right_associative(self):
        e = self.expr("a = b = 1")
        assert isinstance(e.value, A.Assign)

    def test_ternary(self):
        e = self.expr("a = b ? 1 : 2")
        assert isinstance(e.value, A.Ternary)

    def test_logical_operators(self):
        e = self.expr("a = a && b || a")
        assert e.value.op == "||"

    def test_unary_deref_and_addr(self):
        e = self.expr("a = *p")
        assert isinstance(e.value, A.Unary)
        assert e.value.op == "*"
        e2 = self.expr("p = &a")
        assert e2.value.op == "&"

    def test_postfix_increment(self):
        e = self.expr("a++")
        assert isinstance(e, A.Unary)
        assert e.op == "p++"

    def test_member_access(self):
        f = only_function(
            "struct s { int x; };\n"
            "void f(struct s v, struct s *q) { v.x = 1; q->x = 2; }"
        )
        dot = f.body.items[0].expr.target
        arrow = f.body.items[1].expr.target
        assert isinstance(dot, A.Member) and not dot.arrow
        assert isinstance(arrow, A.Member) and arrow.arrow

    def test_cast(self):
        e = self.expr("p = (int *) 0")
        assert isinstance(e.value, A.Cast)

    def test_sizeof_type_and_expr(self):
        assert isinstance(self.expr("a = sizeof(int)").value, A.SizeofType)
        assert isinstance(self.expr("a = sizeof(a)").value, A.SizeofExpr)

    def test_sizeof_deref(self):
        e = self.expr("a = sizeof(*p)")
        assert isinstance(e.value, A.SizeofExpr)

    def test_call_with_args(self):
        f = only_function("extern int g(int, int);\nvoid f(int a) { g(a, 2); }")
        call = f.body.items[0].expr
        assert isinstance(call, A.Call)
        assert len(call.args) == 2

    def test_index(self):
        f = only_function("void f(int *p) { p[3] = 1; }")
        assert isinstance(f.body.items[0].expr.target, A.Index)

    def test_comma_expression(self):
        e = self.expr("a = 1, b = 2")
        assert isinstance(e, A.Comma)

    def test_string_concatenation(self):
        f = only_function('extern void g(char *);\nvoid f(void) { g("ab" "cd"); }')
        arg = f.body.items[0].expr.args[0]
        assert isinstance(arg, A.StringLit)
        assert arg.value == "abcd"

    @pytest.mark.parametrize("literal, value", [
        ('"\\x41"', "A"), ('"\\101"', "A"), ('"\\x41" "\\101"', "AA"),
        ('"a\\tb\\0"', "a\tb\0"), ('"\\1012"', "A2"), ('"\\"\\\\"', '"\\'),
    ])
    def test_string_escapes(self, literal, value):
        assert self.expr(literal).value == value


def parse_errors_of(text):
    from repro.frontend.preprocessor import Preprocessor
    from repro.frontend.source import SourceManager
    from repro.frontend.parser import Parser

    pp = Preprocessor(SourceManager())
    toks = pp.preprocess_text(text, "t.c")
    parser = Parser(toks, "t.c")
    parser.parse_translation_unit()
    return parser.parse_errors


class TestParseErrors:
    def test_missing_semicolon(self):
        assert parse_errors_of("int x")

    def test_unterminated_block(self):
        assert parse_errors_of("void f(void) { int x;")

    def test_nested_function_rejected(self):
        errors = parse_errors_of("void f(void) { void g(void) { } }")
        assert any("nested function" in str(e) for e in errors)

    def test_error_has_location(self):
        errors = parse_errors_of("void f(void) {\n  int x\n}")
        assert errors and errors[0].location.line >= 2


class TestWalk:
    def test_walk_visits_subtree(self):
        unit = parse("void f(int x) { if (x) x = 1; }")
        nodes = list(A.walk(unit))
        assert any(isinstance(n, A.If) for n in nodes)
        assert any(isinstance(n, A.Assign) for n in nodes)


class TestErrorRecovery:
    def test_parsing_continues_after_a_bad_declaration(self):
        unit, _, _ = parse_source(
            "int before(int x) { return x; }\n"
            "int broken(int x) { return + ; }\n"
            "int after(int x) { return x; }\n",
            "rec.c",
        )
        names = [f.name for f in unit.functions()]
        assert names == ["before", "after"]

    def test_errors_recorded_with_locations(self):
        from repro.frontend.preprocessor import Preprocessor
        from repro.frontend.source import SourceManager
        from repro.frontend.parser import Parser

        pp = Preprocessor(SourceManager())
        toks = pp.preprocess_text("int a;\nint broken( { ;\nint b;\n", "e.c")
        parser = Parser(toks, "e.c")
        unit = parser.parse_translation_unit()
        assert parser.parse_errors
        assert parser.parse_errors[0].location.line >= 2

    def test_recovery_makes_progress_on_garbage(self):
        unit, _, _ = parse_source("= = = = ;\nint ok;\n", "g.c")
        # must terminate and still see the following declaration
        assert any(
            d.name == "ok"
            for decl in unit.declarations()
            for d in decl.declarators
        )
