"""Direct unit tests for guard splitting and the runtime layout engine."""

from repro.analysis.guards import (
    GuardAnalyzer,
    is_null_literal,
    strip_assignments,
)
from repro.analysis.states import NullState
from repro.analysis.storage import Ref
from repro.annotations.kinds import EMPTY_ANNOTATIONS
from repro.frontend import cast as A
from repro.frontend.ctypes import (
    Array,
    FieldDecl,
    Pointer,
    Primitive,
    StructType,
)
from repro.runtime.layout import layout_of, sizeof_ctype

LOC = None


def ident(name):
    return A.Ident(LOC, name=name)


def null_lit():
    return A.Cast(LOC, to_type=Pointer(Primitive("void")),
                  operand=A.IntLit(LOC, value=0, spelling="0"))


def analyzer(predicates=None):
    predicates = predicates or {}

    def resolve(expr):
        if isinstance(expr, A.Ident):
            return Ref.local(expr.name)
        if isinstance(expr, A.Member) and isinstance(expr.obj, A.Ident):
            return Ref.local(expr.obj.name).arrow(expr.fieldname)
        return None

    return GuardAnalyzer(resolve, lambda name: predicates.get(name))


class TestNullLiteralRecognition:
    def test_zero(self):
        assert is_null_literal(A.IntLit(LOC, value=0, spelling="0"))

    def test_cast_of_zero(self):
        assert is_null_literal(null_lit())

    def test_nonzero(self):
        assert not is_null_literal(A.IntLit(LOC, value=1, spelling="1"))

    def test_identifier_is_not_literal(self):
        assert not is_null_literal(ident("p"))


class TestGuardSplitting:
    def test_not_equal_null(self):
        cond = A.Binary(LOC, op="!=", lhs=ident("p"), rhs=null_lit())
        t, f = analyzer().split(cond)
        assert t.facts[Ref.local("p")] is NullState.NOTNULL
        assert f.facts[Ref.local("p")] is NullState.ISNULL

    def test_equal_null(self):
        cond = A.Binary(LOC, op="==", lhs=ident("p"), rhs=null_lit())
        t, f = analyzer().split(cond)
        assert t.facts[Ref.local("p")] is NullState.ISNULL
        assert f.facts[Ref.local("p")] is NullState.NOTNULL

    def test_null_on_left(self):
        cond = A.Binary(LOC, op="==", lhs=null_lit(), rhs=ident("p"))
        t, _ = analyzer().split(cond)
        assert t.facts[Ref.local("p")] is NullState.ISNULL

    def test_bare_truth_test(self):
        t, f = analyzer().split(ident("p"))
        assert t.facts[Ref.local("p")] is NullState.NOTNULL
        assert f.facts[Ref.local("p")] is NullState.ISNULL

    def test_field_reference_guard(self):
        member = A.Member(LOC, obj=ident("c"), fieldname="vals", arrow=True)
        cond = A.Binary(LOC, op="!=", lhs=member, rhs=null_lit())
        t, _ = analyzer().split(cond)
        assert t.facts[Ref.local("c").arrow("vals")] is NullState.NOTNULL

    def test_truenull_predicate(self):
        call = A.Call(LOC, func=ident("isNull"), args=[ident("p")])
        t, f = analyzer({"isNull": "truenull"}).split(call)
        assert t.facts[Ref.local("p")] is NullState.ISNULL
        assert f.facts[Ref.local("p")] is NullState.NOTNULL

    def test_falsenull_predicate(self):
        call = A.Call(LOC, func=ident("nonNull"), args=[ident("p")])
        t, f = analyzer({"nonNull": "falsenull"}).split(call)
        assert t.facts[Ref.local("p")] is NullState.NOTNULL
        assert Ref.local("p") not in f.facts

    def test_unknown_predicate_learns_nothing(self):
        call = A.Call(LOC, func=ident("mystery"), args=[ident("p")])
        t, f = analyzer().split(call)
        assert t.facts == {} and f.facts == {}


def assign(target, value):
    return A.Assign(LOC, op="=", target=target, value=value)


class TestAssignmentGuards:
    """The value of ``(p = e)`` is p: guards refine the target."""

    def test_strip_single_assignment(self):
        expr = assign(ident("p"), ident("q"))
        assert strip_assignments(expr) is expr.target

    def test_strip_chained_assignment(self):
        inner = assign(ident("q"), null_lit())
        expr = assign(ident("p"), inner)
        # (p = (q = e)): the outermost target is what the guard refines.
        assert strip_assignments(expr) is expr.target

    def test_compound_assignment_not_stripped(self):
        expr = A.Assign(LOC, op="+=", target=ident("p"), value=ident("q"))
        assert strip_assignments(expr) is expr

    def test_non_assignment_passes_through(self):
        expr = ident("p")
        assert strip_assignments(expr) is expr

    def test_assignment_compared_to_null(self):
        cond = A.Binary(
            LOC, op="==",
            lhs=assign(ident("s"), ident("fresh")),
            rhs=null_lit(),
        )
        t, f = analyzer().split(cond)
        assert t.facts[Ref.local("s")] is NullState.ISNULL
        assert f.facts[Ref.local("s")] is NullState.NOTNULL

    def test_bare_truth_of_assignment(self):
        t, f = analyzer().split(assign(ident("s"), ident("fresh")))
        assert t.facts[Ref.local("s")] is NullState.NOTNULL
        assert f.facts[Ref.local("s")] is NullState.ISNULL


class TestLayout:
    def test_scalar_sizes(self):
        assert sizeof_ctype(Primitive("char")) == 1
        assert sizeof_ctype(Primitive("int")) == 4
        assert sizeof_ctype(Primitive("unsigned long")) == 8
        assert sizeof_ctype(Pointer(Primitive("char"))) == 8

    def test_struct_layout(self):
        s = StructType("pair")
        s.fields = [
            FieldDecl("a", Primitive("int"), EMPTY_ANNOTATIONS),
            FieldDecl("b", Pointer(Primitive("char")), EMPTY_ANNOTATIONS),
        ]
        lay = layout_of(s)
        assert lay.slot_count == 2
        assert lay.byte_size == 12
        assert lay.field("a").slot == 0
        assert lay.field("b").slot == 1
        assert lay.field("zzz") is None

    def test_array_layout(self):
        lay = layout_of(Array(Primitive("int"), 5))
        assert lay.slot_count == 5
        assert lay.byte_size == 20
        assert lay.element_count == 5

    def test_array_of_structs(self):
        s = StructType("cell")
        s.fields = [
            FieldDecl("x", Primitive("int"), EMPTY_ANNOTATIONS),
            FieldDecl("y", Primitive("int"), EMPTY_ANNOTATIONS),
        ]
        lay = layout_of(Array(s, 3))
        assert lay.slot_count == 6

    def test_recursive_struct_terminates(self):
        node = StructType("node")
        node.fields = [
            FieldDecl("v", Primitive("int"), EMPTY_ANNOTATIONS),
            FieldDecl("next", Pointer(node), EMPTY_ANNOTATIONS),
        ]
        lay = layout_of(node)
        assert lay.slot_count == 2
        assert lay.byte_size == 12

    def test_union_takes_max(self):
        u = StructType("u", is_union=True)
        u.fields = [
            FieldDecl("i", Primitive("int"), EMPTY_ANNOTATIONS),
            FieldDecl("d", Primitive("double"), EMPTY_ANNOTATIONS),
        ]
        lay = layout_of(u)
        assert lay.byte_size == 8

    def test_layout_cached(self):
        s = StructType("cached")
        s.fields = [FieldDecl("x", Primitive("int"), EMPTY_ANNOTATIONS)]
        assert layout_of(s) is layout_of(s)
