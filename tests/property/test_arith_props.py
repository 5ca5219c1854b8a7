"""Property tests for the one C arithmetic core.

``arith.binary`` is checked against C99 6.5.5 as the standard words it,
not against the code: ``(a/b)*b + a%b == a`` with the quotient truncated
toward zero. The cross-layer test then checks that the three places a C
integer expression is evaluated -- a ``#if`` line, an enumerator fold and
the interpreter's ``return`` -- give it the same value.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.frontend import arith
from repro.frontend.arith import ArithmeticFault
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.source import SourceManager
from repro.frontend.tokens import TokenKind
from repro.runtime.interp import run_program

_NONZERO = st.integers().filter(lambda b: b != 0)


class TestC99Division:
    @given(st.integers(), _NONZERO)
    @example(-7, 2)
    @example(7, -2)
    def test_quotient_and_remainder_follow_6_5_5(self, a, b):
        q = arith.binary("/", a, b)
        r = arith.binary("%", a, b)
        assert q * b + r == a
        assert q == math.trunc(Fraction(a, b))  # truncated toward zero
        assert abs(r) < abs(b)
        assert r == 0 or (r < 0) == (a < 0)

    def test_the_motivating_pair(self):
        assert arith.binary("/", -7, 2) == -3
        assert arith.binary("%", -7, 2) == -1

    @given(st.integers(), st.sampled_from(["/", "%"]))
    def test_a_zero_divisor_faults(self, a, op):
        with pytest.raises(ArithmeticFault):
            arith.binary(op, a, 0)

    @given(st.integers(-2**70, 2**70), st.integers(0, 63))
    def test_shifts_in_range_scale_by_powers_of_two(self, a, count):
        assert arith.binary("<<", a, count) == a * 2**count
        assert arith.binary(">>", a, count) == a // 2**count

    @given(
        st.integers(),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=64)),
        st.sampled_from(["<<", ">>"]),
    )
    @example(1, 1099511627776, "<<")
    def test_a_shift_count_outside_0_to_63_faults(self, a, count, op):
        with pytest.raises(ArithmeticFault):
            arith.binary(op, a, count)

    @given(st.integers(), st.integers())
    def test_comparisons_and_logic_yield_0_or_1(self, a, b):
        for op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            assert arith.binary(op, a, b) in (0, 1)


# -- one value on every layer ---------------------------------------------------

_OPS = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
        "==", "!=", "<", ">", "<=", ">=", "&&", "||"]


def _value(tree):
    """The C value of a generated tree, short-circuiting like C."""
    kind = tree[0]
    if kind == "int":
        return tree[1]
    if kind == "unary":
        return arith.unary(tree[1], _value(tree[2]))
    if kind == "?:":
        return _value(tree[2]) if _value(tree[1]) else _value(tree[3])
    op, lhs = tree[1], _value(tree[2])
    if (op == "&&" and not lhs) or (op == "||" and lhs):
        return int(bool(lhs))
    return arith.binary(op, lhs, _value(tree[3]))


def _spell(tree):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "unary":
        return f"({tree[1]} {_spell(tree[2])})"
    if kind == "?:":
        return f"({_spell(tree[1])} ? {_spell(tree[2])} : {_spell(tree[3])})"
    return f"({_spell(tree[2])} {tree[1]} {_spell(tree[3])})"


_TREES = st.recursive(
    st.tuples(st.just("int"), st.integers(0, 70)),
    lambda sub: st.one_of(
        st.tuples(st.just("unary"), st.sampled_from(["-", "~", "!"]), sub),
        st.tuples(st.just("binary"), st.sampled_from(_OPS), sub, sub),
        st.tuples(st.just("?:"), sub, sub, sub),
    ),
    max_leaves=8,
)


def _if_holds(condition):
    toks = Preprocessor(SourceManager()).preprocess_text(
        f"#if {condition}\nyes\n#endif\n", "if.c"
    )
    return any(t.kind is TokenKind.IDENT for t in toks)


def _enum_value(expr):
    toks = Preprocessor(SourceManager()).preprocess_text(
        f"enum {{ X = {expr} }};\n", "enum.c"
    )
    parser = Parser(toks, "enum.c")
    parser.parse_translation_unit()
    assert not parser.parse_errors
    return parser.scope.enum_consts["X"]


class TestOneValueOnEveryLayer:
    @settings(max_examples=80, deadline=None)
    @given(_TREES)
    @example(("binary", "/", ("unary", "-", ("int", 7)), ("int", 2)))
    @example(("binary", "%", ("unary", "-", ("int", 7)), ("int", 2)))
    def test_if_enum_and_interpreter_agree(self, tree):
        try:
            expected = _value(tree)
        except ArithmeticFault:
            assume(False)
        expr = _spell(tree)
        assert _if_holds(f"{expr} == ({expected})")
        assert _enum_value(expr) == expected
        program = f"int main(void) {{ return {expr}; }}\n"
        assert run_program(program).exit_code == expected

    @pytest.mark.parametrize("expr, expected", [
        ("-7 / 2", -3), ("-7 % 2", -1), ("'\\x41'", 65), ("'\\101'", 65),
    ])
    def test_truncation_and_numeric_escapes_agree(self, expr, expected):
        assert _if_holds(f"{expr} == {expected}")
        assert _enum_value(expr) == expected
        program = f"int main(void) {{ return {expr}; }}\n"
        assert run_program(program).exit_code == expected
