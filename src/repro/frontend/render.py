"""Render AST expressions back to C-like text for messages.

LCLint messages quote the offending code ("Only storage gname not
released before assignment: gname = pname"), so the checker needs a
compact expression printer. Output favours readability over exact
round-tripping (redundant parentheses are dropped where precedence
allows).
"""

from __future__ import annotations

from . import cast as A
from .parser import Parser

#: Binding strength, loosest first. The binary operators keep the
#: parser's precedence table, above ``,``, ``=`` and ``?:``.
_PRECEDENCE = {
    ",": 1, "=": 2, "?:": 3,
    **{op: prec + 3 for op, prec in Parser._BIN_PREC.items()},
    "unary": 14, "postfix": 15, "primary": 16,
}


def render_expr(expr: A.Expr) -> str:
    text, _ = _render(expr)
    return text


def _parenthesize(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _render(expr: A.Expr) -> tuple[str, int]:
    if isinstance(expr, A.Ident):
        return expr.name, _PRECEDENCE["primary"]
    if isinstance(expr, A.IntLit):
        return expr.spelling or str(expr.value), _PRECEDENCE["primary"]
    if isinstance(expr, A.FloatLit):
        return expr.spelling or str(expr.value), _PRECEDENCE["primary"]
    if isinstance(expr, A.CharLit):
        return expr.spelling or f"'{chr(expr.value)}'", _PRECEDENCE["primary"]
    if isinstance(expr, A.StringLit):
        return expr.spelling or f'"{expr.value}"', _PRECEDENCE["primary"]
    if isinstance(expr, A.Member):
        inner, prec = _render(expr.obj)
        op = "->" if expr.arrow else "."
        base = _parenthesize(inner, prec, _PRECEDENCE["postfix"])
        return f"{base}{op}{expr.fieldname}", _PRECEDENCE["postfix"]
    if isinstance(expr, A.Index):
        inner, prec = _render(expr.array)
        base = _parenthesize(inner, prec, _PRECEDENCE["postfix"])
        return f"{base}[{render_expr(expr.index)}]", _PRECEDENCE["postfix"]
    if isinstance(expr, A.Call):
        inner, prec = _render(expr.func)
        base = _parenthesize(inner, prec, _PRECEDENCE["postfix"])
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{base}({args})", _PRECEDENCE["postfix"]
    if isinstance(expr, A.Unary):
        if expr.op in ("p++", "p--"):
            inner, prec = _render(expr.operand)
            base = _parenthesize(inner, prec, _PRECEDENCE["postfix"])
            return f"{base}{expr.op[1:]}", _PRECEDENCE["postfix"]
        inner, prec = _render(expr.operand)
        base = _parenthesize(inner, prec, _PRECEDENCE["unary"])
        # Avoid token gluing: '-' before '-0' must not print as '--0'
        # (pre-decrement), '&' before '&x' as '&&x', etc.
        sep = " " if base and base[0] == expr.op[-1] else ""
        return f"{expr.op}{sep}{base}", _PRECEDENCE["unary"]
    if isinstance(expr, A.Binary):
        my_prec = _PRECEDENCE[expr.op]
        lhs, lp = _render(expr.lhs)
        rhs, rp = _render(expr.rhs)
        left = _parenthesize(lhs, lp, my_prec)
        right = _parenthesize(rhs, rp, my_prec + 1)
        return f"{left} {expr.op} {right}", my_prec
    if isinstance(expr, A.Assign):
        lhs, lp = _render(expr.target)
        rhs, rp = _render(expr.value)
        left = _parenthesize(lhs, lp, _PRECEDENCE["unary"])
        right = _parenthesize(rhs, rp, _PRECEDENCE["="])
        return f"{left} {expr.op} {right}", _PRECEDENCE["="]
    if isinstance(expr, A.Ternary):
        # The condition sits at logical-or level in the grammar, so a
        # nested conditional (or assignment/comma) there needs parens;
        # the else-branch is right-associative and does not.
        cond, cond_prec = _render(expr.cond)
        cond_text = _parenthesize(cond, cond_prec, _PRECEDENCE["?:"] + 1)
        other, other_prec = _render(expr.other)
        other_text = _parenthesize(other, other_prec, _PRECEDENCE["?:"])
        return (
            f"{cond_text} ? {render_expr(expr.then)} : {other_text}",
            _PRECEDENCE["?:"],
        )
    if isinstance(expr, A.Cast):
        inner, prec = _render(expr.operand)
        base = _parenthesize(inner, prec, _PRECEDENCE["unary"])
        return f"({expr.to_type}) {base}", _PRECEDENCE["unary"]
    if isinstance(expr, A.SizeofExpr):
        return f"sizeof({render_expr(expr.operand)})", _PRECEDENCE["unary"]
    if isinstance(expr, A.SizeofType):
        return f"sizeof({expr.of_type})", _PRECEDENCE["unary"]
    if isinstance(expr, A.Comma):
        return ", ".join(render_expr(e) for e in expr.exprs), _PRECEDENCE[","]
    if isinstance(expr, A.InitList):
        inner = ", ".join(render_expr(e) for e in expr.items)
        return "{" + inner + "}", _PRECEDENCE["primary"]
    return f"<{type(expr).__name__}>", _PRECEDENCE["primary"]
